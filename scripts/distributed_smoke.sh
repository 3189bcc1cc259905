#!/usr/bin/env bash
# Unit-queue determinism smoke test.
#
# Runs the same campaign three times — serially (units run inline), on
# a two-worker process pool (--jobs 2), and as a coordinator with two
# worker processes — and diffs the pool's and the coordinator's
# artifacts byte-for-byte against the serial ones.  Any scheduling,
# framing, or merge-order bug in a transport of the unit queue shows up
# as a diff here.  summary.txt is excluded (it reports wall clock and
# worker counts, which legitimately differ); the coordinator's must
# count both workers (jobs=2).
#
# A fourth leg kills a pool worker mid-unit: Fig. 7 on --jobs 2 with
# --checkpoint-dir, where REPRO_FAULT_INJECT ends the worker running
# Baseline n=400 batch 0 right after its event-2 checkpoint.  The unit
# must be re-run from that checkpoint (resumed, never discarded), leave
# the checkpoint directory empty, and write the serial run's artifacts.
# The broken pool also loses the unit on the other worker, which resumes
# too when it had already checkpointed: the resume count is 1 or 2.
#
# A fifth leg kills a whole serial campaign: fig07 + fig10 with
# --checkpoint-dir, ended one event into fig10's NO-PEERING n=200 unit
# (fig07 is complete and flushed by then).  Rerunning the same command
# must restore fig07 from the campaign state, resume the unit from its
# checkpoint, leave the checkpoint directory empty, and write an
# uninterrupted run's artifacts.
set -euo pipefail

SCALE=smoke
PORT="${1:-7799}"
WORK="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

export PYTHONPATH=src

echo "== serial campaign (scale=$SCALE) =="
python -m repro.experiments.cli campaign --scale "$SCALE" -o "$WORK/serial"

echo "== pool campaign: --jobs 2 =="
python -m repro.experiments.cli campaign --scale "$SCALE" --jobs 2 -o "$WORK/pool"

echo "== distributed campaign: coordinator + 2 workers =="
python -m repro.experiments.cli serve --scale "$SCALE" -o "$WORK/dist" \
    --bind "127.0.0.1:$PORT" --lease-timeout 30 &
SERVE_PID=$!
# Workers retry with backoff, so they may start before the port is up.
python -m repro.experiments.cli worker "127.0.0.1:$PORT" --quiet &
python -m repro.experiments.cli worker "127.0.0.1:$PORT" --quiet &
wait "$SERVE_PID"
# summary.txt counts the workers that ran units, not the default jobs=1.
grep -qF "execution: jobs=2," "$WORK/dist/summary.txt" \
    || { echo "FAIL: serve summary does not count both workers:"; cat "$WORK/dist/summary.txt"; exit 1; }

echo "== diffing artifacts =="
for run in pool dist; do
    diff "$WORK/serial/campaign.json" "$WORK/$run/campaign.json"
    diff "$WORK/serial/campaign.md" "$WORK/$run/campaign.md"
done
echo "OK: pool and distributed campaign.json and campaign.md are byte-identical to serial"

echo "== kill and resume: fig07 serial, then --jobs 2 --checkpoint-dir with a worker killed =="
python -m repro.experiments.cli campaign --scale "$SCALE" --experiment fig07 \
    -o "$WORK/fig07-serial"
REPRO_FAULT_INJECT="BASELINE:400:0:2:$WORK/fault-marker" \
    python -m repro.experiments.cli campaign --scale "$SCALE" --experiment fig07 \
    --jobs 2 --checkpoint-dir "$WORK/checkpoints" -o "$WORK/fig07-resumed" \
    2> "$WORK/fig07-resumed.err"
cat "$WORK/fig07-resumed.err" >&2
test -e "$WORK/fault-marker" || { echo "FAIL: the fault never fired"; exit 1; }
grep -qF "worker died while running sweep unit BASELINE n=400 batch 0/1" \
    "$WORK/fig07-resumed.err" || { echo "FAIL: the killed unit was not re-run"; exit 1; }
diff "$WORK/fig07-serial/campaign.json" "$WORK/fig07-resumed/campaign.json"
diff "$WORK/fig07-serial/campaign.md" "$WORK/fig07-resumed/campaign.md"
if [ -n "$(ls -A "$WORK/checkpoints")" ]; then
    echo "FAIL: checkpoints left behind: $(ls "$WORK/checkpoints")"
    exit 1
fi
TELEMETRY="$WORK/fig07-resumed/telemetry.jsonl"
if grep -qF '"name":"checkpoint.discarded"' "$TELEMETRY"; then
    echo "FAIL: a checkpoint was discarded instead of resumed"
    exit 1
fi
grep -qxE '\{"kind":"counter","name":"checkpoint.resumes","value":[12]\}' "$TELEMETRY" \
    || { echo "FAIL: telemetry does not count the resume"; exit 1; }
echo "OK: the killed unit resumed from its checkpoint, artifacts byte-identical to serial"

echo "== kill and resume a campaign: fig07 + fig10 serial, killed in fig10, rerun as is =="
python -m repro.experiments.cli campaign --scale "$SCALE" --experiment fig07 \
    --experiment fig10 -o "$WORK/campaign-reference"
CAMPAIGN=(python -m repro.experiments.cli campaign --scale "$SCALE" --experiment fig07
          --experiment fig10 --checkpoint-dir "$WORK/campaign-checkpoints"
          -o "$WORK/campaign-resumed")
if REPRO_FAULT_INJECT="NO-PEERING:200:0:1:$WORK/campaign-fault-marker" \
        "${CAMPAIGN[@]}" > "$WORK/campaign-killed.out" 2>&1; then
    echo "FAIL: the campaign survived its fault"
    exit 1
fi
test -e "$WORK/campaign-fault-marker" || { echo "FAIL: the fault never fired"; exit 1; }
"${CAMPAIGN[@]}" 2> "$WORK/campaign-resumed.err"
cat "$WORK/campaign-resumed.err" >&2
grep -qxF "resuming: 1 completed experiment(s) restored (fig07)" \
    "$WORK/campaign-resumed.err" || { echo "FAIL: fig07 was not restored"; exit 1; }
grep -qxF '{"kind":"counter","name":"checkpoint.resumes","value":1}' \
    "$WORK/campaign-resumed/telemetry.jsonl" \
    || { echo "FAIL: telemetry does not count one unit resume"; exit 1; }
if [ -n "$(ls -A "$WORK/campaign-checkpoints")" ]; then
    echo "FAIL: checkpoints left behind: $(ls "$WORK/campaign-checkpoints")"
    exit 1
fi
diff "$WORK/campaign-reference/campaign.json" "$WORK/campaign-resumed/campaign.json"
diff "$WORK/campaign-reference/campaign.md" "$WORK/campaign-resumed/campaign.md"
echo "OK: the rerun restored fig07 and resumed fig10's unit, artifacts byte-identical to an uninterrupted run"

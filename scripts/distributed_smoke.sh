#!/usr/bin/env bash
# Unit-queue determinism smoke test.
#
# Runs the same campaign three times — serially (units run inline), on
# a two-worker process pool (--jobs 2), and as a coordinator with two
# worker processes — and diffs the pool's and the coordinator's
# artifacts byte-for-byte against the serial ones.  Any scheduling,
# framing, or merge-order bug in a transport of the unit queue shows up
# as a diff here.  summary.txt is excluded (it reports wall clock and
# worker counts, which legitimately differ).
set -euo pipefail

SCALE="${REPRO_SCALE:-smoke}"
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

echo "== diffing artifacts =="
for run in pool dist; do
    diff "$WORK/serial/campaign.json" "$WORK/$run/campaign.json"
    diff "$WORK/serial/campaign.md" "$WORK/$run/campaign.md"
done
echo "OK: pool and distributed campaign.json and campaign.md are byte-identical to serial"

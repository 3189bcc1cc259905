#!/usr/bin/env bash
# Graph-partitioned determinism smoke test.
#
# Runs the same C-event experiment twice — serial and partitioned
# in-process (--partitions 2) — and diffs the churn artifacts
# byte-for-byte.  Any window-barrier, border-event ordering, or
# counter-merge bug in the partition mode shows up as a diff here.
set -euo pipefail

N="${PARTITION_SMOKE_N:-60}"
ORIGINS="${PARTITION_SMOKE_ORIGINS:-3}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

export PYTHONPATH=src

echo "== topology (BASELINE n=$N) =="
python -m repro.experiments.cli topology generate -n "$N" \
    --scenario BASELINE --seed 1 -o "$WORK/topo.json"

echo "== serial run =="
python -m repro.experiments.cli simulate "$WORK/topo.json" \
    --origins "$ORIGINS" --seed 1 --mrai 2 --churn-json "$WORK/serial.json"

echo "== partitioned run (2 in-process members) =="
python -m repro.experiments.cli simulate "$WORK/topo.json" \
    --origins "$ORIGINS" --seed 1 --mrai 2 --partitions 2 \
    --churn-json "$WORK/inprocess.json"

echo "== diff: serial vs in-process partitioned =="
diff "$WORK/serial.json" "$WORK/inprocess.json"
echo "identical"

echo "PASS: partitioned churn statistics are byte-identical to serial"

#!/usr/bin/env bash
# Measured-topology + long-memory analysis determinism smoke test.
#
# Exercises the repro.measured / repro.analysis subsystems end-to-end:
# imports the committed serial-1 fixture (plain and gzip'd, diffing the
# resulting topology JSON), simulates both copies (diffing the churn
# JSON: every verb reads an AS-relationship file through the one
# reader, compressed or not), checks the fidelity report is byte-stable
# across runs, then runs the long-memory analysis of a Poisson workload
# on the measured fixture topology twice (`analyze churn --topology`)
# and diffs the two JSON reports byte-for-byte.  Any seeding,
# pivot-sampling, bootstrap or serialization nondeterminism shows up as
# a diff here.
set -euo pipefail

FIXTURE="tests/topology/data/fixture_serial1.txt"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

export PYTHONPATH=src

echo "== import fixture (plain and gzip) =="
python -m repro.experiments.cli topology import "$FIXTURE" \
    -o "$WORK/plain.json" --report-json "$WORK/plain-report.json"
python -m repro.experiments.cli topology import "$FIXTURE.gz" \
    -o "$WORK/gz.json"
# The scenario name is the snapshot's label, without the .gz suffix, so
# the whole document — name, nodes, types, edges — is byte-identical.
diff "$WORK/plain.json" "$WORK/gz.json"
echo "identical"

echo "== simulate fixture (plain and gzip) =="
python -m repro.experiments.cli simulate "$FIXTURE" --origins 4 --seed 1 \
    --churn-json "$WORK/plain-churn.json"
python -m repro.experiments.cli simulate "$FIXTURE.gz" --origins 4 --seed 1 \
    --churn-json "$WORK/gz-churn.json"
diff "$WORK/plain-churn.json" "$WORK/gz-churn.json"
echo "identical"

echo "== fidelity report determinism =="
python -m repro.experiments.cli topology generate -n 150 --seed 1 \
    -o "$WORK/generated.json"
python -m repro.experiments.cli topology stats "$WORK/generated.json" \
    --against "$WORK/plain.json" --pivots 32 --json "$WORK/fidelity-a.json"
python -m repro.experiments.cli topology stats "$WORK/generated.json" \
    --against "$WORK/plain.json" --pivots 32 --json "$WORK/fidelity-b.json"
diff "$WORK/fidelity-a.json" "$WORK/fidelity-b.json"
echo "identical"

echo "== long-memory analysis on the measured fixture (run 1) =="
python -m repro.experiments.cli analyze churn --topology "$FIXTURE" \
    --seed 1 --json "$WORK/longmem1.json"

echo "== long-memory analysis on the measured fixture (run 2) =="
python -m repro.experiments.cli analyze churn --topology "$FIXTURE" \
    --seed 1 --json "$WORK/longmem2.json"

echo "== diff: report run 1 vs run 2 =="
diff "$WORK/longmem1.json" "$WORK/longmem2.json"
echo "identical"

echo "PASS: measured import and long-memory analysis are byte-deterministic"

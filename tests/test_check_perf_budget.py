"""scripts/check_perf_budget.py says which interpreter build recorded each table."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_perf_budget.py"
MARK = "[baseline recorded on another build]"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_perf_budget", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_table(path: Path, checker, interpreter=None) -> Path:
    """The smallest table that passes every check: each row 1, plus the
    few rows the invariants read."""
    table = {}
    for section, key in (
        checker.EXACT_COUNTERS
        + checker.CEILING_COUNTERS
        + checker.COST_METRICS
        + checker.THROUGHPUT_METRICS
    ):
        table.setdefault(section, {})[key] = 1
    table["wakeup_supersession"]["executed_pre_fix"] = 2
    table["prefix_churn"]["decisions_skipped"] = 11
    for phase in ("generate", "load", "save"):
        table["topology_build"][f"{phase}_us_per_link_n2000"] = 1
    table["checkpoint_cost"].update(rng_share=0.1, unit_overhead_ratio=1.0)
    if interpreter is not None:
        table["interpreter"] = interpreter
    path.write_text(json.dumps(table), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "baseline_build, current_build, marked",
    [
        ("CPython 3.11.2", "CPython 3.12.1", True),
        (None, "CPython 3.12.1", True),
        ("CPython 3.12.1", "CPython 3.12.1", False),
    ],
)
def test_builds_are_printed_and_hot_path_rows_marked(
    checker, tmp_path, capsys, baseline_build, current_build, marked
):
    baseline = _write_table(tmp_path / "baseline.json", checker, baseline_build)
    current = _write_table(tmp_path / "current.json", checker, current_build)
    assert checker.main(["--current", str(current), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert f"baseline build: {baseline_build or 'not recorded'}" in out
    assert f"current build: {current_build}" in out
    marked_rows = [line for line in out.splitlines() if MARK in line]
    assert len(marked_rows) == (4 if marked else 0)
    assert all(line.startswith("kernel_hot_path.") for line in marked_rows)

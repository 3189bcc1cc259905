"""``run.py --compare A.json B.json``: B against the base A.

Per workload and metric: both medians, the ratio B/A with its base, and
a verdict —

* ``ok``: B's median is not worse than A's by more than the bound;
* ``worse``: it is, or an exact counter differs;
* ``unresolved``: the spread between repetitions (of either file) is
  wider than the bound *and* the two ranges overlap, so the medians
  decide nothing;
* ``missing``: A has the workload or metric and B does not — a run that
  lost a measurement cannot pass;
* ``info``: a metric without a bound (per-layer timings, CPU seconds).

Exits non-zero on any ``worse`` or ``missing``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import stats
from metrics import E2E_METRICS, LAYER_METRICS


def verdict(spec: dict, base: dict, change: dict) -> str:
    """The verdict for one metric of one workload."""
    a, b = base["median"], change["median"]
    if spec.get("exact"):
        return "ok" if a == b else "worse"
    bound = spec.get("bound")
    if bound is None:
        return "info"
    lower_is_better = spec["better"] == "lower"
    if bound == 0.0:  # absolute: any worsening counts
        return "worse" if (b > a if lower_is_better else b < a) else "ok"
    a_values = base.get("values") or [a]
    b_values = change.get("values") or [b]
    overlap = min(a_values) <= max(b_values) and min(b_values) <= max(a_values)
    spread = max(stats.relative_range(a_values), stats.relative_range(b_values))
    if spread > bound and overlap:
        return "unresolved"
    if not a:
        return "ok" if not b else "worse"
    worsening = (b - a) / a if lower_is_better else (a - b) / a
    return "worse" if worsening > bound else "ok"


def compare_documents(base: dict, change: dict) -> List[Tuple[str, str, dict, dict, str]]:
    """Rows ``(workload, metric, base entry, change entry, verdict)``."""
    table = {**E2E_METRICS, **LAYER_METRICS}
    rows = []
    for workload, base_record in base["workloads"].items():
        change_record = change["workloads"].get(workload, {"metrics": {}})
        for metric, base_entry in base_record["metrics"].items():
            change_entry = change_record["metrics"].get(metric)
            if change_entry is None:
                rows.append((workload, metric, base_entry, {"median": None}, "missing"))
                continue
            rows.append(
                (workload, metric, base_entry, change_entry,
                 verdict(table.get(metric, {}), base_entry, change_entry))
            )
        if "work_units" in base_record:
            units, other = base_record["work_units"], change_record.get("work_units")
            outcome = "missing" if other is None else "ok" if units == other else "worse"
            rows.append((workload, "work_units", {"median": units}, {"median": other}, outcome))
    return rows


def format_rows(rows: List[Tuple[str, str, dict, dict, str]]) -> str:
    lines = [f"{'workload':<20} {'metric':<32} {'A':>12} {'B':>12}  {'B/A':>14}  verdict"]
    for workload, metric, base, change, outcome in rows:
        a, b = base["median"], change["median"]
        ratio = f"{b / a:.3f}x of {a:.4g}" if a and b is not None else "-"
        spread = max(
            stats.relative_range(base.get("values") or []),
            stats.relative_range(change.get("values") or []),
        )
        note = f" (spread {spread:.1%})" if outcome == "unresolved" else ""
        lines.append(
            f"{workload:<20} {metric:<32} {a:>12.6g} {b if b is not None else float('nan'):>12.6g}"
            f"  {ratio:>14}  {outcome}{note}"
        )
    return "\n".join(lines)


def main(base_path: Path, change_path: Path) -> int:
    base = json.loads(base_path.read_text(encoding="utf-8"))
    change = json.loads(change_path.read_text(encoding="utf-8"))
    for key in ("mode", "seed", "sizes"):
        if base.get(key) != change.get(key):
            print(f"error: nothing to compare: {key} is {base.get(key)!r} in {base_path} "
                  f"and {change.get(key)!r} in {change_path}")
            return 2
    rows = compare_documents(base, change)
    print(format_rows(rows))
    counts: Dict[str, int] = {}
    for *_, outcome in rows:
        counts[outcome] = counts.get(outcome, 0) + 1
    print("\n" + ", ".join(f"{count} {outcome}" for outcome, count in sorted(counts.items())))
    return 1 if counts.get("worse") or counts.get("missing") else 0

"""Plain-text reporting for experiment results.

Every figure experiment returns an :class:`ExperimentResult` holding the
data series the paper plots, the shape checks ("who wins, by roughly what
factor") and free-form notes.  ``to_text`` renders the same rows/series
the paper reports; ``to_markdown`` feeds EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence


@dataclasses.dataclass(frozen=True)
class ShapeCheck:
    """One paper claim verified against the measured data."""

    name: str
    passed: bool
    #: what the paper reports
    expected: str
    #: what we measured
    measured: str

    def render(self) -> str:
        """One status line."""
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: paper={self.expected} | measured={self.measured}"


@dataclasses.dataclass
class ExperimentResult:
    """Data + verdicts for one reproduced table or figure."""

    experiment_id: str
    title: str
    #: x-axis label (usually "n")
    x_label: str
    #: x values shared by all series
    x_values: List[float]
    #: series name → y values (aligned with x_values)
    series: Dict[str, List[float]]
    checks: List[ShapeCheck] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every shape check passed."""
        return all(check.passed for check in self.checks)

    def add_check(self, name: str, passed: bool, expected: str, measured: str) -> None:
        """Append a shape check."""
        self.checks.append(
            ShapeCheck(name=name, passed=passed, expected=expected, measured=measured)
        )

    def to_text(self) -> str:
        """Human-readable report: a table of series plus check verdicts."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(self._format_table())
        if self.checks:
            lines.append("shape checks:")
            lines.extend("  " + check.render() for check in self.checks)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Markdown rendering for EXPERIMENTS.md."""
        lines = [f"### {self.experiment_id} — {self.title}", ""]
        header = [self.x_label] + list(self.series)
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for i, x in enumerate(self.x_values):
            row = [_fmt(x)] + [_fmt(self.series[name][i]) for name in self.series]
            lines.append("| " + " | ".join(row) + " |")
        if self.checks:
            lines.append("")
            lines.append("| check | paper | measured | verdict |")
            lines.append("|---|---|---|---|")
            for check in self.checks:
                verdict = "✅" if check.passed else "❌"
                lines.append(
                    f"| {check.name} | {check.expected} | {check.measured} | {verdict} |"
                )
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        lines.append("")
        return "\n".join(lines)

    def _format_table(self) -> str:
        headers = [self.x_label] + list(self.series)
        rows: List[List[str]] = []
        for i, x in enumerate(self.x_values):
            rows.append([_fmt(x)] + [_fmt(self.series[name][i]) for name in self.series])
        return format_table(headers, rows)


def _fmt(value: float) -> str:
    """Compact numeric formatting for tables."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer() and abs(value) < 1e6):
        return str(int(value))
    if abs(value) >= 100:
        return f"{value:.1f}"
    if abs(value) >= 0.01:
        return f"{value:.3g}"
    return f"{value:.2e}"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in rows)
    return "\n".join(out)


def series_ratio(series: Sequence[float]) -> float:
    """Last / first — the total relative increase over a sweep."""
    if not series or series[0] == 0:
        return float("nan")
    return series[-1] / series[0]


def monotone_fraction(series: Sequence[float]) -> float:
    """Fraction of consecutive steps that increase (trend robustness)."""
    if len(series) < 2:
        return 1.0
    ups = sum(1 for a, b in zip(series, series[1:]) if b > a)
    return ups / (len(series) - 1)

"""Persistence for experiment results and raw sweeps.

Long campaigns (``--scale full`` / ``paper``) are expensive; storing
:class:`~repro.experiments.report.ExperimentResult` objects as JSON lets
reports be re-rendered, diffed across library versions, and aggregated
into EXPERIMENTS.md without re-simulating.

This module also (de)serializes full :class:`~repro.core.sweep.SweepResult`
objects — every measured float, per-node list and config knob — which is
what the on-disk sweep cache stores.  The round trip is exact: Python's
``json`` emits shortest-round-trip floats, so a reloaded sweep reproduces
byte-identical campaign artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.bgp.config import BGPConfig
from repro.core.cevent import CEventStats
from repro.core.factors import TypeFactors
from repro.core.sweep import SweepResult
from repro.errors import SerializationError
from repro.files import atomic_writer
from repro.experiments.report import ExperimentResult, ShapeCheck
from repro.topology.types import NodeType, Relationship

_FORMAT_VERSION = 1
_SWEEP_FORMAT_VERSION = 1


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-ready dict for one result."""
    return {
        "format_version": _FORMAT_VERSION,
        "experiment_id": result.experiment_id,
        "title": result.title,
        "x_label": result.x_label,
        "x_values": list(result.x_values),
        "series": {name: list(values) for name, values in result.series.items()},
        "checks": [
            {
                "name": check.name,
                "passed": check.passed,
                "expected": check.expected,
                "measured": check.measured,
            }
            for check in result.checks
        ],
        "notes": list(result.notes),
    }


def result_from_dict(data: dict) -> ExperimentResult:
    """Rebuild a result from :func:`result_to_dict` output."""
    try:
        version = data["format_version"]
        if version != _FORMAT_VERSION:
            raise SerializationError(f"unsupported result format version {version}")
        result = ExperimentResult(
            experiment_id=data["experiment_id"],
            title=data["title"],
            x_label=data["x_label"],
            x_values=[float(x) for x in data["x_values"]],
            series={
                name: [float(v) for v in values]
                for name, values in data["series"].items()
            },
            notes=[str(note) for note in data.get("notes", [])],
        )
        for check in data.get("checks", []):
            result.checks.append(
                ShapeCheck(
                    name=check["name"],
                    passed=bool(check["passed"]),
                    expected=check["expected"],
                    measured=check["measured"],
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed result document: {exc}") from exc
    return result


def config_to_dict(config: BGPConfig) -> dict:
    """JSON-ready dict for a :class:`BGPConfig` (enums as values)."""
    return config.to_dict()


def config_from_dict(data: dict) -> BGPConfig:
    """Rebuild a :class:`BGPConfig` from :func:`config_to_dict` output."""
    return BGPConfig.from_dict(data)


def _type_factors_to_dict(factors: TypeFactors) -> dict:
    def by_rel(mapping: Dict[Relationship, float]) -> dict:
        return {rel.value: mapping[rel] for rel in Relationship if rel in mapping}

    return {
        "node_type": factors.node_type.value,
        "node_count": factors.node_count,
        "events": factors.events,
        "u_total": factors.u_total,
        "u_by_rel": by_rel(factors.u_by_rel),
        "m_by_rel": by_rel(factors.m_by_rel),
        "q_by_rel": by_rel(factors.q_by_rel),
        "e_by_rel": by_rel(factors.e_by_rel),
        "per_node_updates": list(factors.per_node_updates),
    }


def _type_factors_from_dict(data: dict) -> TypeFactors:
    def by_rel(mapping: dict) -> Dict[Relationship, float]:
        return {Relationship(name): float(v) for name, v in mapping.items()}

    return TypeFactors(
        node_type=NodeType(data["node_type"]),
        node_count=int(data["node_count"]),
        events=int(data["events"]),
        u_total=float(data["u_total"]),
        u_by_rel=by_rel(data["u_by_rel"]),
        m_by_rel=by_rel(data["m_by_rel"]),
        q_by_rel=by_rel(data["q_by_rel"]),
        e_by_rel=by_rel(data["e_by_rel"]),
        per_node_updates=[float(v) for v in data["per_node_updates"]],
    )


def cevent_stats_to_dict(stats: CEventStats) -> dict:
    """JSON-ready dict for one size's :class:`CEventStats`."""

    def by_type(mapping: Dict[NodeType, float]) -> dict:
        return {t.value: mapping[t] for t in NodeType if t in mapping}

    return {
        "n": stats.n,
        "scenario": stats.scenario,
        "seed": stats.seed,
        "config": config_to_dict(stats.config),
        "origins": list(stats.origins),
        "per_type": {
            t.value: _type_factors_to_dict(factors)
            for t, factors in stats.per_type.items()
        },
        "down_updates_per_type": by_type(stats.down_updates_per_type),
        "up_updates_per_type": by_type(stats.up_updates_per_type),
        "mean_down_convergence": stats.mean_down_convergence,
        "mean_up_convergence": stats.mean_up_convergence,
        "measured_messages": stats.measured_messages,
        "wall_clock_seconds": stats.wall_clock_seconds,
    }


def cevent_stats_from_dict(data: dict) -> CEventStats:
    """Rebuild one size's stats from :func:`cevent_stats_to_dict` output."""

    def by_type(mapping: dict) -> Dict[NodeType, float]:
        return {NodeType(name): float(v) for name, v in mapping.items()}

    return CEventStats(
        n=int(data["n"]),
        scenario=str(data["scenario"]),
        seed=int(data["seed"]),
        config=config_from_dict(data["config"]),
        origins=[int(o) for o in data["origins"]],
        per_type={
            NodeType(name): _type_factors_from_dict(factors)
            for name, factors in data["per_type"].items()
        },
        down_updates_per_type=by_type(data["down_updates_per_type"]),
        up_updates_per_type=by_type(data["up_updates_per_type"]),
        mean_down_convergence=float(data["mean_down_convergence"]),
        mean_up_convergence=float(data["mean_up_convergence"]),
        measured_messages=int(data["measured_messages"]),
        wall_clock_seconds=float(data["wall_clock_seconds"]),
    )


def sweep_result_to_dict(sweep: SweepResult) -> dict:
    """JSON-ready dict for a full :class:`SweepResult`."""
    return {
        "format_version": _SWEEP_FORMAT_VERSION,
        "scenario": sweep.scenario,
        "sizes": list(sweep.sizes),
        "config": config_to_dict(sweep.config),
        "stats": [cevent_stats_to_dict(stats) for stats in sweep.stats],
    }


def sweep_result_from_dict(data: dict) -> SweepResult:
    """Rebuild a sweep from :func:`sweep_result_to_dict` output."""
    try:
        version = data["format_version"]
        if version != _SWEEP_FORMAT_VERSION:
            raise SerializationError(f"unsupported sweep format version {version}")
        return SweepResult(
            scenario=str(data["scenario"]),
            sizes=[int(n) for n in data["sizes"]],
            stats=[cevent_stats_from_dict(item) for item in data["stats"]],
            config=config_from_dict(data["config"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed sweep document: {exc}") from exc


def save_sweep(sweep: SweepResult, path: Union[str, Path]) -> None:
    """Write one sweep to a JSON file (atomically: tmp file + rename)."""
    with atomic_writer(path) as handle:
        json.dump(sweep_result_to_dict(sweep), handle, indent=1)


def load_sweep(path: Union[str, Path]) -> SweepResult:
    """Load a sweep previously written by :func:`save_sweep`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read sweep from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SerializationError("sweep file must contain a JSON object")
    return sweep_result_from_dict(data)


def save_results(results: List[ExperimentResult], path: Union[str, Path]) -> None:
    """Write a list of results to one JSON file."""
    payload = json.dumps([result_to_dict(r) for r in results], indent=1)
    Path(path).write_text(payload, encoding="utf-8")


def load_results(path: Union[str, Path]) -> List[ExperimentResult]:
    """Load results previously written by :func:`save_results`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read results from {path}: {exc}") from exc
    if not isinstance(data, list):
        raise SerializationError("results file must contain a JSON list")
    return [result_from_dict(item) for item in data]

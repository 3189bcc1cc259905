"""Measured snapshot sequences: growth sweeps on real topology series.

The paper's growth sweeps regenerate the topology at each size from the
generative model.  CAIDA publishes AS-relationship snapshots monthly, so
the same sweep can instead *replay measured growth*: load a dated
sequence of serial-1 files, run the identical per-topology C-event
experiment on each, and read churn versus (measured) size off the
results.

A sequence is just an ordered list of :class:`Snapshot` objects —
``label`` (the filename stem, which for CAIDA files is the date), the
imported graph, and its :class:`~repro.measured.serial1.ImportReport`.
Ordering is by label, which sorts dated CAIDA names chronologically.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.bgp.config import BGPConfig
from repro.errors import MeasuredImportError
from repro.measured.serial1 import ImportReport, load_serial1, snapshot_label
from repro.topology.graph import ASGraph
from repro.topology.serialization import SUFFIX_FORMATS


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """One imported snapshot of a measured topology series."""

    label: str
    path: Path
    graph: ASGraph
    report: ImportReport

    @property
    def n(self) -> int:
        """Number of ASes in this snapshot."""
        return len(self.graph)


def load_snapshot_sequence(
    source: Union[str, Path, Iterable[Union[str, Path]]],
    *,
    strict: bool = True,
) -> List[Snapshot]:
    """Load a measured topology time series.

    ``source`` is either a directory (every file in it whose suffix
    :data:`~repro.topology.serialization.SUFFIX_FORMATS` names an
    AS-relationship format, sorted by label) or an explicit iterable of
    paths (kept in the given order).  Raises :class:`MeasuredImportError`
    when the sequence is empty or any snapshot fails to import.
    """
    if isinstance(source, (str, Path)):
        root = Path(source)
        if not root.is_dir():
            raise MeasuredImportError(
                f"snapshot sequence source {root} is not a directory; "
                "pass an explicit list of files instead"
            )
        paths = sorted(
            (
                path
                for path in root.iterdir()
                if path.is_file() and path.suffix in SUFFIX_FORMATS
            ),
            key=snapshot_label,
        )
    else:
        paths = [Path(p) for p in source]
    if not paths:
        raise MeasuredImportError(f"no snapshots found in {source}")
    snapshots: List[Snapshot] = []
    for path in paths:
        graph, report = load_serial1(path, strict=strict)
        snapshots.append(
            Snapshot(
                label=snapshot_label(path),
                path=path,
                graph=graph,
                report=report,
            )
        )
    return snapshots


def run_measured_sweep(
    snapshots: Sequence[Snapshot],
    config: Optional[BGPConfig] = None,
    *,
    num_origins: int = 10,
    seed: int = 0,
):
    """Run the paper's per-topology C-event experiment on each snapshot.

    The measured counterpart of a growth sweep: same experiment, same
    seeding discipline (each snapshot gets a seed derived from its index
    so adding a snapshot never perturbs earlier ones), but the topology
    axis is the measured series instead of the generative model.
    Returns one :class:`~repro.core.cevent.CEventStats` per snapshot, in
    sequence order.
    """
    from repro.core.cevent import run_c_event_experiment
    from repro.sim.rng import derive_seed

    config = config if config is not None else BGPConfig()
    if not snapshots:
        raise MeasuredImportError("empty snapshot sequence")
    return [
        run_c_event_experiment(
            snapshot.graph,
            config,
            num_origins=num_origins,
            seed=derive_seed(seed, index, len(snapshot.graph)),
        )
        for index, snapshot in enumerate(snapshots)
    ]

"""Measured-topology import: real AS-relationship snapshots as inputs.

The paper's scalability argument runs entirely on *generated*
Internet-like topologies; "Beyond Node Degree" (PAPERS.md) shows that a
generator matching the degree distribution can still be structurally
wrong.  This package closes the loop by importing *measured* snapshots —
CAIDA serial-1 AS-relationship files — into the same
:class:`~repro.topology.graph.ASGraph` representation every experiment
consumes, so growth sweeps, churn workloads and the fidelity metrics of
:mod:`repro.topology.compare` can run on real topologies.

* :mod:`repro.measured.serial1` — the strict, validating parser
  (``<provider>|<customer>|-1`` / ``<peer>|<peer>|0``, ``#`` comments,
  optionally gzip'd) with deterministic node renumbering and an
  :class:`~repro.measured.serial1.ImportReport` of everything it saw;
* :mod:`repro.measured.sequence` — snapshot *sequences*: a dated series
  of serial-1 files loaded as a measured topology time series, so the
  paper's growth sweeps can replay measured growth instead of the
  generative model.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.measured.sequence": (
            "Snapshot",
            "load_snapshot_sequence",
            "run_measured_sweep",
        ),
        "repro.measured.serial1": (
            "ImportReport",
            "load_serial1",
            "parse_serial1_text",
        ),
    },
)

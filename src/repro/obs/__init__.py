"""repro.obs — run telemetry, progress and profiling.

The observability layer of the reproduction: a :class:`Telemetry` hub
that times the engine's runs and reads each network's
:class:`KernelCounts` (see :mod:`repro.obs.telemetry` for the overhead
contract),
JSONL run logs (:mod:`repro.obs.runlog`), live progress lines
(:mod:`repro.obs.progress`) and opt-in cProfile hooks
(:mod:`repro.obs.profiler`).

Typical use::

    from repro.obs import Telemetry, telemetry_session, write_telemetry_jsonl

    telemetry = Telemetry(meta={"experiment": "fig04"})
    with telemetry_session(telemetry):
        run_experiment("fig04", scale)
    write_telemetry_jsonl(telemetry, "run/telemetry.jsonl")
    print(f"{telemetry.events_per_sec:.0f} events/sec")
"""

from repro.obs.profiler import format_top_entries, maybe_profile, top_entries
from repro.obs.progress import ProgressLine, format_eta
from repro.obs.runlog import (
    SCHEMA_VERSION,
    TELEMETRY_FILENAME,
    find_telemetry_file,
    read_jsonl,
    summarize_records,
    telemetry_records,
    write_telemetry_jsonl,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    KernelCounts,
    NullTelemetry,
    Telemetry,
    current_telemetry,
    telemetry_session,
)

__all__ = [
    "KernelCounts",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "ProgressLine",
    "SCHEMA_VERSION",
    "TELEMETRY_FILENAME",
    "Telemetry",
    "current_telemetry",
    "find_telemetry_file",
    "format_eta",
    "format_top_entries",
    "maybe_profile",
    "read_jsonl",
    "summarize_records",
    "telemetry_records",
    "telemetry_session",
    "top_entries",
    "write_telemetry_jsonl",
]

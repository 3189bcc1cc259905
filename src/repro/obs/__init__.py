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

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.obs.profiler": (
            "format_top_entries",
            "maybe_profile",
            "top_entries",
        ),
        "repro.obs.progress": ("ProgressLine", "format_eta"),
        "repro.obs.runlog": (
            "SCHEMA_VERSION",
            "TELEMETRY_FILENAME",
            "find_telemetry_file",
            "read_jsonl",
            "summarize_records",
            "telemetry_records",
            "write_telemetry_jsonl",
        ),
        "repro.obs.telemetry": (
            "KernelCounts",
            "NULL_TELEMETRY",
            "NullTelemetry",
            "Telemetry",
            "current_telemetry",
            "telemetry_session",
        ),
    },
)

"""Run the repro-bgp CLI with one sweep unit made to fail once.

    PYTHONPATH=src python -m tests.fault_launcher SPEC MODE [repro-bgp ARGS...]

run from the repository root.  ``SPEC`` is
``scenario:n:batch_index:event_index:marker_path``: the process running
that sweep unit misbehaves once it has measured ``event_index``
C-events (0: before the first).  ``MODE`` is ``exit``
(die at once with status 1, the way a killed worker does) or
``sleep:<seconds>`` (hang, for timeout tests).  The marker file is
written before the fault fires and disarms it, so the fault fires once:
a re-run of the unit survives.

:func:`install` wraps the unit runner of this process.  Pool workers
forked after it inherit the wrapper, so the fault fires in whichever
process runs the unit.  Tests that run sweeps in-process install it
with ``monkeypatch.setattr``, which undoes it after the test.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

import repro.checkpoint.batch as batch_module
import repro.core.sweep as sweep_module

USAGE = (
    "usage: python -m tests.fault_launcher "
    "SCENARIO:N:BATCH:EVENT:MARKER exit|sleep:SECONDS [ARGS...]"
)


class Fault:
    """Where one fault fires, and what it does there."""

    def __init__(self, spec: str, mode: str = "exit") -> None:
        try:
            scenario, n, batch_index, event_index, marker = spec.split(":", 4)
            self.point = (scenario.upper(), int(n), int(batch_index), int(event_index))
        except ValueError as exc:
            raise ValueError(
                f"malformed fault spec {spec!r} "
                "(want scenario:n:batch_index:event_index:marker_path)"
            ) from exc
        self.marker = Path(marker)
        self.sleep = _sleep_seconds(mode)

    def fire(self, unit: sweep_module.SweepUnit, events_done: int) -> None:
        """Misbehave if ``unit`` has reached the fault's point, once."""
        here = (unit.scenario.upper(), unit.n, unit.batch_index, events_done)
        if here != self.point or self.marker.exists():
            return
        self.marker.write_text("fault injected\n", encoding="utf-8")
        if self.sleep is None:
            os._exit(1)
        time.sleep(self.sleep)


def _sleep_seconds(mode: str) -> Optional[float]:
    """None for ``exit``, the seconds of ``sleep:<seconds>``."""
    if mode == "exit":
        return None
    kind, _, seconds = mode.partition(":")
    if kind == "sleep":
        try:
            return float(seconds)
        except ValueError:
            pass
    raise ValueError(
        f"malformed fault mode {mode!r} (want 'exit' or 'sleep:<seconds>')"
    )


def install(spec: str, mode: str = "exit", patch=setattr) -> Fault:
    """Make the unit ``spec`` names fail once, in this process and its forks.

    Wraps ``repro.core.sweep._execute``, which every runner of a unit
    goes through, to note the unit it runs, and the batch loop of the
    plain and the checkpointed unit runner, to fire the fault before the
    first measured event and after each one (after its checkpoint, when
    there is one).  ``patch`` sets the wrappers in place: ``setattr``,
    or a test's ``monkeypatch.setattr``.
    """
    fault = Fault(spec, mode)
    running = threading.local()
    execute = sweep_module._execute

    def noting_execute(unit, checkpoint_dir):
        running.unit = unit
        try:
            return execute(unit, checkpoint_dir)
        finally:
            running.unit = None

    def faulty(run_batch):
        def run(graph, config=None, *, cursor=None, after_event=None, **kwargs):
            unit = getattr(running, "unit", None)
            if unit is None:
                return run_batch(
                    graph, config, cursor=cursor, after_event=after_event, **kwargs
                )
            fault.fire(unit, cursor.next_index if cursor is not None else 0)

            def hook(live):
                if after_event is not None:
                    after_event(live)
                fault.fire(unit, live.next_index)

            return run_batch(graph, config, cursor=cursor, after_event=hook, **kwargs)

        return run

    patch(sweep_module, "_execute", noting_execute)
    for module in (sweep_module, batch_module):
        patch(module, "run_c_event_batch", faulty(module.run_c_event_batch))
    return fault


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print(USAGE, file=sys.stderr)
        return 2
    install(argv[0], argv[1])
    from repro.experiments.cli import main as cli_main

    return cli_main(argv[2:])


if __name__ == "__main__":
    sys.exit(main())

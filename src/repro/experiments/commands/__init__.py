"""The handlers of the ``repro-bgp`` verbs, one module per verb group.

:mod:`repro.experiments.cli` parses the command line and imports the
dispatched verb's module, whose ``main(args)`` returns the exit code.
Each module imports what its verb runs and nothing else.  What several
verbs share lives here.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.files import atomic_writer

if TYPE_CHECKING:
    from repro.bgp.config import BGPConfig


def bgp_config(args: argparse.Namespace) -> BGPConfig:
    """The BGP configuration the ``--mrai/--wrate`` options name
    (imported here: ``topology`` verbs load no BGP model)."""
    from repro.bgp.config import BGPConfig

    return BGPConfig(mrai=args.mrai, wrate=args.wrate)


def write_json_artifact(payload: dict, path: Path, label: str) -> None:
    """Write ``payload`` as canonical JSON (sorted keys, ``indent=1``),
    streamed and replaced atomically, and say so."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_writer(path) as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{label} written to {path}")

"""Atomic file writes: every artifact appears whole or not at all."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import IO, Iterator, Union


@contextlib.contextmanager
def atomic_writer(path: Union[str, Path], mode: str = "w") -> Iterator[IO]:
    """Open ``<path>.tmp`` for writing; move it over ``path`` when the block ends.

    ``mode`` is ``"w"`` (UTF-8 text) or ``"wb"``.  A reader sees the
    previous file or the complete new one, never a truncated write: a
    writer that is killed midway leaves ``path`` as it was, and one that
    raises also removes its temporary file.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

"""Atomic file writes, and the SHA-256 every key and digest is made with."""

from __future__ import annotations

import contextlib
import functools
import os
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Union


@functools.lru_cache(maxsize=None)
def _sha256_constructor() -> Callable[[bytes], Any]:
    """CPython's built-in SHA-256, loaded at the first digest, as
    ``random`` takes its SHA-512: ``hashlib`` maps OpenSSL's libcrypto,
    about 3.5 MB resident in a process that only wants a key, and a verb
    that hashes nothing loads neither.  The digest is the same either way."""
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # 3.10, 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def sha256(data: bytes) -> str:
    """The hex SHA-256 digest of ``data``."""
    return _sha256_constructor()(data).hexdigest()


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

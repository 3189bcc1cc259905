"""BGP update messages exchanged between neighbouring ASes.

A message is either an **announcement** (carries an AS path) or an explicit
**withdrawal** (no path).  The distinction matters for the MRAI variants:
NO-WRATE lets withdrawals bypass the rate-limiting timer, WRATE does not.

The prefix is a :class:`~repro.prefix.prefix.Prefix`; the message layer
never looks inside it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from repro.bgp.route import intern_path
from repro.prefix.prefix import Prefix


class UpdateMessage(NamedTuple):
    """One BGP UPDATE for a single prefix.

    ``path`` is the AS path as sent on the wire (sender prepended);
    ``None`` marks an explicit withdrawal.

    A named tuple: immutable, equal and hashed by its four fields, and
    built by one ``tuple.__new__`` call — a simulation builds one per
    send, and a frozen dataclass's ``__init__`` took four
    ``object.__setattr__`` calls per message.
    """

    sender: int
    receiver: int
    prefix: Prefix
    path: Optional[Tuple[int, ...]]

    @property
    def is_withdrawal(self) -> bool:
        """Whether this update withdraws the prefix."""
        return self.path is None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_withdrawal:
            return f"W({self.sender}->{self.receiver} pfx={self.prefix})"
        return (
            f"A({self.sender}->{self.receiver} pfx={self.prefix} "
            f"path={'-'.join(map(str, self.path))})"
        )


def announcement(
    sender: int, receiver: int, prefix: Prefix, path: Tuple[int, ...]
) -> UpdateMessage:
    """Build an announcement message (path must be non-empty)."""
    if not path:
        raise ValueError("announcement requires a non-empty AS path")
    return UpdateMessage(
        sender=sender, receiver=receiver, prefix=prefix, path=intern_path(tuple(path))
    )


def withdrawal(sender: int, receiver: int, prefix: Prefix) -> UpdateMessage:
    """Build an explicit withdrawal message."""
    return UpdateMessage(sender=sender, receiver=receiver, prefix=prefix, path=None)

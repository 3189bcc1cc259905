"""The :class:`Prefix` value type — an IPv4 network address with a length.

:class:`Prefix` is the one prefix token of the BGP machinery: dict keys
in the RIBs, MRAI out-queues and damping tables, sort keys in the batched
MRAI flush.  Single-prefix drivers (C-events, link events, exploration,
load, damping flaps) use the ``/32`` :func:`host_prefix` of a small
index; multi-prefix workloads use real (address, length) pairs, so
aggregation, longest-match and covering relations exist.

:class:`Prefix` follows the :class:`~repro.bgp.route.Route` hot-path
idiom: frozen, with a process-global intern table (:func:`make_prefix`)
so one churning prefix re-imported thousands of times is a single shared
object — and it *is* the ``(addr, length)`` tuple, so dict lookups hash,
compare and order it without entering the interpreter.

Checkpoints write a prefix as ``[addr, length]``.  Releases 1.3.0–1.6.0
also wrote bare ints for single-prefix runs; :func:`prefix_from_json`
reads those as host prefixes, which sort exactly like the ints, so such
a file continues on the trajectory it was written on.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import CheckpointError, ParameterError

#: Number of address bits (IPv4).
ADDRESS_BITS = 32

_ADDRESS_MASK = (1 << ADDRESS_BITS) - 1

#: Cap on the intern table; on overflow it is cleared (pure cache).
_INTERN_CAP = 1 << 17

_PREFIX_INTERN: Dict[Tuple[int, int], "Prefix"] = {}


def _netmask(length: int) -> int:
    """The ``length``-bit network mask as an int."""
    return _ADDRESS_MASK ^ ((1 << (ADDRESS_BITS - length)) - 1)


class Prefix(tuple):
    """An immutable IPv4 prefix: ``addr`` (canonical) / ``length``.

    ``addr`` must be canonical — host bits below ``length`` must be
    zero — so equal prefixes are equal ints and interning is exact.

    A ``tuple`` subclass: hashing and equality — every RIB, out-queue
    and gate lookup in the kernel — run in C, with the hash value of
    the plain ``(addr, length)`` pair.
    """

    __slots__ = ()

    def __new__(cls, addr: int, length: int) -> "Prefix":
        if not 0 <= length <= ADDRESS_BITS:
            raise ParameterError(
                f"prefix length must be in [0, {ADDRESS_BITS}], got {length}"
            )
        if not 0 <= addr <= _ADDRESS_MASK:
            raise ParameterError(f"address out of range: {addr:#x}")
        if addr & ~_netmask(length):
            raise ParameterError(
                f"non-canonical prefix: {addr:#010x}/{length} has host bits set"
            )
        return tuple.__new__(cls, (addr, length))

    addr = property(operator.itemgetter(0), doc="The network address as an int.")
    length = property(operator.itemgetter(1), doc="The prefix length in bits.")

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __str__(self) -> str:
        octets = (
            (self.addr >> 24) & 0xFF,
            (self.addr >> 16) & 0xFF,
            (self.addr >> 8) & 0xFF,
            self.addr & 0xFF,
        )
        return f"{octets[0]}.{octets[1]}.{octets[2]}.{octets[3]}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __reduce__(self):
        # Unpickle through the intern table so cross-process results
        # regain sharing (the Route idiom).
        return (make_prefix, (self.addr, self.length))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def bit(self, index: int) -> int:
        """Bit ``index`` of the address, 0 = most significant."""
        return (self.addr >> (ADDRESS_BITS - 1 - index)) & 1

    @property
    def netmask(self) -> int:
        """The network mask as an int."""
        return _netmask(self.length)

    def parent(self) -> Optional["Prefix"]:
        """The covering prefix one bit shorter (None for the default /0)."""
        if self.length == 0:
            return None
        length = self.length - 1
        return make_prefix(self.addr & _netmask(length), length)

    def children(self) -> Tuple["Prefix", "Prefix"]:
        """The two one-bit-longer prefixes this one aggregates."""
        if self.length >= ADDRESS_BITS:
            raise ParameterError(f"cannot split a host prefix: {self}")
        length = self.length + 1
        low = make_prefix(self.addr, length)
        high = make_prefix(self.addr | (1 << (ADDRESS_BITS - length)), length)
        return low, high

    def contains(self, other: "Prefix") -> bool:
        """Whether ``other`` lies inside this prefix (covers-or-equal)."""
        return (
            self.length <= other.length
            and (other.addr & self.netmask) == self.addr
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` dotted-quad notation (interned)."""
        try:
            dotted, _, length_text = text.partition("/")
            octets = [int(part) for part in dotted.split(".")]
            length = int(length_text)
        except ValueError as exc:
            raise ParameterError(f"malformed prefix {text!r}: {exc}") from exc
        if len(octets) != 4 or any(not 0 <= octet <= 255 for octet in octets):
            raise ParameterError(f"malformed prefix {text!r}")
        addr = (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]
        return make_prefix(addr, length)


def make_prefix(addr: int, length: int) -> Prefix:
    """Build (or reuse) the interned :class:`Prefix` for (addr, length)."""
    key = (addr, length)
    prefix = _PREFIX_INTERN.get(key)
    if prefix is None:
        if len(_PREFIX_INTERN) >= _INTERN_CAP:
            _PREFIX_INTERN.clear()
        prefix = Prefix(addr, length)
        _PREFIX_INTERN[key] = prefix
    return prefix


def host_prefix(addr: int) -> Prefix:
    """The /32 host prefix for ``addr``.

    The single-prefix drivers use ``host_prefix(index)`` as their token
    (small indices, so the addresses never collide and sort exactly like
    the ints).
    """
    return make_prefix(addr & _ADDRESS_MASK, ADDRESS_BITS)


def clear_prefix_intern_cache() -> None:
    """Drop the prefix intern table (tests, memory pressure)."""
    _PREFIX_INTERN.clear()


def prefix_to_json(prefix: Prefix) -> list:
    """JSON form of a prefix: ``[addr, length]`` (the checkpoint format)."""
    return [prefix.addr, prefix.length]


def prefix_from_json(data: object) -> Prefix:
    """Inverse of :func:`prefix_to_json`, interned.

    A bare int in ``[0, 2**32)`` — the single-prefix token of files
    written by releases 1.3.0–1.6.0 — reads as its :func:`host_prefix`.
    Anything else that is not an ``[addr, length]`` pair of ints naming
    a canonical prefix raises :class:`~repro.errors.CheckpointError`.
    """
    pair = [data, ADDRESS_BITS] if type(data) is int else data
    if type(pair) is list and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int:
        try:
            return make_prefix(*pair)
        except ParameterError:
            pass
    raise CheckpointError(f"malformed prefix {data!r}")


def iter_block(base: Prefix, length: int) -> Iterator[Prefix]:
    """All ``length``-bit prefixes inside ``base``, in address order.

    The workload allocator carves contiguous sibling runs out of a
    covering block with this.
    """
    if length < base.length:
        raise ParameterError(
            f"cannot enumerate /{length} prefixes inside the smaller {base}"
        )
    step = 1 << (ADDRESS_BITS - length)
    count = 1 << (length - base.length)
    for index in range(count):
        yield make_prefix(base.addr + index * step, length)

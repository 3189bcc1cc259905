"""Describable simulation events — the checkpointable event vocabulary.

The engine's heap stores opaque callables, which a checkpoint cannot
serialize.  This module closes that gap: every event the BGP simulation
schedules is one of the small callable classes below, each of which can

* **execute** (``__call__``) exactly like the closure it replaced, and
* **describe** itself as a tuple of JSON primitives (``describe()``), and
* be **rebuilt** from that description against a live network
  (:func:`build_event`).

The descriptor format is part of the on-disk checkpoint contract
(see :mod:`repro.checkpoint.format`): descriptors are
``[kind, *args]`` lists whose args are ints, floats, or (for delivery
events) the message fields.  Event kinds must never be renamed without
bumping the checkpoint format version.

Events not in this vocabulary (e.g. ad-hoc closures scheduled by a
workload driver) still run fine — they are simply not checkpointable,
and snapshotting a heap that contains one raises
:class:`~repro.errors.CheckpointError`.

The module lives in the ``bgp`` package (below ``sim`` in the layering)
because the node schedules its own events; the network-level
:class:`Delivery` event only duck-types the network object, so nothing
here imports the ``sim`` package.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Type

from repro.bgp.messages import UpdateMessage
from repro.bgp.route import intern_path
from repro.errors import CheckpointError
from repro.prefix.prefix import Prefix, prefix_from_json, prefix_to_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.bgp.node import BGPNode
    from repro.sim.network import SimNetwork


class SimEvent:
    """Base class: a schedulable callback that can describe itself."""

    __slots__ = ()

    #: Stable descriptor tag; part of the checkpoint format.
    kind = ""

    def __call__(self) -> None:
        raise NotImplementedError

    def describe(self) -> List[object]:
        """``[kind, *args]`` with JSON-primitive args."""
        raise NotImplementedError

    @classmethod
    def build(cls, network: "SimNetwork", args: List[object]) -> "SimEvent":
        """Rebuild the event from its descriptor args against ``network``."""
        raise NotImplementedError


class ServiceCompletion(SimEvent):
    """A node's processor finishes servicing the head of its in-queue."""

    __slots__ = ("node",)
    kind = "service-completion"

    def __init__(self, node: "BGPNode") -> None:
        self.node = node

    def __call__(self) -> None:
        self.node._complete_service()

    def describe(self) -> List[object]:
        return [self.kind, self.node.node_id]

    @classmethod
    def build(cls, network: "SimNetwork", args: List[object]) -> "ServiceCompletion":
        (node_id,) = args
        return cls(network.node(int(node_id)))


class MRAIWakeup(SimEvent):
    """An MRAI gate towards one neighbour expires."""

    __slots__ = ("node", "neighbor", "at")
    kind = "mrai-wakeup"

    def __init__(self, node: "BGPNode", neighbor: int, at: float) -> None:
        self.node = node
        self.neighbor = neighbor
        self.at = at

    def __call__(self) -> None:
        self.node._mrai_wakeup(self.neighbor, self.at)

    def describe(self) -> List[object]:
        return [self.kind, self.node.node_id, self.neighbor, self.at]

    @classmethod
    def build(cls, network: "SimNetwork", args: List[object]) -> "MRAIWakeup":
        node_id, neighbor, at = args
        return cls(network.node(int(node_id)), int(neighbor), float(at))


class DampingReuseCheck(SimEvent):
    """A damped route may have decayed below the reuse threshold."""

    __slots__ = ("node", "prefix")
    kind = "damping-reuse-check"

    def __init__(self, node: "BGPNode", prefix: Prefix) -> None:
        self.node = node
        self.prefix = prefix

    def __call__(self) -> None:
        self.node._reuse_check(self.prefix)

    def describe(self) -> List[object]:
        return [self.kind, self.node.node_id, prefix_to_json(self.prefix)]

    @classmethod
    def build(cls, network: "SimNetwork", args: List[object]) -> "DampingReuseCheck":
        node_id, prefix = args
        return cls(network.node(int(node_id)), prefix_from_json(prefix))


class Delivery(SimEvent):
    """An update message arrives at the receiver after the link delay."""

    __slots__ = ("network", "message")
    kind = "delivery"

    def __init__(self, network: "SimNetwork", message: UpdateMessage) -> None:
        self.network = network
        self.message = message

    def __call__(self) -> None:
        self.network._deliver(self.message)

    def describe(self) -> List[object]:
        message = self.message
        path = list(message.path) if message.path is not None else None
        return [
            self.kind,
            message.sender,
            message.receiver,
            prefix_to_json(message.prefix),
            path,
        ]

    @classmethod
    def build(cls, network: "SimNetwork", args: List[object]) -> "Delivery":
        sender, receiver, prefix, path = args
        message = UpdateMessage(
            sender=int(sender),
            receiver=int(receiver),
            prefix=prefix_from_json(prefix),
            path=(
                intern_path(tuple(int(hop) for hop in path))
                if path is not None
                else None
            ),
        )
        return cls(network, message)


_EVENT_KINDS: Dict[str, Type[SimEvent]] = {
    cls.kind: cls
    for cls in (ServiceCompletion, MRAIWakeup, DampingReuseCheck, Delivery)
}


def describe_event(callback: Callable[[], None]) -> List[object]:
    """Descriptor for a scheduled callback; raises for opaque callables."""
    if isinstance(callback, SimEvent):
        return callback.describe()
    raise CheckpointError(
        f"cannot checkpoint opaque event callback {callback!r}; only "
        f"describable simulation events ({', '.join(sorted(_EVENT_KINDS))}) "
        "are serializable"
    )


def build_event(network: "SimNetwork", descriptor: List[object]) -> SimEvent:
    """Rebuild a live event from ``describe_event`` output."""
    if not descriptor:
        raise CheckpointError("empty event descriptor")
    kind, *args = descriptor
    event_cls = _EVENT_KINDS.get(str(kind))
    if event_cls is None:
        raise CheckpointError(f"unknown event kind {kind!r} in checkpoint")
    try:
        return event_cls.build(network, args)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed {kind!r} event descriptor {descriptor!r}: {exc}"
        ) from exc

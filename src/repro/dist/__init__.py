"""Distributed campaign execution: coordinator/worker over TCP.

The sweeps behind every figure decompose into independent
:class:`~repro.core.sweep.SweepUnit` work items (PR 1), each of which is
deterministically seeded and checkpointable (PR 2).  This package fans
those units out across worker *processes on other hosts*:

* :mod:`repro.dist.protocol` — the wire format: length-prefixed
  canonical-JSON frames with a versioned, strictly-decoded schema;
* :mod:`repro.dist.coordinator` — the server side: a lease-based
  transport of :class:`~repro.core.sweep.UnitQueue` with heartbeat
  tracking and lost-worker requeue;
* :mod:`repro.dist.worker` — the client side: a pull loop that executes
  units (resuming from checkpoints after a crash) and streams results
  and telemetry back.

Because every unit derives its seeds from the sweep's master seed alone
and results are merged in a fixed order, a distributed run produces
numbers *bit-identical* to a serial one — distribution is purely a
throughput and robustness layer.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.dist.coordinator": (
            "Coordinator",
            "DEFAULT_PORT",
            "parse_address",
        ),
        "repro.dist.protocol": (
            "FrameStream",
            "MAX_FRAME_BYTES",
            "PROTOCOL_VERSION",
            "decode_frame_payload",
            "encode_frame",
        ),
        "repro.dist.worker": ("run_worker",),
    },
)

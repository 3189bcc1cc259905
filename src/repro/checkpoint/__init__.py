"""Checkpoint/restore subsystem: resumable simulations and campaigns.

Three layers, bottom-up:

* :mod:`repro.checkpoint.format` — the versioned, content-hashed on-disk
  envelope shared by every checkpoint kind;
* :mod:`repro.checkpoint.network` — whole-:class:`SimNetwork` snapshot
  and restore (engine heap, BGP state, RNG streams, counters), with the
  guarantee that a restored run is byte-identical to an uninterrupted
  one;
* :mod:`repro.checkpoint.batch` — checkpointed execution of sweep work
  units, the hook the fault-tolerant sweep executor and resumable
  campaigns build on.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.checkpoint.batch": (
            "execute_sweep_unit_checkpointed",
            "unit_checkpoint_key",
            "unit_checkpoint_path",
        ),
        "repro.checkpoint.format": (
            "CheckpointDocument",
            "FORMAT_VERSION",
            "KIND_CAMPAIGN",
            "KIND_NETWORK",
            "KIND_SWEEP_UNIT",
            "inspect_checkpoint",
            "read_checkpoint",
            "verify_checkpoint",
            "write_checkpoint",
        ),
        "repro.checkpoint.network": ("restore_network", "snapshot_network"),
    },
)

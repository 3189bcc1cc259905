"""Configuration of the BGP protocol model (Sec. 2 of the paper).

:class:`BGPConfig` gathers every protocol knob in one frozen object so a
whole simulation can be reproduced from (topology, config, seed).

Defaults follow the paper: 30 s per-interface MRAI with RFC-4271 jitter
(uniform in [0.75, 1.0] × base), message processing time uniform in
[0, 100 ms], and the NO-WRATE behaviour of RFC 1771 (explicit withdrawals
are *not* rate limited).  Setting ``wrate=True`` switches to the RFC-4271
behaviour studied in Sec. 6.
"""

from __future__ import annotations

import dataclasses
import enum
import math

from repro.errors import ParameterError, SerializationError


def _require_finite(config: object, names: tuple) -> None:
    """Reject NaN and ±inf: every ordering check below passes NaN, and an
    infinite delay or timer never fires, so either runs silently wrong."""
    for name in names:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


class SendDiscipline(enum.Enum):
    """When a rate-limited update may leave the out-queue.

    The paper's node model (Fig. 2) is **delay-first**: "Outgoing messages
    are stored in an output queue until the MRAI timer for that queue
    expires" — every rate-limited update waits for a timer expiry, even
    when the timer was idle.  This is what suppresses path exploration
    under NO-WRATE (fast withdrawals invalidate still-queued alternate
    announcements).

    Real router implementations are usually **send-first**: when no timer
    is running the update goes out immediately and the timer is armed;
    only subsequent updates wait.  Provided as an ablation.
    """

    DELAY_FIRST = "delay-first"
    SEND_FIRST = "send-first"


class MRAIMode(enum.Enum):
    """Granularity of the rate-limiting timer.

    RFC 4271 specifies per-prefix ("per destination") timers; router
    vendors — and the paper — use per-interface timers for efficiency.
    Both are implemented; with the single-prefix C-event workload they
    behave identically, which an ablation benchmark verifies.
    """

    PER_INTERFACE = "per-interface"
    PER_PREFIX = "per-prefix"


@dataclasses.dataclass(frozen=True)
class DampingConfig:
    """RFC 2439 route-flap-damping parameters (extension; off by default)."""

    enabled: bool = False
    withdrawal_penalty: float = 1.0
    readvertisement_penalty: float = 0.5
    attribute_change_penalty: float = 0.5
    suppress_threshold: float = 2.0
    reuse_threshold: float = 0.75
    half_life: float = 900.0
    max_suppress_time: float = 3600.0

    def __post_init__(self) -> None:
        _require_finite(
            self,
            (
                "withdrawal_penalty",
                "readvertisement_penalty",
                "attribute_change_penalty",
                "suppress_threshold",
                "reuse_threshold",
                "half_life",
                "max_suppress_time",
            ),
        )
        if self.half_life <= 0:
            raise ParameterError(f"half_life must be > 0, got {self.half_life}")
        if self.reuse_threshold >= self.suppress_threshold:
            raise ParameterError(
                "reuse_threshold must be below suppress_threshold "
                f"({self.reuse_threshold} >= {self.suppress_threshold})"
            )
        for name in (
            "withdrawal_penalty",
            "readvertisement_penalty",
            "attribute_change_penalty",
        ):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")


@dataclasses.dataclass(frozen=True)
class BGPConfig:
    """All protocol parameters of the simulated BGP speakers."""

    #: Base MRAI value in seconds (0 disables rate limiting entirely).
    mrai: float = 30.0
    #: Whether explicit withdrawals are rate limited (RFC 4271) or sent
    #: immediately (RFC 1771 / Quagga).  The paper's WRATE vs NO-WRATE.
    wrate: bool = False
    #: Jitter band applied on each timer arming, per RFC 4271 Sec. 9.2.1.1.
    jitter_low: float = 0.75
    jitter_high: float = 1.0
    mrai_mode: MRAIMode = MRAIMode.PER_INTERFACE
    #: Out-queue send discipline; the paper's model is delay-first.
    discipline: SendDiscipline = SendDiscipline.DELAY_FIRST
    #: Per-message processing time is uniform in [0, processing_time_max].
    processing_time_max: float = 0.100
    #: One-way link propagation delay in seconds.
    link_delay: float = 0.002
    damping: DampingConfig = dataclasses.field(default_factory=DampingConfig)

    def __post_init__(self) -> None:
        _require_finite(
            self,
            ("mrai", "jitter_low", "jitter_high", "processing_time_max", "link_delay"),
        )
        if self.mrai < 0:
            raise ParameterError(f"mrai must be >= 0, got {self.mrai}")
        if not 0 < self.jitter_low <= self.jitter_high:
            raise ParameterError(
                f"invalid jitter band [{self.jitter_low}, {self.jitter_high}]"
            )
        if self.processing_time_max < 0:
            raise ParameterError(
                f"processing_time_max must be >= 0, got {self.processing_time_max}"
            )
        if self.link_delay < 0:
            raise ParameterError(f"link_delay must be >= 0, got {self.link_delay}")

    @property
    def rate_limiting_enabled(self) -> bool:
        """Whether any MRAI gating happens at all."""
        return self.mrai > 0

    def replace(self, **changes: object) -> "BGPConfig":
        """Return a copy with the given fields replaced (validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready dict (enums as their values).

        Shared by the sweep cache, result files and checkpoints, so the
        on-disk representation of a config is identical everywhere.
        """
        return {
            "mrai": self.mrai,
            "wrate": self.wrate,
            "jitter_low": self.jitter_low,
            "jitter_high": self.jitter_high,
            "mrai_mode": self.mrai_mode.value,
            "discipline": self.discipline.value,
            "processing_time_max": self.processing_time_max,
            "link_delay": self.link_delay,
            "damping": dataclasses.asdict(self.damping),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BGPConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        # Documents written while a radix-trie RIB shipped may name it.
        # Both values ran the same computation (their kernel digests were
        # identical), so either reads as the one RIB; anything else is
        # not a document this code wrote.
        try:
            if "rib_backend" in data and data["rib_backend"] not in ("dict", "radix"):
                raise ValueError(f"unknown rib_backend {data['rib_backend']!r}")
            return cls(
                mrai=data["mrai"],
                wrate=bool(data["wrate"]),
                jitter_low=data["jitter_low"],
                jitter_high=data["jitter_high"],
                mrai_mode=MRAIMode(data["mrai_mode"]),
                discipline=SendDiscipline(data["discipline"]),
                processing_time_max=data["processing_time_max"],
                link_delay=data["link_delay"],
                damping=DampingConfig(**data["damping"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed config document: {exc}") from exc


#: The two MRAI implementations the paper contrasts (Sec. 2 / Sec. 6).
NO_WRATE_CONFIG = BGPConfig(wrate=False)
WRATE_CONFIG = BGPConfig(wrate=True)

"""Topology generator parameters (Table 1 of the paper).

The generator is driven by :class:`TopologyParams`, a frozen dataclass whose
fields correspond one-to-one to the rows of Table 1.  The Baseline growth
model makes several of those parameters functions of the total network size
``n``; :func:`baseline_params` evaluates them exactly as the table
specifies:

====================  =============================
parameter             Baseline value
====================  =============================
``n``                 1000 – 10000 (caller supplied)
``n_t``               4 – 6 (drawn per topology)
``n_m``               0.15 n
``n_cp``              0.05 n
``n_c``               0.80 n
``d_m``               2 + 2.5 n / 10000
``d_cp``              2 + 1.5 n / 10000
``d_c``               1 + 5 n / 100000
``p_m``               1 + 2 n / 10000
``p_cp_m``            0.2 + 2 n / 10000
``p_cp_cp``           0.05 + 5 n / 100000
``t_m``               0.375
``t_cp``              0.375
``t_c``               0.125
====================  =============================

Scenario deviations (Sec. 5) are expressed as transformations of a Baseline
instance; see :mod:`repro.topology.scenarios`.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ParameterError

#: Number of geographic regions in the Baseline model (Sec. 3).
DEFAULT_REGIONS = 5

#: Fraction of M nodes present in two regions (Sec. 3).
M_TWO_REGION_FRACTION = 0.20

#: Fraction of CP nodes present in two regions (Sec. 3).
CP_TWO_REGION_FRACTION = 0.05


@dataclasses.dataclass(frozen=True)
class TopologyParams:
    """All knobs of the topology generator.

    Counts (``n_*``) are absolute node counts; degree parameters (``d_*``,
    ``p_*``) are *averages* — the generator draws per-node values uniformly
    between 0 (or 1 for provider counts) and twice the average, as
    described in Sec. 3.  ``t_*`` are probabilities that a provider link
    terminates at a T node rather than an M node.
    """

    n: int
    n_t: int
    n_m: int
    n_cp: int
    n_c: int
    d_m: float
    d_cp: float
    d_c: float
    p_m: float
    p_cp_m: float
    p_cp_cp: float
    t_m: float
    t_cp: float
    t_c: float
    regions: int = DEFAULT_REGIONS
    m_two_region_fraction: float = M_TWO_REGION_FRACTION
    cp_two_region_fraction: float = CP_TWO_REGION_FRACTION
    #: Cap on the number of T-node providers a single node may acquire;
    #: ``None`` means unlimited.  Used by the PREFER-MIDDLE deviation.
    max_t_providers: int | None = None
    #: Cap on the number of M-node providers a single node may acquire;
    #: ``None`` means unlimited.  Used by the PREFER-TOP deviation.
    max_m_providers: int | None = None
    #: Human-readable scenario name, for reports.
    scenario: str = "BASELINE"

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ParameterError(f"n must be positive, got {self.n}")
        counts = (self.n_t, self.n_m, self.n_cp, self.n_c)
        if any(count < 0 for count in counts):
            raise ParameterError(f"node counts must be non-negative: {counts}")
        if sum(counts) != self.n:
            raise ParameterError(
                f"node counts {counts} sum to {sum(counts)}, expected n={self.n}"
            )
        if self.n_t < 1:
            raise ParameterError("at least one T node is required")
        for name in ("d_m", "d_cp", "d_c"):
            value = getattr(self, name)
            if value < 0:
                raise ParameterError(f"{name} must be non-negative, got {value}")
        for name in ("p_m", "p_cp_m", "p_cp_cp"):
            value = getattr(self, name)
            if value < 0:
                raise ParameterError(f"{name} must be non-negative, got {value}")
        for name in ("t_m", "t_cp", "t_c"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {value}")
        if self.regions < 1:
            raise ParameterError(f"regions must be >= 1, got {self.regions}")
        for name in ("m_two_region_fraction", "cp_two_region_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1], got {value}")

    def replace(self, **changes: object) -> "TopologyParams":
        """Return a copy with the given fields replaced (validated)."""
        return dataclasses.replace(self, **changes)


def baseline_counts(n: int, n_t: int) -> tuple[int, int, int, int]:
    """Split ``n`` nodes into the Baseline (T, M, CP, C) counts.

    Uses Table 1's fractions (0.15 n M nodes, 0.05 n CP nodes, rest C) and
    rounds so the four counts always sum to exactly ``n``.
    """
    if n_t >= n:
        raise ParameterError(f"n_t={n_t} must be smaller than n={n}")
    n_m = round(0.15 * n)
    n_cp = round(0.05 * n)
    n_c = n - n_t - n_m - n_cp
    if n_c < 0:
        raise ParameterError(f"n={n} is too small for n_t={n_t}")
    return n_t, n_m, n_cp, n_c


def baseline_params(n: int, *, n_t: int = 5, regions: int = DEFAULT_REGIONS) -> TopologyParams:
    """Baseline growth-model parameters for a network of ``n`` nodes.

    ``n_t`` defaults to 5, the midpoint of Table 1's 4–6 range; the
    generator accepts any value the caller draws from that range.
    """
    n_t, n_m, n_cp, n_c = baseline_counts(n, n_t)
    return TopologyParams(
        n=n,
        n_t=n_t,
        n_m=n_m,
        n_cp=n_cp,
        n_c=n_c,
        d_m=2.0 + 2.5 * n / 10000.0,
        d_cp=2.0 + 1.5 * n / 10000.0,
        d_c=1.0 + 5.0 * n / 100000.0,
        p_m=1.0 + 2.0 * n / 10000.0,
        p_cp_m=0.2 + 2.0 * n / 10000.0,
        p_cp_cp=0.05 + 5.0 * n / 100000.0,
        t_m=0.375,
        t_cp=0.375,
        t_c=0.125,
        regions=regions,
        scenario="BASELINE",
    )

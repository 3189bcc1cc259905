"""Multi-prefix subsystem: prefix values and workload generation.

The exports load on first use, so :mod:`repro.bgp` can import
:mod:`repro.prefix.prefix` without this package pulling
:mod:`repro.prefix.workload` (and through it :mod:`repro.bgp`) back in.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.prefix.prefix": (
            "ADDRESS_BITS",
            "Prefix",
            "clear_prefix_intern_cache",
            "host_prefix",
            "iter_block",
            "make_prefix",
            "prefix_from_json",
            "prefix_to_json",
        ),
        "repro.prefix.workload": (
            "DEAGGREGATE",
            "FLAP",
            "PrefixAllocation",
            "PrefixChurnSpec",
            "PrefixEvent",
            "REAGGREGATE",
            "allocate_prefixes",
            "generate_prefix_churn",
        ),
    },
)

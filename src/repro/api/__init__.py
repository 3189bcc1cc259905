"""Campaign-as-a-service: the asyncio HTTP front-end and its scheduler.

``repro-bgp api`` wraps the campaign execution core
(:class:`~repro.experiments.campaign.CampaignSpec` →
:func:`~repro.experiments.campaign.run_campaign`) in a multi-tenant
service: JSON campaign specs are deduplicated by content key, queued
with FIFO-within-priority fairness under per-tenant quotas, executed on
a bounded worker pool, observed live over NDJSON event streams, and
served from content-addressed storage so identical specs from different
users cost one execution.

Layers (each importable on its own):

* :mod:`repro.api.scheduler` — :class:`CampaignScheduler`, the
  transport-free scheduling core (also usable in-process);
* :mod:`repro.api.wire` — strict HTTP/1.1 request parsing and response
  encoding over ``asyncio`` streams, stdlib only;
* :mod:`repro.api.server` — :class:`ApiServer`, the route table binding
  the two together.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.api.scheduler": (
            "ARTIFACT_NAMES",
            "CampaignJob",
            "CampaignScheduler",
            "STATE_CANCELLED",
            "STATE_DONE",
            "STATE_FAILED",
            "STATE_QUEUED",
            "STATE_RUNNING",
        ),
        "repro.api.server": ("ApiServer", "DEFAULT_API_PORT"),
    },
)

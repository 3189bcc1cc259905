"""Ablations of two modelling choices the paper makes (DESIGN.md call-outs).

* Out-queue discipline.  The paper's node model is delay-first
  ("outgoing messages are stored in an output queue until the MRAI timer
  for that queue expires"), which is what suppresses path exploration
  under NO-WRATE.  Real routers are typically send-first: they leak
  alternate-path announcements ahead of the withdrawal wave.
* MRAI granularity.  RFC 4271 specifies per-prefix timers; vendors, and
  the paper, use per-interface ones.  With the paper's single-prefix
  C-event workload the two must agree exactly, which justifies the
  paper's choice.
"""

import pytest

from repro.bgp.config import BGPConfig, MRAIMode, SendDiscipline
from repro.core.cevent import run_c_event_experiment
from repro.topology.generator import generate_topology
from repro.topology.params import baseline_params
from repro.topology.types import NodeType, Relationship

FAST = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)


def test_send_first_churns_at_least_as_much_as_delay_first():
    graph = generate_topology(baseline_params(300), seed=6)
    delay, send = (
        run_c_event_experiment(
            graph, FAST.replace(discipline=discipline), num_origins=4, seed=6
        )
        for discipline in (SendDiscipline.DELAY_FIRST, SendDiscipline.SEND_FIRST)
    )
    assert send.measured_messages >= delay.measured_messages
    # delay-first keeps the clean NO-WRATE e ≈ 2 at M nodes
    e_d_m = delay.factors(NodeType.M).e(Relationship.PROVIDER)
    assert e_d_m == pytest.approx(2.0, abs=0.3)


def test_per_prefix_mrai_matches_per_interface_on_one_prefix():
    graph = generate_topology(baseline_params(300), seed=5)
    per_interface, per_prefix = (
        run_c_event_experiment(
            graph, FAST.replace(mrai_mode=mode), num_origins=4, seed=5
        )
        for mode in (MRAIMode.PER_INTERFACE, MRAIMode.PER_PREFIX)
    )
    assert per_prefix.u(NodeType.T) == pytest.approx(
        per_interface.u(NodeType.T), rel=1e-9
    )

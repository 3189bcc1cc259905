"""Tests for the telemetry hub, its null object and the ambient session."""

import pytest

from repro.bgp.config import BGPConfig
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    RELATIONSHIP_SLOTS,
    KernelCounts,
    NullTelemetry,
    Telemetry,
    current_telemetry,
    telemetry_session,
)
from repro.prefix.prefix import host_prefix
from repro.sim.engine import Engine
from repro.sim.network import SimNetwork
from repro.topology.types import Relationship

P0 = host_prefix(0)


class TestCountersAndGauges:
    def test_inc_creates_and_accumulates(self):
        t = Telemetry()
        t.inc("a")
        t.inc("a", 4)
        t.inc("b")
        assert t.counters == {"a": 5, "b": 1}

    def test_gauge_last_write_wins(self):
        t = Telemetry()
        t.set_gauge("x", 1.0)
        t.set_gauge("x", 2.5)
        assert t.gauges == {"x": 2.5}

    def test_update_hook_splits_by_relationship_and_kind(self):
        # Two updates from a customer (one a withdrawal), one from a peer.
        t = Telemetry()
        counts = t.new_counts()
        counts.updates_from[RELATIONSHIP_SLOTS.index("customer")] += 2
        counts.update_withdrawals += 1
        counts.updates_from[RELATIONSHIP_SLOTS.index("peer")] += 1
        assert t.counters["node.updates"] == 3
        assert t.counters["node.updates.from_customer"] == 2
        assert t.counters["node.updates.from_peer"] == 1
        assert t.counters["node.updates.withdrawals"] == 1
        assert t.counters["node.updates.announcements"] == 2
        assert "node.updates.from_provider" not in t.counters

    def test_relationship_slots_follow_the_enum(self):
        assert RELATIONSHIP_SLOTS == tuple(r.value for r in Relationship)

    def test_kernel_counts_add_up_across_networks_and_inc(self):
        # The hub reads every attached record when asked, live, and adds
        # them to what inc() accumulated under the same name.
        t = Telemetry()
        a, b = t.new_counts(), t.new_counts()
        assert t.counters == {}  # a counter exists from its first increment
        a.sends, b.sends, b.send_withdrawals = 3, 4, 1
        t.inc("mrai.sends", 10)
        assert t.counters == {"mrai.sends": 17, "mrai.sends.withdrawals": 1}
        a.sends += 1
        assert t.snapshot()["counters"]["mrai.sends"] == 18

    def test_absorb_adds_another_hubs_counters(self):
        # A worker's unit ran under its own hub; its counters come back as
        # a dict (possibly off the wire) and fold in under the same names.
        worker = Telemetry()
        worker.new_counts().sends = 5
        worker.inc("checkpoint.writes", 2)
        t = Telemetry()
        t.inc("checkpoint.writes")
        t.absorb(worker.counters)
        t.absorb({"mrai.sends": True, 7: 1, "x": 1.5, "y": "2"})  # ignored
        t.absorb(["not", "a", "dict"])
        assert t.counters == {"checkpoint.writes": 3, "mrai.sends": 5}
        NULL_TELEMETRY.absorb(worker.counters)  # no-op


class TestPhases:
    def test_phase_accumulates_time_and_events(self):
        t = Telemetry()
        engine = Engine()
        engine.schedule(0.0, lambda: None)
        with t.phase("warmup", engine):
            engine.run()
        engine.schedule(0.0, lambda: None)
        engine.schedule(0.0, lambda: None)
        with t.phase("warmup", engine):
            engine.run()
        assert t.phase_events["warmup"] == 3
        assert t.phase_seconds["warmup"] > 0
        rows = t.phases()
        assert rows[0]["name"] == "warmup"
        assert rows[0]["events"] == 3

    def test_phase_without_engine_counts_zero_events(self):
        t = Telemetry()
        with t.phase("analysis"):
            pass
        assert t.phase_events["analysis"] == 0


class TestEngineInstrumentation:
    def test_run_reports_events_and_seconds(self):
        t = Telemetry()
        engine = Engine()
        engine.telemetry = t
        for _ in range(5):
            engine.schedule(0.0, lambda: None)
        engine.run()
        assert t.engine_events == 5
        assert t.engine_seconds > 0
        assert t.events_per_sec > 0

    def test_null_engine_runs_uninstrumented(self):
        engine = Engine()
        assert engine.telemetry is NULL_TELEMETRY
        engine.schedule(0.0, lambda: None)
        engine.run()  # must not raise nor record anywhere
        assert engine.executed_events == 1


class TestNullObject:
    def test_null_hooks_are_noops(self):
        n = NullTelemetry()
        n.inc("x")
        n.set_gauge("x", 1.0)
        n.on_engine_run(1, 0.1)
        assert isinstance(n.new_counts(), KernelCounts)
        with n.phase("anything"):
            pass
        assert n.enabled is False

    def test_null_mirrors_full_hook_api(self):
        # Every public hook of Telemetry must exist on NullTelemetry with
        # the same arity, or a disabled component would crash at runtime.
        hooks = [
            name
            for name in dir(Telemetry)
            if not name.startswith("_")
            and callable(getattr(Telemetry, name))
            and (
                name.startswith("on_")
                or name in ("inc", "set_gauge", "phase", "new_counts", "absorb")
            )
        ]
        assert hooks  # the probe itself must find something
        for name in hooks:
            assert callable(getattr(NullTelemetry, name, None)), name


class TestAmbientSession:
    def test_default_is_null(self):
        assert current_telemetry() is NULL_TELEMETRY

    def test_session_installs_and_restores(self):
        with telemetry_session() as hub:
            assert current_telemetry() is hub
            inner = Telemetry()
            with telemetry_session(inner):
                assert current_telemetry() is inner
            assert current_telemetry() is hub
        assert current_telemetry() is NULL_TELEMETRY

    def test_session_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with telemetry_session():
                raise RuntimeError("boom")
        assert current_telemetry() is NULL_TELEMETRY

    def test_network_adopts_ambient_hub(self, diamond, fast_config):
        with telemetry_session() as hub:
            network = SimNetwork(diamond, fast_config, seed=1)
        assert network.telemetry is hub
        assert network.engine.telemetry is hub

    def test_explicit_hub_overrides_ambient(self, diamond, fast_config):
        explicit = Telemetry()
        with telemetry_session():
            network = SimNetwork(diamond, fast_config, seed=1, telemetry=explicit)
        assert network.telemetry is explicit


class TestEndToEnd:
    def test_simulation_populates_all_component_counters(self, diamond):
        config = BGPConfig(mrai=2.0, link_delay=0.001, processing_time_max=0.01)
        with telemetry_session() as hub:
            network = SimNetwork(diamond, config, seed=1)
            network.originate(4, P0)
            network.run_to_convergence()
            network.withdraw(4, P0)
            network.run_to_convergence()
        counters = hub.counters
        assert counters["network.deliveries"] > 0
        assert counters["node.updates"] == counters["network.deliveries"]
        assert counters["node.decision_runs"] > 0
        assert counters["mrai.sends"] == counters["network.deliveries"]
        assert counters["mrai.wakeups"] > 0
        assert hub.engine_events > 0

    def test_drop_counter_on_failed_link(self, diamond, fast_config):
        from repro.bgp.messages import announcement

        with telemetry_session() as hub:
            network = SimNetwork(diamond, fast_config, seed=1)
            node = network.node(2)
            node.set_link_down(4)
            node.receive(announcement(4, 2, P0, (4,)))
        assert hub.counters["network.drops"] == 1

    def test_telemetry_does_not_change_results(self, diamond, fast_config):
        # The bit-reproducibility contract: an instrumented run returns
        # exactly the numbers of an uninstrumented one.
        def run(telemetry):
            network = SimNetwork(diamond, fast_config, seed=9, telemetry=telemetry)
            network.originate(4, P0)
            network.run_to_convergence()
            network.withdraw(4, P0)
            network.run_to_convergence()
            return (
                network.delivered_messages,
                network.engine.now,
                network.engine.executed_events,
                {n: node.busy_time for n, node in network.nodes.items()},
            )

        assert run(None) == run(Telemetry())


class TestSnapshot:
    def test_snapshot_shape(self):
        t = Telemetry(meta={"experiment": "fig04"})
        t.inc("a", 2)
        t.set_gauge("g", 1.5)
        with t.phase("warmup"):
            pass
        snap = t.snapshot()
        assert snap["meta"] == {"experiment": "fig04"}
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert [p["name"] for p in snap["phases"]] == ["warmup"]
        assert set(snap["summary"]) == {
            "wall_clock_seconds",
            "engine_events",
            "engine_run_seconds",
            "events_per_sec",
        }

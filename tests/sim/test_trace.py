"""Tests for monitor tracing and burstiness analysis."""

import pytest

from repro.bgp.config import BGPConfig
from repro.errors import ParameterError, SimulationError
from repro.prefix.prefix import host_prefix
from repro.sim.network import SimNetwork
from repro.sim.trace import MonitorTrace

P0 = host_prefix(0)


class TestMonitorTrace:
    def test_watches_only_listed_nodes(self):
        trace = MonitorTrace([1, 2])
        assert trace.watches(1)
        assert not trace.watches(3)
        assert trace.monitors == frozenset({1, 2})

    def test_record_and_filter(self):
        trace = MonitorTrace([1, 2])
        trace.record(0.5, 1, 9, is_withdrawal=False)
        trace.record(1.5, 2, 9, is_withdrawal=True)
        trace.record(2.5, 1, 8, is_withdrawal=False)
        assert len(trace) == 3
        assert len(trace.updates(1)) == 2
        assert trace.arrival_times(1) == [0.5, 2.5]

    def test_counts(self):
        trace = MonitorTrace([1])
        trace.record(0.0, 1, 2, is_withdrawal=True)
        trace.record(1.0, 1, 2, is_withdrawal=False)
        counts = trace.counts(1)
        assert counts == {"total": 2, "announcements": 1, "withdrawals": 1}


class TestRateSeries:
    def make_trace(self, times):
        trace = MonitorTrace([1])
        for t in times:
            trace.record(t, 1, 2, is_withdrawal=False)
        return trace

    def test_binning(self):
        trace = self.make_trace([0.1, 0.2, 0.9, 1.5])
        series = trace.rate_series(1.0, start=0.0, end=2.0)
        assert len(series) == 2
        assert series[0] == (0.0, 3.0)  # 3 arrivals in [0,1)
        assert series[1] == (1.0, 1.0)

    def test_empty_trace(self):
        trace = MonitorTrace([1])
        assert trace.rate_series(1.0) == []

    def test_invalid_bin_width(self):
        trace = self.make_trace([0.0])
        with pytest.raises(ParameterError):
            trace.rate_series(0.0)

    def test_invalid_window(self):
        trace = self.make_trace([5.0])
        with pytest.raises(ParameterError):
            trace.rate_series(1.0, start=10.0, end=5.0)

    def test_no_bin_edge_drift_over_long_window(self):
        # Regression: edges accumulated as `edge += bin_width` drift by an
        # ulp per bin; with one arrival at every exact multiple of 0.1 the
        # drifted edges land past some timestamps, yielding bins counting
        # 0 or 2 arrivals.  Exact edges (lo + i * width) count 1 everywhere.
        bin_width = 0.1
        arrivals = [i * bin_width for i in range(5000)]
        trace = self.make_trace(arrivals)
        series = trace.rate_series(bin_width, start=0.0, end=500.0)
        assert len(series) == 5000
        counts = {round(rate * bin_width) for _, rate in series}
        assert counts == {1}

    def test_edges_are_exact_multiples(self):
        trace = self.make_trace([0.0])
        series = trace.rate_series(0.1, start=0.0, end=100.0)
        for index, (edge, _rate) in enumerate(series):
            assert edge == 0.0 + index * 0.1


class TestBurstiness:
    def test_peak_to_mean(self):
        trace = MonitorTrace([1])
        # 10 arrivals in one bin, nothing in the next nine
        for i in range(10):
            trace.record(0.05 * i, 1, 2, is_withdrawal=False)
        trace.record(9.5, 1, 2, is_withdrawal=False)
        report = trace.burstiness(1.0)
        assert report.bins == 11  # window is [first, last + bin_width)
        assert report.peak_rate == 10.0
        assert report.peak_to_mean > 5.0
        assert 0.0 < report.quiet_fraction < 1.0

    def test_empty_raises(self):
        with pytest.raises(ParameterError):
            MonitorTrace([1]).burstiness(1.0)


class TestEdgeCases:
    """Degenerate traces the analysis helpers must handle gracefully."""

    def test_empty_trace_everywhere(self):
        trace = MonitorTrace([1])
        assert len(trace) == 0
        assert trace.updates() == []
        assert trace.arrival_times() == []
        assert trace.rate_series(1.0) == []
        assert trace.counts() == {
            "total": 0,
            "announcements": 0,
            "withdrawals": 0,
        }
        with pytest.raises(ParameterError):
            trace.burstiness(1.0)

    def test_no_monitors_records_nothing(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=1)
        trace = network.attach_monitors([])
        network.originate(4, P0)
        network.run_to_convergence()
        assert len(trace) == 0

    def test_single_update_trace(self):
        trace = MonitorTrace([1])
        trace.record(3.5, 1, 2, is_withdrawal=False)
        assert trace.arrival_times() == [3.5]
        series = trace.rate_series(1.0)
        assert series == [(3.5, 1.0)]  # one bin: [first, first + width)
        report = trace.burstiness(1.0)
        assert report.bins == 1
        assert report.mean_rate == report.peak_rate == 1.0
        assert report.peak_to_mean == 1.0
        assert report.quiet_fraction == 0.0

    def test_identical_timestamps(self):
        trace = MonitorTrace([1])
        for _ in range(5):
            trace.record(2.0, 1, 2, is_withdrawal=False)
        assert trace.arrival_times() == [2.0] * 5
        series = trace.rate_series(0.5)
        assert series == [(2.0, 10.0)]  # 5 arrivals / 0.5 s bin
        report = trace.burstiness(0.5)
        assert report.bins == 1
        assert report.peak_rate == 10.0
        assert report.peak_to_mean == 1.0

    def test_identical_timestamps_across_monitors_filterable(self):
        trace = MonitorTrace([1, 2])
        trace.record(1.0, 1, 9, is_withdrawal=False)
        trace.record(1.0, 2, 9, is_withdrawal=True)
        trace.record(1.0, 1, 8, is_withdrawal=False)
        assert len(trace.updates(1)) == 2
        assert trace.counts(2) == {
            "total": 1,
            "announcements": 0,
            "withdrawals": 1,
        }


class TestNetworkIntegration:
    def test_attach_and_record(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=1)
        trace = network.attach_monitors([0])
        network.originate(4, P0)
        network.run_to_convergence()
        assert len(trace) > 0
        assert all(u.receiver == 0 for u in trace.updates())
        # arrivals carry increasing timestamps
        times = trace.arrival_times()
        assert times == sorted(times)

    def test_detach_stops_recording(self, diamond, fast_config):
        network = SimNetwork(diamond, fast_config, seed=1)
        trace = network.attach_monitors([0])
        network.originate(4, P0)
        network.run_to_convergence()
        before = len(trace)
        network.detach_monitors()
        network.withdraw(4, P0)
        network.run_to_convergence()
        assert len(trace) == before

    def test_unknown_monitor_rejected(self, diamond_network):
        with pytest.raises(SimulationError):
            diamond_network.attach_monitors([77])

"""Tests for TopologyParams and the Table-1 Baseline parameterization."""

import pytest

from repro.errors import ParameterError
from repro.topology.params import TopologyParams, baseline_counts, baseline_params


class TestBaselineParams:
    def test_counts_sum_to_n(self):
        for n in (100, 1000, 4321, 10000):
            params = baseline_params(n)
            assert params.n_t + params.n_m + params.n_cp + params.n_c == n

    def test_table1_fractions(self):
        params = baseline_params(10000)
        assert params.n_m == 1500  # 0.15 n
        assert params.n_cp == 500  # 0.05 n
        assert params.n_t == 5

    def test_table1_degree_formulas_at_10000(self):
        """At n=10000 the Table-1 formulas give their maximal values."""
        params = baseline_params(10000)
        assert params.d_m == pytest.approx(4.5)
        assert params.d_cp == pytest.approx(3.5)
        assert params.d_c == pytest.approx(1.5)
        assert params.p_m == pytest.approx(3.0)
        assert params.p_cp_m == pytest.approx(2.2)
        assert params.p_cp_cp == pytest.approx(0.55)

    def test_table1_degree_formulas_at_1000(self):
        params = baseline_params(1000)
        assert params.d_m == pytest.approx(2.25)
        assert params.d_cp == pytest.approx(2.15)
        assert params.d_c == pytest.approx(1.05)

    def test_t_probabilities(self):
        params = baseline_params(2000)
        assert params.t_m == params.t_cp == 0.375
        assert params.t_c == 0.125

    def test_custom_n_t(self):
        params = baseline_params(1000, n_t=6)
        assert params.n_t == 6
        assert params.n_t + params.n_m + params.n_cp + params.n_c == 1000

    def test_scenario_label(self):
        assert baseline_params(500).scenario == "BASELINE"


class TestValidation:
    def test_rejects_negative_n(self):
        with pytest.raises(ParameterError):
            baseline_params(0)

    def test_rejects_count_mismatch(self):
        with pytest.raises(ParameterError, match="sum"):
            TopologyParams(
                n=100, n_t=5, n_m=10, n_cp=5, n_c=70,  # sums to 90
                d_m=2, d_cp=2, d_c=1, p_m=1, p_cp_m=0.2, p_cp_cp=0.05,
                t_m=0.375, t_cp=0.375, t_c=0.125,
            )

    def test_rejects_no_t_nodes(self):
        with pytest.raises(ParameterError):
            TopologyParams(
                n=100, n_t=0, n_m=15, n_cp=5, n_c=80,
                d_m=2, d_cp=2, d_c=1, p_m=1, p_cp_m=0.2, p_cp_cp=0.05,
                t_m=0.375, t_cp=0.375, t_c=0.125,
            )

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(ParameterError, match="t_m"):
            baseline_params(100).replace(t_m=1.5)

    def test_rejects_negative_degree(self):
        with pytest.raises(ParameterError, match="d_m"):
            baseline_params(100).replace(d_m=-1.0)

    def test_rejects_zero_regions(self):
        with pytest.raises(ParameterError, match="regions"):
            baseline_params(100).replace(regions=0)

    def test_baseline_counts_too_small(self):
        with pytest.raises(ParameterError):
            baseline_counts(4, n_t=5)


class TestReplace:
    def test_replace_validates(self):
        params = baseline_params(1000)
        with pytest.raises(ParameterError):
            params.replace(n_c=0)  # breaks the sum invariant

    def test_replace_preserves_other_fields(self):
        params = baseline_params(1000)
        changed = params.replace(d_m=9.0)
        assert changed.d_m == 9.0
        assert changed.d_cp == params.d_cp
        assert changed.n == params.n

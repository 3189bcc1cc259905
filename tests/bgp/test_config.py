"""Tests for BGPConfig validation and presets."""

import pytest

from repro.bgp.config import (
    NO_WRATE_CONFIG,
    WRATE_CONFIG,
    BGPConfig,
    DampingConfig,
    MRAIMode,
    SendDiscipline,
)
from repro.errors import ParameterError, SerializationError

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestDefaults:
    def test_paper_defaults(self):
        config = BGPConfig()
        assert config.mrai == 30.0
        assert config.wrate is False
        assert config.mrai_mode is MRAIMode.PER_INTERFACE
        assert config.discipline is SendDiscipline.DELAY_FIRST
        assert config.processing_time_max == pytest.approx(0.100)
        assert config.rate_limiting_enabled

    def test_presets(self):
        assert NO_WRATE_CONFIG.wrate is False
        assert WRATE_CONFIG.wrate is True

    def test_damping_disabled_by_default(self):
        assert BGPConfig().damping.enabled is False


class TestValidation:
    def test_negative_mrai(self):
        with pytest.raises(ParameterError):
            BGPConfig(mrai=-1.0)

    def test_zero_mrai_disables_rate_limiting(self):
        assert not BGPConfig(mrai=0.0).rate_limiting_enabled

    def test_invalid_jitter_band(self):
        with pytest.raises(ParameterError):
            BGPConfig(jitter_low=1.2, jitter_high=1.0)
        with pytest.raises(ParameterError):
            BGPConfig(jitter_low=0.0, jitter_high=0.5)

    def test_negative_processing_time(self):
        with pytest.raises(ParameterError):
            BGPConfig(processing_time_max=-0.1)

    def test_negative_link_delay(self):
        with pytest.raises(ParameterError):
            BGPConfig(link_delay=-0.001)

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    @pytest.mark.parametrize(
        "field",
        ["mrai", "jitter_low", "jitter_high", "processing_time_max", "link_delay"],
    )
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            BGPConfig(**{field: value})

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    @pytest.mark.parametrize(
        "field",
        [
            "withdrawal_penalty",
            "readvertisement_penalty",
            "attribute_change_penalty",
            "suppress_threshold",
            "reuse_threshold",
            "half_life",
            "max_suppress_time",
        ],
    )
    def test_non_finite_damping_parameter_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            DampingConfig(**{field: value})


class TestFromDict:
    @pytest.mark.parametrize("backend", ["dict", "radix"])
    def test_a_named_rib_backend_reads_as_the_one_rib(self, backend):
        config = BGPConfig(wrate=True)
        document = {**config.to_dict(), "rib_backend": backend}
        assert BGPConfig.from_dict(document) == config

    def test_an_unknown_rib_backend_is_malformed(self):
        document = {**BGPConfig().to_dict(), "rib_backend": "btree"}
        with pytest.raises(SerializationError, match="rib_backend"):
            BGPConfig.from_dict(document)


class TestReplace:
    def test_replace_produces_new_validated_config(self):
        config = BGPConfig()
        wrate = config.replace(wrate=True)
        assert wrate.wrate is True
        assert config.wrate is False
        with pytest.raises(ParameterError):
            config.replace(mrai=-5.0)

    def test_config_hashable(self):
        """Configs key the sweep cache, so they must hash consistently."""
        assert hash(BGPConfig()) == hash(BGPConfig())
        assert BGPConfig() == BGPConfig()
        assert BGPConfig(wrate=True) != BGPConfig()

"""Tests for scale presets."""

import pytest

from repro.errors import ParameterError
from repro.experiments.scale import PRESETS, Scale, get_scale


class TestPresets:
    def test_all_presets_valid(self):
        assert {"smoke", "default", "full", "paper"} <= set(PRESETS)
        for preset in PRESETS.values():
            assert preset.sizes == tuple(sorted(preset.sizes))
            assert preset.origins >= 1

    def test_paper_preset_matches_paper(self):
        paper = PRESETS["paper"]
        assert paper.sizes[0] == 1000
        assert paper.sizes[-1] == 10000
        assert paper.origins == 100

    def test_smallest_largest(self):
        scale = PRESETS["default"]
        assert scale.smallest == scale.sizes[0]
        assert scale.largest == scale.sizes[-1]


class TestGetScale:
    def test_by_name_case_insensitive(self):
        assert get_scale("SMOKE") is PRESETS["smoke"]

    def test_environment_does_not_choose_the_preset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert get_scale() is PRESETS["default"]

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale() is PRESETS["default"]

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown scale"):
            get_scale("galactic")


class TestScaleValidation:
    def test_empty_sizes(self):
        with pytest.raises(ParameterError):
            Scale(name="x", sizes=(), origins=1)

    def test_degenerate_size(self):
        with pytest.raises(ParameterError):
            Scale(name="x", sizes=(10,), origins=1)

    def test_zero_origins(self):
        with pytest.raises(ParameterError):
            Scale(name="x", sizes=(100,), origins=0)

"""Tests for experiment configuration."""

import pytest

from repro.device.errors import ConfigurationError
from repro.sim.config import MAX_TOTAL_LINES, ExperimentConfig, default_endurance_map


class TestDefaultEnduranceMap:
    def test_linear_default_shape(self):
        emap = default_endurance_map()
        assert emap.regions == 2048
        assert emap.lines == 2048 * 8
        assert emap.q_ratio == pytest.approx(50.0, rel=1e-6)

    def test_zhang_li_family(self):
        emap = default_endurance_map(
            regions=256, lines_per_region=2, endurance_model="zhang-li"
        )
        assert emap.regions == 256
        assert emap.q_ratio > 10

    def test_lognormal_family(self):
        emap = default_endurance_map(
            regions=128, lines_per_region=2, endurance_model="lognormal"
        )
        assert emap.lines == 256

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            default_endurance_map(endurance_model="weibull")

    def test_seed_reproducibility(self):
        import numpy as np

        a = default_endurance_map(regions=64, lines_per_region=2, seed=5)
        b = default_endurance_map(regions=64, lines_per_region=2, seed=5)
        np.testing.assert_array_equal(a.line_endurance, b.line_endurance)


class TestExperimentConfig:
    def test_defaults_match_paper(self):
        config = ExperimentConfig()
        assert config.regions == 2048
        assert config.q == 50.0
        assert config.spare_fraction == 0.1
        assert config.swr_fraction == 0.9

    def test_total_lines(self):
        assert ExperimentConfig(regions=4, lines_per_region=3).total_lines == 12

    def test_with_override(self):
        config = ExperimentConfig().with_(spare_fraction=0.2)
        assert config.spare_fraction == 0.2
        assert config.regions == 2048

    def test_make_emap_respects_config(self):
        config = ExperimentConfig(regions=64, lines_per_region=4, q=10.0)
        emap = config.make_emap()
        assert emap.regions == 64
        assert emap.q_ratio == pytest.approx(10.0, rel=1e-6)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("regions", 0),
            ("spare_fraction", 1.0),
            ("swr_fraction", 1.5),
            ("q", 0.5),
            ("endurance_model", "weird"),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**{field: value})


class TestDeviceSizeLimit:
    def test_largest_device_the_repo_runs_is_accepted(self):
        # The 1M-line full-scale benchmark device.
        assert ExperimentConfig(regions=16384, lines_per_region=64).total_lines == 2**20

    def test_limit_is_the_papers_device(self):
        assert MAX_TOTAL_LINES == 2048 * 8192
        assert ExperimentConfig(regions=2048, lines_per_region=8192).total_lines == MAX_TOTAL_LINES

    def test_one_line_over_the_limit_is_rejected(self):
        with pytest.raises(ConfigurationError, match="exceeds the limit"):
            ExperimentConfig(regions=MAX_TOTAL_LINES + 1, lines_per_region=1)
        with pytest.raises(ConfigurationError, match="exceeds the limit"):
            ExperimentConfig(regions=2048, lines_per_region=8193)

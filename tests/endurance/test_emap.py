"""Tests for the EnduranceMap container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.endurance.emap import EnduranceMap


def make_map():
    # 3 regions x 2 lines; region endurances 10/30/20.
    return EnduranceMap(np.array([10.0, 10.0, 30.0, 30.0, 20.0, 20.0]), regions=3)


class TestConstruction:
    def test_shape_properties(self):
        emap = make_map()
        assert emap.lines == 6
        assert emap.regions == 3
        assert emap.lines_per_region == 2

    def test_totals(self):
        emap = make_map()
        assert emap.total_endurance == pytest.approx(120.0)
        assert emap.min_endurance == 10.0
        assert emap.max_endurance == 30.0
        assert emap.q_ratio == pytest.approx(3.0)

    def test_array_frozen(self):
        emap = make_map()
        with pytest.raises(ValueError):
            emap.line_endurance[0] = 99.0

    def test_indivisible_regions_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            EnduranceMap(np.ones(5), regions=2)

    def test_non_positive_endurance_rejected(self):
        with pytest.raises(ValueError, match="strictly positive"):
            EnduranceMap(np.array([1.0, 0.0]), regions=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EnduranceMap(np.array([]), regions=1)

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            EnduranceMap(np.ones((2, 2)), regions=2)


class TestRegionViews:
    def test_region_slice(self):
        emap = make_map()
        assert emap.region_slice(1) == slice(2, 4)

    def test_region_slice_out_of_range(self):
        with pytest.raises(IndexError):
            make_map().region_slice(3)

    def test_region_of_line(self):
        emap = make_map()
        assert emap.region_of_line(0) == 0
        assert emap.region_of_line(5) == 2

    def test_region_lines_values(self):
        np.testing.assert_array_equal(make_map().region_lines(2), [20.0, 20.0])

    @pytest.mark.parametrize(
        "metric,expected", [("min", [10, 30, 20]), ("mean", [10, 30, 20]), ("max", [10, 30, 20])]
    )
    def test_region_endurance_constant_regions(self, metric, expected):
        np.testing.assert_array_equal(make_map().region_endurance(metric), expected)

    def test_region_endurance_metrics_differ_with_variation(self):
        emap = EnduranceMap(np.array([1.0, 5.0, 2.0, 2.0]), regions=2)
        assert emap.region_endurance("min")[0] == 1.0
        assert emap.region_endurance("max")[0] == 5.0
        assert emap.region_endurance("mean")[0] == 3.0

    @settings(max_examples=200, deadline=None)
    @given(
        regions=st.integers(1, 12),
        lines_per_region=st.one_of(st.sampled_from([1, 2, 3, 7, 8, 64]), st.integers(1, 17)),
        data=st.data(),
    )
    def test_region_min_max_equal_the_axis_reduction(self, regions, lines_per_region, data):
        """``min``/``max`` reduce over the region starts; they must equal
        the 2-D axis reduction bit for bit, ties and widths of one
        included."""
        # Few distinct values (heavy ties) or arbitrary positive floats.
        element = data.draw(
            st.sampled_from(
                [
                    st.sampled_from([1.0, 2.0, 2.5]),
                    st.floats(min_value=1e-300, max_value=1e300),
                    st.floats(min_value=1.0, allow_nan=False),
                ]
            )
        )
        lines = regions * lines_per_region
        values = data.draw(st.lists(element, min_size=lines, max_size=lines))
        emap = EnduranceMap(np.array(values), regions=regions)
        grid = emap.line_endurance.reshape(regions, lines_per_region)
        for metric, want in (("min", grid.min(axis=1)), ("max", grid.max(axis=1))):
            got = emap.region_endurance(metric)
            assert got.dtype == want.dtype and got.shape == (regions,)
            assert got.tobytes() == want.tobytes()

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            make_map().region_endurance("median")


class TestRanking:
    def test_rank_regions_ascending(self):
        np.testing.assert_array_equal(make_map().rank_regions(), [0, 2, 1])

    def test_rank_ties_broken_by_id(self):
        emap = EnduranceMap(np.array([5.0, 5.0, 5.0, 5.0]), regions=2)
        np.testing.assert_array_equal(emap.rank_regions(), [0, 1])

    def test_weakest_lines(self):
        np.testing.assert_array_equal(make_map().weakest_lines(3), [0, 1, 4])

    def test_weakest_lines_bounds(self):
        assert make_map().weakest_lines(0).size == 0
        with pytest.raises(ValueError):
            make_map().weakest_lines(7)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=4, max_size=32).filter(
            lambda values: len(values) % 2 == 0
        )
    )
    def test_weakest_lines_property(self, values):
        emap = EnduranceMap(np.array(values), regions=2)
        count = len(values) // 2
        weakest = emap.weakest_lines(count)
        threshold = np.sort(emap.line_endurance)[count - 1]
        assert np.all(emap.line_endurance[weakest] <= threshold)


def test_with_regions_reviews_structure():
    emap = make_map().with_regions(6)
    assert emap.lines_per_region == 1
    assert emap.regions == 6

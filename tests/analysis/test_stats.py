"""Unit tests for the statistics toolkit."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    histogram,
    mode_bin,
    percentile,
    probability_density,
    summarize,
)


class TestSummarize:
    def test_basic_summary(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s.count == 5
        assert s.mean == 3.0
        assert s.minimum == 1
        assert s.maximum == 5
        assert s.p50 == 3.0

    def test_std(self):
        s = summarize([2, 4, 4, 4, 5, 5, 7, 9])
        assert s.std == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestPercentile:
    def test_interpolation(self):
        assert percentile([0, 10], 50.0) == 5.0
        assert percentile([0, 10], 25.0) == 2.5

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0.0) == 1
        assert percentile(data, 100.0) == 9

    def test_single_value(self):
        assert percentile([7], 50.0) == 7.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101.0)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e9, max_value=1e9),
                    min_size=1, max_size=100))
    def test_bounded_by_min_max(self, data):
        for q in (0, 10, 50, 90, 100):
            value = percentile(data, q)
            assert min(data) <= value <= max(data)


class TestHistogram:
    def test_counts(self):
        bins = histogram([1, 1.5, 2, 3], bin_width=1.0)
        assert bins[0] == (1.0, 2)
        assert bins[1] == (2.0, 1)
        assert bins[2] == (3.0, 1)

    def test_empty(self):
        assert histogram([], bin_width=1.0) == []

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            histogram([1], bin_width=0)

    def test_density_integrates_to_one(self):
        pdf = probability_density(list(range(100)), bin_width=10.0)
        area = sum(density * 10.0 for _, density in pdf)
        assert area == pytest.approx(1.0)

    def test_mode_bin(self):
        assert mode_bin([1, 2, 2, 2, 9], bin_width=1.0) == 2.0


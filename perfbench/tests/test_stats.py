"""The percentile rule: a percentile needs ten samples beyond it."""

import pytest

from perfbench.stats import MIN_BEYOND, min_samples_for, percentile


def test_p99_of_a_few_repeats_is_not_reported():
    # seven repeats: ordered[int(7 * 0.99)] would be the maximum
    value, n, beyond = percentile([5, 1, 7, 3, 2, 6, 4], 0.99)
    assert value is None and n == 7 and beyond == 0


def test_p99_needs_a_thousand_samples():
    assert min_samples_for(0.99) == 1000
    samples = list(range(1, 1001))
    assert percentile(samples, 0.99) == (990, 1000, MIN_BEYOND)
    assert percentile(samples[:-1], 0.99)[0] is None


def test_median_is_nearest_rank():
    samples = list(range(100, 0, -1))  # order must not matter
    assert percentile(samples, 0.5) == (50, 100, 50)
    assert percentile([4] * 25, 0.5)[0] == 4


def test_empty_and_bad_quantile():
    assert percentile([], 0.5) == (None, 0, 0)
    with pytest.raises(ValueError):
        percentile([1, 2], 1.0)

"""Nearest-rank percentiles and the samples each needs."""

import pytest

from stats import beyond, percentile, rank, samples_needed


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 99) == 99
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_samples_beyond_percentile():
    assert rank(1000, 99) == 990
    assert beyond(1000, 99) == 10
    assert beyond(999, 99) == 9
    assert beyond(100, 90) == 10


@pytest.mark.parametrize("q,n", [(50, 20), (90, 100), (99, 1000)])
def test_samples_needed_puts_ten_beyond(q, n):
    assert samples_needed(q) == n
    assert beyond(n, q) >= 10 > beyond(n - 1, q)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        rank(10, 0)

"""Percentiles by nearest rank, with the sample counts they need."""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, math.ceil(q / 100 * n))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n - rank(n, q)


def samples_needed(q: float, tail: int = TAIL_SAMPLES) -> int:
    """Fewest samples that put ``tail`` samples beyond percentile ``q``."""
    n = tail + 1
    while beyond(n, q) < tail:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q) - 1]

"""Percentiles with their sample support."""

from __future__ import annotations

import math

#: A percentile is only reported when at least this many samples lie
#: strictly above it; otherwise it would just be one of the largest few
#: samples (with 7 samples, ``ordered[int(n * 0.99)]`` is the maximum).
MIN_BEYOND = 10


def percentile(samples, q: float) -> tuple[float | None, int, int]:
    """Nearest-rank ``q``-quantile of ``samples`` (0 < q < 1).

    Returns ``(value, n, beyond)``: the value (``None`` when fewer than
    :data:`MIN_BEYOND` samples lie above its rank), the sample count and
    the number of samples ranked above it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), not {q}")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return None, 0, 0
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None, n, beyond
    return ordered[rank - 1], n, beyond


def min_samples_for(q: float) -> int:
    """Smallest sample count whose ``q``-quantile has enough support."""
    n = 1
    while n - max(1, math.ceil(q * n)) < MIN_BEYOND:
        n += 1
    return n

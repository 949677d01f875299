"""Empirical-law distances used by the comparison harness."""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def _ecdf_gap(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of both samples, and |ECDF_a - ECDF_b| at each of its
    points.  The ECDFs are right-continuous, so the gap at ``grid[i]`` holds
    on [grid[i], grid[i+1]) and is 0 past the last point."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if len(a) == 0 or len(b) == 0:
        raise DomainError("two-sample distances need nonempty samples")
    grid = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return grid, np.abs(cdf_a - cdf_b)


def ks_two_sample(a, b) -> float:
    """sup |ECDF_a - ECDF_b|; always in [0, 1]."""
    return float(np.max(_ecdf_gap(a, b)[1]))


def ks_critical_value(n: int, m: int, confidence: float = 0.99) -> float:
    """Asymptotic two-sample KS threshold at the given confidence:
    c sqrt((n + m) / (n m)), with Smirnov's c = sqrt(-ln((1 - confidence) / 2) / 2)."""
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence must be in (0, 1), got {confidence}")
    return np.sqrt(-0.5 * np.log((1.0 - confidence) / 2.0) * (n + m) / (n * m))


def wasserstein1(a, b) -> float:
    """The integral of |ECDF_a - ECDF_b| over the line: the exact W1 distance
    of the two empirical laws, for any sample sizes and ties."""
    grid, gap = _ecdf_gap(a, b)
    return float(np.dot(gap[:-1], np.diff(grid)))

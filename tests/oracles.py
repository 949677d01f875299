"""Independent oracles that only the tests call: a fitted stable scale, the
empirical characteristic function, a Hill tail index, the exact Pareto tail
and a null calibration of the two-sample KS critical value."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ctrwlab.distances import ks_critical_value, ks_two_sample
from ctrwlab.errors import CtrwLabError, DomainError
from ctrwlab.rng import RandomSource
from ctrwlab.stable import JumpLaw, StableParams, SymmetricPareto, sample_stable


class CalibrationError(CtrwLabError):
    """Scale calibration did not converge; carries the achieved distance."""

    def __init__(self, achieved_ks: float, threshold: float):
        self.achieved_ks = achieved_ks
        self.threshold = threshold
        super().__init__(
            f"calibration fit did not converge: best KS distance "
            f"{achieved_ks:.4f} exceeds {threshold:.4f}"
        )


def empirical_chf(samples: np.ndarray, x_grid) -> np.ndarray:
    """Empirical characteristic function at each grid point."""
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    samples = np.asarray(samples, dtype=float)
    out = np.empty(x_grid.shape, dtype=complex)
    for i, x in enumerate(x_grid):
        phase = x * samples
        out[i] = np.mean(np.cos(phase)) + 1j * np.mean(np.sin(phase))
    return out


def pareto_tail_probability(law: SymmetricPareto, x: float) -> float:
    """P(|xi| > x), exact."""
    if x <= law.x_min:
        return 1.0
    return (x / law.x_min) ** (-law.alpha)


@dataclass(frozen=True)
class CalibrationResult:
    sigma: float
    beta: float
    ks_distance: float


_REF_FACTOR = 2  # the reference sample's size over the number of partial sums
CALIBRATION_KS_THRESHOLD = 0.05


def calibrate_sigma(
    law: JumpLaw, n: int, n_replicates: int, rng: RandomSource
) -> CalibrationResult:
    """Fit the scale sigma mapping the law onto the standard stable limit.

    Draws ``n_replicates`` partial sums of length ``n``, normalizes by
    ``sigma n^(1/alpha)``, and minimizes the two-sample KS distance to an
    exact sample of the standard law ``(alpha_attr, beta_attr, c=1, a=0)``
    over sigma.  Raises ``CalibrationError`` if the optimum stays above
    ``CALIBRATION_KS_THRESHOLD``.
    """
    if n < 10 or n_replicates < 100:
        raise DomainError("calibration needs n >= 10 and n_replicates >= 100")
    alpha = law.alpha_attr
    beta = law.beta_attr

    sums = np.zeros(n_replicates)
    chunk = max(1, int(4e6) // n)
    done = 0
    while done < n_replicates:
        m = min(chunk, n_replicates - done)
        sums[done : done + m] = law.sample(rng, (m, n)).reshape(m, n).sum(axis=1)
        done += m
    normalized = sums / n ** (1.0 / alpha)

    ref = sample_stable(StableParams(alpha, beta), rng, _REF_FACTOR * n_replicates)

    spread = np.subtract(*np.percentile(normalized, [75, 25]))
    ref_spread = np.subtract(*np.percentile(ref, [75, 25]))
    sigma0 = max(spread / ref_spread, 1e-12)

    best_sigma, best_ks = sigma0, np.inf
    center, half_width = math.log(sigma0), math.log(2.0)
    for _ in range(3):
        grid = np.exp(np.linspace(center - half_width, center + half_width, 25))
        for sigma in grid:
            ks = ks_two_sample(normalized / sigma, ref)
            if ks < best_ks:
                best_ks, best_sigma = ks, float(sigma)
        center = math.log(best_sigma)
        half_width /= 5.0

    if best_ks > CALIBRATION_KS_THRESHOLD:
        raise CalibrationError(best_ks, CALIBRATION_KS_THRESHOLD)
    return CalibrationResult(sigma=best_sigma, beta=beta, ks_distance=best_ks)


def hill_estimator(samples: np.ndarray, tail_fraction: float = 0.01) -> float:
    """Hill estimate of the tail index from the top fraction of |samples|."""
    if not 0.0 < tail_fraction < 1.0:
        raise DomainError(f"tail_fraction must be in (0, 1), got {tail_fraction}")
    magnitudes = np.sort(np.abs(np.asarray(samples, dtype=float)))[::-1]
    k = int(len(magnitudes) * tail_fraction)
    if k < 2:
        raise DomainError("too few samples for the requested tail fraction")
    logs = np.log(magnitudes[: k + 1])
    return float(1.0 / np.mean(logs[:k] - logs[k]))


def split_self_test(samples: np.ndarray, n_rounds: int, rng: RandomSource) -> float:
    """Fraction of random half-splits of one ensemble whose two-sample KS
    stays below the 99% critical value; a null-calibration sanity check."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    half = n // 2
    crit = ks_critical_value(half, n - half, 0.99)
    ok = 0
    for _ in range(n_rounds):
        perm = rng.permutation(n)
        if ks_two_sample(samples[perm[:half]], samples[perm[half:]]) < crit:
            ok += 1
    return ok / n_rounds

"""Independent oracles that only the tests call: a fitted stable scale, the
exact and the empirical characteristic function, a Hill tail index, the
exact Pareto tail, a null calibration of the two-sample KS critical value,
the eager draw of a Poisson configuration, the Cesaro-average check of
1/Lambda by its own Gauss-Legendre panel rule, a Monte Carlo E[1/Lambda],
and the walk as it was written before its draws went into reused arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ctrwlab.distances import ks_critical_value, ks_two_sample
from ctrwlab import environment
from ctrwlab.environment import EnvSpec, Kernel, PoissonConfig, _kinks
from ctrwlab.errors import CtrwLabError, DomainError
from ctrwlab.rng import RandomSource, spawn_rng
from ctrwlab.stable import (
    Gaussian,
    JumpLaw,
    Lattice,
    SkewedPareto,
    StableParams,
    SymmetricPareto,
    _tan_half_pi,
    sample_stable,
)
from ctrwlab.walk import DeterministicWait, Exponential, GammaWait, ParetoWait


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


def stable_chf(params: StableParams, x):
    """Characteristic function of the stable law at ``x`` (scalar or array)."""
    x = np.asarray(x, dtype=float)
    tan_term = _tan_half_pi(params.alpha)
    omega = 1.0 + 1j * params.beta * np.sign(x) * tan_term
    out = np.exp(
        1j * params.location_a * x
        - params.scale_c * np.abs(x) ** params.alpha * omega
    )
    if out.ndim == 0:
        return complex(out)
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


def sample_config_eager(window: tuple[float, float], rng: RandomSource) -> PoissonConfig:
    """The whole window's configuration in one draw: one key from ``rng``,
    then every cell that meets the window from its own stream (its Poisson
    count, then its uniforms), clipped to the window.  ``sample_config``
    must give the same points and leave ``rng`` in the same state."""
    lo, hi = float(window[0]), float(window[1])
    key = int(rng.integers(2**63))
    width = environment._CELL_WIDTH
    cells = []
    for k in range(int(lo // width), int(hi // width) + 1):
        cell_rng = spawn_rng(key, "env-cell", 2 * k if k >= 0 else -2 * k - 1)
        cells.append(cell_rng.uniform(k * width, (k + 1) * width, cell_rng.poisson(width)))
    points = np.concatenate(cells)
    return PoissonConfig(points[(lo <= points) & (points <= hi)], lo, hi)


# The Cesaro check's panel rule: Gauss-Legendre of this order on panels at
# most this wide, split at every kink of 1/Lambda.
_GAUSS_ORDER = 4
_PANEL_WIDTH = 1.0


@lru_cache(maxsize=1)
def _gauss_nodes() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_GAUSS_ORDER)


def _panel_prefix(
    integrand: Callable[[np.ndarray], np.ndarray], breakpoints: np.ndarray
) -> np.ndarray:
    """Integrals of ``integrand`` from the first breakpoint to each one, by
    ``_GAUSS_ORDER``-point Gauss panels on every interval; the intervals go
    to the integrand in slices that keep the node arrays bounded."""
    nodes, weights = _gauss_nodes()
    a = breakpoints[:-1]
    b = breakpoints[1:]
    per_interval = np.empty(len(a))
    chunk = 200_000
    for start in range(0, len(a), chunk):
        sl = slice(start, min(start + chunk, len(a)))
        half = 0.5 * (b[sl] - a[sl])
        mid = 0.5 * (a[sl] + b[sl])
        xs = mid[:, None] + half[:, None] * nodes[None, :]
        ys = np.asarray(integrand(xs.ravel()), dtype=float).reshape(xs.shape)
        per_interval[sl] = (ys @ weights) * half
    return np.concatenate(([0.0], np.cumsum(per_interval)))


def _subdivide(breakpoints: np.ndarray, h_max: float) -> np.ndarray:
    """Insert uniform interior points so no interval exceeds ``h_max``."""
    gaps = np.diff(breakpoints)
    n_extra = np.maximum(np.ceil(gaps / h_max).astype(int) - 1, 0)
    if not n_extra.any():
        return breakpoints
    idx = np.nonzero(n_extra)[0]
    counts = n_extra[idx]
    # a + k (b - a)/(n + 1), k = 1..n, for each gap: linspace's interior points
    k = np.arange(1, counts.sum() + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    step = np.repeat(gaps[idx] / (counts + 1), counts)
    interior = np.repeat(breakpoints[idx], counts) + k * step
    return np.unique(np.concatenate([breakpoints, interior]))


def cesaro_error(env: EnvSpec, ts, r: float) -> list[float]:
    """For each t in ``ts``, in order: the sup over windows x, t/8 apart
    in |x| <= t^r, of |(1/t) integral_x^(x+t) of 1/Lambda - mean|.

    Every window integral is a difference of one prefix integral over the
    union of the spans, by ``_panel_prefix`` on panels at most
    ``_PANEL_WIDTH`` wide, split at every window edge, configuration point
    and kernel support edge, so the estimate carries quadrature error far
    below the statistical signal.
    """
    ts = [float(t) for t in ts]
    if not ts or not all(t > 0.0 for t in ts):
        raise DomainError(f"every t must be positive, got {ts}")
    starts = [np.arange(-(t**r), t**r + t / 16.0, t / 8.0) for t in ts]
    ends = [xs + t for t, xs in zip(ts, starts)]
    span_lo = min(xs[0] for xs in starts)
    span_hi = max(xs[-1] for xs in ends)
    kinks = _kinks(env, span_lo, span_hi)
    breakpoints = np.unique(np.concatenate([kinks, *starts, *ends]))
    breakpoints = _subdivide(breakpoints, _PANEL_WIDTH)
    prefix = _panel_prefix(env.lambda_inv_many, breakpoints)
    out = []
    for t, xs, xe in zip(ts, starts, ends):
        window = prefix[np.searchsorted(breakpoints, xe)]
        window -= prefix[np.searchsorted(breakpoints, xs)]
        out.append(float(np.max(np.abs(window / t - env.lambda_bar_inv))))
    return out


def mc_mean_lambda_inv(
    kernel: Kernel, n_configs: int, rng: RandomSource
) -> tuple[float, float]:
    """Monte Carlo estimate of E[1/Lambda(0)] over fresh configurations.

    Only points within the cutoff of the origin matter, so each replicate
    samples the window [-cutoff_r, cutoff_r].  Returns (mean, standard
    error); the independent check of the analytic exponential-moment
    formula.
    """
    r = kernel.cutoff_r
    counts = rng.poisson(2.0 * r, n_configs)
    total = int(counts.sum())
    offsets = rng.uniform(-r, r, total)
    contrib = np.asarray(kernel.phi(offsets), dtype=float)
    cums = np.concatenate(([0.0], np.cumsum(contrib)))
    splits = np.concatenate(([0], np.cumsum(counts)))
    potentials = cums[splits[1:]] - cums[splits[:-1]]
    values = np.exp(potentials)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_configs))


def reference_sample(law, rng: RandomSource, size) -> np.ndarray:
    """Each jump and wait law's draws as fresh arrays, one numpy expression
    per law: the route every ``law.sample(rng, size, out=...)`` must match
    bitwise."""
    if isinstance(law, SymmetricPareto):
        magnitude = law.x_min * rng.random(size) ** (-1.0 / law.alpha)
        return (rng.integers(0, 2, size) * 2.0 - 1.0) * magnitude
    if isinstance(law, SkewedPareto):
        magnitude = law.x_min * rng.random(size) ** (-1.0 / law.alpha)
        sign = np.where(rng.random(size) < law.p_right, 1.0, -1.0)
        return sign * magnitude - law.centering_shift
    if isinstance(law, Gaussian):
        return math.sqrt(law.variance) * rng.standard_normal(size)
    if isinstance(law, Lattice):
        values = np.array([law.offset + law.b * k for k, _ in law.weights])
        cum = np.cumsum([p for _, p in law.weights])
        idx = np.searchsorted(cum, rng.random(size), side="right")
        return values[np.minimum(idx, len(values) - 1)]
    if isinstance(law, Exponential):
        return law.mean * rng.standard_exponential(size)
    if isinstance(law, ParetoWait):
        return law.x_min * rng.random(size) ** (-1.0 / law.index)
    if isinstance(law, GammaWait):
        return rng.gamma(law.shape, law.scale, size)
    if isinstance(law, DeterministicWait):
        return np.full(size, law.mean)
    raise TypeError(f"no reference draw for {law!r}")


def reference_skeleton(
    jump, wait, horizon_t: float, rng: RandomSource, env=None
) -> tuple[np.ndarray, np.ndarray]:
    """(positions, holds) of ``simulate_skeleton``'s path, from whole-block
    arrays: every block's sites, 1/Lambda and clock in full, fresh arrays
    throughout, and ``reference_sample``'s draws."""
    mean_hold = wait.mu if env is None else wait.mu * env.lambda_bar_inv
    block = int(min(max(1024, 1.25 * horizon_t / mean_hold), 2**20))
    pos_chunks = [np.zeros(1)]
    hold_chunks = []
    elapsed = 0.0
    last_site = 0.0
    while True:
        theta = reference_sample(wait, rng, block)
        xi = reference_sample(jump, rng, block)
        sites_after = last_site + np.cumsum(xi)
        sites_during = np.concatenate(([last_site], sites_after[:-1]))
        holds = theta
        if env is not None:
            holds = holds * env.lambda_inv_many(sites_during)
        clock = np.cumsum(np.concatenate(([elapsed], holds)))[1:]
        j = int(np.searchsorted(clock, horizon_t, side="right"))
        pos_chunks.append(sites_after[:j])
        hold_chunks.append(holds[: j + 1])
        if j < block:
            break
        elapsed = float(clock[-1])
        last_site = float(sites_after[-1])
    return np.concatenate(pos_chunks), np.concatenate(hold_chunks)

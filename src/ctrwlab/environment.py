"""Jump-intensity environments: deterministic profiles and Poisson
shot-noise potentials, with their analytic moments and the empirical
checks backing the sub-polynomial-growth and Cesaro-average assumptions.

A shot-noise environment is ``Lambda(x) = exp(-E(x))`` with
``E(x) = sum over configuration points y of phi(x - y)`` for a nonnegative
kernel ``phi`` bounded by ``C / (1 + |x|^(1+beta))``.  Evaluation truncates
the sum to ``|x - y| <= cutoff_r``; the expected mass dropped is at most
``2 C cutoff_r^(-beta) / beta`` per unit intensity, and the default cutoffs
keep that below 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np
from scipy.integrate import quad

from .errors import BoundaryError, DomainError, QuadratureError
from .rng import RandomSource


@dataclass(frozen=True)
class Kernel:
    """Shot-noise kernel phi >= 0 with an explicit decay envelope.

    ``bound_c`` and ``decay_beta`` certify phi(x) <= bound_c / (1+|x|^(1+beta));
    the envelope is spot-checked on a grid at construction.  ``cutoff_r``
    is the evaluation radius; ``compact_support`` marks kernels vanishing
    beyond the cutoff (exact truncation).
    """

    phi: Callable[[np.ndarray], np.ndarray]
    bound_c: float
    decay_beta: float
    cutoff_r: float
    compact_support: bool = False
    name: str = "custom"

    def __post_init__(self):
        if not (self.bound_c > 0.0 and self.decay_beta > 0.0 and self.cutoff_r > 0.0):
            raise DomainError("bound_c, decay_beta and cutoff_r must be positive")
        xs = np.linspace(-2.0 * self.cutoff_r, 2.0 * self.cutoff_r, 2001)
        vals = np.asarray(self.phi(xs), dtype=float)
        envelope = self.bound_c / (1.0 + np.abs(xs) ** (1.0 + self.decay_beta))
        if np.any(vals < -1e-12) or np.any(vals > envelope + 1e-9):
            raise DomainError(
                "kernel violates 0 <= phi(x) <= C/(1+|x|^(1+beta)) on the test grid"
            )

    @property
    def tail_bound(self) -> float:
        """Expected truncated mass per unit intensity."""
        if self.compact_support:
            return 0.0
        return 2.0 * self.bound_c * self.cutoff_r**-self.decay_beta / self.decay_beta


def power_kernel(
    amplitude: float = 0.5, decay_beta: float = 3.0, tail_tol: float = 1e-6
) -> Kernel:
    """phi(x) = A / (1 + |x|^(1+beta)), cutoff sized so the truncation
    bound stays below ``tail_tol``."""
    cutoff = (2.0 * amplitude / (decay_beta * tail_tol)) ** (1.0 / decay_beta)

    def phi(x):
        return amplitude / (1.0 + np.abs(x) ** (1.0 + decay_beta))

    return Kernel(
        phi=phi,
        bound_c=amplitude,
        decay_beta=decay_beta,
        cutoff_r=cutoff,
        name=f"power(A={amplitude},beta={decay_beta})",
    )


def bump_kernel(amplitude: float = math.log(2.0)) -> Kernel:
    """Compactly supported phi(x) = A max(0, 1-|x|)^2; truncation is exact."""

    def phi(x):
        return amplitude * np.clip(1.0 - np.abs(x), 0.0, None) ** 2

    return Kernel(
        phi=phi,
        bound_c=amplitude,
        decay_beta=1.0,
        cutoff_r=1.0,
        compact_support=True,
        name=f"bump(A={amplitude})",
    )


@dataclass(frozen=True)
class PoissonConfig:
    """A homogeneous unit-intensity Poisson configuration restricted to a
    window; points are kept sorted."""

    points: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError("window must satisfy lo <= hi")

    @property
    def count(self) -> int:
        return len(self.points)


def sample_config(window: tuple[float, float], rng: RandomSource) -> PoissonConfig:
    """Poisson(length) many points, iid uniform on the window, sorted."""
    lo, hi = float(window[0]), float(window[1])
    if lo > hi:
        raise DomainError("window must satisfy lo <= hi")
    count = int(rng.poisson(hi - lo))
    points = np.sort(rng.uniform(lo, hi, count))
    return PoissonConfig(points=points, lo=lo, hi=hi)


def save_config(config: PoissonConfig, destination) -> None:
    """One coordinate per line, 17 significant digits; the first line holds
    the window."""
    with open(destination, "w") as fh:
        fh.write(f"# window {config.lo:.17g} {config.hi:.17g}\n")
        for p in config.points:
            fh.write(f"{p:.17g}\n")


def load_config(source) -> PoissonConfig:
    points = []
    lo = hi = None
    with open(source) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split()
                if len(parts) >= 4 and parts[1] == "window":
                    lo, hi = float(parts[2]), float(parts[3])
                continue
            points.append(float(line))
    if lo is None or hi is None:
        raise DomainError("config file lacks a window header line")
    return PoissonConfig(points=np.asarray(points, dtype=float), lo=lo, hi=hi)


@dataclass(frozen=True)
class DeterministicEnv:
    """A fixed intensity profile Lambda(x) with its Cesaro average of
    1/Lambda supplied analytically."""

    lambda_fn: Callable[[np.ndarray], np.ndarray]
    lambda_bar_inv: float
    name: str = "deterministic"

    def __post_init__(self):
        if not self.lambda_bar_inv > 0.0:
            raise DomainError("lambda_bar_inv must be positive")

    def lambda_many(self, x: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.lambda_fn(np.asarray(x, dtype=float)), dtype=float)
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise DomainError("Lambda must be positive and finite everywhere")
        return vals

    def lambda_inv_many(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / self.lambda_many(x)


def periodic_env(
    mean_level: float = 2.0, amplitude: float = 1.0, frequency: float = 1.0
) -> DeterministicEnv:
    """Environment with 1/Lambda(x) = mean_level + amplitude sin(2 pi f x)."""
    if not mean_level > abs(amplitude):
        raise DomainError("need mean_level > |amplitude| so Lambda stays positive")

    def lambda_fn(x):
        return 1.0 / (mean_level + amplitude * np.sin(2.0 * math.pi * frequency * x))

    return DeterministicEnv(
        lambda_fn=lambda_fn,
        lambda_bar_inv=mean_level,
        name=f"periodic(mean={mean_level},amp={amplitude},freq={frequency})",
    )


@dataclass(frozen=True)
class ShotNoiseEnv:
    """Lambda(x) = exp(-E(x)) over a fixed Poisson configuration.

    Immutable after creation; safe to share across parallel path
    simulations in quenched mode.
    """

    kernel: Kernel
    config: PoissonConfig

    def _check_bounds(self, x: np.ndarray) -> None:
        r = self.kernel.cutoff_r
        xmin, xmax = float(np.min(x)), float(np.max(x))
        if xmin < self.config.lo + r or xmax > self.config.hi - r:
            raise BoundaryError(
                f"query range [{xmin:.6g}, {xmax:.6g}] is within cutoff "
                f"{r:.6g} of the window [{self.config.lo:.6g}, {self.config.hi:.6g}]"
            )

    def potential_many(self, x: np.ndarray, _work_cap: int = 4_000_000) -> np.ndarray:
        """E(x) truncated to |x - y| <= cutoff_r, vectorized over x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size == 0:
            return np.zeros(0)
        self._check_bounds(x)
        pts = self.config.points
        r = self.kernel.cutoff_r
        lo_idx = np.searchsorted(pts, x - r, side="left")
        hi_idx = np.searchsorted(pts, x + r, side="right")
        counts = hi_idx - lo_idx
        out = np.zeros(x.shape)
        # process in slices keeping the scratch arrays bounded
        boundaries = np.searchsorted(np.cumsum(counts), np.arange(0, counts.sum() + _work_cap, _work_cap), side="left")
        boundaries = np.unique(np.append(boundaries, len(x)))
        for lo_b, hi_b in zip(boundaries[:-1], boundaries[1:]):
            sl = slice(int(lo_b), int(hi_b))
            c = counts[sl]
            total = int(c.sum())
            if total == 0:
                continue
            starts = np.concatenate(([0], np.cumsum(c)[:-1]))
            flat = np.repeat(lo_idx[sl], c) + np.arange(total) - np.repeat(starts, c)
            contrib = np.asarray(
                self.kernel.phi(np.repeat(x[sl], c) - pts[flat]), dtype=float
            )
            cumulative = np.concatenate(([0.0], np.cumsum(contrib)))
            out[sl] = cumulative[starts + c] - cumulative[starts]
        return out

    def lambda_inv_many(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.potential_many(x))

    def lambda_many(self, x: np.ndarray) -> np.ndarray:
        return np.exp(-self.potential_many(x))

    @property
    def lambda_bar_inv(self) -> float:
        return mean_lambda_inv_analytic(self.kernel, 1.0)


EnvSpec = Union[DeterministicEnv, ShotNoiseEnv]


def potential(env: ShotNoiseEnv, x: float) -> float:
    """Truncated shot-noise potential at a single location."""
    return float(env.potential_many(np.array([x]))[0])


def lambda_inv(env: EnvSpec, x: float) -> float:
    """1/Lambda(x) for either environment kind."""
    return float(env.lambda_inv_many(np.array([x]))[0])


def _exp_phi_integral(kernel: Kernel, a: float, rel_tol: float = 1e-8) -> float:
    """integral over the line of (exp(a phi(y)) - 1) dy with an error check."""
    if a == 0.0:
        return 0.0

    def integrand(y):
        return math.expm1(a * kernel.phi(y))

    r = kernel.cutoff_r
    pieces = []
    total_err = 0.0
    core, err = quad(integrand, -r, r, points=[0.0], limit=400, epsabs=1e-13)
    pieces.append(core)
    total_err += err
    if not kernel.compact_support:
        right, err_r = quad(integrand, r, np.inf, limit=400, epsabs=1e-13)
        left, err_l = quad(integrand, -np.inf, -r, limit=400, epsabs=1e-13)
        pieces.extend([right, left])
        total_err += err_r + err_l
    value = float(sum(pieces))
    if total_err > rel_tol * max(abs(value), 1e-12):
        raise QuadratureError(
            f"exp-moment integral error estimate {total_err:.3e} exceeds "
            f"relative tolerance {rel_tol:.1e} (value {value:.6e})"
        )
    return value


def mean_lambda_inv_analytic(kernel: Kernel, a: float) -> float:
    """E[Lambda(x)^(-a)] = exp(integral of (e^(a phi) - 1)) for the
    unit-intensity Poisson environment (location-independent)."""
    return math.exp(_exp_phi_integral(kernel, a))


def theorem5_constant(kernel: Kernel, alpha: float) -> float:
    """exp((1/alpha - 1) integral of (e^phi - 1)); the averaged-environment
    factor in the quenched limit law.  Requires alpha strictly in (1, 2)."""
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"alpha must be in (1, 2), got {alpha}")
    return math.exp((1.0 / alpha - 1.0) * _exp_phi_integral(kernel, 1.0))


@lru_cache(maxsize=8)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _panel_prefix(
    integrand: Callable[[np.ndarray], np.ndarray],
    breakpoints: np.ndarray,
    order: int = 7,
    chunk: int = 200_000,
) -> np.ndarray:
    """Prefix integrals of ``integrand`` at each breakpoint via fixed-order
    Gauss panels on every interval."""
    nodes, weights = _gauss_nodes(order)
    a = breakpoints[:-1]
    b = breakpoints[1:]
    per_interval = np.empty(len(a))
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
    pieces = [breakpoints]
    idx = np.nonzero(n_extra)[0]
    for i in idx:
        pieces.append(
            np.linspace(breakpoints[i], breakpoints[i + 1], n_extra[i] + 2)[1:-1]
        )
    return np.unique(np.concatenate(pieces))


def _integrand_and_kinks(env: EnvSpec, span_lo: float, span_hi: float):
    """1/Lambda and its kinks strictly inside (span_lo, span_hi): the
    configuration points and the kernel support edges around them."""
    if not isinstance(env, ShotNoiseEnv):
        return env.lambda_inv_many, np.empty(0)
    r = env.kernel.cutoff_r
    need_lo, need_hi = span_lo - r, span_hi + r
    if env.config.lo > need_lo or env.config.hi < need_hi:
        raise BoundaryError(
            f"config window [{env.config.lo:.6g}, {env.config.hi:.6g}] does "
            f"not cover the required span [{need_lo:.6g}, {need_hi:.6g}]"
        )
    # only points within r of the span put a kink inside it
    pts = env.config.points
    pts = pts[np.searchsorted(pts, need_lo) : np.searchsorted(pts, need_hi, side="right")]
    kinks = np.concatenate([pts, pts - r, pts + r])
    return env.lambda_inv_many, kinks[(kinks > span_lo) & (kinks < span_hi)]


def cesaro_error(
    env: EnvSpec,
    t: float,
    r: float,
    grid_step: Optional[float] = None,
    gauss_order: int = 7,
    h_max: float = 0.5,
) -> float:
    """sup over |x| <= t^r of |(1/t) integral_x^(x+t) of 1/Lambda - mean|.

    The windowed integrals come from one prefix integral over the whole
    span, with Gauss panels split at every configuration point (and at the
    kernel support edges), so the estimate carries quadrature error far
    below the statistical signal.
    """
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if grid_step is None:
        grid_step = t / 8.0
    reach = t**r
    xs = np.arange(-reach, reach + grid_step / 2.0, grid_step)
    span_lo, span_hi = -reach, reach + t
    integrand, kinks = _integrand_and_kinks(env, span_lo, span_hi)
    breakpoints = np.unique(
        np.concatenate([[span_lo, span_hi], xs, xs + t, kinks])
    )
    breakpoints = _subdivide(breakpoints, h_max)
    prefix = _panel_prefix(integrand, breakpoints, order=gauss_order)
    left = prefix[np.searchsorted(breakpoints, xs)]
    right = prefix[np.searchsorted(breakpoints, xs + t)]
    averages = (right - left) / t
    return float(np.max(np.abs(averages - env.lambda_bar_inv)))


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


def sup_growth_check(
    env: ShotNoiseEnv, n_list, grid_step: float = 0.25
) -> list[tuple[int, float]]:
    """Grid estimate of sup over |x| <= n of 1/Lambda for each n; used to
    check the o(n^delta) growth of the potential's sup."""
    out = []
    for n in sorted(n_list):
        xs = np.arange(-float(n), float(n) + grid_step / 2.0, grid_step)
        sup = 0.0
        chunk = 200_000
        for start in range(0, len(xs), chunk):
            sup = max(sup, float(np.max(env.lambda_inv_many(xs[start : start + chunk]))))
        out.append((int(n), sup))
    return out

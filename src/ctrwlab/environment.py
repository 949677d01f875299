"""Jump-intensity environments: deterministic profiles and Poisson
shot-noise potentials, with their analytic moments and the empirical
checks backing the sub-polynomial-growth and Cesaro-average assumptions.

An environment answers 1/Lambda (``lambda_inv_many``), the only form the
walk, the limit constants and the Cesaro check read, and rejects one that is
not positive and finite.  A shot-noise environment is
``Lambda(x) = exp(-E(x))`` with ``E(x) = sum over configuration points y of
phi(x - y)`` for a nonnegative kernel ``phi`` bounded by
``C / (1 + |x|^(1+beta))``.  Evaluation truncates the sum to
``|x - y| <= cutoff_r``; the expected mass dropped is at most
``2 C cutoff_r^(-beta) / beta`` per unit intensity, and the default cutoffs
keep that below 1e-6.  Every read of the configuration goes through
``ShotNoiseEnv.points_near``, which checks the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np

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
    points = rng.uniform(lo, hi, count)
    points.sort()
    return PoissonConfig(points=points, lo=lo, hi=hi)


def save_config(config: PoissonConfig, destination) -> None:
    """One coordinate per line, 17 significant digits; the first line holds
    the window."""
    with open(destination, "w") as fh:
        fh.write(f"# window {config.lo:.17g} {config.hi:.17g}\n")
        for p in config.points:
            fh.write(f"{p:.17g}\n")


def load_config(source) -> PoissonConfig:
    """Read a configuration in the ``save_config`` format.  The points may
    come in any order; they are sorted.  A point outside the window, or a
    line that is not a number, raises DomainError."""
    points = []
    lo = hi = None
    with open(source) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            try:
                if line.startswith("#"):
                    parts = line.split()
                    if len(parts) >= 4 and parts[1] == "window":
                        lo, hi = float(parts[2]), float(parts[3])
                elif line:
                    points.append(float(line))
            except ValueError as exc:
                raise DomainError(f"config line {number}: {exc}") from exc
    if lo is None or hi is None:
        raise DomainError("config file lacks a window header line")
    points = np.sort(np.asarray(points, dtype=float))
    if points.size and not (lo <= points[0] and points[-1] <= hi):
        raise DomainError(f"config points must lie in the window [{lo:.17g}, {hi:.17g}]")
    return PoissonConfig(points=points, lo=lo, hi=hi)


def _checked_inverse(vals: np.ndarray) -> np.ndarray:
    """``vals`` as answered by ``lambda_inv_many``: a 1/Lambda that is not
    positive and finite raises DomainError."""
    if not np.all((vals > 0.0) & np.isfinite(vals)):
        raise DomainError("1/Lambda must be positive and finite everywhere")
    return vals


@dataclass(frozen=True)
class DeterministicEnv:
    """A fixed profile of 1/Lambda(x) with its Cesaro average supplied
    analytically.

    ``lambda_bar_inv`` enters the T3 limit constant, and it also sizes the
    draw blocks of walks in this environment (``simulate_skeleton``), so a
    wrong value there costs time, not correctness.
    """

    lambda_inv_fn: Callable[[np.ndarray], np.ndarray]
    lambda_bar_inv: float
    name: str = "deterministic"

    def __post_init__(self):
        if not self.lambda_bar_inv > 0.0:
            raise DomainError("lambda_bar_inv must be positive")

    def lambda_inv_many(self, x: np.ndarray) -> np.ndarray:
        return _checked_inverse(
            np.asarray(self.lambda_inv_fn(np.asarray(x, dtype=float)), dtype=float)
        )


def periodic_env(
    mean_level: float = 2.0, amplitude: float = 1.0, frequency: float = 1.0
) -> DeterministicEnv:
    """Environment with 1/Lambda(x) = mean_level + amplitude sin(2 pi f x)."""
    if not mean_level > abs(amplitude):
        raise DomainError("need mean_level > |amplitude| so Lambda stays positive")

    def lambda_inv_fn(x):
        return mean_level + amplitude * np.sin(2.0 * math.pi * frequency * x)

    return DeterministicEnv(
        lambda_inv_fn=lambda_inv_fn,
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

    def points_near(self, lo: float, hi: float) -> np.ndarray:
        """The sorted configuration points within the cutoff of [lo, hi].

        A range within the cutoff of the window's edge raises BoundaryError:
        points beyond the window that would reach it were never sampled."""
        r = self.kernel.cutoff_r
        cfg = self.config
        # written so that a nan end fails
        if not (cfg.lo + r <= lo and hi <= cfg.hi - r):
            raise BoundaryError(
                f"query range [{lo:.6g}, {hi:.6g}] is within cutoff "
                f"{r:.6g} of the window [{cfg.lo:.6g}, {cfg.hi:.6g}]"
            )
        pts = cfg.points
        first = np.searchsorted(pts, lo - r, side="left")
        return pts[first : np.searchsorted(pts, hi + r, side="right")]

    def potential_many(self, x: np.ndarray) -> np.ndarray:
        """E(x) truncated to |x - y| <= cutoff_r, vectorized over x.

        Each site's value is its own sum over the configuration points
        within the cutoff, added in ascending order, so it does not depend
        on the other sites queried with it.  The sites are sorted and merged
        with the points near them, which finds every site's neighbours
        without a binary search into the whole configuration.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size == 0:
            return np.zeros(0)
        r = self.kernel.cutoff_r
        n = x.size
        order = np.argsort(x, axis=None)
        xs = x.ravel()[order]
        near = self.points_near(xs[0], xs[-1])
        # near[lo[i]:hi[i]] are the points within r of xs[i]: a point lies
        # below the i-th window once i reaches its rank among the window
        # edges, so counting ranks gives every bound in one pass
        lo = np.cumsum(
            np.bincount(np.searchsorted(xs - r, near, side="right"), minlength=n + 1)
        )[:n]
        hi = np.cumsum(
            np.bincount(np.searchsorted(xs + r, near, side="left"), minlength=n + 1)
        )[:n]
        sums = np.zeros(n)
        # pass d adds every site's d-th neighbour, so a site sums its own
        # points in ascending order and no scratch array outgrows the batch
        live = np.flatnonzero(hi > lo)
        k = lo[live]
        while live.size:
            sums[live] += self.kernel.phi(xs[live] - near[k])
            k += 1
            keep = k < hi[live]
            live, k = live[keep], k[keep]
        out = np.empty(n)
        out[order] = sums
        return out.reshape(x.shape)

    def lambda_inv_many(self, x: np.ndarray) -> np.ndarray:
        # a potential past about 709.8 overflows to inf, which is rejected
        with np.errstate(over="ignore"):
            return _checked_inverse(np.exp(self.potential_many(x)))

    @cached_property
    def lambda_bar_inv(self) -> float:
        """E[1/Lambda] over configurations, computed once per environment."""
        return mean_lambda_inv_analytic(self.kernel, 1.0)


EnvSpec = Union[DeterministicEnv, ShotNoiseEnv]


# Double-exponential quadrature (Takahasi & Mori, Publ. RIMS 9, 1974): the
# trapezoid rule in t after a change of variable x(t) whose weights decay
# like exp(-c e^|t|), so on a smooth piece the error roughly squares each
# time the step halves.  Level 0 has step 1 on |t| <= _DE_T_MAX; each level
# halves the step and evaluates only the new nodes.
_DE_T_MAX = 5.0
_DE_MIN_LEVEL = 3
_DE_MAX_LEVEL = 8
_DE_REL_TOL = 1e-12


def _de_nodes(t: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x(t) and weights dx/dt of the map from the t-line onto
    [lo, hi]: tanh-sinh on a finite piece, exp-sinh on a half-line."""
    s = 0.5 * math.pi * np.sinh(t)
    ds = 0.5 * math.pi * np.cosh(t)
    if math.isinf(lo) or math.isinf(hi):
        e = np.exp(s)
        return (hi - e if math.isinf(lo) else lo + e), e * ds
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * np.tanh(s), half * ds / np.cosh(s) ** 2


def _quad(h, a: float, b: float, points=()) -> tuple[float, float]:
    """(integral of the vectorized ``h`` over [a, b], error estimate).

    Either end may be infinite.  [a, b] is split at the ``points`` inside
    it, and a doubly infinite line at 0 when there are none; every jump or
    kink of ``h`` must be among the split points.  Across one the error
    only halves with the step, so the estimate (the change of the value at
    the last level) stays large.  Refinement stops once that change is at
    most ``_DE_REL_TOL`` times the integral of |h|.
    """
    edges = [a, *sorted({float(p) for p in points if a < p < b}), b]
    if len(edges) == 2 and math.isinf(a) and math.isinf(b):
        edges.insert(1, 0.0)
    pieces = list(zip(edges[:-1], edges[1:]))
    step = 1.0
    t = np.arange(-_DE_T_MAX, _DE_T_MAX + 0.5)
    total = l1 = 0.0
    value = err = math.inf
    for level in range(_DE_MAX_LEVEL + 1):
        if level:
            step *= 0.5
            t = np.arange(-_DE_T_MAX + step, _DE_T_MAX, 2.0 * step)
        xs, ws = zip(*(_de_nodes(t, lo, hi) for lo, hi in pieces))
        terms = np.asarray(h(np.concatenate(xs)), dtype=float) * np.concatenate(ws)
        total += float(terms.sum())
        l1 += float(np.abs(terms).sum())
        new = step * total
        err = abs(new - value)
        value = new
        if level >= _DE_MIN_LEVEL and err <= _DE_REL_TOL * step * l1:
            break
    return value, err


def _quad_line(h, what: str, points, a: float = -math.inf, b: float = math.inf) -> float:
    """integral of the vectorized ``h`` over [a, b], the line by default,
    split at ``points``, by ``_quad``.  An error estimate above 1e-8 of the
    value raises QuadratureError: the rule cannot resolve ``h``."""
    value, err = _quad(h, a, b, points)
    if not err <= 1e-8 * max(abs(value), 1e-12):
        raise QuadratureError(f"integral of {what}: error estimate {err:.2e} too large")
    return value


def _exp_phi_integral(kernel: Kernel, a: float) -> float:
    """integral over the line of (exp(a phi(y)) - 1) dy by the checked rule
    ``_quad_line``, split where kernels kink: at 0 and at the cutoff.  An
    exp(a phi) past the float range raises DomainError."""
    if a == 0.0:
        return 0.0
    r = kernel.cutoff_r

    def h(y):
        with np.errstate(over="ignore"):
            vals = np.expm1(a * np.asarray(kernel.phi(y), dtype=float))
        if np.isinf(vals).any():
            raise DomainError(
                f"E[Lambda^(-a)] overflows at a={a:g}: exp(a phi) passes the float range"
            )
        return vals

    return _quad_line(h, "exp(a phi) - 1", (-r, 0.0, r))


def mean_lambda_inv_analytic(kernel: Kernel, a: float) -> float:
    """E[Lambda(x)^(-a)] = exp(integral of (e^(a phi) - 1)) for the
    unit-intensity Poisson environment (location-independent).  A moment
    past the float range raises DomainError."""
    try:
        return math.exp(_exp_phi_integral(kernel, a))
    except OverflowError:
        raise DomainError(f"E[Lambda^(-a)] overflows at a={a:g}") from None


def theorem5_constant(kernel: Kernel, alpha: float) -> float:
    """exp((1/alpha - 1) integral of (e^phi - 1)); the averaged-environment
    factor in the quenched limit law.  Requires alpha strictly in (1, 2)."""
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"alpha must be in (1, 2), got {alpha}")
    return math.exp((1.0 / alpha - 1.0) * _exp_phi_integral(kernel, 1.0))


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


def _kinks(env: EnvSpec, lo: float, hi: float) -> np.ndarray:
    """The kinks of 1/Lambda strictly inside (lo, hi): a shot-noise
    environment's configuration points and the kernel support edges around
    them; a deterministic profile has none."""
    if not isinstance(env, ShotNoiseEnv):
        return np.empty(0)
    r = env.kernel.cutoff_r
    pts = env.points_near(lo, hi)
    kinks = np.concatenate([pts, pts - r, pts + r])
    return kinks[(kinks > lo) & (kinks < hi)]


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


def sup_growth_check(env: ShotNoiseEnv, n_list) -> list[tuple[int, float]]:
    """Estimate of sup over |x| <= n of 1/Lambda on a grid 0.25 apart, for
    each n; used to check the o(n^delta) growth of the potential's sup."""
    out = []
    for n in sorted(n_list):
        xs = np.arange(-float(n), float(n) + 0.125, 0.25)
        sup = 0.0
        chunk = 200_000
        for start in range(0, len(xs), chunk):
            sup = max(sup, float(np.max(env.lambda_inv_many(xs[start : start + chunk]))))
        out.append((int(n), sup))
    return out

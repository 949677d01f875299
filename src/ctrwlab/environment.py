"""Jump-intensity environments: deterministic profiles and Poisson
shot-noise potentials, their analytic exponential moments by the one
quadrature rule ``_quad``, and the sup-growth check behind the
sub-polynomial-growth assumption.  The Cesaro-average check and the Monte
Carlo moment are test oracles, in ``tests/oracles.py``.

An environment answers 1/Lambda (``lambda_inv_many``), the only form the
walk, the limit constants and the Cesaro check read, and rejects one that is
not positive and finite.  A shot-noise environment is
``Lambda(x) = exp(-E(x))`` with ``E(x) = sum over configuration points y of
phi(x - y)`` for a nonnegative kernel ``phi`` bounded by
``C / (1 + |x|^(1+beta))``.  Evaluation truncates the sum to
``|x - y| <= cutoff_r``; the expected mass dropped is at most
``2 C cutoff_r^(-beta) / beta`` per unit intensity, below ``POWER_TAIL_TOL``
for the power kernel.  Every read of the configuration goes through
``PoissonConfig.between``, which checks the window.

A sampled configuration is drawn cell by cell, each cell from a stream of
its own (a Poisson process on disjoint cells is independent Poisson
processes on them), so one key fixes the points in any window.  A walk
that leaves the window fails, and the memory held follows the span the
reads reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import (BoundaryError, DomainError, QuadratureError, check_finite,
                     check_positive_finite)
from .rng import RandomSource, spawn_rng


@dataclass(frozen=True)
class Kernel:
    """Shot-noise kernel phi >= 0 with an explicit decay envelope.

    ``bound_c`` and ``decay_beta`` certify phi(x) <= bound_c / (1+|x|^(1+beta));
    the envelope is spot-checked on a grid at construction.  ``cutoff_r``
    is the evaluation radius.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    bound_c: float
    decay_beta: float
    cutoff_r: float
    name: str = "custom"

    def __post_init__(self):
        check_positive_finite(
            bound_c=self.bound_c, decay_beta=self.decay_beta, cutoff_r=self.cutoff_r
        )
        xs = np.linspace(-2.0 * self.cutoff_r, 2.0 * self.cutoff_r, 2001)
        vals = np.asarray(self.phi(xs), dtype=float)
        envelope = self.bound_c / (1.0 + np.abs(xs) ** (1.0 + self.decay_beta))
        if np.any(vals < -1e-12) or np.any(vals > envelope + 1e-9):
            raise DomainError(
                "kernel violates 0 <= phi(x) <= C/(1+|x|^(1+beta)) on the test grid"
            )


# The power kernel's cutoff keeps its truncation bound below this.
POWER_TAIL_TOL = 1e-6


def power_kernel(amplitude: float = math.log(2.0), decay_beta: float = 3.0) -> Kernel:
    """phi(x) = A / (1 + |x|^(1+beta)), cutoff sized so the truncation
    bound stays below ``POWER_TAIL_TOL``."""
    check_positive_finite(amplitude=amplitude, decay_beta=decay_beta)
    try:
        cutoff = (2.0 * amplitude / (decay_beta * POWER_TAIL_TOL)) ** (1.0 / decay_beta)
    except (OverflowError, ZeroDivisionError):
        cutoff = math.inf
    if cutoff == math.inf:
        raise DomainError(f"power kernel cutoff overflows at decay_beta={decay_beta}")

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
    check_positive_finite(amplitude=amplitude)

    def phi(x):
        # np.maximum gives np.clip's bits without its Python-level wrapper
        return amplitude * np.maximum(1.0 - np.abs(x), 0.0) ** 2

    return Kernel(
        phi=phi,
        bound_c=amplitude,
        decay_beta=1.0,
        cutoff_r=1.0,
        name=f"bump(A={amplitude})",
    )


# Cell k of a sampled configuration is [k _CELL_WIDTH, (k + 1) _CELL_WIDTH),
# and a window may meet at most _MAX_CELLS cells.
_CELL_WIDTH = 2.0**14
_MAX_CELLS = 1 << 16


def _cell_rng(key: int, k: int) -> RandomSource:
    """Cell ``k``'s own stream; seed paths take no negative ints, so ``k``
    is zigzag-coded."""
    return spawn_rng(key, "env-cell", 2 * k if k >= 0 else -2 * k - 1)


def _cell_points(key: int, k: int) -> np.ndarray:
    """Cell ``k``'s points, sorted: a Poisson count, then its uniforms."""
    rng = _cell_rng(key, k)
    points = rng.uniform(k * _CELL_WIDTH, (k + 1) * _CELL_WIDTH, rng.poisson(_CELL_WIDTH))
    points.sort()
    return points


class PoissonConfig:
    """A homogeneous unit-intensity Poisson configuration restricted to the
    window [lo, hi]: ``count`` points, read sorted through ``between``, the
    one reader of the points and the one check of the window.

    ``PoissonConfig(points, lo, hi)`` holds a sorted copy of ``points``; a
    window that is not ``lo <= hi``, or a point outside it, raises
    DomainError.  A configuration that ``sample_config`` draws holds one
    run of cells, clipped to the window, that covers every range read so
    far; a read past it grows it, in a forked worker that worker's copy.
    """

    def __init__(self, points, lo: float, hi: float):
        # written so that a nan end or point fails
        if not lo <= hi:
            raise DomainError(f"window must satisfy lo <= hi: [{lo:.17g}, {hi:.17g}]")
        held = np.sort(np.asarray(points, dtype=float), axis=None)
        if held.size and not (lo <= held[0] and held[-1] <= hi):
            raise DomainError(f"config points must lie in the window [{lo:.17g}, {hi:.17g}]")
        self.lo = lo
        self.hi = hi
        self._held = held
        # a sampled configuration's key, and the cells [start, stop) it holds
        self._key = None
        self._cells = None

    @cached_property
    def count(self) -> int:
        """The number of points in the window."""
        if self._key is None:
            return self._held.size
        first, last = int(self.lo // _CELL_WIDTH), int(self.hi // _CELL_WIDTH)
        # an inner cell's count is its first draw; the edge cells are clipped
        inner = sum(int(_cell_rng(self._key, k).poisson(_CELL_WIDTH))
                    for k in range(first + 1, last))
        return inner + sum(self._cell(k).size for k in {first, last})

    def between(self, a: float, b: float) -> np.ndarray:
        """The sorted points in [a, b].  A range that leaves the window
        raises BoundaryError: points beyond it were never sampled."""
        # written so that a nan end fails
        if not (self.lo <= a and b <= self.hi):
            raise BoundaryError(
                f"range [{a:.6g}, {b:.6g}] leaves the window [{self.lo:.6g}, {self.hi:.6g}]"
            )
        if self._key is not None:
            self._cover(int(a // _CELL_WIDTH), int(b // _CELL_WIDTH) + 1)
        pts = self._held
        return pts[np.searchsorted(pts, a, side="left") : np.searchsorted(pts, b, side="right")]

    def _cell(self, k: int) -> np.ndarray:
        points = _cell_points(self._key, k)
        return points[(self.lo <= points) & (points <= self.hi)]

    def _cover(self, start: int, stop: int) -> None:
        """Grow the run of cells held to cover cells [start, stop)."""
        low, high = self._cells or (start, start)
        below = [self._cell(k) for k in range(start, low)]
        above = [self._cell(k) for k in range(high, stop)]
        if below or above:
            self._held = np.concatenate([*below, self._held, *above])
            self._cells = (min(start, low), max(stop, high))


def sample_config(window: tuple[float, float], rng: RandomSource) -> PoissonConfig:
    """The Poisson configuration of the cells under one key drawn from
    ``rng``, restricted to the window.  Its points in any range depend on
    that key alone, not on the window or the order of reads.  A window
    that meets more than ``_MAX_CELLS`` cells raises DomainError."""
    config = PoissonConfig(np.empty(0), float(window[0]), float(window[1]))
    # written so that an infinite end fails
    if not config.hi // _CELL_WIDTH - config.lo // _CELL_WIDTH < _MAX_CELLS:
        raise DomainError(
            f"window [{config.lo:.6g}, {config.hi:.6g}] is too long to draw its Poisson "
            f"count: it meets more than {_MAX_CELLS} cells of width {_CELL_WIDTH:g}"
        )
    config._key = int(rng.integers(2**63))
    return config


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
        check_positive_finite(lambda_bar_inv=self.lambda_bar_inv)

    def lambda_inv_many(self, x: np.ndarray) -> np.ndarray:
        return _checked_inverse(
            np.asarray(self.lambda_inv_fn(np.asarray(x, dtype=float)), dtype=float)
        )


def periodic_env(
    mean_level: float = 2.0, amplitude: float = 1.0, frequency: float = 1.0
) -> DeterministicEnv:
    """Environment with 1/Lambda(x) = mean_level + amplitude sin(2 pi f x)."""
    check_positive_finite(mean_level=mean_level)
    check_finite(frequency=frequency)
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

    The kernel and the configuration's points never change, so it is safe
    to share across parallel path simulations in quenched mode.  Every read
    of the points is ``config.between`` over the sites widened by the
    cutoff, so a site within the cutoff of the window's edge raises
    BoundaryError.  Only the run of cells a sampled configuration holds
    grows; each forked worker grows its own copy, to the same points.
    """

    kernel: Kernel
    config: PoissonConfig

    def potential_many(self, x: np.ndarray) -> np.ndarray:
        """E(x) truncated to |x - y| <= cutoff_r, vectorized over x.

        Each site's value is its own sum over the configuration points
        within the cutoff, added in ascending order, so it does not depend
        on the other sites queried with it.  The sites are sorted and merged
        with the points near them that ``config.between`` returns, which
        finds every site's neighbours faster than two binary searches into
        those points: on the sites of 300 t5-quenched walks (seed 41), a
        median 756 against 895 us per call over 10 alternating rounds on
        2 vCPU, with bitwise equal output.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size == 0:
            return np.zeros(0)
        r = self.kernel.cutoff_r
        n = x.size
        order = np.argsort(x, axis=None)
        xs = x.ravel()[order]
        near = self.config.between(xs[0] - r, xs[-1] + r)
        # near[lo[i]:hi[i]] are the points within r of xs[i]: a point lies
        # below the i-th window once i reaches its rank among the window
        # edges, so counting ranks gives every bound in one pass
        lo = np.cumsum(
            np.bincount(np.searchsorted(xs - r, near, side="right"), minlength=n + 1)
        )[:n]
        hi = np.cumsum(
            np.bincount(np.searchsorted(xs + r, near, side="left"), minlength=n + 1)
        )[:n]
        counts = hi - lo
        # the sites with the most neighbours first, by a stable radix sort
        # on the smallest dtype that holds the counts: the sites still
        # summing at pass d are then a prefix
        most = int(counts.max())
        rank = np.argsort((most - counts).astype(np.min_scalar_type(most)), kind="stable")
        xs, lo, order = xs[rank], lo[rank], order[rank]
        summing = n - np.cumsum(np.bincount(counts))
        sums = np.zeros(n)
        # pass d adds every site's d-th neighbour, near[lo], and then moves
        # lo on to the next, so a site sums its own points in ascending
        # order and no scratch array outgrows the batch
        for d in range(most):
            m = summing[d]
            sums[:m] += self.kernel.phi(xs[:m] - near[lo[:m]])
            lo[:m] += 1
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


def _kinks(env: EnvSpec, lo: float, hi: float) -> np.ndarray:
    """The kinks of 1/Lambda strictly inside (lo, hi): a shot-noise
    environment's configuration points and the kernel support edges around
    them; a deterministic profile has none."""
    if not isinstance(env, ShotNoiseEnv):
        return np.empty(0)
    r = env.kernel.cutoff_r
    pts = env.config.between(lo - r, hi + r)
    kinks = np.concatenate([pts, pts - r, pts + r])
    return kinks[(kinks > lo) & (kinks < hi)]


def sup_growth_check(env: ShotNoiseEnv, n_list) -> list[tuple[int, float]]:
    """Estimate of sup over |x| <= n of 1/Lambda on the grid -n + 0.25 k,
    k = 0..8n, for each integer n; used to check the o(n^delta) growth of
    the potential's sup.  The grid is built one chunk of k at a time, so
    memory does not grow with n."""
    out = []
    for n in sorted(int(n) for n in n_list):
        size = 8 * n + 1
        sup = 0.0
        chunk = 200_000
        for start in range(0, size, chunk):
            xs = -float(n) + 0.25 * np.arange(start, min(start + chunk, size))
            sup = max(sup, float(np.max(env.lambda_inv_many(xs))))
        out.append((n, sup))
    return out

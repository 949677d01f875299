"""Continuous-time random walks stored as skeletons (visited sites plus
holding times) and exact evaluation of additive functionals.

A path is generated from iid jumps ``xi_k`` and iid positive waits
``theta_k``; the sojourn at the (k-1)-th visited site is ``theta_k`` for the
plain walk and ``theta_k / Lambda(S_(k-1))`` when an environment delays the
walker (the origin hold is included).  A path has one clock, the in-order
running sum of its holds (``PathSkeleton.jump_times``): the walk stops at
the first hold whose end on it passes the horizon.  Because the path is
piecewise constant, ``integral_0^T f(X_s) ds`` is a finite sum of hold
times weighted by f at the visited sites plus one partial term on that
clock; no quadrature is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .errors import DivergentSumError, DomainError, JumpCapError, SimulationError
from .rng import RandomSource
from .stable import JumpLaw, Lattice, norm_constant


@dataclass(frozen=True)
class Exponential:
    """Exponential waits with the given mean."""

    mean: float = 1.0

    def __post_init__(self):
        if not self.mean > 0.0:
            raise DomainError(f"mean must be positive, got {self.mean}")

    @property
    def mu(self) -> float:
        return self.mean

    def sample(self, rng: RandomSource, size):
        return self.mean * rng.standard_exponential(size)


@dataclass(frozen=True)
class ParetoWait:
    """Positive Pareto waits; integrable only for index > 1."""

    index: float
    x_min: float = 1.0

    def __post_init__(self):
        if not self.index > 1.0:
            raise DomainError(
                f"wait index must exceed 1 for an integrable wait, got {self.index}"
            )
        if not self.x_min > 0.0:
            raise DomainError(f"x_min must be positive, got {self.x_min}")

    @property
    def mu(self) -> float:
        return self.index * self.x_min / (self.index - 1.0)

    def sample(self, rng: RandomSource, size):
        return self.x_min * rng.random(size) ** (-1.0 / self.index)


@dataclass(frozen=True)
class GammaWait:
    shape: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise DomainError("shape and scale must be positive")

    @property
    def mu(self) -> float:
        return self.shape * self.scale

    def sample(self, rng: RandomSource, size):
        return rng.gamma(self.shape, self.scale, size)


@dataclass(frozen=True)
class DeterministicWait:
    mean: float

    def __post_init__(self):
        if not self.mean > 0.0:
            raise DomainError(f"mean must be positive, got {self.mean}")

    @property
    def mu(self) -> float:
        return self.mean

    def sample(self, rng: RandomSource, size):
        return np.full(size, self.mean)


WaitLaw = Union[Exponential, ParetoWait, GammaWait, DeterministicWait]

# The most jumps one path may take before JumpCapError.
JUMP_CAP = 10**8


@dataclass(frozen=True)
class PathSkeleton:
    """The embedded walk and its holding times up to a horizon.

    ``positions[k]`` is the site S_k occupied after k jumps (S_0 = 0) and
    ``holds[k]`` is the sojourn that starts there, so both arrays have
    ``n_jumps + 1`` entries; the final hold is the one straddling the
    horizon.  The path's one clock is ``jump_times``, the in-order running
    sum of the holds, and renewal bracketing reads it: the horizon lies in
    [jump_times[-2], jump_times[-1]), with 0 for the left end if no jump.
    """

    positions: np.ndarray
    holds: np.ndarray
    horizon_t: float

    def __post_init__(self):
        if len(self.positions) != len(self.holds) or len(self.holds) == 0:
            raise SimulationError(
                "a skeleton needs equal, nonzero numbers of positions and "
                f"holds, got {len(self.positions)} and {len(self.holds)}"
            )

    @property
    def n_jumps(self) -> int:
        return len(self.positions) - 1

    @cached_property
    def jump_times(self) -> np.ndarray:
        """tau_k = end of the k-th hold, k = 1..n_jumps+1: the clock,
        computed once per path."""
        return np.cumsum(self.holds)

    def check_bracketing(self) -> None:
        tau = self.jump_times
        completed = float(tau[-2]) if self.n_jumps else 0.0
        if not (completed <= self.horizon_t < tau[-1]):
            raise SimulationError(
                f"renewal bracketing violated: jump_times[-2]={completed!r}, "
                f"t={self.horizon_t!r}, jump_times[-1]={float(tau[-1])!r}"
            )


def simulate_skeleton(
    jump: JumpLaw,
    wait: WaitLaw,
    horizon_t: float,
    rng: RandomSource,
    env=None,
) -> PathSkeleton:
    """Generate one path up to ``horizon_t``.

    With ``env`` given, the sojourn at site S_(k-1) is theta_k multiplied by
    the inverse intensity at that site.  The clock is carried across draw
    blocks, and the hold that straddles the horizon is kept last.

    Waits and jumps are drawn in blocks of 1.25 t / (mu lambda_bar_inv)
    (at least 1024, at most 2**20): 25% above the expected number of
    jumps, since the mean hold per jump is mu times the environment's mean
    of 1/Lambda (1 without an environment).  ``env.lambda_bar_inv`` is only
    this sizing hint: a walk that runs short draws another block, and the
    path's law is the same for any block size.
    """
    if not 0.0 < horizon_t < math.inf:
        raise DomainError(f"horizon_t must be positive and finite, got {horizon_t}")

    mean_hold = wait.mu if env is None else wait.mu * env.lambda_bar_inv
    block = int(min(max(1024, 1.25 * horizon_t / mean_hold), 2**20))
    pos_chunks = [np.zeros(1)]
    hold_chunks = []
    elapsed = 0.0
    count = 0  # jumps committed so far, held to JUMP_CAP
    last_site = 0.0

    while True:
        theta = np.asarray(wait.sample(rng, block), dtype=float)
        xi = np.asarray(jump.sample(rng, block), dtype=float)
        sites_after = last_site + np.cumsum(xi)
        # hold k of this block is spent at the site occupied before jump k
        sites_during = np.concatenate(([last_site], sites_after[:-1]))
        holds = theta  # scaled in place by 1/Lambda under an environment
        if env is not None:
            holds *= env.lambda_inv_many(sites_during)

        clock = np.cumsum(np.concatenate(([elapsed], holds)))[1:]
        # hold j (block-local) straddles the horizon; none does if j == block
        j = int(np.searchsorted(clock, horizon_t, side="right"))
        count += j
        if count > JUMP_CAP:
            raise JumpCapError(JUMP_CAP, horizon_t)
        pos_chunks.append(sites_after[:j])
        hold_chunks.append(holds[: j + 1])
        if j < block:
            break
        elapsed = float(clock[-1])
        last_site = float(sites_after[-1])

    path = PathSkeleton(np.concatenate(pos_chunks), np.concatenate(hold_chunks), horizon_t)
    path.check_bracketing()
    return path


def position_at(path: PathSkeleton, s: float) -> float:
    """The walker's location at time ``s`` (right-continuous at jumps)."""
    if not 0.0 <= s <= path.horizon_t:
        raise DomainError(f"s={s} outside [0, {path.horizon_t}]")
    completed = int(np.searchsorted(path.jump_times, s, side="right"))
    return float(path.positions[min(completed, path.n_jumps)])


@dataclass(frozen=True)
class FunctionalSpec:
    """The integrand of the additive functional integral_0^(t u) f(X_s) ds.

    ``f_integral`` is the constant replacing the integral in the limit law
    (dx-integral of f, of f/Lambda under an environment, or the lattice
    sum); a supplied value is taken on every theorem, and None leaves it to
    the harness.
    ``breakpoints`` are the points where ``f`` jumps or kinks; the
    quadrature filling in ``f_integral`` splits there.
    """

    f: Callable[[np.ndarray], np.ndarray]
    f_integral: Optional[float] = None
    breakpoints: tuple = ()

    def __post_init__(self):
        if self.f_integral is not None and not math.isfinite(self.f_integral):
            raise DomainError("f_integral must be finite when supplied")


def additive_functional(
    path: PathSkeleton,
    spec: FunctionalSpec,
    u_grid,
) -> np.ndarray:
    """Exact values of integral_0^(t u) f(X_s) ds for each u in ``u_grid``.

    Computed from the holding-time decomposition: completed holds contribute
    ``hold * f(site)``, the straddled hold contributes its elapsed part.
    """
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise DomainError("u_grid must lie in [0, 1]")
    fvals = np.asarray(spec.f(path.positions), dtype=float)
    prefix = np.concatenate(([0.0], np.cumsum(path.holds * fvals)))
    cutoffs = u * path.horizon_t
    done = np.searchsorted(path.jump_times, cutoffs, side="right")
    # each cutoff falls in hold `done`, which began at jump_times[done - 1]
    began = np.where(done > 0, path.jump_times[done - 1], 0.0)
    return prefix[done] + (cutoffs - began) * fvals[done]


def normalized_functional(
    path: PathSkeleton,
    spec: FunctionalSpec,
    law: JumpLaw,
    t: float,
    u_grid,
) -> np.ndarray:
    """c_t-scaled additive functional, with c_t from the jump law's
    attraction metadata (sigma t^(1/alpha - 1) under normal attraction)."""
    return norm_constant(law, t) * additive_functional(path, spec, u_grid)


def lattice_limit_constant(
    law: Lattice,
    f: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
    n_start: int = 16,
    n_cap: int = 2**22,
) -> float:
    """b * sum over n of f(a + b n), the lattice replacement for the
    dx-integral in the limit law.

    The series is truncated symmetrically with doubling range until two
    consecutive doublings change the partial sum by less than ``tol``
    relatively; failure to stabilize raises ``DivergentSumError``.
    """
    if not isinstance(law, Lattice):
        raise DomainError("lattice_limit_constant requires a Lattice jump law")
    a, b = law.offset, law.b

    def partial(n: int) -> float:
        ns = np.arange(-n, n + 1)
        return b * float(np.sum(f(a + b * ns)))

    n = n_start
    prev = partial(n)
    stable_rounds = 0
    while n <= n_cap:
        n *= 2
        cur = partial(n)
        if abs(cur - prev) <= tol * (1.0 + abs(cur)):
            stable_rounds += 1
            if stable_rounds >= 2:
                return cur
        else:
            stable_rounds = 0
        prev = cur
    raise DivergentSumError(
        f"lattice series did not stabilize within |n| <= {n_cap} "
        f"(last partial sum {prev!r})"
    )


def dump_skeleton(path: PathSkeleton, destination) -> None:
    """Write the skeleton in the columnar text format, one event per line:
    ``k S_k h_(k+1)`` (site index, site, sojourn starting there)."""
    with open(destination, "w") as fh:
        for k in range(path.n_jumps + 1):
            fh.write(f"{k} {path.positions[k]:.17g} {path.holds[k]:.17g}\n")


def load_skeleton(source, horizon_t: float) -> PathSkeleton:
    """Read a ``dump_skeleton`` file as a path up to ``horizon_t`` and check its
    bracketing; a line other than ``k S_k h_(k+1)``, h > 0, is a DomainError."""
    sites, holds = [], []
    with open(source) as fh:
        for number, line in enumerate(fh, 1):
            if not line.split():
                continue
            try:
                k, site, hold = line.split()
                if int(k) != len(sites) or not float(hold) > 0.0:
                    raise ValueError(f"expected index {len(sites)} and a positive hold")
                sites.append(float(site))
                holds.append(float(hold))
            except ValueError as exc:
                raise DomainError(f"skeleton line {number}: {exc}") from exc
    path = PathSkeleton(np.asarray(sites), np.asarray(holds), horizon_t)
    path.check_bracketing()
    return path

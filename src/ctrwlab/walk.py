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
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import (DivergentSumError, DomainError, JumpCapError, SimulationError,
                     check_positive_finite)
from .rng import RandomSource
from .stable import PIECE, JumpLaw, norm_constant


@dataclass(frozen=True)
class Exponential:
    """Exponential waits with the given mean."""

    mean: float = 1.0

    def __post_init__(self):
        check_positive_finite(mean=self.mean)

    @property
    def mu(self) -> float:
        return self.mean

    def sample(self, rng: RandomSource, size, out=None):
        out = rng.standard_exponential(size, out=out)
        out *= self.mean
        return out


@dataclass(frozen=True)
class ParetoWait:
    """Positive Pareto waits; integrable only for index > 1."""

    index: float = 2.0
    x_min: float = 0.5

    def __post_init__(self):
        if not 1.0 < self.index < math.inf:
            raise DomainError(
                f"wait index must exceed 1 for an integrable wait and be finite, "
                f"got {self.index}"
            )
        check_positive_finite(x_min=self.x_min)

    @property
    def mu(self) -> float:
        return self.index * self.x_min / (self.index - 1.0)

    def sample(self, rng: RandomSource, size, out=None):
        out = rng.random(size, out=out)
        out **= -1.0 / self.index
        out *= self.x_min
        return out


@dataclass(frozen=True)
class GammaWait:
    shape: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        check_positive_finite(shape=self.shape, scale=self.scale)

    @property
    def mu(self) -> float:
        return self.shape * self.scale

    def sample(self, rng: RandomSource, size, out=None):
        # rng.gamma(shape, scale) is scale times the standard draw
        out = rng.standard_gamma(self.shape, size, out=out)
        out *= self.scale
        return out


@dataclass(frozen=True)
class DeterministicWait:
    mean: float = 1.0

    def __post_init__(self):
        check_positive_finite(mean=self.mean)

    @property
    def mu(self) -> float:
        return self.mean

    def sample(self, rng: RandomSource, size, out=None):
        out = np.empty(size) if out is None else out
        out.fill(self.mean)
        return out


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
    sum of the holds (tau_k, the end of the k-th hold), computed from the
    holds unless the caller already has it.  Renewal bracketing reads it:
    the horizon lies in [jump_times[-2], jump_times[-1]), with 0 for the
    left end if no jump.
    """

    positions: np.ndarray
    holds: np.ndarray
    horizon_t: float
    jump_times: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.positions) != len(self.holds) or len(self.holds) == 0:
            raise SimulationError(
                "a skeleton needs equal, nonzero numbers of positions and "
                f"holds, got {len(self.positions)} and {len(self.holds)}"
            )
        if self.jump_times is None:
            object.__setattr__(self, "jump_times", np.cumsum(self.holds))
        elif len(self.jump_times) != len(self.holds):
            raise SimulationError(
                f"a skeleton needs one jump time per hold, got "
                f"{len(self.jump_times)} and {len(self.holds)}"
            )

    @property
    def n_jumps(self) -> int:
        return len(self.positions) - 1

    def check_bracketing(self) -> None:
        tau = self.jump_times
        completed = float(tau[-2]) if self.n_jumps else 0.0
        if not (completed <= self.horizon_t < tau[-1]):
            raise SimulationError(
                f"renewal bracketing violated: jump_times[-2]={completed!r}, "
                f"t={self.horizon_t!r}, jump_times[-1]={float(tau[-1])!r}"
            )


# Each thread's work arrays: the walk's sites, holds and clock.
_work = threading.local()
# The references to an array that only a tuple holds, counted in a loop over
# that tuple; every array that views it holds one more (its base).
_OWN_REFS = max(sys.getrefcount(a) for a in (np.empty(0),))


def _work_arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The calling thread's sites, holds and clock arrays of ``n`` entries.

    The last walk's set is reused when it has ``n`` entries and a reference
    count finds that no array views it, the check that
    ``ndarray.resize(refcheck=True)`` makes.  A path that is still alive, or
    a slice kept after it is gone, holds such a view, and then the walk
    takes a fresh set, so it never overwrites them.
    """
    arrays = getattr(_work, "walk", ())
    if not arrays or len(arrays[0]) != n or any(sys.getrefcount(a) > _OWN_REFS for a in arrays):
        arrays = _work.walk = (np.empty(n), np.empty(n), np.empty(n))
    return arrays


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

    The laws draw each block with ``sample(rng, size, out=...)`` into the
    sites, holds and clock arrays at offset ``base``, the holds so far: the
    calling thread's work arrays of block + 1 entries (see ``_work_arrays``
    for when a walk reuses them; at most 3 (2**20 + 1) doubles, 25 MB),
    or, once a block does not fit, fresh arrays that copy the path so far
    with room for about as much again.  The running sums of the jumps,
    1/Lambda and the clock are then taken a piece at a time, each sum
    carried from piece to piece, so they add in the same order as over the
    whole block, and the walk stops at the piece that holds the horizon.
    A piece is ``PIECE`` entries, and in an environment at most
    1.1 t / (mu lambda_bar_inv), rounded up, so 1/Lambda is evaluated at
    few sites past the horizon.  So every path is views of one array set.
    """
    check_positive_finite(horizon_t=horizon_t)

    mean_hold = wait.mu if env is None else wait.mu * env.lambda_bar_inv
    block = int(min(max(1024, 1.25 * horizon_t / mean_hold), 2**20))
    piece = PIECE if env is None else min(PIECE, math.ceil(1.1 * horizon_t / mean_hold))
    sites, holds, clock = _work_arrays(block + 1)
    sites[0] = clock[0] = 0.0
    base = 0  # holds committed so far, held to JUMP_CAP

    while True:
        if base + block >= len(sites):
            grown = tuple(np.empty(2 * base + 1) for _ in range(3))
            for new, old in zip(grown, (sites, holds, clock)):
                new[: base + 1] = old[: base + 1]
            sites, holds, clock = grown
        wait.sample(rng, block, out=holds[base : base + block])
        jump.sample(rng, block, out=sites[base + 1 : base + block + 1])
        # hold base + k is spent at sites[base + k], the block's first site
        # plus its first k jumps; clock[base + k + 1] is that hold's end
        origin = sites[base]
        jumped = 0.0  # the sum of this block's jumps so far
        for start in range(base, base + block, piece):
            stop = min(start + piece, base + block)
            steps = sites[start + 1 : stop + 1]
            if start > base:
                steps[0] += jumped
            np.cumsum(steps, out=steps)
            jumped = steps[-1]
            steps += origin
            if env is not None:
                holds[start:stop] *= env.lambda_inv_many(sites[start:stop])
            ticks = clock[start : stop + 1]
            ticks[1:] = holds[start:stop]
            np.cumsum(ticks, out=ticks)
            if ticks[-1] > horizon_t:
                break
        # hold j straddles the horizon; none does if j == base + block
        j = start + int(np.searchsorted(ticks[1:], horizon_t, side="right"))
        if j > JUMP_CAP:
            raise JumpCapError(JUMP_CAP, horizon_t)
        if j < base + block:
            break
        base = j

    path = PathSkeleton(sites[: j + 1], holds[: j + 1], horizon_t, clock[1 : j + 2])
    path.check_bracketing()
    return path


@dataclass(frozen=True)
class FunctionalSpec:
    """The integrand of the additive functional integral_0^(t u) f(X_s) ds.

    ``breakpoints`` are the points where ``f`` jumps or kinks; the
    quadrature of the limit law's constant splits there.
    """

    f: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple = ()


def additive_functional(
    path: PathSkeleton,
    spec: FunctionalSpec,
    u_grid,
) -> np.ndarray:
    """Exact values of integral_0^(t u) f(X_s) ds for each u in ``u_grid``.

    Computed from the holding-time decomposition: completed holds contribute
    ``hold * f(site)``, the straddled hold contributes its elapsed part.
    ``f`` acts site by site, so it is called on ``PIECE`` sites at a time.
    """
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    # written so that a nan entry fails
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise DomainError("u_grid must lie in [0, 1]")
    cutoffs = u * path.horizon_t
    done = np.searchsorted(path.jump_times, cutoffs, side="right")
    # prefix[k] is the sum of the first k hold * f(site) terms
    n = path.n_jumps + 1
    prefix = np.empty(n + 1)
    prefix[0] = 0.0
    terms = prefix[1:]
    for start in range(0, n, PIECE):
        piece = slice(start, start + PIECE)
        np.multiply(path.holds[piece], spec.f(path.positions[piece]), out=terms[piece])
    np.cumsum(terms, out=terms)
    # each cutoff falls in hold `done`, which began at jump_times[done - 1]
    began = np.where(done > 0, path.jump_times[done - 1], 0.0)
    return prefix[done] + (cutoffs - began) * np.asarray(spec.f(path.positions[done]), dtype=float)


def normalized_functional(
    path: PathSkeleton,
    spec: FunctionalSpec,
    law: JumpLaw,
    u_grid,
) -> np.ndarray:
    """c_t-scaled additive functional, with t the path's horizon and c_t
    from the jump law's attraction metadata (sigma t^(1/alpha - 1) under
    normal attraction)."""
    return norm_constant(law, path.horizon_t) * additive_functional(path, spec, u_grid)


_LATTICE_TOL = 1e-10
_LATTICE_N_START = 16
LATTICE_N_CAP = 2**22


def lattice_limit_constant(law: JumpLaw, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """b * sum over n of f(b n), the lattice replacement for the
    dx-integral in the limit law: the centred jumps generate bZ, so the
    walk's sites are exactly bZ.

    The series is truncated symmetrically with doubling range until two
    consecutive doublings change the partial sum by less than
    ``_LATTICE_TOL`` relatively; failure to stabilize within
    ``LATTICE_N_CAP`` raises ``DivergentSumError``.  A law whose walk does
    not live on exactly bZ raises ``DomainError``.
    """
    if not getattr(law, "generates_lattice", False):
        raise DomainError("lattice_limit_constant requires a lattice law: centred "
                          "jumps that generate bZ (integer multiples of b with gcd 1)")
    a, b = law.offset, law.b

    def partial(n: int) -> float:
        ns = np.arange(-n, n + 1)
        return b * float(np.sum(f(a + b * ns)))

    n = _LATTICE_N_START
    prev = partial(n)
    stable_rounds = 0
    while n <= LATTICE_N_CAP:
        n *= 2
        cur = partial(n)
        if abs(cur - prev) <= _LATTICE_TOL * (1.0 + abs(cur)):
            stable_rounds += 1
            if stable_rounds >= 2:
                return cur
        else:
            stable_rounds = 0
        prev = cur
    raise DivergentSumError(
        f"lattice series did not stabilize within |n| <= {LATTICE_N_CAP} "
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
    bracketing; a line other than ``k S_k h_(k+1)``, finite with h > 0, is a DomainError."""
    sites, holds = [], []
    with open(source) as fh:
        for number, line in enumerate(fh, 1):
            if not line.split():
                continue
            try:
                k, site, hold = line.split()
                site, hold = float(site), float(hold)
                if int(k) != len(sites) or not (math.isfinite(site) and 0.0 < hold < math.inf):
                    raise ValueError(
                        f"expected index {len(sites)}, a finite site and a finite hold > 0"
                    )
                sites.append(site)
                holds.append(hold)
            except ValueError as exc:
                raise DomainError(f"skeleton line {number}: {exc}") from exc
    path = PathSkeleton(np.asarray(sites), np.asarray(holds), horizon_t)
    path.check_bracketing()
    return path

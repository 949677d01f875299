"""Stable Levy motion, its local time at zero, and sampling of the limiting
random variables (constant times local time).

Two independent routes to the local time are kept:

* ``sample_local_time_exact`` draws the local time at zero exactly.  For
  alpha in (1, 2] the inverse local time of the strictly stable motion is a
  positive stable subordinator of index gamma = 1 - 1/alpha, so the zero
  set can be generated excursion by excursion (regeneration) with no grid.
  The limit draws of the comparison harness and the ``local-time`` command
  use this route.
* ``simulate_levy`` plus ``local_time_zero`` simulate the process on a grid
  from its exact increment law (a standard draw scaled by dt^(1/alpha)) and
  estimate the local time as the occupation time of [-eps, eps] divided by
  2 eps.  No command uses this route; the tests keep it as an independent
  oracle for the exact sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .rng import RandomSource
from .stable import StableParams, _tan_half_pi, sample_stable


@dataclass
class LevyPath:
    """Values Z(k dt), k = 0..grid_n, of one stable Levy path."""

    alpha: float
    beta: float
    grid_n: int
    horizon_u: float
    values: np.ndarray

    @property
    def dt(self) -> float:
        return self.horizon_u / self.grid_n

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon_u, self.grid_n + 1)


def simulate_levy(
    alpha: float,
    beta: float,
    grid_n: int,
    horizon_u: float,
    rng: RandomSource,
) -> LevyPath:
    """Path with iid stable increments; Z(0) = 0 exactly."""
    if grid_n < 1000:
        raise DomainError(f"grid_n must be at least 1000, got {grid_n}")
    if not horizon_u > 0.0:
        raise DomainError(f"horizon_u must be positive, got {horizon_u}")
    params = StableParams(alpha, beta)  # standard law; dt enters as a scale
    dt = horizon_u / grid_n
    increments = dt ** (1.0 / alpha) * sample_stable(params, rng, grid_n)
    values = np.empty(grid_n + 1)
    values[0] = 0.0
    np.cumsum(increments, out=values[1:])
    return LevyPath(
        alpha=alpha, beta=beta, grid_n=grid_n, horizon_u=horizon_u, values=values
    )


@dataclass(frozen=True)
class LocalTimeEstimate:
    u: float
    eps: float
    value: float
    warning: Optional[str] = None


def local_time_zero(path: LevyPath, eps: float, u_grid) -> list[LocalTimeEstimate]:
    """Occupation-time estimates of the local time at zero up to each u.

    value = dt * #{k : k dt <= u, |Z(k dt)| <= eps} / (2 eps).  Requires
    eps above the path's one-step increment scale dt^(1/alpha) (the window
    must not be jumped across between grid points); estimates carry a
    precision warning when eps is within a factor 10 of it.
    """
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    dt = path.dt
    resolution = dt ** (1.0 / path.alpha)
    if eps < resolution:
        raise DomainError(
            f"eps={eps:.3g} is below the grid resolution scale "
            f"dt^(1/alpha)={resolution:.3g}; refine the grid"
        )
    warning = None
    if eps < 10.0 * resolution:
        warning = (
            f"eps={eps:.3g} is within 10x of the resolution scale "
            f"{resolution:.3g}; estimates may be grid-biased"
        )
    u = np.atleast_1d(np.asarray(u_grid, dtype=float))
    if np.any(u < 0.0) or np.any(u > path.horizon_u + 1e-12):
        raise DomainError("u_grid must lie within [0, horizon_u]")
    occupancy = np.abs(path.values) <= eps
    cum = np.concatenate(([0], np.cumsum(occupancy)))
    counts = cum[np.searchsorted(path.times, u, side="right")]
    values = dt * counts / (2.0 * eps)
    return [
        LocalTimeEstimate(u=float(ui), eps=eps, value=float(vi), warning=warning)
        for ui, vi in zip(u, values)
    ]


def default_eps(alpha: float, grid_n: int, horizon_u: float) -> float:
    """10x the grid resolution scale, per the precision precondition."""
    dt = horizon_u / grid_n
    return 10.0 * dt ** (1.0 / alpha)


def local_time_constant(alpha: float, beta: float) -> float:
    """The constant u1 in L_u = u1 (u/S)^gamma, S positive gamma-stable with
    E exp(-lam S) = exp(-lam^gamma).

    u1 = Re(c^(-1/alpha)) / (alpha sin(pi/alpha)), c = 1 + i beta
    tan(pi alpha/2); it makes E L_u equal the integral of the density of
    Z(s) at zero over s <= u, i.e. L is the occupation density at zero.
    """
    StableParams(alpha, beta)
    c = complex(1.0, beta * _tan_half_pi(alpha))
    return (c ** (-1.0 / alpha)).real / (alpha * math.sin(math.pi / alpha))


def sample_local_time_exact(
    alpha: float, beta: float, u_grid, rng: RandomSource
) -> np.ndarray:
    """One exact draw of the local time at zero at each u of a nondecreasing
    grid, jointly, for the standard stable motion.

    The sampler keeps a zero z of the process (a regeneration time) and the
    local time accumulated up to it.  For a target u > z, with s = u - z:
    the last zero before u is z + g with g = s Beta(gamma, 1 - gamma); given
    g, the local time gained is u1 (g/X)^gamma with X of density
    proportional to x^(-gamma) f_S(x); the excursion straddling u is
    Pareto(gamma) beyond s - g, and its end is the next regeneration time.
    X comes from Kanter's representation S = (A(U)/E)^((1-gamma)/gamma): the
    size bias turns E into Gamma(2 - gamma) and weights U by
    A(U)^(-(1-gamma)), which is decreasing in U and so bounded by its limit
    gamma^(-gamma) (1-gamma)^(-(1-gamma)) at U -> 0 (rejection).
    """
    u1 = local_time_constant(alpha, beta)
    grid = np.atleast_1d(np.asarray(u_grid, dtype=float)).tolist()
    if any(not b >= a for a, b in zip([0.0] + grid, grid)):
        raise DomainError("u_grid must be nonnegative and nondecreasing")
    gamma = 1.0 - 1.0 / alpha
    rest = 1.0 - gamma
    bound = gamma**-gamma * rest**-rest
    out = np.empty(len(grid))
    zero = 0.0  # latest regeneration time
    local = 0.0  # local time accumulated up to it
    for i, target in enumerate(grid):
        if zero < target:
            s = target - zero
            g = s * rng.beta(gamma, rest)
            while True:
                angle = math.pi * (1.0 - rng.random())
                weight = math.sin(angle) / (
                    math.sin(gamma * angle) ** gamma * math.sin(rest * angle) ** rest
                )
                if bound * rng.random() <= weight:
                    break
            # u1 (g/X)^gamma = u1 g^gamma (E/A(U))^(1-gamma)
            local += u1 * g**gamma * rng.standard_gamma(2.0 - gamma) ** rest * weight
            zero += g + (s - g) * (1.0 - rng.random()) ** (-1.0 / gamma)
        out[i] = local
    return out


def sample_limit_rv(
    alpha: float, beta: float, constant: float, u_grid, rng: RandomSource
) -> np.ndarray:
    """One draw of the limit vector: ``constant`` times the local time at
    zero at each u, drawn exactly by ``sample_local_time_exact``.

    ``constant`` is the report's ``limit_constant``, mu^(1/alpha) times
    f_integral times env_constant, which ``harness.run_experiment`` decides
    for every theorem.
    """
    return constant * sample_local_time_exact(alpha, beta, u_grid, rng)

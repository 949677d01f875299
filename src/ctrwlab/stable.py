"""Stable laws with index in (1, 2]: characteristic function, exact sampling,
jump-size distributions with attraction metadata, and normalizing constants.

Conventions used throughout the package:

* A stable law is parametrized by ``(alpha, beta, c, a)`` with
  characteristic function ``exp(i a x - c |x|^alpha w(x))`` where
  ``w(x) = 1 + i beta sign(x) tan(pi alpha / 2)``.
* The "standard" law has ``c = 1, a = 0``.  At ``alpha = 2`` this is a
  centered Gaussian with variance 2 (chf ``exp(-x^2)``), and the skewness
  term vanishes identically.
* Jump laws are centered by construction and carry ``(alpha_attr,
  sigma_attr, beta_attr)`` such that ``S_n / (sigma_attr n^(1/alpha))``
  converges to the standard law with skewness ``beta_attr``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError
from .rng import RandomSource


def _tan_half_pi(alpha: float) -> float:
    # Forced to exactly zero at alpha=2: tan(pi) evaluated through floating
    # pi is ~1.2e-16 and would leak a spurious skew into the Gaussian case.
    if alpha == 2.0:
        return 0.0
    return math.tan(math.pi * alpha / 2.0)


@dataclass(frozen=True)
class StableParams:
    """Parameters (alpha, beta, c, a) of a stable law with alpha in (1, 2]."""

    alpha: float
    beta: float = 0.0
    scale_c: float = 1.0
    location_a: float = 0.0

    def __post_init__(self):
        if not 1.0 < self.alpha <= 2.0:
            raise DomainError(f"alpha must be in (1, 2], got {self.alpha}")
        if not -1.0 <= self.beta <= 1.0:
            raise DomainError(f"beta must be in [-1, 1], got {self.beta}")
        if not 0.0 < self.scale_c < math.inf:
            raise DomainError(f"scale_c must be positive and finite, got {self.scale_c}")
        if not math.isfinite(self.location_a):
            raise DomainError(f"location_a must be finite, got {self.location_a}")


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


def sample_stable(params: StableParams, rng: RandomSource, size):
    """Draw from the stable law by the uniform-angle/exponential transform.

    The transform is exact (no discretization bias).  Internally the skew
    enters with the opposite sign from our chf convention, which is checked
    against ``stable_chf`` by the empirical-chf tests.
    """
    alpha = params.alpha
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    w = rng.standard_exponential(size)
    if alpha == 2.0:
        x = 2.0 * np.sin(u) * np.sqrt(w)
    else:
        # chf convention carries +i beta; the transform -i
        zeta = -params.beta * _tan_half_pi(alpha)
        theta0 = math.atan(zeta) / alpha
        prefac = (1.0 + zeta * zeta) ** (1.0 / (2.0 * alpha))
        x = (
            prefac
            * np.sin(alpha * (u + theta0))
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos(u - alpha * (u + theta0)) / w) ** ((1.0 - alpha) / alpha)
        )
    return params.location_a + params.scale_c ** (1.0 / alpha) * x


def _pareto_limit_scale(alpha: float, x_min: float) -> float:
    # For tails P(|xi| > x) = (x / x_min)^(-alpha) the normalized sums
    # converge to the stable law with scale c = x_min^alpha G(1-alpha)
    # cos(pi alpha / 2); sigma is its alpha-th root.
    c = x_min**alpha * math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)
    return c ** (1.0 / alpha)


@dataclass(frozen=True)
class SymmetricPareto:
    """Centered symmetric law with density (alpha/2) x_min^alpha |x|^(-alpha-1)
    on |x| >= x_min; exact power tail P(|xi| > x) = (x/x_min)^(-alpha)."""

    alpha: float = 1.5
    x_min: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise DomainError(
                f"Pareto tail index must be in (1, 2) for normal attraction, "
                f"got {self.alpha}"
            )
        if not self.x_min > 0.0:
            raise DomainError(f"x_min must be positive, got {self.x_min}")

    has_density = True

    @property
    def alpha_attr(self) -> float:
        return self.alpha

    @property
    def sigma_attr(self) -> float:
        return _pareto_limit_scale(self.alpha, self.x_min)

    beta_attr = 0.0

    def sample(self, rng: RandomSource, size):
        magnitude = self.x_min * rng.random(size) ** (-1.0 / self.alpha)
        sign = rng.integers(0, 2, size) * 2.0 - 1.0
        return sign * magnitude


@dataclass(frozen=True)
class SkewedPareto:
    """Two-sided Pareto putting mass p_right on the positive branch, centered
    by an explicit shift."""

    alpha: float = 1.5
    x_min: float = 1.0
    p_right: float = 0.5

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise DomainError(
                f"Pareto tail index must be in (1, 2) for normal attraction, "
                f"got {self.alpha}"
            )
        if not self.x_min > 0.0:
            raise DomainError(f"x_min must be positive, got {self.x_min}")
        if not 0.0 <= self.p_right <= 1.0:
            raise DomainError(f"p_right must be in [0, 1], got {self.p_right}")

    has_density = True

    @property
    def centering_shift(self) -> float:
        # mean of the uncentered two-sided Pareto
        return (2.0 * self.p_right - 1.0) * self.alpha * self.x_min / (self.alpha - 1.0)

    @property
    def alpha_attr(self) -> float:
        return self.alpha

    @property
    def sigma_attr(self) -> float:
        return _pareto_limit_scale(self.alpha, self.x_min)

    @property
    def beta_attr(self) -> float:
        # tail-weight asymmetry p - q, negated into our chf convention
        # (so +0.0 at p = 1/2)
        return 1.0 - 2.0 * self.p_right

    def sample(self, rng: RandomSource, size):
        magnitude = self.x_min * rng.random(size) ** (-1.0 / self.alpha)
        sign = np.where(rng.random(size) < self.p_right, 1.0, -1.0)
        return sign * magnitude - self.centering_shift


@dataclass(frozen=True)
class Gaussian:
    """Centered normal jumps; normal attraction to the alpha=2 standard law."""

    variance: float = 1.0

    def __post_init__(self):
        if not self.variance > 0.0:
            raise DomainError(f"variance must be positive, got {self.variance}")

    has_density = True
    alpha_attr = 2.0
    beta_attr = 0.0

    @property
    def sigma_attr(self) -> float:
        # the standard law at alpha=2 has chf exp(-x^2), i.e. variance 2
        return math.sqrt(self.variance / 2.0)

    def sample(self, rng: RandomSource, size):
        return math.sqrt(self.variance) * rng.standard_normal(size)


@dataclass(frozen=True)
class Lattice:
    """Jumps ``offset + b n`` with probability p for each pair (n, p) of the
    weight table; ``offset`` = -b sum n p centres the law exactly.  The
    default is the +/-1 fair coin."""

    b: float = 1.0
    weights: tuple[tuple[int, float], ...] = ((-1, 0.5), (1, 0.5))

    def __post_init__(self):
        if not self.b > 0.0:
            raise DomainError(f"lattice spacing b must be positive, got {self.b}")
        if not self.weights:
            raise DomainError("weight table must be nonempty")
        total = sum(p for _, p in self.weights)
        # written so that a nan weight fails
        if not (abs(total - 1.0) <= 1e-9 and all(p > 0.0 for _, p in self.weights)):
            raise DomainError("weights must be positive and sum to 1")
        if len({n for n, _ in self.weights}) < 2:
            raise DomainError("weights must put mass on at least two distinct sites")

    has_density = False

    @property
    def offset(self) -> float:
        return -self.b * sum(n * p for n, p in self.weights)

    @property
    def variance(self) -> float:
        values = np.array([self.offset + self.b * n for n, _ in self.weights])
        probs = np.array([p for _, p in self.weights])
        return float(np.sum(probs * values**2))

    alpha_attr = 2.0
    beta_attr = 0.0

    @property
    def sigma_attr(self) -> float:
        return math.sqrt(self.variance / 2.0)

    @property
    def generates_lattice(self) -> bool:
        """Whether the centred jumps ``offset + b n`` are integer multiples of
        ``b`` with gcd 1, so that the walk lives on exactly bZ."""
        # offset / b is -sum n p; the weights sum to 1 only within 1e-9, so it
        # is an integer only to that tolerance per unit of |n|
        shift = -sum(n * p for n, p in self.weights)
        k = round(shift)
        if abs(shift - k) > 1e-9 * (1 + max(abs(n) for n, _ in self.weights)):
            return False
        return math.gcd(*(k + n for n, _ in self.weights)) == 1

    def sample(self, rng: RandomSource, size):
        values = np.array([self.offset + self.b * k for k, _ in self.weights])
        cum = np.cumsum([p for _, p in self.weights])
        idx = np.searchsorted(cum, rng.random(size), side="right")
        return values[np.minimum(idx, len(values) - 1)]


def rademacher() -> Lattice:
    """The +/-1 fair-coin jump law."""
    return Lattice()


JumpLaw = Union[SymmetricPareto, SkewedPareto, Gaussian, Lattice]


def norm_constant(law: JumpLaw, t: float) -> float:
    """The normalizer c_t = sigma_attr t^(1/alpha - 1)."""
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    return law.sigma_attr * t ** (1.0 / law.alpha_attr - 1.0)

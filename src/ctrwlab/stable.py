"""Stable laws with index in (1, 2]: exact sampling, jump-size distributions
with attraction metadata, and normalizing constants.

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
* Every jump and wait law draws with ``sample(rng, size, out=None)``: the
  draws go into ``out`` when it is given (a C-contiguous float array of
  shape ``size``), which is returned, and they are the same draws, from the
  same stream, either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DomainError, check_finite, check_positive_finite
from .rng import RandomSource


# Entries per piece where a block is transformed or summed a piece at a time:
# 64 KiB of doubles, which stays in cache and below glibc's mmap threshold.
PIECE = 8192


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
        check_positive_finite(scale_c=self.scale_c)
        check_finite(location_a=self.location_a)


def sample_stable(params: StableParams, rng: RandomSource, size):
    """Draw from the stable law by the uniform-angle/exponential transform.

    The transform is exact (no discretization bias).  Internally the skew
    enters with the opposite sign from our chf convention, which the
    empirical-chf tests check against the exact chf in ``tests/oracles.py``.
    """
    alpha = params.alpha
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    w = rng.standard_exponential(size)
    if alpha == 2.0:
        # 2 sin(u) sqrt(w), in u's array
        x = np.sin(u, out=u)
        x *= 2.0
        x *= np.sqrt(w, out=w)
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
    x *= params.scale_c ** (1.0 / alpha)
    x += params.location_a
    return x


@dataclass(frozen=True)
class SkewedPareto:
    """Two-sided Pareto with exact power tail P(|xi| > x) = (x/x_min)^(-alpha)
    on |x| >= x_min, putting mass p_right on the positive branch, centered
    by an explicit shift."""

    alpha: float = 1.5
    x_min: float = 1.0
    p_right: float = 0.5

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise DomainError(
                f"alpha, the Pareto tail index, must be in (1, 2) for normal "
                f"attraction, got {self.alpha}"
            )
        check_positive_finite(x_min=self.x_min)
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
        # The normalized sums converge to the stable law with scale
        # c = x_min^alpha G(1-alpha) cos(pi alpha / 2); sigma is its
        # alpha-th root.
        alpha = self.alpha
        c = self.x_min**alpha * math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)
        return c ** (1.0 / alpha)

    @property
    def beta_attr(self) -> float:
        # tail-weight asymmetry p - q, negated into our chf convention
        # (so +0.0 at p = 1/2)
        return 1.0 - 2.0 * self.p_right

    def sample(self, rng: RandomSource, size, out=None):
        out = rng.random(size, out=out)
        out **= -1.0 / self.alpha
        out *= self.x_min
        # every magnitude, then every sign: the signs are drawn a piece at
        # a time, which draws the same stream
        flat = out.reshape(-1)
        for start in range(0, flat.size, PIECE):
            piece = flat[start : start + PIECE]
            np.negative(piece, out=piece, where=self._negative(rng, piece.size))
        out -= self.centering_shift
        return out

    def _negative(self, rng: RandomSource, n: int) -> np.ndarray:
        return rng.random(n) >= self.p_right


@dataclass(frozen=True)
class SymmetricPareto(SkewedPareto):
    """The skewed Pareto at p_right = 1/2, with density (alpha/2) x_min^alpha
    |x|^(-alpha-1) on |x| >= x_min and no centering shift.  Its signs are a
    fair coin drawn as integers, a stream of its own."""

    p_right: float = field(default=0.5, init=False, repr=False)

    def _negative(self, rng: RandomSource, n: int) -> np.ndarray:
        # an even PIECE keeps the integer stream whole: each 64-bit word
        # gives two coins
        return rng.integers(0, 2, n) == 0


@dataclass(frozen=True)
class Gaussian:
    """Centered normal jumps; normal attraction to the alpha=2 standard law."""

    variance: float = 1.0

    def __post_init__(self):
        check_positive_finite(variance=self.variance)

    has_density = True
    alpha_attr = 2.0
    beta_attr = 0.0

    @property
    def sigma_attr(self) -> float:
        # the standard law at alpha=2 has chf exp(-x^2), i.e. variance 2
        return math.sqrt(self.variance / 2.0)

    def sample(self, rng: RandomSource, size, out=None):
        out = rng.standard_normal(size, out=out)
        out *= math.sqrt(self.variance)
        return out


@dataclass(frozen=True)
class Lattice:
    """Jumps ``offset + b n`` with probability p for each pair (n, p) of the
    weight table; ``offset`` = -b sum n p centres the law exactly.  The
    default is the +/-1 fair coin."""

    b: float = 1.0
    weights: tuple[tuple[int, float], ...] = ((-1, 0.5), (1, 0.5))

    def __post_init__(self):
        check_positive_finite(b=self.b)
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

    def sample(self, rng: RandomSource, size, out=None):
        values = np.array([self.offset + self.b * k for k, _ in self.weights])
        cum = np.cumsum([p for _, p in self.weights])
        out = rng.random(size, out=out)
        flat = out.reshape(-1)
        for start in range(0, flat.size, PIECE):
            piece = flat[start : start + PIECE]
            # a uniform past the table's float sum takes the last value
            values.take(np.searchsorted(cum, piece, side="right"), out=piece, mode="clip")
        return out


def rademacher() -> Lattice:
    """The +/-1 fair-coin jump law."""
    return Lattice()


JumpLaw = Union[SymmetricPareto, SkewedPareto, Gaussian, Lattice]


def norm_constant(law: JumpLaw, t: float) -> float:
    """The normalizer c_t = sigma_attr t^(1/alpha - 1)."""
    check_positive_finite(t=t)
    return law.sigma_attr * t ** (1.0 / law.alpha_attr - 1.0)

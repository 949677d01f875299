import math

import numpy as np
import pytest

from ctrwlab.environment import (DeterministicEnv, Kernel, bump_kernel, periodic_env,
                                 power_kernel)
from ctrwlab.errors import DomainError, check_finite, check_positive_finite
from ctrwlab.harness import _box
from ctrwlab.levy import local_time_zero, simulate_levy
from ctrwlab.rng import spawn_rng
from ctrwlab.stable import Gaussian, Lattice, SkewedPareto, StableParams, norm_constant
from ctrwlab.walk import (
    DeterministicWait,
    Exponential,
    GammaWait,
    ParetoWait,
    simulate_skeleton,
)


def _kernel(**bounds):
    values = {"bound_c": 1.0, "decay_beta": 1.0, "cutoff_r": 1.0, **bounds}
    return Kernel(phi=lambda x: np.zeros_like(np.asarray(x, dtype=float)), **values)


def _walk(horizon_t):
    return simulate_skeleton(Gaussian(), Exponential(), horizon_t, spawn_rng(0, "domain"))


def _levy(horizon_u):
    return simulate_levy(1.5, 0.0, 1000, horizon_u, spawn_rng(0, "domain"))


# Each constructor with one parameter set to the value under test, and the
# name the message gives that parameter.
POSITIVE_FINITE = {
    "StableParams.scale_c": (lambda v: StableParams(1.5, scale_c=v), "scale_c"),
    "SkewedPareto.x_min": (lambda v: SkewedPareto(x_min=v), "x_min"),
    "Gaussian.variance": (lambda v: Gaussian(variance=v), "variance"),
    "Lattice.b": (lambda v: Lattice(b=v), "b"),
    "Exponential.mean": (lambda v: Exponential(mean=v), "mean"),
    "ParetoWait.x_min": (lambda v: ParetoWait(x_min=v), "x_min"),
    "GammaWait.shape": (lambda v: GammaWait(shape=v), "shape"),
    "GammaWait.scale": (lambda v: GammaWait(scale=v), "scale"),
    "DeterministicWait.mean": (lambda v: DeterministicWait(mean=v), "mean"),
    "Kernel.bound_c": (lambda v: _kernel(bound_c=v), "bound_c"),
    "Kernel.decay_beta": (lambda v: _kernel(decay_beta=v), "decay_beta"),
    "Kernel.cutoff_r": (lambda v: _kernel(cutoff_r=v), "cutoff_r"),
    "bump_kernel.amplitude": (lambda v: bump_kernel(amplitude=v), "amplitude"),
    "power_kernel.amplitude": (lambda v: power_kernel(amplitude=v), "amplitude"),
    "power_kernel.decay_beta": (lambda v: power_kernel(decay_beta=v), "decay_beta"),
    "periodic_env.mean_level": (lambda v: periodic_env(mean_level=v), "mean_level"),
    "DeterministicEnv.lambda_bar_inv": (
        lambda v: DeterministicEnv(lambda x: 2.0 + 0 * x, v), "lambda_bar_inv"),
    "simulate_skeleton.horizon_t": (_walk, "horizon_t"),
    "norm_constant.t": (lambda v: norm_constant(Gaussian(), v), "t"),
    "simulate_levy.horizon_u": (_levy, "horizon_u"),
    "local_time_zero.eps": (lambda v: local_time_zero(_levy(1.0), v, [0.5, 1.0]), "eps"),
}

FINITE = {
    "StableParams.location_a": (lambda v: StableParams(1.5, location_a=v), "location_a"),
    "periodic_env.frequency": (lambda v: periodic_env(frequency=v), "frequency"),
    "box.lo": (lambda v: _box(lo=v), "lo"),
    "box.hi": (lambda v: _box(hi=v), "hi"),
}

NOT_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", [0.0, -1.0, *NOT_FINITE])
@pytest.mark.parametrize("site", POSITIVE_FINITE)
def test_positive_finite_parameter_rejected(site, value):
    build, name = POSITIVE_FINITE[site]
    with pytest.raises(DomainError) as info:
        build(value)
    assert str(info.value) == f"{name} must be positive and finite, got {value}"


@pytest.mark.parametrize("value", NOT_FINITE)
@pytest.mark.parametrize("site", FINITE)
def test_finite_parameter_rejected(site, value):
    build, name = FINITE[site]
    with pytest.raises(DomainError) as info:
        build(value)
    assert str(info.value) == f"{name} must be finite, got {value}"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GammaWait(shape=math.nan, scale=0.0),
         "shape must be positive and finite, got nan"),
        (lambda: GammaWait(shape=1.0, scale=-math.inf),
         "scale must be positive and finite, got -inf"),
        (lambda: _kernel(bound_c=math.inf, decay_beta=0.0, cutoff_r=-1.0),
         "bound_c must be positive and finite, got inf"),
        (lambda: power_kernel(amplitude=0.0, decay_beta=math.nan),
         "amplitude must be positive and finite, got 0.0"),
        (lambda: _box(lo=math.nan, hi=math.inf), "lo must be finite, got nan"),
        (lambda: check_positive_finite(a=1.0, b=math.nan, c=0.0),
         "b must be positive and finite, got nan"),
        (lambda: check_finite(a=0.0, b=-math.inf, c=math.nan), "b must be finite, got -inf"),
    ],
    ids=["gamma-shape", "gamma-scale", "kernel", "power-kernel", "box", "positive", "finite"],
)
def test_first_bad_value_is_named(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message

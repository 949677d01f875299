"""Simulation and statistical verification of local-time limit laws for
continuous-time random walks, including Poisson shot-noise environments."""

from .distances import ks_two_sample, wasserstein1
from .environment import (
    DeterministicEnv,
    Kernel,
    PoissonConfig,
    ShotNoiseEnv,
    bump_kernel,
    mean_lambda_inv_analytic,
    periodic_env,
    power_kernel,
    sample_config,
    sup_growth_check,
    theorem5_constant,
)
from .errors import (
    BoundaryError,
    CtrwLabError,
    DivergentSumError,
    DomainError,
    ExperimentConfigError,
    JumpCapError,
    QuadratureError,
    SimulationError,
)
from .harness import (
    ComparisonReport,
    ExperimentConfig,
    emit_report,
    run_experiment,
)
from .levy import (
    LevyPath,
    local_time_constant,
    local_time_zero,
    sample_limit_rv,
    sample_local_time_exact,
    simulate_levy,
)
from .rng import spawn_rng
from .stable import (
    Gaussian,
    JumpLaw,
    Lattice,
    StableParams,
    SkewedPareto,
    SymmetricPareto,
    norm_constant,
    rademacher,
    sample_stable,
)
from .walk import (
    DeterministicWait,
    Exponential,
    FunctionalSpec,
    GammaWait,
    ParetoWait,
    PathSkeleton,
    WaitLaw,
    additive_functional,
    dump_skeleton,
    lattice_limit_constant,
    load_skeleton,
    normalized_functional,
    simulate_skeleton,
)

__version__ = "0.1.0"

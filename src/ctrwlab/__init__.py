"""Simulation and statistical verification of local-time limit laws for
continuous-time random walks, including Poisson shot-noise environments."""

from .distances import ks_two_sample, wasserstein1
from .environment import (
    DeterministicEnv,
    Kernel,
    PoissonConfig,
    ShotNoiseEnv,
    bump_kernel,
    cesaro_error,
    load_config,
    mean_lambda_inv_analytic,
    mc_mean_lambda_inv,
    periodic_env,
    power_kernel,
    sample_config,
    save_config,
    sup_growth_check,
    theorem5_constant,
)
from .errors import (
    BoundaryError,
    CalibrationError,
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
    fdd_joint_check,
    run_experiment,
    split_self_test,
)
from .levy import (
    LevyPath,
    LocalTimeEstimate,
    local_time_constant,
    local_time_zero,
    sample_limit_rv,
    sample_local_time_exact,
    simulate_levy,
)
from .rng import spawn_rng
from .stable import (
    CalibrationResult,
    Gaussian,
    JumpLaw,
    Lattice,
    StableParams,
    SkewedPareto,
    SymmetricPareto,
    calibrate_sigma,
    empirical_chf,
    hill_estimator,
    norm_constant,
    rademacher,
    sample_stable,
    stable_chf,
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
    position_at,
    simulate_skeleton,
)

__version__ = "0.1.0"

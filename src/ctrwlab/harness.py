"""Monte Carlo comparison of normalized CTRW functionals against their
limit laws, with quenched-environment support and machine-readable reports.

One experiment draws M independent functional vectors (one per simulated
path, evaluated at every u in the grid) and M' independent limit vectors
(constant times local time at zero), then compares the two ensembles per u
by Kolmogorov-Smirnov and Wasserstein-1 distances.  Everything is a pure
function of (config, master_seed): replicate k derives its generator from
the master seed and k alone, so reports are identical for any worker count.
"""

from __future__ import annotations

import configparser
import inspect
import json
import math
import time
from dataclasses import asdict, dataclass, fields
from multiprocessing import get_context
from typing import Optional

import numpy as np

from .distances import ks_two_sample, wasserstein1
from .environment import (
    DeterministicEnv,
    Kernel,
    ShotNoiseEnv,
    _kinks,
    _quad,
    _quad_line,
    bump_kernel,
    periodic_env,
    power_kernel,
    sample_config,
)
from .errors import ExperimentConfigError, ReportIOError, check_finite
from .levy import sample_limit_rv
from .rng import spawn_rng
from .stable import (
    Gaussian,
    JumpLaw,
    Lattice,
    SkewedPareto,
    SymmetricPareto,
    rademacher,
)
from .walk import (
    DeterministicWait,
    Exponential,
    FunctionalSpec,
    GammaWait,
    ParetoWait,
    WaitLaw,
    lattice_limit_constant,
    normalized_functional,
    simulate_skeleton,
)

THEOREMS = ("T2", "T2-lattice", "T3", "T5")

SCHEMA_VERSION = "4"


@dataclass(kw_only=True)
class ExperimentConfig:
    """Everything needed to reproduce one comparison run.

    ``jump``, ``wait``, ``functional`` and ``env`` are what the INI sections
    of those names build, ``env`` being None, T3's ``DeterministicEnv`` or
    T5's ``Kernel``; the rest are the ``[experiment]`` keys and defaults."""

    theorem: str = "T2"
    jump: JumpLaw
    wait: WaitLaw
    functional: FunctionalSpec
    t: float = 1e4
    u_grid: tuple = (0.25, 0.5, 0.75, 1.0)
    replicates: int = 2000
    limit_replicates: int = 2000
    master_seed: int = 0
    ks_threshold: float = 0.08
    workers: int = 1
    env: DeterministicEnv | Kernel | None = None
    env_window_halfwidth: Optional[float] = None
    # Quenched runs vary the walks while holding the configuration fixed:
    # the configuration stream defaults to the master seed but can be pinned.
    env_config_seed: Optional[int] = None
    fdd_pairs: tuple = ()
    label: str = ""

    def validate(self) -> None:
        problems = []
        if self.theorem not in THEOREMS:
            problems.append(f"unknown theorem {self.theorem!r}")
        if self.replicates < 100 or self.limit_replicates < 100:
            problems.append("replicates and limit_replicates must be >= 100")
        if not 0.0 < self.t < math.inf:
            problems.append(f"t must be positive and finite, got {self.t}")
        u = np.asarray(self.u_grid, dtype=float)
        # written so that a nan entry fails
        if u.size == 0 or not np.all((u > 0.0) & (u <= 1.0)) or np.any(np.diff(u) <= 0):
            problems.append("u_grid must be strictly increasing within (0, 1]")
        if not 0.0 < self.ks_threshold <= 1.0:
            problems.append("ks_threshold must be in (0, 1]")
        if self.workers < 1:
            problems.append("workers must be >= 1")
        for key in ("master_seed", "env_config_seed"):
            seed = getattr(self, key)
            if seed is not None and seed < 0:
                problems.append(f"{key} must be nonnegative, got {seed}")
        halfwidth = self.env_window_halfwidth
        if halfwidth is not None and not 0.0 < halfwidth < math.inf:
            problems.append(f"env_window_halfwidth must be positive and finite, got {halfwidth}")
        if self.theorem != "T5":
            for key in ("env_window_halfwidth", "env_config_seed"):
                if getattr(self, key) is not None:
                    problems.append(f"{key} is a T5 key: {self.theorem} samples no configuration")
        if self.theorem in ("T2", "T3", "T5") and not getattr(self.jump, "has_density", False):
            problems.append(f"{self.theorem} requires a jump law with an absolutely "
                            "continuous component; T2-lattice takes lattice jumps")
        if self.theorem == "T2-lattice" and not getattr(self.jump, "generates_lattice", False):
            problems.append("T2-lattice requires a lattice law: centred jumps that "
                            "generate bZ (integer multiples of b with gcd 1)")
        if self.theorem in ("T3", "T5") and not self.jump.alpha_attr < 2.0:
            problems.append("environment theorems require alpha < 2 (normal attraction, "
                            "non-Gaussian)")
        # the echo kind of env: T3 delays the walk by a fixed profile, T5 by a
        # kernel's shot-noise potential
        want = {"T3": "deterministic_env", "T5": "kernel"}.get(self.theorem, "none")
        if (got := describe(self.env)["kind"]) != want:
            problems.append(f"{self.theorem} takes env {want}, got {got}")
        for pair in self.fdd_pairs:
            if len(pair) != 2 or pair[0] >= pair[1] or not all(p in self.u_grid for p in pair):
                problems.append(f"fdd pair {pair!r} must be an increasing pair from u_grid")
        if problems:
            raise ExperimentConfigError("; ".join(problems))


def _gauss_bump() -> FunctionalSpec:
    return FunctionalSpec(f=lambda x: np.exp(-(x**2)))


def _indicator_zero() -> FunctionalSpec:
    return FunctionalSpec(f=lambda x: (np.abs(x) < 1e-9).astype(float))


def _box(lo: float = -0.5, hi: float = 0.5) -> FunctionalSpec:
    check_finite(lo=lo, hi=hi)
    if lo >= hi:
        raise ExperimentConfigError("box functional needs lo < hi")
    return FunctionalSpec(
        f=lambda x: ((x >= lo) & (x < hi)).astype(float), breakpoints=(lo, hi)
    )


def _parse_weights(text: str) -> tuple:
    pairs = (item.split(":") for item in text.split(","))
    return tuple((int(n), float(p)) for n, p in pairs)


def _format_weights(weights) -> str:
    return ",".join(f"{int(n)}:{float(p)!r}" for n, p in weights)


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.split(","))


def _parse_pairs(text: str) -> tuple:
    # unpacking raises ValueError for a chunk that is not one pair
    pairs = (_parse_floats(chunk) for chunk in text.split(";"))
    return tuple((a, b) for a, b in pairs)


# The kind table: section -> kind -> constructor.  The first kind of a
# section is its default, and a kind's INI keys and their defaults are its
# constructor's parameters (``kind_keys``).  For jump and wait laws those
# are the dataclass fields, so ``describe`` reads a law back into the INI
# section that builds it.  An INI ``[env] kind = shot_noise`` section
# builds a ``kernel`` kind into the same ``env`` field.
KINDS = {
    "jump": {
        "gaussian": Gaussian,
        "symmetric_pareto": SymmetricPareto,
        "skewed_pareto": SkewedPareto,
        "rademacher": rademacher,
        "lattice": Lattice,
    },
    "wait": {
        "exponential": Exponential,
        "pareto": ParetoWait,
        "gamma": GammaWait,
        "deterministic": DeterministicWait,
    },
    "functional": {
        "gauss_bump": _gauss_bump,
        "indicator_zero": _indicator_zero,
        "box": _box,
    },
    "env": {
        "none": lambda: None,
        "periodic_inverse": periodic_env,
    },
    "kernel": {
        "bump": bump_kernel,
        "power": power_kernel,
    },
}


def kind_keys(section: str, kind: str) -> dict:
    """The INI keys of ``kind`` with their defaults: its constructor's
    parameters."""
    params = inspect.signature(KINDS[section][kind]).parameters.values()
    return {p.name: p.default for p in params}


# Keys whose INI text is not read by the type of their default.
_PARSE = {
    "weights": _parse_weights,
    "u_grid": _parse_floats,
    "fdd_pairs": _parse_pairs,
    "env_window_halfwidth": float,
    "env_config_seed": int,
}
_FORMAT = {"weights": _format_weights}


def _read(section: str, key: str, raw, default):
    """The value of ``key`` from its INI text (or a flag's value) ``raw``,
    parsed by its ``_PARSE`` entry, else by the type of ``default``.  It
    only parses: the constructor or ``validate`` that owns the key bounds
    the value, a nan or an infinity included."""
    parse = _PARSE.get(key, type(default))
    try:
        return parse(raw)
    except ValueError as exc:
        raise ExperimentConfigError(f"bad {section} {key} {raw!r}: {exc}") from exc


def build(section: str, kind: str, values=None):
    """The ``kind`` object of ``section`` from INI-style ``{key: value}``;
    keys left out take the constructor's defaults."""
    if kind not in KINDS[section]:
        raise ExperimentConfigError(f"unknown {section} kind {kind!r}")
    defaults = kind_keys(section, kind)
    values = dict(values or {})
    for key in values:
        if key not in defaults:
            raise ExperimentConfigError(
                f"{section} kind {kind!r} takes no key {key!r}"
                f" (its keys: {', '.join(defaults) or 'none'})"
            )
    return KINDS[section][kind](**{
        key: _read(section, key, raw, defaults[key]) for key, raw in values.items()
    })


_OUTPUT_KEYS = ("json", "csv")
# Sections whose kinds and keys come from the kind table.
_KIND_SECTIONS = ("jump", "wait", "functional", "env")
# The [experiment] keys and their defaults: every ExperimentConfig field but
# the law sections.
_EXPERIMENT_DEFAULTS = {
    f.name: f.default for f in fields(ExperimentConfig) if f.name not in _KIND_SECTIONS
}


def load_experiment_config(path) -> tuple[ExperimentConfig, dict]:
    """Parse an INI experiment file into an ExperimentConfig plus output
    paths.  A key left out or left empty takes the field's default."""
    # An inline comment needs whitespace before its ";", so the
    # semicolon-separated fdd_pairs value is left intact.
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ExperimentConfigError(f"malformed config file: {exc}") from exc
    if not read:
        raise ExperimentConfigError(f"config file not found: {path}")
    keys = {"experiment": _EXPERIMENT_DEFAULTS, "output": _OUTPUT_KEYS}
    for section in parser.sections():
        if section in _KIND_SECTIONS:
            continue
        if section not in keys:
            raise ExperimentConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in keys[section]:
                raise ExperimentConfigError(f"unknown key {key!r} in section [{section}]")
    if "experiment" not in parser:
        raise ExperimentConfigError("config file needs an [experiment] section")
    built = {key: _read("experiment", key, raw, _EXPERIMENT_DEFAULTS[key])
             for key, raw in parser["experiment"].items() if raw.strip()}
    for section in _KIND_SECTIONS:
        values = dict(parser[section]) if section in parser else {}
        kind = values.pop("kind", next(iter(KINDS[section])))
        if section == "env" and kind == "shot_noise":
            built[section] = build("kernel", values.pop("kernel", "bump"), values)
        else:
            built[section] = build(section, kind, values)
    outputs = dict(parser["output"]) if "output" in parser else {}
    return ExperimentConfig(**built), outputs


def describe(obj) -> dict:
    """The config echo of one law or of ``ExperimentConfig.env``.

    A jump or wait law reads back through the kind table, each value as its
    INI key takes it.  An environment (T3's profile, T5's kernel) wraps
    callables, so it echoes a summary."""
    if obj is None:
        return {"kind": "none"}
    if isinstance(obj, DeterministicEnv):
        return {"kind": "deterministic_env", "name": obj.name,
                "lambda_bar_inv": obj.lambda_bar_inv}
    if isinstance(obj, Kernel):
        return {"kind": "kernel", "name": obj.name, "bound_c": obj.bound_c,
                "decay_beta": obj.decay_beta, "cutoff_r": obj.cutoff_r}
    for section, kinds in KINDS.items():
        for kind, make in kinds.items():
            if make is type(obj):
                return {
                    "kind": kind,
                    **{k: _FORMAT.get(k, lambda v: v)(getattr(obj, k))
                       for k in kind_keys(section, kind)},
                }
    return {"kind": type(obj).__name__}


# The T5 window is sized so that some path of the run leaves it with about
# this probability.
_ESCAPE_PROBABILITY = 0.01


def suggest_window_halfwidth(
    jump: JumpLaw, wait_mu: float, t: float, n_paths: int, cutoff_r: float
) -> float:
    """Window half-width so that, with probability about
    1 - ``_ESCAPE_PROBABILITY``, no path in the run leaves the evaluable
    region.

    Uses the stable tail of the path supremum: the walk makes at most about
    t/mu jumps (delays only slow it down), its displacement scale is
    sigma (t/mu)^(1/alpha), and the standardized supremum tail is bounded
    by a constant multiple of the marginal stable tail.  The width grows
    with t and with ``n_paths``.  The tail constant needs alpha < 2, which
    ``validate`` requires of T5.
    """
    alpha = jump.alpha_attr
    n_max = t / wait_mu + 6.0 * math.sqrt(t / wait_mu) + 100.0
    scale = jump.sigma_attr * n_max ** (1.0 / alpha)
    per_path = max(_ESCAPE_PROBABILITY / max(n_paths, 1), 1e-12)
    tail_const = 1.0 / (math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0))
    z = (4.0 * tail_const / per_path) ** (1.0 / alpha)
    return scale * z + cutoff_r + 1.0


# |g| beyond the quenched integral's span carries at most this share of its
# integral over the line.
_SPAN_TAIL_TOL = 1e-12


def quenched_integral(g, env: ShotNoiseEnv, points=()) -> float:
    """integral of g(x) / Lambda(x, gamma) dx over the fixed configuration,
    by ``_integral_g_over_lambda`` on [-H, H].

    H doubles from max(1, |points|) until the tails of |g| beyond it are at
    most ``_SPAN_TAIL_TOL`` of its integral, which the checked rule computes,
    so a g it cannot resolve raises QuadratureError.  A span the
    configuration window does not cover raises BoundaryError."""
    points = np.asarray(points, dtype=float)

    def abs_g(x):
        return np.abs(np.asarray(g(x), dtype=float))

    def tail(a, b):
        return _quad(abs_g, a, b, points)[0]

    tol = _SPAN_TAIL_TOL * _quad_line(abs_g, "|g|", points)
    hi = float(np.max(np.abs(points), initial=1.0))
    while tail(-math.inf, -hi) + tail(hi, math.inf) > tol:
        hi *= 2.0
    return _integral_g_over_lambda(g, env, points, -hi, hi)


def _integral_g_over_lambda(g, env, points, lo=-math.inf, hi=math.inf) -> float:
    """integral of g / Lambda over [lo, hi] by the checked rule, split at
    ``points`` and at the kinks of 1/Lambda (a shot-noise environment's)."""
    return _quad_line(
        lambda x: np.asarray(g(x), dtype=float) * env.lambda_inv_many(x),
        "g/Lambda",
        (*points, *_kinks(env, lo, hi)),
        lo,
        hi,
    )


def _integral_f(f, points) -> float:
    return _quad_line(f, "f", points)


# Worker context (cfg, path_env, u_grid, limit_constant) shared with forked
# processes; set immediately before the pool is created and read-only
# afterwards.
_WORKER_CTX: dict = {}


def _functional_task(k: int):
    cfg, path_env, u_grid, _ = _WORKER_CTX["ctx"]
    rng = spawn_rng(cfg.master_seed, "walk", k)
    path = simulate_skeleton(cfg.jump, cfg.wait, cfg.t, rng, env=path_env)
    return normalized_functional(path, cfg.functional, cfg.jump, u_grid)


def _limit_task(j: int):
    cfg, _, u_grid, limit_constant = _WORKER_CTX["ctx"]
    rng = spawn_rng(cfg.master_seed, "limit", j)
    return sample_limit_rv(
        cfg.jump.alpha_attr, cfg.jump.beta_attr, limit_constant, u_grid, rng
    )


def _map_tasks(task, n: int, workers: int) -> np.ndarray:
    if workers <= 1:
        rows = [task(i) for i in range(n)]
    else:
        chunk = max(1, n // (workers * 8))
        with get_context("fork").Pool(workers) as pool:
            rows = pool.map(task, range(n), chunksize=chunk)
    return np.vstack(rows)


@dataclass
class UComparison:
    u: float
    ks: float
    w1: float
    mean_func: float
    mean_limit: float
    q05_func: float
    q50_func: float
    q95_func: float
    q05_limit: float
    q50_limit: float
    q95_limit: float
    threshold: float
    passed: bool


@dataclass
class ComparisonReport:
    """One run's report.  Each fact has one home: the config lives only in
    ``config_echo``, and each per-u KS only in its row."""

    sigma_used: float
    beta_used: float
    mu: float
    f_integral: float
    env_constant: float
    limit_constant: float
    theorem5_factor: Optional[float]
    config_echo: dict
    rows: list
    fdd: list
    passed: bool
    runtime_seconds: float
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)


# The quantile levels each row reports.
_QUANTILE_LEVELS = np.array([0.05, 0.5, 0.95])


def _quantiles(sample: np.ndarray) -> np.ndarray:
    """``np.quantile(sample, _QUANTILE_LEVELS)`` from one sort, bit for bit:
    numpy's linear method, with its virtual index (n - 1) q, its neighbours
    (a level at or past the last index reads the last value, as numpy's
    index -1 does) and its lerp.  (A sample holding both 0.0 and -0.0 may
    differ in the sign of a zero: a sort and numpy's partition may order
    them either way.)  ``np.quantile`` itself calls ``np.unique``, whose
    first call imports ``numpy.ma``, about 20 ms and a megabyte of memory
    at the end of every run."""
    x = np.sort(sample)
    n = len(x)
    virtual = (n - 1) * _QUANTILE_LEVELS
    below = np.floor(virtual)
    below[virtual >= n - 1] = -1
    below = below.astype(np.intp)
    gamma = virtual - below
    a = x[below]
    b = x[np.where(below < 0, -1, below + 1)]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def run_experiment(cfg: ExperimentConfig) -> ComparisonReport:
    cfg.validate()
    started = time.perf_counter()

    mu = cfg.wait.mu
    alpha = cfg.jump.alpha_attr
    beta = cfg.jump.beta_attr
    sigma = cfg.jump.sigma_attr
    u_grid = tuple(float(u) for u in cfg.u_grid)

    path_env = cfg.env
    if cfg.theorem == "T5":
        halfwidth = cfg.env_window_halfwidth
        if halfwidth is None:
            halfwidth = suggest_window_halfwidth(
                cfg.jump,
                mu,
                cfg.t,
                cfg.replicates,
                cfg.env.cutoff_r,
            )
        config_seed = (
            cfg.env_config_seed if cfg.env_config_seed is not None else cfg.master_seed
        )
        env_rng = spawn_rng(config_seed, "environment")
        path_env = ShotNoiseEnv(
            kernel=cfg.env, config=sample_config((-halfwidth, halfwidth), env_rng)
        )
    # T3 and T5 share the constant mean(1/Lambda)^(1/alpha - 1); for T5 the
    # mean is over configurations, exp(integral of (e^phi - 1)).
    env_constant = 1.0
    if path_env is not None:
        env_constant = path_env.lambda_bar_inv ** (1.0 / alpha - 1.0)
    thm5_factor = env_constant if cfg.theorem == "T5" else None

    spec = cfg.functional
    if cfg.theorem == "T2-lattice":
        f_integral = lattice_limit_constant(cfg.jump, spec.f)
    elif cfg.theorem == "T5":
        f_integral = quenched_integral(spec.f, path_env, spec.breakpoints)
    elif cfg.theorem == "T3":
        f_integral = _integral_g_over_lambda(spec.f, path_env, spec.breakpoints)
    else:
        f_integral = _integral_f(spec.f, spec.breakpoints)
    limit_constant = mu ** (1.0 / alpha) * f_integral * env_constant

    _WORKER_CTX["ctx"] = (cfg, path_env, u_grid, limit_constant)
    try:
        func_matrix = _map_tasks(_functional_task, cfg.replicates, cfg.workers)
        # Exact limit draws cost tens of microseconds each: a second pool
        # would cost more to fork than it saves.
        limit_matrix = _map_tasks(_limit_task, cfg.limit_replicates, 1)
    finally:
        _WORKER_CTX.pop("ctx", None)

    rows = []
    for i, u in enumerate(u_grid):
        a = func_matrix[:, i]
        b = limit_matrix[:, i]
        ks = ks_two_sample(a, b)
        qa, qb = _quantiles(a), _quantiles(b)
        rows.append(
            UComparison(
                u=u,
                ks=ks,
                w1=wasserstein1(a, b),
                mean_func=float(a.mean()),
                mean_limit=float(b.mean()),
                q05_func=float(qa[0]),
                q50_func=float(qa[1]),
                q95_func=float(qa[2]),
                q05_limit=float(qb[0]),
                q50_limit=float(qb[1]),
                q95_limit=float(qb[2]),
                threshold=cfg.ks_threshold,
                passed=bool(ks <= cfg.ks_threshold),
            )
        )

    # The joint law at (u1, u2) through its three 1-d projections: the two
    # marginals are the rows' own comparisons, and only the increment is new.
    fdd = []
    for u1, u2 in cfg.fdd_pairs:
        i1, i2 = u_grid.index(u1), u_grid.index(u2)
        ks_inc = ks_two_sample(*(m[:, i2] - m[:, i1] for m in (func_matrix, limit_matrix)))
        fdd.append(dict(
            u1=u_grid[i1], u2=u_grid[i2], threshold=cfg.ks_threshold, ks_increment=ks_inc,
            passed=bool(max(rows[i1].ks, rows[i2].ks, ks_inc) <= cfg.ks_threshold),
        ))

    passed = all(r.passed for r in rows) and all(f["passed"] for f in fdd)
    # Every [experiment] key but ``workers``, on which no report value
    # depends; tuples echo as JSON lists.
    experiment = {key: getattr(cfg, key) for key in _EXPERIMENT_DEFAULTS if key != "workers"}
    config_echo = {
        **experiment,
        "u_grid": list(u_grid),
        "fdd_pairs": [list(pair) for pair in cfg.fdd_pairs],
        "jump": describe(cfg.jump),
        "wait": describe(cfg.wait),
        "env": describe(cfg.env),
        "limit_method": "exact-regenerative",
        "env_window_points": path_env.config.count if cfg.theorem == "T5" else None,
    }
    runtime = time.perf_counter() - started
    return ComparisonReport(
        sigma_used=sigma,
        beta_used=beta,
        mu=mu,
        f_integral=f_integral,
        env_constant=env_constant,
        limit_constant=limit_constant,
        theorem5_factor=thm5_factor,
        config_echo=config_echo,
        rows=rows,
        fdd=fdd,
        passed=passed,
        runtime_seconds=runtime,
    )


def report_json(report: ComparisonReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


# The per-u CSV columns: every UComparison field but the verdict.
_CSV_COLUMNS = tuple(f.name for f in fields(UComparison) if f.name not in ("threshold", "passed"))


def report_csv(report: ComparisonReport) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for r in report.rows:
        lines.append(",".join(f"{getattr(r, c):.17g}" for c in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def emit_report(report: ComparisonReport, path, fmt: str = "json") -> None:
    """Write the report as schema-versioned JSON or a per-u CSV table."""
    if fmt == "json":
        payload = report_json(report)
    elif fmt == "csv":
        payload = report_csv(report)
    else:
        raise ExperimentConfigError(f"unknown report format {fmt!r}")
    try:
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ReportIOError(path, exc) from exc

"""Command-line front end: sample-stable, simulate, local-time, env, compare.

Exit codes: 0 success (and all thresholds passed for ``compare``),
1 runtime failure, 2 validation/usage error, 3 threshold failure.
Experiment configs are flat key=value INI files; unknown sections or keys
are rejected.  See the README for the schema and examples.
"""

from __future__ import annotations

import configparser
import math
import sys

import click
import numpy as np

from .environment import (
    ShotNoiseEnv,
    bump_kernel,
    mean_lambda_inv_analytic,
    periodic_env,
    power_kernel,
    sample_config,
    sup_growth_check,
)
from .errors import CtrwLabError, DomainError, ExperimentConfigError
from .harness import (
    ExperimentConfig,
    emit_report,
    run_experiment,
)
from .levy import default_eps, dump_levy_path, local_time_zero, simulate_levy
from .rng import spawn_rng
from .stable import (
    Gaussian,
    Lattice,
    StableParams,
    SkewedPareto,
    SymmetricPareto,
    rademacher,
    sample_stable,
)
from .walk import (
    DeterministicWait,
    Exponential,
    FunctionalSpec,
    GammaWait,
    ParetoWait,
    dump_skeleton,
    simulate_skeleton,
)

EXIT_RUNTIME = 1
EXIT_VALIDATION = 2
EXIT_THRESHOLD = 3


def _open_out(path):
    if path == "-":
        return sys.stdout
    return open(path, "w")


@click.group()
def main():
    """Stochastic-limit verification toolkit for continuous-time random walks."""


@main.command("sample-stable")
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--scale", type=float, default=1.0, show_default=True)
@click.option("--loc", type=float, default=0.0, show_default=True)
@click.option("--n", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="-", show_default=True)
def cmd_sample_stable(alpha, beta, scale, loc, n, seed, out):
    """Write N stable draws, one per line."""
    try:
        params = StableParams(alpha, beta, scale, loc)
    except DomainError as exc:
        raise click.UsageError(str(exc))
    if n < 1:
        raise click.UsageError("--n must be at least 1")
    samples = sample_stable(params, spawn_rng(seed, "cli-sample-stable"), n)
    fh = _open_out(out)
    try:
        for s in samples:
            fh.write(f"{s:.17g}\n")
    finally:
        if fh is not sys.stdout:
            fh.close()


_JUMP_KINDS = ("gaussian", "symmetric_pareto", "skewed_pareto", "rademacher")
_WAIT_KINDS = ("exponential", "pareto", "gamma", "deterministic")


def _build_jump(kind, alpha, x_min, variance, p_right):
    try:
        if kind == "gaussian":
            return Gaussian(variance)
        if kind == "symmetric_pareto":
            return SymmetricPareto(alpha, x_min)
        if kind == "skewed_pareto":
            return SkewedPareto(alpha, x_min, p_right)
        if kind == "rademacher":
            return rademacher()
    except DomainError as exc:
        raise click.UsageError(str(exc))
    raise click.UsageError(f"unknown jump kind {kind!r}")


def _build_wait(kind, mean, index, x_min, shape, scale):
    try:
        if kind == "exponential":
            return Exponential(mean)
        if kind == "pareto":
            return ParetoWait(index, x_min)
        if kind == "gamma":
            return GammaWait(shape, scale)
        if kind == "deterministic":
            return DeterministicWait(mean)
    except DomainError as exc:
        raise click.UsageError(str(exc))
    raise click.UsageError(f"unknown wait kind {kind!r}")


@main.command("simulate")
@click.option("--jump", "jump_kind", type=click.Choice(_JUMP_KINDS), default="gaussian", show_default=True)
@click.option("--jump-alpha", type=float, default=1.5, show_default=True)
@click.option("--jump-xmin", type=float, default=1.0, show_default=True)
@click.option("--jump-variance", type=float, default=1.0, show_default=True)
@click.option("--jump-pright", type=float, default=0.5, show_default=True)
@click.option("--wait", "wait_kind", type=click.Choice(_WAIT_KINDS), default="exponential", show_default=True)
@click.option("--wait-mean", type=float, default=1.0, show_default=True)
@click.option("--wait-index", type=float, default=2.0, show_default=True)
@click.option("--wait-xmin", type=float, default=0.5, show_default=True)
@click.option("--wait-shape", type=float, default=1.0, show_default=True)
@click.option("--wait-scale", type=float, default=1.0, show_default=True)
@click.option("--env", "env_kind", type=click.Choice(("none", "periodic")), default="none", show_default=True)
@click.option("--t", type=float, required=True)
@click.option("--paths", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="-", show_default=True)
@click.option("--dump-skeleton", "dump_path", default=None,
              help="Write the first path in columnar form (k S_k h_(k+1)).")
def cmd_simulate(jump_kind, jump_alpha, jump_xmin, jump_variance, jump_pright,
                 wait_kind, wait_mean, wait_index, wait_xmin, wait_shape,
                 wait_scale, env_kind, t, paths, seed, out, dump_path):
    """Simulate path skeletons; emit per-path summary CSV."""
    if t <= 0:
        raise click.UsageError("--t must be positive")
    if paths < 1:
        raise click.UsageError("--paths must be at least 1")
    jump = _build_jump(jump_kind, jump_alpha, jump_xmin, jump_variance, jump_pright)
    wait = _build_wait(wait_kind, wait_mean, wait_index, wait_xmin, wait_shape, wait_scale)
    env = periodic_env() if env_kind == "periodic" else None
    fh = _open_out(out)
    try:
        fh.write("path,n_jumps,final_position,mean_hold\n")
        for k in range(paths):
            rng = spawn_rng(seed, "cli-simulate", k)
            path = simulate_skeleton(jump, wait, t, rng, env=env)
            fh.write(
                f"{k},{path.n_jumps},{path.positions[-1]:.17g},"
                f"{float(np.mean(path.holds)):.17g}\n"
            )
            if k == 0 and dump_path is not None:
                dump_skeleton(path, dump_path)
    except CtrwLabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)
    finally:
        if fh is not sys.stdout:
            fh.close()


@main.command("local-time")
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--grid-n", type=int, default=100_000, show_default=True)
@click.option("--horizon", type=float, default=1.0, show_default=True)
@click.option("--eps", type=float, default=None, help="Defaults to 10 dt^(1/alpha).")
@click.option("--paths", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--u-grid", default="0.25,0.5,0.75,1.0", show_default=True)
@click.option("--out", default="-", show_default=True)
@click.option("--dump-path", "dump_path", default=None,
              help="Write the first path in columnar form (k t_k Z_k).")
def cmd_local_time(alpha, beta, grid_n, horizon, eps, paths, seed, u_grid, out,
                   dump_path):
    """Estimate local time at zero of stable Levy paths; CSV rows (path,u,value)."""
    try:
        StableParams(alpha, beta)
        u = tuple(float(x) for x in u_grid.split(","))
    except (DomainError, ValueError) as exc:
        raise click.UsageError(str(exc))
    fh = _open_out(out)
    try:
        fh.write("path,u,eps,value\n")
        for k in range(paths):
            path = simulate_levy(alpha, beta, grid_n, horizon, spawn_rng(seed, "cli-local-time", k))
            if k == 0 and dump_path is not None:
                dump_levy_path(path, dump_path)
            use_eps = eps if eps is not None else default_eps(alpha, grid_n, horizon)
            for est in local_time_zero(path, use_eps, u):
                fh.write(f"{k},{est.u:.17g},{est.eps:.17g},{est.value:.17g}\n")
    except CtrwLabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)
    finally:
        if fh is not sys.stdout:
            fh.close()


@main.command("env")
@click.option("--check-b3", is_flag=True, help="Estimate sup of 1/Lambda over |x| <= n.")
@click.option("--exp-moment", is_flag=True, help="Print the analytic E[Lambda^-a].")
@click.option("--n", "n_list", default="100,1000", show_default=True)
@click.option("--a", "moment_a", type=float, default=1.0, show_default=True)
@click.option("--kernel", "kernel_kind", type=click.Choice(("bump", "power")), default="bump", show_default=True)
@click.option("--amplitude", type=float, default=math.log(2.0), show_default=True)
@click.option("--decay-beta", type=float, default=3.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="-", show_default=True)
def cmd_env(check_b3, exp_moment, n_list, moment_a, kernel_kind, amplitude,
            decay_beta, seed, out):
    """Shot-noise environment diagnostics."""
    if not (check_b3 or exp_moment):
        raise click.UsageError("choose one of --check-b3 or --exp-moment")
    try:
        kernel = (
            bump_kernel(amplitude)
            if kernel_kind == "bump"
            else power_kernel(amplitude, decay_beta)
        )
    except DomainError as exc:
        raise click.UsageError(str(exc))
    fh = _open_out(out)
    try:
        if exp_moment:
            value = mean_lambda_inv_analytic(kernel, moment_a)
            fh.write(f"a,mean_lambda_inv\n{moment_a:.17g},{value:.17g}\n")
        else:
            try:
                ns = sorted(int(x) for x in n_list.split(","))
            except ValueError as exc:
                raise click.UsageError(f"bad --n list: {exc}")
            halfwidth = max(ns) + kernel.cutoff_r + 1.0
            config = sample_config((-halfwidth, halfwidth), spawn_rng(seed, "cli-env"))
            env = ShotNoiseEnv(kernel=kernel, config=config)
            fh.write("n,sup_lambda_inv\n")
            for n, sup in sup_growth_check(env, ns):
                fh.write(f"{n},{sup:.17g}\n")
    except CtrwLabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)
    finally:
        if fh is not sys.stdout:
            fh.close()


_CONFIG_SCHEMA = {
    "experiment": {
        "theorem", "t", "u_grid", "replicates", "limit_replicates",
        "master_seed", "workers", "ks_threshold", "label", "fdd_pairs",
        "allow_short_horizon", "g_support_halfwidth", "env_window_halfwidth",
        "escape_probability",
    },
    "jump": {"kind", "alpha", "x_min", "variance", "p_right", "a", "b", "weights"},
    "wait": {"kind", "mean", "index", "x_min", "shape", "scale"},
    "functional": {"kind", "lo", "hi"},
    "env": {"kind", "mean_level", "amplitude", "frequency", "kernel",
            "decay_beta"},
    "output": {"json", "csv"},
}


def _parse_functional(section) -> FunctionalSpec:
    kind = section.get("kind", "gauss_bump")
    if kind == "gauss_bump":
        return FunctionalSpec(f=lambda x: np.exp(-(x**2)), f_integral=None)
    if kind == "indicator_zero":
        return FunctionalSpec(
            f=lambda x: (np.abs(x) < 1e-9).astype(float), f_integral=None
        )
    if kind == "box":
        lo = float(section.get("lo", "-0.5"))
        hi = float(section.get("hi", "0.5"))
        if lo >= hi:
            raise ExperimentConfigError("box functional needs lo < hi")
        return FunctionalSpec(
            f=lambda x: ((x >= lo) & (x < hi)).astype(float), f_integral=hi - lo
        )
    raise ExperimentConfigError(f"unknown functional kind {kind!r}")


def _parse_jump(section):
    kind = section.get("kind", "gaussian")
    if kind == "gaussian":
        return Gaussian(float(section.get("variance", "1.0")))
    if kind == "symmetric_pareto":
        return SymmetricPareto(
            float(section.get("alpha", "1.5")), float(section.get("x_min", "1.0"))
        )
    if kind == "skewed_pareto":
        return SkewedPareto(
            float(section.get("alpha", "1.5")),
            float(section.get("x_min", "1.0")),
            float(section.get("p_right", "0.5")),
        )
    if kind == "rademacher":
        return rademacher()
    if kind == "lattice":
        weights = []
        for item in section.get("weights", "-1:0.5,1:0.5").split(","):
            n, p = item.split(":")
            weights.append((int(n), float(p)))
        return Lattice(
            a=float(section.get("a", "0.0")),
            b=float(section.get("b", "1.0")),
            weights=tuple(weights),
        )
    raise ExperimentConfigError(f"unknown jump kind {kind!r}")


def _parse_wait(section):
    kind = section.get("kind", "exponential")
    if kind == "exponential":
        return Exponential(float(section.get("mean", "1.0")))
    if kind == "pareto":
        return ParetoWait(
            float(section.get("index", "2.0")), float(section.get("x_min", "0.5"))
        )
    if kind == "gamma":
        return GammaWait(
            float(section.get("shape", "1.0")), float(section.get("scale", "1.0"))
        )
    if kind == "deterministic":
        return DeterministicWait(float(section.get("mean", "1.0")))
    raise ExperimentConfigError(f"unknown wait kind {kind!r}")


def _parse_env(section):
    kind = section.get("kind", "none")
    if kind == "none":
        return None, None
    if kind == "periodic_inverse":
        env = periodic_env(
            float(section.get("mean_level", "2.0")),
            float(section.get("amplitude", "1.0")),
            float(section.get("frequency", "1.0")),
        )
        return env, None
    if kind == "shot_noise":
        kernel_kind = section.get("kernel", "bump")
        amplitude = float(section.get("amplitude", str(math.log(2.0))))
        if kernel_kind == "bump":
            return None, bump_kernel(amplitude)
        if kernel_kind == "power":
            return None, power_kernel(amplitude, float(section.get("decay_beta", "3.0")))
        raise ExperimentConfigError(f"unknown kernel {kernel_kind!r}")
    raise ExperimentConfigError(f"unknown env kind {kind!r}")


def load_experiment_config(path) -> tuple[ExperimentConfig, dict]:
    """Parse an INI experiment file into an ExperimentConfig plus output paths."""
    # An inline comment needs whitespace before its ";", so the
    # semicolon-separated fdd_pairs value is left intact.
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ExperimentConfigError(f"malformed config file: {exc}") from exc
    if not read:
        raise ExperimentConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in _CONFIG_SCHEMA:
            raise ExperimentConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _CONFIG_SCHEMA[section]:
                raise ExperimentConfigError(
                    f"unknown key {key!r} in section [{section}]"
                )
    if "experiment" not in parser:
        raise ExperimentConfigError("config file needs an [experiment] section")
    exp = parser["experiment"]
    env, kernel = _parse_env(parser["env"]) if "env" in parser else (None, None)
    u_grid = tuple(
        float(x) for x in exp.get("u_grid", "0.25,0.5,0.75,1.0").split(",")
    )
    fdd_pairs = ()
    if exp.get("fdd_pairs"):
        pairs = []
        for chunk in exp["fdd_pairs"].split(";"):
            a, b = chunk.split(",")
            pairs.append((float(a), float(b)))
        fdd_pairs = tuple(pairs)
    cfg = ExperimentConfig(
        theorem=exp.get("theorem", "T2"),
        jump=_parse_jump(parser["jump"]) if "jump" in parser else Gaussian(1.0),
        wait=_parse_wait(parser["wait"]) if "wait" in parser else Exponential(1.0),
        functional=_parse_functional(parser["functional"])
        if "functional" in parser
        else FunctionalSpec(f=lambda x: np.exp(-(x**2)), f_integral=None),
        t=float(exp.get("t", "10000")),
        u_grid=u_grid,
        replicates=int(exp.get("replicates", "2000")),
        limit_replicates=int(exp.get("limit_replicates", "2000")),
        master_seed=int(exp.get("master_seed", "0")),
        ks_threshold=float(exp.get("ks_threshold", "0.08")),
        workers=int(exp.get("workers", "1")),
        env=env,
        kernel=kernel,
        env_window_halfwidth=(
            float(exp["env_window_halfwidth"])
            if exp.get("env_window_halfwidth")
            else None
        ),
        escape_probability=float(exp.get("escape_probability", "0.01")),
        fdd_pairs=fdd_pairs,
        g_support_halfwidth=float(exp.get("g_support_halfwidth", "12.0")),
        label=exp.get("label", ""),
        allow_short_horizon=exp.getboolean("allow_short_horizon", fallback=False),
    )
    outputs = {}
    if "output" in parser:
        outputs = {k: parser["output"][k] for k in parser["output"]}
    return cfg, outputs


@main.command("compare")
@click.option("--config", "config_path", required=True)
@click.option("--seed", type=int, default=None, help="Override master_seed.")
@click.option("--workers", type=int, default=None, help="Override worker count.")
@click.option("--out-json", default=None)
@click.option("--out-csv", default=None)
def cmd_compare(config_path, seed, workers, out_json, out_csv):
    """Run a comparison experiment; exit 0 only if all thresholds pass."""
    try:
        cfg, outputs = load_experiment_config(config_path)
        if seed is not None:
            cfg.master_seed = seed
        if workers is not None:
            cfg.workers = workers
        cfg.validate()
    except (ExperimentConfigError, DomainError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    try:
        report = run_experiment(cfg)
        json_path = out_json or outputs.get("json")
        csv_path = out_csv or outputs.get("csv")
        if json_path:
            emit_report(report, json_path, "json")
        if csv_path:
            emit_report(report, csv_path, "csv")
        for row in report.rows:
            status = "pass" if row.passed else "FAIL"
            click.echo(
                f"u={row.u:g}: ks={row.ks:.4f} w1={row.w1:.4f} "
                f"[threshold {row.threshold:g}] {status}"
            )
        click.echo(f"overall: {'pass' if report.passed else 'FAIL'}")
    except CtrwLabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)
    if not report.passed:
        sys.exit(EXIT_THRESHOLD)

"""Command-line front end: sample-stable, simulate, local-time, env, compare.

Exit codes: 0 success (and all thresholds passed for ``compare``),
1 runtime failure, 2 validation/usage error, 3 threshold failure.
Experiment configs are flat key=value INI files; unknown sections or keys
are rejected.  See the README for the schema and examples.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import sys

import click
import numpy as np

from .environment import (
    ShotNoiseEnv,
    mean_lambda_inv_analytic,
    sample_config,
    sup_growth_check,
)
from .errors import CtrwLabError, DomainError, ExperimentConfigError, ReportIOError
from .harness import (
    _PARSE,
    KINDS,
    ExperimentConfig,
    build,
    emit_report,
    run_experiment,
)
from .levy import sample_local_time_exact
from .rng import spawn_rng
from .stable import StableParams, sample_stable
from .walk import dump_skeleton, simulate_skeleton

EXIT_RUNTIME = 1
EXIT_VALIDATION = 2
EXIT_THRESHOLD = 3


@contextlib.contextmanager
def _output(path):
    """The stream for ``path`` ("-" is stdout).  A CtrwLabError raised while
    writing it, or an OSError from opening or writing any file (as a
    ReportIOError), is reported and exits with EXIT_RUNTIME."""
    try:
        with contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w") as fh:
            yield fh
    except (CtrwLabError, OSError) as exc:
        if isinstance(exc, OSError):
            exc = ReportIOError(exc.filename or path, exc)
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RUNTIME)


# A seed is a nonnegative integer: it seeds a numpy SeedSequence.
_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)


@click.group()
def main():
    """Stochastic-limit verification toolkit for continuous-time random walks."""


@main.command("sample-stable")
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--scale", type=float, default=1.0, show_default=True)
@click.option("--loc", type=float, default=0.0, show_default=True)
@click.option("--n", type=int, default=1, show_default=True)
@_seed_option
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
    with _output(out) as fh:
        for s in samples:
            fh.write(f"{s:.17g}\n")


def _kind_option(flag, section, key):
    """A flag setting ``key`` of the chosen ``section`` kind: left unset it
    takes the kind table's default, and a kind without ``key`` rejects it."""
    takers = {kind: d[key] for kind, (_, d) in KINDS[section].items() if key in d}
    return click.option(flag, f"{section}__{key}", type=float, default=None,
                        help=f"Only for {' or '.join(takers)}.  "
                        f"[default: {next(iter(takers.values()))}]")


def _build_from_flags(section, kind, flags):
    prefix = section + "__"
    values = {
        k[len(prefix):]: v
        for k, v in flags.items()
        if k.startswith(prefix) and v is not None
    }
    try:
        return build(section, kind, values)
    except (DomainError, ExperimentConfigError) as exc:
        raise click.UsageError(str(exc))


@main.command("simulate")
@click.option("--jump", "jump_kind", type=click.Choice(tuple(KINDS["jump"])),
              default="gaussian", show_default=True)
@_kind_option("--jump-alpha", "jump", "alpha")
@_kind_option("--jump-xmin", "jump", "x_min")
@_kind_option("--jump-variance", "jump", "variance")
@_kind_option("--jump-pright", "jump", "p_right")
@click.option("--wait", "wait_kind", type=click.Choice(tuple(KINDS["wait"])),
              default="exponential", show_default=True)
@_kind_option("--wait-mean", "wait", "mean")
@_kind_option("--wait-index", "wait", "index")
@_kind_option("--wait-xmin", "wait", "x_min")
@_kind_option("--wait-shape", "wait", "shape")
@_kind_option("--wait-scale", "wait", "scale")
@click.option("--env", "env_kind", type=click.Choice(tuple(KINDS["env"])),
              default="none", show_default=True)
@click.option("--t", type=float, required=True)
@click.option("--paths", type=int, default=1, show_default=True)
@_seed_option
@click.option("--out", default="-", show_default=True)
@click.option("--dump-skeleton", "dump_path", default=None,
              help="Write the first path in columnar form (k S_k h_(k+1)).")
def cmd_simulate(jump_kind, wait_kind, env_kind, t, paths, seed, out, dump_path,
                 **law_flags):
    """Simulate path skeletons; emit per-path summary CSV."""
    if not 0.0 < t < np.inf:
        raise click.UsageError("--t must be positive and finite")
    if paths < 1:
        raise click.UsageError("--paths must be at least 1")
    jump = _build_from_flags("jump", jump_kind, law_flags)
    wait = _build_from_flags("wait", wait_kind, law_flags)
    env = _build_from_flags("env", env_kind, law_flags)
    with _output(out) as fh:
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


@main.command("local-time")
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--paths", type=int, default=1, show_default=True)
@_seed_option
@click.option("--u-grid", default="0.25,0.5,0.75,1.0", show_default=True)
@click.option("--out", default="-", show_default=True)
def cmd_local_time(alpha, beta, paths, seed, u_grid, out):
    """Draw the local time at zero of stable Levy paths exactly; CSV rows
    (path,u,value)."""
    if paths < 1:
        raise click.UsageError("--paths must be at least 1")
    try:
        u = tuple(float(x) for x in u_grid.split(","))
        values = [
            sample_local_time_exact(alpha, beta, u, spawn_rng(seed, "cli-local-time", k))
            for k in range(paths)
        ]
    except (DomainError, ValueError) as exc:
        raise click.UsageError(str(exc))
    with _output(out) as fh:
        fh.write("path,u,value\n")
        for k, row in enumerate(values):
            for ui, vi in zip(u, row):
                fh.write(f"{k},{ui:.17g},{vi:.17g}\n")


@main.command("env")
@click.option("--check-b3", is_flag=True, help="Estimate sup of 1/Lambda over |x| <= n.")
@click.option("--exp-moment", is_flag=True, help="Print the analytic E[Lambda^-a].")
@click.option("--n", "n_list", default="100,1000", show_default=True)
@click.option("--a", "moment_a", type=float, default=1.0, show_default=True)
@click.option("--kernel", "kernel_kind", type=click.Choice(tuple(KINDS["kernel"])),
              default="bump", show_default=True)
@_kind_option("--amplitude", "kernel", "amplitude")
@_kind_option("--decay-beta", "kernel", "decay_beta")
@_seed_option
@click.option("--out", default="-", show_default=True)
def cmd_env(check_b3, exp_moment, n_list, moment_a, kernel_kind, seed, out,
            **kernel_flags):
    """Shot-noise environment diagnostics."""
    if check_b3 == exp_moment:
        raise click.UsageError("choose one of --check-b3 or --exp-moment")
    kernel = _build_from_flags("kernel", kernel_kind, kernel_flags)
    if not exp_moment:
        try:
            ns = sorted(int(x) for x in n_list.split(","))
        except ValueError as exc:
            raise click.UsageError(f"bad --n list: {exc}")
        if ns[0] < 0:
            raise click.UsageError(f"--n values must be nonnegative, got {ns[0]}")
    with _output(out) as fh:
        if exp_moment:
            value = mean_lambda_inv_analytic(kernel, moment_a)
            fh.write(f"a,mean_lambda_inv\n{moment_a:.17g},{value:.17g}\n")
        else:
            halfwidth = max(ns) + kernel.cutoff_r + 1.0
            config = sample_config((-halfwidth, halfwidth), spawn_rng(seed, "cli-env"))
            env = ShotNoiseEnv(kernel=kernel, config=config)
            fh.write("n,sup_lambda_inv\n")
            for n, sup in sup_growth_check(env, ns):
                fh.write(f"{n},{sup:.17g}\n")


_OUTPUT_KEYS = ("json", "csv")
# Sections whose kinds and keys come from the kind table.
_KIND_SECTIONS = ("jump", "wait", "functional", "env")
# The [experiment] keys and their defaults: every ExperimentConfig field but
# the law sections.
_EXPERIMENT_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(ExperimentConfig) if f.name not in KINDS
}


def _experiment_value(exp, key):
    """The value of ``[experiment] key``, read by its field's parser: the
    harness ``_PARSE`` entry, else the type of the field's default."""
    default = _EXPERIMENT_DEFAULTS[key]
    try:
        if isinstance(default, bool):
            return exp.getboolean(key)
        return _PARSE.get(key, type(default))(exp[key])
    except ValueError as exc:
        raise ExperimentConfigError(
            f"bad experiment {key} {exp[key]!r}: {exc}"
        ) from exc


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
                raise ExperimentConfigError(
                    f"unknown key {key!r} in section [{section}]"
                )
    if "experiment" not in parser:
        raise ExperimentConfigError("config file needs an [experiment] section")
    exp = parser["experiment"]
    built = {key: _experiment_value(exp, key) for key in exp if exp[key].strip()}
    for section in _KIND_SECTIONS:
        values = dict(parser[section]) if section in parser else {}
        kind = values.pop("kind", next(iter(KINDS[section])))
        if section == "env" and kind == "shot_noise":
            built["kernel"] = build("kernel", values.pop("kernel", "bump"), values)
        else:
            built[section] = build(section, kind, values)
    outputs = dict(parser["output"]) if "output" in parser else {}
    return ExperimentConfig(**built), outputs


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


if __name__ == "__main__":
    main()

"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import math
import re
import time

import numpy as np
import pytest
from click.testing import CliRunner

from ctrwlab.cli import main as cli_main
from ctrwlab.distances import ks_critical_value
from ctrwlab.environment import (
    ShotNoiseEnv,
    bump_kernel,
    mean_lambda_inv_analytic,
    power_kernel,
    sample_config,
    theorem5_constant,
)
from ctrwlab.harness import ExperimentConfig, run_experiment
from ctrwlab.levy import local_time_zero, simulate_levy
from ctrwlab.rng import spawn_rng
from ctrwlab.stable import (
    Gaussian,
    StableParams,
    SymmetricPareto,
    rademacher,
    sample_stable,
)
from ctrwlab.walk import Exponential, FunctionalSpec, simulate_skeleton
from ctrwlab.environment import periodic_env
from oracles import (
    calibrate_sigma,
    cesaro_error,
    empirical_chf,
    mc_mean_lambda_inv,
    stable_chf,
)

SEED = 20240808


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def gauss_bump():
    return FunctionalSpec(f=lambda x: np.exp(-(x**2)))


def test_01_sampler_fidelity():
    started = time.perf_counter()
    m = 10**6
    grid = np.linspace(-3.0, 3.0, 20)
    worst = 0.0
    for i, params in enumerate(
        [
            StableParams(1.5, 0.0),
            StableParams(1.5, 0.5),
            StableParams(2.0, 0.0),
            StableParams(1.2, -0.8),
        ]
    ):
        samples = sample_stable(params, spawn_rng(SEED, "acc1", i), m)
        dev = float(np.max(np.abs(empirical_chf(samples, grid) - stable_chf(params, grid))))
        worst = max(worst, dev)
    elapsed = time.perf_counter() - started
    report(
        "1 sampler fidelity",
        worst < 4e-3 and elapsed < 30.0,
        f"max |empirical - exact| chf deviation {worst:.2e} < 4e-3 over 20-point "
        f"grid at M=1e6, four parameter sets, single-threaded in {elapsed:.1f}s < 30s",
    )


def test_02_gaussian_reduction_theorem2():
    started = time.perf_counter()
    cfg = ExperimentConfig(
        theorem="T2",
        jump=Gaussian(2.0),
        wait=Exponential(1.0),
        functional=gauss_bump(),
        t=1e4,
        replicates=2000,
        limit_replicates=2000,
        master_seed=SEED,
        ks_threshold=0.08,
        workers=8,
    )
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - started
    ks_u1 = rep.rows[-1].ks
    assert rep.rows[-1].u == 1.0
    assert rep.limit_constant == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    report(
        "2 Gaussian reduction",
        ks_u1 <= 0.08 and elapsed < 600.0,
        f"two-sample KS at u=1 is {ks_u1:.4f} <= 0.08 (t=1e4, M=M'=2000), "
        f"{elapsed:.0f}s < 600s at 8 workers",
    )


def test_03_heavy_tail_theorem2_with_trend():
    law = SymmetricPareto(1.5)
    # scale calibration agrees with the exact tail-constant value
    calibrated = calibrate_sigma(law, 2000, 20_000, spawn_rng(SEED, "acc3-cal"))
    sigma_ok = abs(calibrated.sigma - law.sigma_attr) / law.sigma_attr < 0.05

    def run(t):
        cfg = ExperimentConfig(
            theorem="T2",
            jump=law,
            wait=Exponential(1.0),
            functional=gauss_bump(),
            t=t,
            replicates=2000,
            limit_replicates=2000,
            master_seed=SEED,
            ks_threshold=0.08,
        )
        return run_experiment(cfg)

    rep_long = run(1e4)
    rep_short = run(1e2)
    ks_long = rep_long.rows[-1].ks
    ks_short = rep_short.rows[-1].ks
    report(
        "3 heavy-tail + trend",
        sigma_ok and ks_long <= 0.08 and ks_long <= ks_short + 0.03,
        f"calibrated sigma {calibrated.sigma:.4f} within 5% of exact "
        f"{law.sigma_attr:.4f}; KS(t=1e4)={ks_long:.4f} <= 0.08 and "
        f"<= KS(t=1e2)+0.03 = {ks_short + 0.03:.4f}",
    )


def test_04_lattice_remark():
    cfg = ExperimentConfig(
        theorem="T2-lattice",
        jump=rademacher(),
        wait=Exponential(1.0),
        functional=FunctionalSpec(f=lambda x: (np.abs(x) < 1e-9).astype(float)),
        t=1e4,
        replicates=2000,
        limit_replicates=2000,
        master_seed=SEED,
        ks_threshold=0.08,
    )
    rep = run_experiment(cfg)
    ks_u1 = rep.rows[-1].ks
    report(
        "4 lattice limit",
        rep.f_integral == pytest.approx(1.0, abs=1e-12) and ks_u1 <= 0.08,
        f"lattice constant b*sum f = {rep.f_integral:g} replaces the integral; "
        f"KS at u=1 is {ks_u1:.4f} <= 0.08",
    )


def test_05_jump_rate_in_periodic_environment():
    env = periodic_env(2.0, 1.0, 1.0)  # mean of 1/Lambda is 2
    t, n_paths = 1e5, 200
    total = 0
    for k in range(n_paths):
        path = simulate_skeleton(
            SymmetricPareto(1.5),
            Exponential(1.0),
            t,
            spawn_rng(SEED, "acc5", k),
            env=env,
        )
        total += path.n_jumps
    rate = total / (n_paths * t)
    report(
        "5 environment jump rate",
        abs(rate - 0.5) / 0.5 < 0.02,
        f"mean jump rate {rate:.5f} within 2% of 1/(mu * mean(1/Lambda)) = 0.5 "
        f"(t=1e5, 200 paths)",
    )


def test_06_exponential_moment_formula():
    started = time.perf_counter()
    results = []
    for kernel in [bump_kernel(), power_kernel(0.5)]:
        analytic = mean_lambda_inv_analytic(kernel, 1.0)
        mc, se = mc_mean_lambda_inv(kernel, 10**4, spawn_rng(SEED, "acc6", kernel.name))
        results.append(
            (kernel.name, abs(mc - analytic) < 3.0 * se, abs(mc - analytic) / analytic < 0.01)
        )
    elapsed = time.perf_counter() - started
    ok = all(a and b for _, a, b in results)
    report(
        "6 exponential moment",
        ok and elapsed < 120.0,
        f"analytic vs MC over 1e4 fresh configs within 3 SE and 1% for both "
        f"kernels ({', '.join(n for n, _, _ in results)}) in {elapsed:.1f}s < 120s",
    )


def test_07_cesaro_error_trend():
    kernel = bump_kernel(0.3)
    n_configs = 50
    wins = 0
    for i in range(n_configs):
        cfg = sample_config((-160402.0, 160402.0), spawn_rng(SEED, "cesaro-trend", i))
        env = ShotNoiseEnv(kernel=kernel, config=cfg)
        errs = cesaro_error(env, (100.0, 200.0, 400.0), 2.0)
        wins += errs[0] > errs[1] > errs[2]
    report(
        "7 Cesaro-average trend",
        wins >= 0.9 * n_configs,
        f"window-average deviation decreasing over t=100,200,400 (r=2) in "
        f"{wins}/{n_configs} sampled configurations (need >= 45)",
    )


def test_08_quenched_comparison():
    kernel = bump_kernel(math.log(2.0))
    cfg = ExperimentConfig(
        theorem="T5",
        jump=SymmetricPareto(1.5),
        wait=Exponential(1.0),
        # leave f_integral unset: the limit takes the quenched integral of g/Lambda
        functional=FunctionalSpec(f=gauss_bump().f),
        env=kernel,
        t=1e4,
        replicates=2000,
        limit_replicates=2000,
        master_seed=SEED,
        ks_threshold=0.10,
    )
    rep = run_experiment(cfg)
    factor_consistent = (
        abs(rep.theorem5_factor - theorem5_constant(kernel, 1.5)) < 1e-6
        and rep.env_constant == rep.theorem5_factor
    )
    worst = max(r.ks for r in rep.rows)
    report(
        "8 quenched run",
        worst <= 0.10 and factor_consistent,
        f"one fixed configuration ({rep.config_echo['env_window_points']} points): "
        f"max KS over u-grid {worst:.4f} <= 0.10; averaged-environment factor "
        f"{rep.theorem5_factor:.6f} matches the analytic constant within 1e-6",
    )


def test_09_brownian_local_time_oracle():
    total = 0.0
    n_paths = 10**4
    for j in range(n_paths):
        path = simulate_levy(2.0, 0.0, 10**5, 1.0, spawn_rng(SEED, "acc9", j))
        total += local_time_zero(path, 0.01, [1.0])[0]
    mean = total / n_paths
    target = 1.0 / math.sqrt(math.pi)
    report(
        "9 local-time oracle",
        abs(mean - target) / target < 0.05,
        f"mean estimate {mean:.4f} within 5% of 1/sqrt(pi) = {target:.4f} "
        f"(1e4 paths, grid 1e5, eps=0.01)",
    )


def test_11_periodic_comparison_theorem3():
    cfg = ExperimentConfig(
        theorem="T3",
        jump=SymmetricPareto(1.5),
        wait=Exponential(1.0),
        functional=gauss_bump(),
        env=periodic_env(2.0, 1.0, 1.0),
        t=1e4,
        replicates=2000,
        limit_replicates=2000,
        master_seed=SEED,
        ks_threshold=0.08,
        workers=2,
    )
    rep = run_experiment(cfg)
    crit = ks_critical_value(2000, 2000, 0.99)
    worst = max(r.ks for r in rep.rows)
    per_u = ", ".join(f"u={r.u:g}: {r.ks:.4f}" for r in rep.rows)
    report(
        "11 periodic comparison",
        worst <= 0.08,
        f"KS per u ({per_u}) beside the 99% critical value {crit:.4f}; "
        f"max {worst:.4f} <= 0.08 (t=1e4, M=M'=2000)",
    )


DETERMINISM_CONFIG = """
[experiment]
theorem = T2
t = 1000
u_grid = 0.5,1.0
replicates = 150
limit_replicates = 150
master_seed = 314159
ks_threshold = 0.2

[jump]
kind = gaussian
variance = 2.0

[wait]
kind = exponential
mean = 1.0

[functional]
kind = gauss_bump
"""


def test_10_determinism_across_worker_counts(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(DETERMINISM_CONFIG)
    runner = CliRunner()
    outputs = []
    for workers in (1, 3):
        out = tmp_path / f"report-w{workers}.json"
        result = runner.invoke(
            cli_main,
            [
                "compare", "--config", str(cfg_path),
                "--workers", str(workers), "--out-json", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    strip = lambda raw: re.sub(rb'\s*"runtime_seconds":[^,}\n]*,?\n', b"", raw)
    identical = strip(outputs[0]) == strip(outputs[1])
    parsed = json.loads(outputs[0])
    report(
        "10 determinism",
        identical and parsed["config_echo"]["master_seed"] == 314159,
        "byte-identical JSON (runtime line excluded) for worker counts 1 and 3 "
        "with the same master seed",
    )

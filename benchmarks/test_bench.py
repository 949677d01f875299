"""Self-test of the compare benchmark: its correctness check, its closed
forms, and that it prints every metric BENCHMARK.json names.

Run from the root of a checkout:
    python3 -m pytest -q benchmarks/test_bench.py
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_T5 = """\
[experiment]
theorem = T5
t = 1000
replicates = 100
limit_replicates = 100
workers = 1
ks_threshold = 0.10

[jump]
kind = symmetric_pareto
alpha = 1.5
x_min = 1.0

[env]
kind = shot_noise
kernel = bump
amplitude = 0.6931471805599453
"""


def _good_report():
    rows = [
        {"u": u, "ks": 0.04, "w1": 0.02, "mean_func": 0.5, "mean_limit": 0.5,
         "q05_func": 0.1, "q50_func": 0.4, "q95_func": 1.2, "q05_limit": 0.1,
         "q50_limit": 0.4, "q95_limit": 1.2, "threshold": 0.08, "passed": True}
        for u in run.U_GRID
    ]
    return {"rows": rows, "f_integral": math.sqrt(math.pi), "theorem5_factor": None}


def test_check_accepts_a_good_report():
    assert run.check_report(_good_report(), "t2-gauss") == []


@pytest.mark.parametrize("corrupt", [
    lambda r: r.update(f_integral=math.sqrt(math.pi) * (1 + 1e-6)),
    lambda r: r["rows"][2].update(w1=float("nan")),
    lambda r: r["rows"][0].update(ks=float("inf")),
    lambda r: r["rows"][1].update(ks=1.5),
    lambda r: r["rows"].pop(),
])
def test_check_rejects_a_corrupted_report(corrupt):
    report = copy.deepcopy(_good_report())
    corrupt(report)
    assert run.check_report(report, "t2-gauss")


def test_check_rejects_a_wrong_theorem5_factor():
    report = _good_report()
    report["theorem5_factor"] = run.WORKLOADS["t5-quenched"]["constant"][1] + 2e-6
    assert run.check_report(report, "t5-quenched")
    report["theorem5_factor"] -= 2e-6
    assert run.check_report(report, "t5-quenched") == []


def test_closed_forms_match_the_package():
    sys.path.insert(0, str(ROOT / "src"))
    from ctrwlab.environment import bump_kernel, theorem5_constant

    expected = theorem5_constant(bump_kernel(math.log(2.0)), 1.5)
    assert run.theorem5_factor_closed_form(math.log(2.0), 1.5) == pytest.approx(
        expected, abs=1e-12
    )
    # Brownian motion with variance 2t: E L_1 = 1/sqrt(pi).
    assert run.limit_mean_closed_form(2.0, 0.0, 1.0) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-12
    )


def test_differing_rows_are_marked():
    records = [{"rows": [1], "problems": []}, {"rows": [2], "problems": []}]
    run.mark_nondeterministic(records)
    assert records[0]["problems"] == [] and records[1]["problems"]


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_a_traced_run_yields_every_metric(tmp_path, monkeypatch):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_T5)
    monkeypatch.setitem(run.WORKLOADS, "tiny", dict(
        run.WORKLOADS["t5-quenched"], config=str(config)))

    deadline = time.perf_counter() + 120.0
    untraced = run.run_compare("tiny", 7, 1, False, tmp_path / "a", deadline)
    traced = run.run_compare("tiny", 7, 1, True, tmp_path / "b", deadline)
    probe = run.probe_setup("tiny", 7, tmp_path / "c", deadline)
    records = [probe, untraced, traced]
    run.mark_nondeterministic(records)
    assert all(r["problems"] == [] for r in records), [r["problems"] for r in records]
    assert 0 < probe["setup_s"] < untraced["compare_s"]

    e2e = run.end_to_end_metrics(records)
    assert {k: v["unit"] for k, v in e2e.items()} == _units(BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in e2e.values())

    layers = run.per_layer_metrics([run.layer_metrics(traced, untraced, untraced, 1)])
    assert {k: v["unit"] for k, v in layers.items()} == _units(BENCHMARK["per_layer"])
    assert layers["walk.jumps"]["value"] > 0
    assert layers["levy.limit_draws"]["value"] == 100
    assert layers["environment.window_points"]["value"] > 0
    assert max(run.blocking_shares(traced).values()) < 1.0


def test_a_failing_run_counts_as_failed(tmp_path, monkeypatch):
    config = tmp_path / "narrow.cfg"
    config.write_text(TINY_T5.replace("workers = 1", "workers = 1\nenv_window_halfwidth = 20"))
    monkeypatch.setitem(run.WORKLOADS, "narrow", dict(
        run.WORKLOADS["t5-quenched"], config=str(config)))

    record = run.run_compare("narrow", 7, 1, False, tmp_path / "a", time.perf_counter() + 60)
    assert record["exit"] == 1 and "window" in record["problems"][0]
    assert run.end_to_end_metrics([record])["success_share"]["value"] == 0.0


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "t2-gauss",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

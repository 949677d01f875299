"""The `compare` benchmark: end-to-end and per-layer metrics of ctrwlab's
unit of work, one `compare` run per fresh process.

Usage (from the root of a checkout):
    python3 benchmarks/run.py --workload t2-gauss --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats untraced runs at the workload's worker count for about
``--seconds`` seconds and reports the end-to-end metrics as medians.
``--trace 1`` repeats, for the same time, an untraced run at the workload's
worker count, an untraced run at one worker (when the workload uses more)
and a traced run at one worker, and reports the per-layer metrics of the
traced runs as medians.  Every run's report is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A results file with machine facts, every run
and the statistical diagnostics goes to ``.bench_runs/results/``.
See ``benchmarks/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".bench_runs"
# A benchmark run must exit within 180 s, so every process it starts is
# killed once this much time has passed since the run began.
RUN_LIMIT_S = 170.0
# Import time makes set-up time noisy, so untraced runs add this many
# set-up probes to the set-up samples of their full runs.
SETUP_PROBES = 5

SQRT_PI = math.sqrt(math.pi)
LN2 = math.log(2.0)


def theorem5_factor_closed_form(amplitude: float, alpha: float) -> float:
    """exp((1/alpha - 1) * integral of (e^phi - 1)) for the bump kernel
    phi(x) = A (1 - |x|)^2 on [-1, 1], by the series
    integral_0^1 (e^(A s^2) - 1) ds = sum_{n>=1} A^n / (n! (2n + 1))."""
    total, term, n = 0.0, 1.0, 0
    while True:
        n += 1
        term *= amplitude / n
        piece = term / (2 * n + 1)
        total += piece
        if piece < 1e-18 * total:
            break
    return math.exp((1.0 / alpha - 1.0) * 2.0 * total)


# Each workload: its config, and the limit constant its report must carry,
# with the tolerance.
WORKLOADS = {
    "t2-gauss": {
        "config": "t2-gauss.cfg",
        "constant": ("f_integral", SQRT_PI, 1e-8 * SQRT_PI),
    },
    "t5-quenched": {
        "config": "t5-quenched.cfg",
        "constant": ("theorem5_factor", theorem5_factor_closed_form(LN2, 1.5), 1e-6),
    },
    "t3-long-1w": {
        "config": "t3-long-1w.cfg",
        "constant": ("f_integral", 2.0 * SQRT_PI, 2e-8 * SQRT_PI),
    },
}
U_GRID = (0.25, 0.5, 0.75, 1.0)

END_TO_END_UNITS = {
    "compare_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_share": "share",
}

PER_LAYER_UNITS = {
    "levy.limit_draws": "count",
    "levy.limit_draw_ms": "ms",
    "levy.simulate_levy_s": "s",
    "levy.local_time_s": "s",
    "levy.grid_points": "count",
    "stable.sample_s": "s",
    "stable.draws_per_s": "1/s",
    "walk.simulate_s": "s",
    "walk.functional_s": "s",
    "walk.jumps": "count",
    "walk.jumps_per_s": "1/s",
    "walk.range_max": "length",
    "stable.jump_sample_s": "s",
    "environment.sample_config_s": "s",
    "environment.window_points": "count",
    "environment.quenched_integral_s": "s",
    "environment.potential_s": "s",
    "environment.potential_sites": "count",
    "environment.potential_sites_per_s": "1/s",
    "harness.setup_s": "s",
    "harness.walk_stage_s": "s",
    "harness.limit_stage_s": "s",
    "harness.stats_stage_s": "s",
    "harness.parallel_efficiency": "ratio",
    "harness.f_integral_s": "s",
    "rng.spawns": "count",
    "rng.spawn_s": "s",
    "cli.load_config_s": "s",
    "cli.emit_report_s": "s",
    "distances.ks_s": "s",
    "distances.w1_s": "s",
    "process.import_s": "s",
    "levy.self_s": "s",
    "stable.self_s": "s",
    "walk.self_s": "s",
    "environment.self_s": "s",
    "harness.self_s": "s",
    "rng.self_s": "s",
    "cli.self_s": "s",
    "distances.self_s": "s",
    "trace.compare_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# Inclusive span totals that make up a traced run's blocking steps; the
# largest names the workload's dominant layer.
BLOCKING_SPANS = {
    "levy": ("levy.sample_limit_rv",),
    "walk": ("walk.simulate", "walk.functional"),
    "environment": ("environment.sample_config", "environment.quenched_integral"),
    "rng": ("rng.spawn",),
    "distances": ("distances.ks", "distances.w1"),
    "cli": ("cli.load_config", "cli.emit_report"),
}


# ---------------------------------------------------------------- checks


def check_report(report: dict, workload: str) -> list[str]:
    """Problems with one report: one finite row per u with KS and W1 in
    [0, 1], and the workload's limit constant at its analytic value."""
    problems = []
    rows = report.get("rows", [])
    if [r.get("u") for r in rows] != list(U_GRID):
        problems.append(f"rows cover u={[r.get('u') for r in rows]}, not {list(U_GRID)}")
    for r in rows:
        bad = [k for k, v in r.items()
               if not isinstance(v, (bool, str)) and not math.isfinite(v)]
        if bad:
            problems.append(f"u={r.get('u')}: non-finite {bad}")
            continue
        for key in ("ks", "w1"):
            if not 0.0 <= r[key] <= 1.0:
                problems.append(f"u={r['u']}: {key}={r[key]!r} outside [0, 1]")
    key, target, tol = WORKLOADS[workload]["constant"]
    value = report.get(key)
    if not isinstance(value, (int, float)) or not abs(value - target) <= tol:
        problems.append(f"{key}={value!r}, expected {target!r} within {tol:.1e}")
    return problems


def limit_mean_closed_form(alpha: float, beta: float, constant: float, u: float = 1.0) -> float:
    """E of constant * L_u for strictly stable motion: u1 u^gamma / Gamma(1+gamma),
    u1 = Re(c^(-1/alpha)) / (alpha sin(pi/alpha)), c = 1 + i beta tan(pi alpha/2)."""
    gamma = 1.0 - 1.0 / alpha
    tan_term = 0.0 if alpha == 2.0 else math.tan(math.pi * alpha / 2.0)
    c = complex(1.0, beta * tan_term)
    u1 = (c ** (-1.0 / alpha)).real / (alpha * math.sin(math.pi / alpha))
    return constant * u1 * u**gamma / math.gamma(1.0 + gamma)


def diagnostics(report: dict, child: dict) -> dict:
    """The statistical verdict, recorded but never counted as a failure."""
    ks_max = max(r["ks"] for r in report["rows"])
    last = report["rows"][-1]
    expected = limit_mean_closed_form(
        child["alpha"], report["beta_used"], report["limit_constant"], last["u"]
    )
    return {
        "ks_max": ks_max,
        "ks_threshold": last["threshold"],
        "ks_critical_99": child["ks_critical_99"],
        "passed_threshold": bool(report["passed"]),
        "under_critical_99": bool(ks_max <= child["ks_critical_99"]),
        "limit_mean_u1": last["mean_limit"],
        "limit_mean_u1_closed_form": expected,
        "limit_mean_u1_rel_err": last["mean_limit"] / expected - 1.0,
    }


# ------------------------------------------------------------- running


def _config_path(workload: str) -> Path:
    return BENCH_DIR / "workloads" / WORKLOADS[workload]["config"]


def config_workers(workload: str) -> int:
    """The worker count the workload's config sets."""
    parser = configparser.ConfigParser()
    parser.read(_config_path(workload))
    return parser.getint("experiment", "workers")


def _spawn(workload: str, seed: int, workers: int, work_dir: Path, flags: list,
           deadline: float) -> dict:
    """Start one compare_run.py process in a session of its own and wait
    for it and its pool workers; kill the session at the deadline."""
    work_dir.mkdir(parents=True)
    cmd = [
        sys.executable, str(BENCH_DIR / "compare_run.py"),
        "--config", str(_config_path(workload)),
        "--seed", str(seed), "--workers", str(workers),
        "--work-dir", str(work_dir),
    ] + flags
    record = {"workers": workers, "trace": "--trace" in flags, "problems": []}
    record["t_spawn"] = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True, cwd=ROOT)
    try:
        _, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        record["problems"].append("killed at the run's time limit")
    record["wall_s"] = time.perf_counter() - record["t_spawn"]
    record["exit"] = proc.returncode
    record["stderr"] = err.decode(errors="replace")[-2000:]
    return record


def _first_walk(work_dir: Path):
    stamps = [float(p.read_text()) for p in work_dir.glob("first_walk.*")]
    return min(stamps) if stamps else None


def probe_setup(workload: str, seed: int, work_dir: Path, deadline: float) -> dict:
    """One set-up probe: process start to the first walk replicate, with the
    run cut there."""
    try:
        record = _spawn(workload, seed, config_workers(workload), work_dir,
                        ["--stop-at-first-walk"], deadline)
        record["probe"] = True
        first = _first_walk(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if first is None:
        record["problems"].append(f"probe reached no walk (exit {record['exit']})")
    else:
        record["setup_s"] = first - record["t_spawn"]
    return record


def run_compare(workload: str, seed: int, workers: int, trace: bool, work_dir: Path,
                deadline: float) -> dict:
    """Run one compare process; return its record with the checks applied
    (except determinism, which needs the other runs)."""
    try:
        record = _spawn(workload, seed, workers, work_dir, ["--trace"] if trace else [],
                        deadline)
        _read_result(record, work_dir, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return record


def _read_result(record: dict, work_dir: Path, workload: str) -> None:
    t_spawn = record["t_spawn"]
    result_path = work_dir / "result.json"
    child = json.loads(result_path.read_text()) if result_path.exists() else {}
    if record["exit"] not in (0, 3) and not record["problems"]:
        last = (record["stderr"].strip().splitlines() or [""])[-1]
        record["problems"].append(f"exit code {record['exit']}: {last}")
    if "t_written" not in child:
        record["problems"].append("no report written")
        record["compare_s"] = record["wall_s"]
    else:
        record["compare_s"] = child["t_written"] - t_spawn
        report = json.loads(Path(child["report"]).read_text())
        record["problems"] += check_report(report, workload)
        record["rows"] = report["rows"]
        if not record["problems"]:
            record["diagnostics"] = diagnostics(report, child)
    first = _first_walk(work_dir)
    if first is not None:
        record["setup_s"] = first - t_spawn
    record["peak_rss_mb"] = child.get("peak_rss_mb")
    record["import_s"] = child["t_imported"] - t_spawn if "t_imported" in child else None
    if "t_run_start" in child and len(child.get("stages", [])) == 2:
        (_, w0, w1), (_, l0, l1) = child["stages"]
        record["stages"] = {
            "setup": w0 - child["t_run_start"], "walk": w1 - w0,
            "limit": l1 - l0, "stats": child["t_run_end"] - l1,
        }
    for key in ("spans", "counts", "maxima"):
        if key in child:
            record[key] = child[key]


def mark_nondeterministic(records: list[dict]) -> None:
    """Every run of one seed, at any worker count, must give identical rows."""
    reference = next((r["rows"] for r in records if "rows" in r), None)
    for r in records:
        if "rows" in r and r["rows"] != reference:
            r["problems"].append("rows differ from the first run of this seed")


# ------------------------------------------------------------- metrics


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def end_to_end_metrics(records: list[dict]) -> dict:
    """Medians over the full runs that passed (over all full runs, if none
    did); set-up time pools the probes with the full runs."""
    runs = [r for r in records if not r.get("probe")]
    ok_runs = [r for r in runs if not r["problems"]] or runs
    failed = sum(1 for r in records if r["problems"])
    values = {
        "compare_s": _median(r["compare_s"] for r in ok_runs),
        "setup_s": _median(r.get("setup_s") for r in records if not r["problems"]),
        "peak_rss_mb": _median(r.get("peak_rss_mb") for r in ok_runs),
        "success_share": (len(records) - failed) / len(records),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def span_totals(spans):
    """Inclusive time and call count per span name, and self time per layer
    (a span's duration minus the part its child spans cover)."""
    total = collections.defaultdict(float)
    calls = collections.Counter()
    child_time = collections.defaultdict(float)
    for name, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    layer_self = collections.defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        layer_self[name.split(".")[0]] += (end - start) - child_time[idx]
    return total, calls, layer_self


def layer_metrics(traced: dict, untraced: dict, untraced_1w: dict, workers: int) -> dict:
    """Per-layer numbers of one traced run, with the parallel efficiency
    and tracing overhead taken against the untraced runs beside it."""
    total, calls, layer_self = span_totals(traced["spans"])
    counts, maxima = traced["counts"], traced["maxima"]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    stage = traced["stages"]
    busy = stage["walk"] + stage["limit"]
    wall = untraced["stages"]["walk"] + untraced["stages"]["limit"]
    m = {
        "levy.limit_draws": calls["levy.sample_limit_rv"],
        "levy.limit_draw_ms": 1e3 * total["levy.sample_limit_rv"]
        / max(calls["levy.sample_limit_rv"], 1),
        "levy.simulate_levy_s": total["levy.simulate_levy"],
        "levy.local_time_s": total["levy.local_time"],
        "levy.grid_points": counts.get("levy.grid_points", 0),
        "stable.sample_s": total["stable.sample"],
        "stable.draws_per_s": rate(counts.get("stable.draws", 0), total["stable.sample"]),
        "walk.simulate_s": total["walk.simulate"],
        "walk.functional_s": total["walk.functional"],
        "walk.jumps": counts.get("walk.jumps", 0),
        "walk.jumps_per_s": rate(counts.get("walk.jumps", 0), total["walk.simulate"]),
        "walk.range_max": maxima.get("walk.range_max", 0.0),
        "stable.jump_sample_s": total["stable.jump_sample"],
        "environment.sample_config_s": total["environment.sample_config"],
        "environment.window_points": counts.get("environment.window_points", 0),
        "environment.quenched_integral_s": total["environment.quenched_integral"],
        "environment.potential_s": total["environment.potential"],
        "environment.potential_sites": counts.get("environment.potential_sites", 0),
        "environment.potential_sites_per_s": rate(
            counts.get("environment.potential_sites", 0), total["environment.potential"]
        ),
        "harness.setup_s": stage["setup"],
        "harness.walk_stage_s": stage["walk"],
        "harness.limit_stage_s": stage["limit"],
        "harness.stats_stage_s": stage["stats"],
        "harness.parallel_efficiency": busy / (workers * wall),
        "harness.f_integral_s": total["harness.f_integral"],
        "rng.spawns": calls["rng.spawn"],
        "rng.spawn_s": total["rng.spawn"],
        "cli.load_config_s": total["cli.load_config"],
        "cli.emit_report_s": total["cli.emit_report"],
        "distances.ks_s": total["distances.ks"],
        "distances.w1_s": total["distances.w1"],
        "process.import_s": traced["import_s"],
        "trace.compare_s": traced["compare_s"],
        "trace.overhead_s": traced["compare_s"] - untraced_1w["compare_s"],
        "trace.spans": len(traced["spans"]),
    }
    for layer in ("levy", "stable", "walk", "environment", "harness", "rng", "cli", "distances"):
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def blocking_shares(traced: dict) -> dict:
    total, _, _ = span_totals(traced["spans"])
    return {
        layer: sum(total[n] for n in names) / traced["compare_s"]
        for layer, names in BLOCKING_SPANS.items()
    }


def per_layer_metrics(iterations: list[dict]) -> dict:
    values = collections.defaultdict(list)
    for it in iterations:
        for k, v in it.items():
            values[k].append(v)
    return {k: {"value": _median(values[k]), "unit": unit}
            for k, unit in PER_LAYER_UNITS.items()}


# ---------------------------------------------------------------- facts


def machine_facts() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ctrwlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ----------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description="ctrwlab compare benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ctrwlab" / "__init__.py").is_file():
        print(f"no ctrwlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    workers = config_workers(args.workload)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work_root = RUNS_DIR / tag

    # Each iteration: untraced at the workload's worker count, untraced at
    # one worker when that differs, then (traced runs only) traced at one.
    plan = [(workers, False)]
    if args.trace:
        if workers > 1:
            plan.append((1, False))
        plan.append((1, True))

    records, iterations, shares = [], [], []
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    try:
        if not args.trace:
            records += [probe_setup(args.workload, args.seed, work_root / f"probe{i}", deadline)
                        for i in range(SETUP_PROBES)]
        while True:
            t0 = time.perf_counter()
            batch = [
                run_compare(args.workload, args.seed, w, traced,
                            work_root / f"run{len(records) + i}", deadline)
                for i, (w, traced) in enumerate(plan)
            ]
            records += batch
            iter_s = time.perf_counter() - t0
            if args.trace and not any(r["problems"] for r in batch):
                iterations.append(layer_metrics(batch[-1], batch[0], batch[-2], workers))
                shares.append(blocking_shares(batch[-1]))
            if time.perf_counter() - started + iter_s > args.seconds:
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    mark_nondeterministic(records)
    failed = sum(1 for r in records if r["problems"])
    if args.trace:
        metrics = per_layer_metrics(iterations) if iterations else {
            k: {"value": 0.0, "unit": u} for k, u in PER_LAYER_UNITS.items()
        }
    else:
        metrics = end_to_end_metrics(records)

    diag = next((r["diagnostics"] for r in records if "diagnostics" in r), None)
    share = ({k: _median(s[k] for s in shares) for k in BLOCKING_SPANS}
             if shares else None)
    dominant = max(share, key=share.get) if share else None
    for r in records:
        for p in r["problems"]:
            print(f"# FAILED run (workers={r['workers']}, trace={r['trace']}): {p}")
    if diag:
        print(f"# {args.workload} seed {args.seed}: ks_max={diag['ks_max']:.4f} "
              f"threshold={diag['ks_threshold']:g} crit99={diag['ks_critical_99']:.4f} "
              f"limit mean u=1 rel err={diag['limit_mean_u1_rel_err']:+.4f}")
    if share:
        print("# blocking shares of traced compare_s: "
              + " ".join(f"{k}={v:.3f}" for k, v in share.items())
              + f" -> dominant {dominant}")

    out = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(), "diagnostics": diag,
        "blocking_shares": share, "dominant_layer": dominant,
        "runs": [{k: v for k, v in r.items() if k not in ("spans", "rows")}
                 for r in records],
        **out,
    }
    (RUNS_DIR / "results").mkdir(parents=True, exist_ok=True)
    (RUNS_DIR / "results" / f"{tag}.json").write_text(json.dumps(results, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

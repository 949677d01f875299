"""One `compare` run in a fresh process, as the benchmark measures it.

Usage:
    python3 benchmarks/compare_run.py --config CFG --seed N --workers W \
        --work-dir DIR [--trace | --stop-at-first-walk]

The process imports ctrwlab from the checkout's ``src`` directory, loads the
INI config with ``load_experiment_config``, overrides ``master_seed`` and
``workers``, calls ``run_experiment`` and writes the report with
``emit_report``: the path ``ctrwlab compare`` takes.  It then writes
``DIR/result.json`` with ``perf_counter`` timestamps (CLOCK_MONOTONIC, so
comparable with the parent's spawn time), peak RSS and, under ``--trace``,
every span recorded around the package's public functions.
``--stop-at-first-walk`` makes a set-up probe: the first walk replicate to
start records its timestamp and kills the process group (the runner and
its pool workers), which must therefore be a session of its own.

Exit codes follow the CLI: 0 all thresholds passed, 1 runtime failure,
2 config error, 3 threshold failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

EXIT_RUNTIME = 1
EXIT_VALIDATION = 2
EXIT_THRESHOLD = 3


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters,
    recorded by wrappers installed around module attributes."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` with a traced version.  ``count`` maps
        (args, result) to {counter: (value, "sum" | "max")} and runs
        after the span closes."""
        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if count is not None:
                for key, (value, how) in count(args, result).items():
                    tracer.add(key, value, how)
            return result

        setattr(owner, attr, traced)

    def add(self, key, value, how="sum"):
        if how == "max":
            self.maxima[key] = max(self.maxima.get(key, value), value)
        else:
            self.counts[key] = self.counts.get(key, 0.0) + value

    @contextlib.contextmanager
    def span(self, name):
        """A span around the runner's own calls."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()


def install_tracing(tracer, jump_cls):
    """Wrap each layer's public functions as their callers see them."""
    from ctrwlab import environment, harness, levy

    def walk_counts(args, path):
        span = float(max(abs(path.positions.min()), abs(path.positions.max())))
        return {"walk.jumps": (path.n_jumps, "sum"), "walk.range_max": (span, "max")}

    def sites(args, result):
        return {"environment.potential_sites": (getattr(args[1], "size", 1), "sum")}

    tracer.wrap(harness, "spawn_rng", "rng.spawn")
    tracer.wrap(harness, "simulate_skeleton", "walk.simulate", walk_counts)
    tracer.wrap(harness, "normalized_functional", "walk.functional")
    tracer.wrap(jump_cls, "sample", "stable.jump_sample")
    tracer.wrap(harness, "sample_limit_rv", "levy.sample_limit_rv")
    tracer.wrap(levy, "simulate_levy", "levy.simulate_levy",
                lambda a, r: {"levy.grid_points": (r.grid_n, "sum")})
    tracer.wrap(levy, "local_time_zero", "levy.local_time")
    tracer.wrap(levy, "sample_stable", "stable.sample",
                lambda a, r: {"stable.draws": (getattr(r, "size", 1), "sum")})
    tracer.wrap(harness, "sample_config", "environment.sample_config",
                lambda a, r: {"environment.window_points": (r.count, "sum")})
    tracer.wrap(harness, "quenched_integral", "environment.quenched_integral")
    tracer.wrap(harness, "_integral_f", "harness.f_integral")
    tracer.wrap(harness, "_integral_g_over_lambda", "harness.f_integral")
    tracer.wrap(environment.ShotNoiseEnv, "potential_many", "environment.potential", sites)
    tracer.wrap(environment.DeterministicEnv, "lambda_inv_many", "environment.potential",
                sites)
    tracer.wrap(harness, "ks_two_sample", "distances.ks")
    tracer.wrap(harness, "wasserstein1", "distances.w1")


def mark_first_walk(harness, work_dir: Path, stop: bool):
    """Record, once per process, when its first walk replicate starts.
    Forked pool workers inherit the wrapper, so each writes its own file;
    with ``stop`` the first one to start ends the whole process group."""
    inner = harness.simulate_skeleton
    seen = []

    @functools.wraps(inner)
    def first_call(*args, **kwargs):
        if not seen:
            seen.append(True)
            stamp = time.perf_counter()
            # Written whole, then renamed, so a reader never sees a part.
            tmp = work_dir / f".first_walk.{os.getpid()}"
            tmp.write_text(repr(stamp))
            os.replace(tmp, work_dir / f"first_walk.{os.getpid()}")
            if stop:
                os.killpg(os.getpgrp(), signal.SIGKILL)
        return inner(*args, **kwargs)

    harness.simulate_skeleton = first_call


def time_stages(harness, stages: list):
    """Record the wall interval of each _map_tasks call in this process."""
    inner = harness._map_tasks

    def timed(task, n, workers):
        start = time.perf_counter()
        out = inner(task, n, workers)
        stages.append([task.__name__, start, time.perf_counter()])
        return out

    harness._map_tasks = timed


def peak_rss_mb() -> float:
    """Larger of this process's and any reaped child's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--stop-at-first-walk", action="store_true")
    args = ap.parse_args(argv)
    work_dir = Path(args.work_dir)

    sys.path.insert(0, str(SRC))
    import ctrwlab
    from ctrwlab import cli, harness
    from ctrwlab.errors import CtrwLabError, DomainError, ExperimentConfigError

    imported = time.perf_counter()
    if Path(ctrwlab.__file__).resolve().parent != SRC / "ctrwlab":
        print(f"ctrwlab imported from {ctrwlab.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_VALIDATION

    result = {"t_imported": imported, "stages": []}
    tracer = Tracer() if args.trace else None
    mark_first_walk(harness, work_dir, args.stop_at_first_walk)
    time_stages(harness, result["stages"])

    def finish(code):
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
            result["maxima"] = tracer.maxima
        (work_dir / "result.json").write_text(json.dumps(result))
        return code

    def span(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    try:
        with span("cli.load_config"):
            cfg, _ = cli.load_experiment_config(args.config)
        cfg.master_seed = args.seed
        cfg.workers = args.workers
        cfg.validate()
    except (ExperimentConfigError, DomainError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return finish(EXIT_VALIDATION)

    if tracer is not None:
        install_tracing(tracer, type(cfg.jump))
    report_path = work_dir / "report.json"
    try:
        result["t_run_start"] = time.perf_counter()
        with span("harness.run_experiment"):
            report = harness.run_experiment(cfg)
        result["t_run_end"] = time.perf_counter()
        with span("cli.emit_report"):
            harness.emit_report(report, report_path, "json")
        result["t_written"] = time.perf_counter()
    except CtrwLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return finish(EXIT_RUNTIME)

    from ctrwlab.distances import ks_critical_value

    result["report"] = str(report_path)
    result["alpha"] = cfg.jump.alpha_attr
    result["ks_critical_99"] = ks_critical_value(
        cfg.replicates, cfg.limit_replicates, 0.99
    )
    return finish(0 if report.passed else EXIT_THRESHOLD)


if __name__ == "__main__":
    sys.exit(main())

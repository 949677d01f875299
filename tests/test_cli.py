import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ctrwlab
from ctrwlab import cli, walk
from ctrwlab.cli import load_experiment_config, main
from ctrwlab.environment import Kernel, periodic_env
from ctrwlab.errors import ExperimentConfigError
from ctrwlab.harness import (
    _FORMAT,
    KINDS,
    ExperimentConfig,
    build,
    describe,
    kind_keys,
    report_json,
    run_experiment,
)
from ctrwlab.levy import sample_local_time_exact
from ctrwlab.rng import spawn_rng
from ctrwlab.stable import SymmetricPareto
from ctrwlab.walk import Exponential, simulate_skeleton

README = Path(__file__).resolve().parent.parent / "README.md"

PASSING_CONFIG = """
[experiment]
theorem = T2
t = 1000
u_grid = 0.5,1.0
replicates = 120
limit_replicates = 120
master_seed = 20240808
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


LATTICE_CONFIG = PASSING_CONFIG.replace("theorem = T2\n", "theorem = T2-lattice\n").replace(
    "kind = gaussian\nvariance = 2.0", "kind = rademacher"
)

T5_CONFIG = """
[experiment]
theorem = T5
t = 1000
replicates = 100
limit_replicates = 100

[jump]
kind = symmetric_pareto

[env]
kind = shot_noise
kernel = bump
"""


@pytest.fixture
def runner():
    return CliRunner()


class TestHelp:
    @pytest.mark.parametrize(
        "command", [[], ["sample-stable"], ["simulate"], ["local-time"], ["env"], ["compare"]]
    )
    def test_help_exits_zero(self, runner, command):
        result = runner.invoke(main, command + ["--help"])
        assert result.exit_code == 0


class TestSampleStable:
    def test_emits_n_lines(self, runner):
        result = runner.invoke(
            main, ["sample-stable", "--alpha", "2", "--beta", "0", "--n", "3", "--seed", "1"]
        )
        assert result.exit_code == 0
        assert len(result.output.strip().split("\n")) == 3

    def test_seed_reproducibility(self, runner):
        args = ["sample-stable", "--alpha", "1.5", "--n", "5", "--seed", "7"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_domain_rejection(self, runner):
        result = runner.invoke(main, ["sample-stable", "--alpha", "0.5", "--n", "1"])
        assert result.exit_code == 2

    def test_unwritable_out_is_a_runtime_error(self, runner, tmp_path):
        out = tmp_path / "missing-dir" / "x.txt"
        result = runner.invoke(main, ["sample-stable", "--alpha", "1.5", "--out", str(out)])
        assert result.exit_code == 1
        assert f"error: could not write {out}" in result.output
        assert isinstance(result.exception, SystemExit)


class TestSimulate:
    def test_summary_rows(self, runner, tmp_path):
        out = tmp_path / "paths.csv"
        result = runner.invoke(
            main,
            ["simulate", "--t", "50", "--paths", "3", "--seed", "5", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4  # header + 3 paths

    def test_skeleton_dump(self, runner, tmp_path):
        dump = tmp_path / "skeleton.txt"
        result = runner.invoke(
            main,
            [
                "simulate", "--t", "20", "--paths", "1", "--seed", "5",
                "--out", str(tmp_path / "s.csv"), "--dump-skeleton", str(dump),
            ],
        )
        assert result.exit_code == 0
        rows = dump.read_text().strip().split("\n")
        assert all(len(r.split()) == 3 for r in rows)

    def test_bad_horizon(self, runner):
        result = runner.invoke(main, ["simulate", "--t", "-5"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_nonfinite_horizon_exit_two_before_writing(self, runner, tmp_path, t):
        out = tmp_path / "s.csv"
        result = runner.invoke(main, ["simulate", "--t", t, "--out", str(out)])
        assert result.exit_code == 2
        assert f"--t must be positive and finite, got {t}" in result.output
        assert not out.exists()

    def test_env_kind_builds_the_table_environment(self, runner):
        # the same walks as a periodic_env() built directly
        result = runner.invoke(
            main, ["simulate", "--jump", "symmetric_pareto", "--t", "200", "--paths", "3",
                   "--seed", "4", "--env", "periodic_inverse"],
        )
        assert result.exit_code == 0, result.output
        jump, wait, env = SymmetricPareto(1.5), Exponential(1.0), periodic_env()
        rows = ["path,n_jumps,final_position,mean_hold"]
        for k in range(3):
            path = simulate_skeleton(jump, wait, 200.0, spawn_rng(4, "cli-simulate", k), env=env)
            rows.append(f"{k},{path.n_jumps},{path.positions[-1]:.17g},"
                        f"{float(np.mean(path.holds)):.17g}")
        assert result.output == "\n".join(rows) + "\n"

    def test_paths_reuse_one_set_of_work_arrays(self, runner, monkeypatch):
        # a path left alive while the next walk runs would view the work
        # arrays and make every walk allocate fresh ones
        returned = []
        work_arrays = walk._work_arrays

        def spy(n):
            returned.append(work_arrays(n))
            return returned[-1]

        monkeypatch.setattr(walk, "_work_arrays", spy)
        result = runner.invoke(main, ["simulate", "--t", "1e4", "--paths", "5"])
        assert result.exit_code == 0, result.output
        assert len(returned) == 5
        assert all(arrays is returned[0] for arrays in returned[1:])

    def test_unknown_env_kind_exit_two(self, runner):
        result = runner.invoke(main, ["simulate", "--t", "20", "--env", "periodic"])
        assert result.exit_code == 2

    def test_unwritable_dump_is_a_runtime_error(self, runner, tmp_path):
        dump = tmp_path / "missing-dir" / "d.txt"
        result = runner.invoke(main, ["simulate", "--t", "10", "--dump-skeleton", str(dump)])
        assert result.exit_code == 1
        assert f"error: could not write {dump}" in result.output
        assert isinstance(result.exception, SystemExit)


class TestLocalTime:
    ARGS = ["local-time", "--alpha", "1.5", "--beta", "0.3", "--paths", "3",
            "--u-grid", "0.5,1.0,2.0", "--seed", "4"]

    def test_csv_shape(self, runner, tmp_path):
        out = tmp_path / "lt.csv"
        result = runner.invoke(
            main,
            [
                "local-time", "--alpha", "2", "--paths", "2",
                "--u-grid", "0.5,1.0", "--seed", "3", "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "path,u,value"
        assert len(lines) == 1 + 2 * 2

    def test_same_seed_same_output(self, runner):
        first = runner.invoke(main, self.ARGS)
        second = runner.invoke(main, self.ARGS)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_values_are_exact_draws(self, runner):
        result = runner.invoke(main, self.ARGS)
        rows = [line.split(",") for line in result.output.strip().split("\n")[1:]]
        u = (0.5, 1.0, 2.0)
        for k in range(3):
            expected = sample_local_time_exact(1.5, 0.3, u, spawn_rng(4, "cli-local-time", k))
            got = [(float(ui), float(vi)) for path, ui, vi in rows if int(path) == k]
            assert got == list(zip(u, expected))

    @pytest.mark.parametrize(
        "args",
        [
            ["--u-grid", "0.5,0.25"],
            ["--grid-n", "2000"],
            ["--alpha", "0.5"],
            ["--paths", "0"],
            ["--paths", "-3"],
        ],
    )
    def test_usage_errors_exit_two_before_writing(self, runner, tmp_path, args):
        out = tmp_path / "lt.csv"
        result = runner.invoke(
            main, ["local-time", "--alpha", "2", *args, "--out", str(out)]
        )
        assert result.exit_code == 2
        assert not out.exists()


class TestEnv:
    def test_check_b3_row_count(self, runner, tmp_path):
        out = tmp_path / "b3.csv"
        result = runner.invoke(
            main,
            ["env", "--check-b3", "--n", "100,1000", "--seed", "2", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3  # header + two rows

    def test_exp_moment(self, runner):
        result = runner.invoke(main, ["env", "--exp-moment", "--a", "1.0"])
        assert result.exit_code == 0
        assert "mean_lambda_inv" in result.output

    def test_exp_moment_overflow_is_a_runtime_error(self, runner):
        result = runner.invoke(main, ["env", "--exp-moment", "--amplitude", "1000"])
        assert result.exit_code == 1
        assert "error: E[Lambda^(-a)] overflows" in result.output
        assert "mean_lambda_inv" not in result.output

    def test_window_too_long_to_draw_is_a_runtime_error(self, runner):
        result = runner.invoke(main, ["env", "--check-b3", "--n", "100000000000000000000"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: window" in result.output and "Poisson count" in result.output

    def test_requires_an_action(self, runner):
        result = runner.invoke(main, ["env"])
        assert result.exit_code == 2

    def test_takes_one_action(self, runner):
        result = runner.invoke(main, ["env", "--check-b3", "--exp-moment", "--n", "10"])
        assert result.exit_code == 2
        assert "mean_lambda_inv" not in result.output

    def test_negative_n_exit_two(self, runner, tmp_path):
        out = tmp_path / "b3.csv"
        result = runner.invoke(main, ["env", "--check-b3", "--n=-5", "--out", str(out)])
        assert result.exit_code == 2
        assert "nonnegative" in result.output
        assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["sample-stable", "--alpha", "1.5"],
        ["simulate", "--t", "10"],
        ["local-time", "--alpha", "1.5"],
        ["env", "--check-b3", "--n", "10"],
    ],
)
def test_negative_seed_is_a_usage_error(runner, command):
    result = runner.invoke(main, command + ["--seed", "-1"])
    assert result.exit_code == 2


class TestCompare:
    def test_missing_config(self, runner):
        result = runner.invoke(main, ["compare", "--config", "/nonexistent.cfg"])
        assert result.exit_code == 2

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(PASSING_CONFIG.replace("kind = gaussian", "kind = gaussian\nbogus_key = 1"))
        result = runner.invoke(main, ["compare", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_duplicate_section_rejected(self, runner, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(PASSING_CONFIG + "\n[jump]\nkind = gaussian\n")
        result = runner.invoke(main, ["compare", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_unknown_section_rejected(self, runner, tmp_path):
        cfg = tmp_path / "extra.cfg"
        cfg.write_text(PASSING_CONFIG + "\n[mystery]\nx = 1\n")
        result = runner.invoke(main, ["compare", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_passing_run_exit_zero(self, runner, tmp_path):
        cfg = tmp_path / "good.cfg"
        cfg.write_text(PASSING_CONFIG)
        out_json = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["compare", "--config", str(cfg), "--out-json", str(out_json)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out_json.read_text())
        assert report["passed"] is True
        assert report["config_echo"]["master_seed"] == 20240808

    def test_deterministic_waits_reach_a_verdict(self, runner, tmp_path):
        # 10^4 holds of 0.1 sum to 999.9999999999999 in order, so the hold
        # that straddles t = 1000 is the 10^4 + 1-th on the path's one clock
        cfg = tmp_path / "det.cfg"
        cfg.write_text(PASSING_CONFIG.replace("kind = exponential\nmean = 1.0",
                                              "kind = deterministic\nmean = 0.1"))
        result = runner.invoke(main, ["compare", "--config", str(cfg)])
        assert result.exit_code in (0, 3), result.output
        assert "overall:" in result.output

    def test_threshold_failure_exit_three(self, runner, tmp_path):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text(PASSING_CONFIG.replace("ks_threshold = 0.2", "ks_threshold = 0.001"))
        result = runner.invoke(main, ["compare", "--config", str(cfg)])
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "seeds, flags",
        [
            ("master_seed = 20240808", ["--seed", "-1"]),
            ("master_seed = -1", []),
            ("master_seed = 1\nenv_config_seed = -1", []),
        ],
    )
    def test_negative_seed_exit_two(self, runner, tmp_path, seeds, flags):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(PASSING_CONFIG.replace("master_seed = 20240808", seeds))
        result = runner.invoke(main, ["compare", "--config", str(cfg), *flags])
        assert result.exit_code == 2
        assert "config error" in result.output and "must be nonnegative" in result.output

    def test_validation_failure_exit_two(self, runner, tmp_path):
        cfg = tmp_path / "invalid.cfg"
        cfg.write_text(PASSING_CONFIG.replace("replicates = 120", "replicates = 10"))
        result = runner.invoke(main, ["compare", "--config", str(cfg)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "old, new",
        [
            ("u_grid = 0.5,1.0", "u_grid = 0.5,nan"),
            ("t = 1000", "t = nan"),
            ("t = 1000", "t = inf"),
            ("ks_threshold = 0.2", "ks_threshold = 0.2\nenv_window_halfwidth = inf"),
            ("kind = gauss_bump", "kind = gauss_bump\n[env]\nkind = periodic_inverse"),
            ("kind = gauss_bump", "kind = gauss_bump\n[env]\nkind = shot_noise"),
            ("ks_threshold = 0.2", "ks_threshold = 0.2\nenv_window_halfwidth = 5e4"),
            ("ks_threshold = 0.2", "ks_threshold = 0.2\nenv_config_seed = 3"),
        ],
        ids=["u-nan", "t-nan", "t-inf", "window-inf", "env-on-T2", "kernel-on-T2",
             "window-on-T2", "config-seed-on-T2"],
    )
    def test_values_a_run_cannot_honour_exit_two(self, runner, tmp_path, old, new):
        cfg = tmp_path / "unhonourable.cfg"
        cfg.write_text(PASSING_CONFIG.replace(old, new))
        result = runner.invoke(main, ["compare", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output

    def test_t5_window_too_narrow_exit_one(self, runner, tmp_path):
        # a path that leaves the configuration window fails the run, and
        # the error names the window
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(
            "[experiment]\ntheorem = T5\nt = 1000\nreplicates = 100\n"
            "limit_replicates = 100\nenv_window_halfwidth = 20\n\n"
            "[jump]\nkind = symmetric_pareto\nalpha = 1.5\n\n"
            "[env]\nkind = shot_noise\nkernel = bump\n"
        )
        result = runner.invoke(main, ["compare", "--config", str(cfg)])
        assert result.exit_code == 1, result.output
        assert "window" in result.stderr.strip().splitlines()[-1]

    def test_t5_window_too_long_to_draw_exit_one(self, runner, tmp_path):
        # validate accepts the window; numpy cannot draw its Poisson count
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(T5_CONFIG.replace(
            "limit_replicates = 100\n", "limit_replicates = 100\nenv_window_halfwidth = 1e300\n"
        ))
        result = runner.invoke(main, ["compare", "--config", str(cfg)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        last = result.stderr.strip().splitlines()[-1]
        assert last.startswith("error: window") and "Poisson count" in last

    def test_benchmark_workloads_validate(self):
        # the benchmark runs these configs; a change to keys, kinds or
        # validation that breaks one must fail here too
        paths = sorted((README.parent / "benchmarks" / "workloads").glob("*.cfg"))
        assert paths
        for path in paths:
            cfg, _ = load_experiment_config(path)
            cfg.validate()

    def test_shipped_configs_parse_to_acceptance_settings(self):
        # the full runs themselves are exercised by the acceptance suite
        root = Path(__file__).resolve().parent.parent / "configs"
        cfg, outputs = load_experiment_config(root / "t2_gauss.cfg")
        cfg.validate()
        assert cfg.theorem == "T2" and cfg.t == 10000.0
        assert cfg.replicates == cfg.limit_replicates == 2000
        assert cfg.ks_threshold == 0.08
        assert outputs["json"] == "t2_gauss_report.json"
        cfg5, _ = load_experiment_config(root / "t5_quenched.cfg")
        cfg5.validate()
        # [env] kind = shot_noise builds the kernel into the one env field
        assert cfg5.theorem == "T5" and isinstance(cfg5.env, Kernel)
        assert cfg5.ks_threshold == 0.10


EXPERIMENT_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(ExperimentConfig) if f.name not in KINDS
}

# A value other than the default for every [experiment] key: INI text, field.
EVERY_KEY = {
    "theorem": ("T3", "T3"),
    "t": ("2500", 2500.0),
    "u_grid": ("0.5,1.0", (0.5, 1.0)),
    "replicates": ("150", 150),
    "limit_replicates": ("160", 160),
    "master_seed": ("7", 7),
    "ks_threshold": ("0.2", 0.2),
    "workers": ("2", 2),
    "env_window_halfwidth": ("5e4", 5e4),
    "env_config_seed": ("11", 11),
    "fdd_pairs": ("0.5,1.0", ((0.5, 1.0),)),
    "label": ("round trip", "round trip"),
}


class TestConfigParsing:
    def test_readme_example_parses_as_documented(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        cfg_path = tmp_path / "readme.cfg"
        cfg_path.write_text(block)
        cfg, outputs = load_experiment_config(cfg_path)
        cfg.validate()
        assert cfg.theorem == "T3" and cfg.workers == 8
        assert cfg.env is not None and cfg.env.lambda_bar_inv == 2.0
        assert outputs == {"json": "report.json", "csv": "report.csv"}

    def test_semicolon_separated_fdd_pairs(self, tmp_path):
        cfg_path = tmp_path / "fdd.cfg"
        cfg_path.write_text(
            PASSING_CONFIG.replace(
                "u_grid = 0.5,1.0", "u_grid = 0.25,0.5,1.0\nfdd_pairs = 0.25,0.5;0.5,1.0"
            )
        )
        cfg, _ = load_experiment_config(cfg_path)
        assert cfg.fdd_pairs == ((0.25, 0.5), (0.5, 1.0))

    @pytest.mark.parametrize(
        "key",
        [
            "limit_grid_per_unit = 5000",
            "limit_eps = 0.01",
            "escape_probability = 0.01",
            "g_support_halfwidth = 12",
            "allow_short_horizon = yes",
        ],
    )
    def test_grid_sampler_keys_rejected(self, tmp_path, key):
        cfg_path = tmp_path / "old.cfg"
        cfg_path.write_text(
            PASSING_CONFIG.replace("ks_threshold = 0.2", f"ks_threshold = 0.2\n{key}")
        )
        with pytest.raises(ExperimentConfigError, match="unknown key"):
            load_experiment_config(cfg_path)

    def test_every_experiment_key_loads(self, tmp_path):
        assert set(EVERY_KEY) == set(EXPERIMENT_DEFAULTS)
        cfg_path = tmp_path / "every.cfg"
        cfg_path.write_text(
            "[experiment]\n" + "".join(f"{k} = {text}\n" for k, (text, _) in EVERY_KEY.items())
        )
        cfg, _ = load_experiment_config(cfg_path)
        for key, (_, value) in EVERY_KEY.items():
            assert value != EXPERIMENT_DEFAULTS[key]
            assert getattr(cfg, key) == value, key

    def test_bare_experiment_section_takes_the_defaults(self, tmp_path):
        cfg_path = tmp_path / "bare.cfg"
        cfg_path.write_text("[experiment]\n")
        cfg, outputs = load_experiment_config(cfg_path)
        assert {key: getattr(cfg, key) for key in EXPERIMENT_DEFAULTS} == EXPERIMENT_DEFAULTS
        assert cfg.jump == build("jump", "gaussian") and cfg.env is None
        assert outputs == {}

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("\nreplicates = 120", "\nreplicates = 100.5", "replicates"),
            ("ks_threshold = 0.2", "ks_threshold = 0.2\nfdd_pairs = 0.5", "fdd_pairs"),
        ],
    )
    def test_bad_value_names_its_key(self, runner, tmp_path, old, new, key):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(PASSING_CONFIG.replace(old, new))
        with pytest.raises(ExperimentConfigError, match=f"bad experiment {key} "):
            load_experiment_config(cfg_path)
        result = runner.invoke(main, ["compare", "--config", str(cfg_path)])
        assert result.exit_code == 2
        assert key in result.output

    @pytest.mark.parametrize("halfwidth", ["0", "-5"])
    def test_nonpositive_window_exit_two(self, runner, tmp_path, halfwidth):
        cfg_path = tmp_path / "window.cfg"
        cfg_path.write_text(
            PASSING_CONFIG.replace(
                "ks_threshold = 0.2", f"ks_threshold = 0.2\nenv_window_halfwidth = {halfwidth}"
            )
        )
        result = runner.invoke(main, ["compare", "--config", str(cfg_path)])
        assert result.exit_code == 2
        message = f"env_window_halfwidth must be positive and finite, got {float(halfwidth)}"
        assert message in result.output

    def test_readme_experiment_table_lists_every_key(self, tmp_path):
        # each row's default, written as an INI value (empty when unset),
        # must load to the dataclass default
        text = README.read_text()
        table = text[text.index("| key | default | meaning |"):].split("\n\n")[0]
        rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", table, re.M)
        assert sorted(key for key, _ in rows) == sorted(EXPERIMENT_DEFAULTS)
        for key, default in rows:
            value = re.fullmatch(r"`(.*)`|[^`]*", default.strip()).group(1) or ""
            cfg_path = tmp_path / f"{key}.cfg"
            cfg_path.write_text(f"[experiment]\n{key} = {value}\n")
            cfg, _ = load_experiment_config(cfg_path)
            assert getattr(cfg, key) == EXPERIMENT_DEFAULTS[key], key


LAW_KINDS = [(section, kind) for section in ("jump", "wait") for kind in KINDS[section]]

# INI values other than the defaults for every key of every law kind.
OFF_DEFAULT = {
    ("jump", "gaussian"): {"variance": "2.5"},
    ("jump", "symmetric_pareto"): {"alpha": "1.2", "x_min": "0.5"},
    ("jump", "skewed_pareto"): {"alpha": "1.7", "x_min": "2", "p_right": "0.8"},
    ("jump", "rademacher"): {},
    ("jump", "lattice"): {"b": "0.5", "weights": "0:0.5,2:0.5"},
    ("wait", "exponential"): {"mean": "2.5"},
    ("wait", "pareto"): {"index": "3", "x_min": "1.5"},
    ("wait", "gamma"): {"shape": "2.5", "scale": "0.4"},
    ("wait", "deterministic"): {"mean": "0.3"},
}


class TestKindTable:
    def test_readme_kind_table_matches_the_kind_table(self):
        # every section, kind, key and default; `kernel = k` rows are the
        # kernel kinds that `[env] kind = shot_noise` takes
        text = README.read_text()
        table = text[text.index("| section | kind | keys (default) |"):].split("\n\n")[0]
        documented, section = {}, None
        for cells in re.findall(r"^\|(.*?)\|(.*?)\|(.*)\|$", table, re.M)[2:]:
            section = re.fullmatch(r" `\[(\w+)\]` | ", cells[0]).group(1) or section
            kernel, kind = re.match(r" `kernel = (\w+)`| `(\w+)`", cells[1]).groups()
            keys = re.findall(r"`(\w+)` \((`[^`]*`|[^,)]*)", cells[2])
            documented["kernel" if kernel else section, kernel or kind] = {
                key: default.strip("`") for key, default in keys
            }
        expected = {
            (section, kind): {
                key: _FORMAT.get(key, str)(default)
                for key, default in kind_keys(section, kind).items()
            }
            for section, kinds in KINDS.items() for kind in kinds
        }
        expected["env", "shot_noise"] = {"kernel": next(iter(KINDS["kernel"]))}
        assert documented == expected

    @pytest.mark.parametrize("section, kind", LAW_KINDS)
    def test_echo_loads_back_to_the_same_law(self, tmp_path, section, kind):
        # at the defaults and off them
        assert set(OFF_DEFAULT[section, kind]) == set(kind_keys(section, kind))
        for values in ({}, OFF_DEFAULT[section, kind]):
            law = build(section, kind, values)
            lines = [f"{key} = {value}" for key, value in describe(law).items()]
            cfg_path = tmp_path / "echo.cfg"
            cfg_path.write_text(
                "[experiment]\ntheorem = T2\n\n" + f"[{section}]\n" + "\n".join(lines)
            )
            cfg, _ = load_experiment_config(cfg_path)
            assert getattr(cfg, section) == law

    @pytest.mark.parametrize(
        "old, new",
        [
            ("kind = gaussian", "kind = gaussian\nalpha = 1.2"),
            ("kind = gauss_bump", "kind = gauss_bump\n\n[env]\nkind = shot_noise\n"
             "kernel = bump\ndecay_beta = 3.0"),
        ],
    )
    def test_key_of_another_kind_rejected(self, runner, tmp_path, old, new):
        cfg_path = tmp_path / "mixed.cfg"
        cfg_path.write_text(PASSING_CONFIG.replace(old, new))
        with pytest.raises(ExperimentConfigError, match="takes no key"):
            load_experiment_config(cfg_path)
        result = runner.invoke(main, ["compare", "--config", str(cfg_path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("section, kind", LAW_KINDS)
    def test_simulate_builds_the_ini_law(self, runner, tmp_path, monkeypatch, section, kind):
        seen = []
        real = cli.simulate_skeleton

        def spy(jump, wait, *args, **kwargs):
            seen.append({"jump": jump, "wait": wait})
            return real(jump, wait, *args, **kwargs)

        monkeypatch.setattr(cli, "simulate_skeleton", spy)
        result = runner.invoke(main, ["simulate", "--t", "20", f"--{section}", kind])
        assert result.exit_code == 0, result.output
        cfg_path = tmp_path / "law.cfg"
        cfg_path.write_text(f"[experiment]\ntheorem = T2\n\n[{section}]\nkind = {kind}\n")
        cfg, _ = load_experiment_config(cfg_path)
        assert seen[0][section] == getattr(cfg, section)

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--t", "20", "--jump", "gaussian", "--jump-alpha", "1.2"],
            ["simulate", "--t", "20", "--wait", "exponential", "--wait-shape", "7"],
            ["env", "--exp-moment", "--kernel", "bump", "--decay-beta", "3"],
        ],
    )
    def test_flag_of_another_kind_rejected(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "takes no key" in result.output


def _ini_value(value) -> str:
    """An echoed value as INI text: None is left empty, a list is joined
    the way its key is read (pairs by ";")."""
    if value is None:
        return ""
    if isinstance(value, list):
        sep = ";" if value and isinstance(value[0], list) else ","
        return sep.join(_ini_value(v) for v in value)
    return str(value)


def _echo_as_ini(echo: dict) -> str:
    """A report's config echo written back as a config: its [experiment]
    keys and its jump and wait sections."""
    lines = ["[experiment]"]
    lines += [f"{key} = {_ini_value(echo[key])}" for key in EXPERIMENT_DEFAULTS if key in echo]
    for section in ("jump", "wait"):
        lines += ["", f"[{section}]"] + [f"{k} = {v}" for k, v in echo[section].items()]
    return "\n".join(lines) + "\n"


def _strip_runtime(report_text: str) -> str:
    return "\n".join(ln for ln in report_text.split("\n") if '"runtime_seconds"' not in ln)


class TestConfigEcho:
    # the functional takes its default kind: its echo is not an INI section
    @pytest.mark.parametrize(
        "config",
        [
            PASSING_CONFIG.replace("u_grid = 0.5,1.0", "u_grid = 0.25,0.5,1.0\n"
                                   "fdd_pairs = 0.25,0.5;0.5,1.0\nlabel = round trip"),
            PASSING_CONFIG.replace("t = 1000", "t = 100"),
            LATTICE_CONFIG,
        ],
        ids=["t2-fdd", "t2-short-horizon", "t2-lattice"],
    )
    def test_report_echo_reruns_to_the_same_report(self, tmp_path, config):
        first_path = tmp_path / "first.cfg"
        first_path.write_text(config.replace("[functional]\nkind = gauss_bump\n", ""))
        cfg, _ = load_experiment_config(first_path)
        first = report_json(run_experiment(cfg))
        echo_path = tmp_path / "echo.cfg"
        echo_path.write_text(_echo_as_ini(json.loads(first)["config_echo"]))
        cfg_again, _ = load_experiment_config(echo_path)
        assert _strip_runtime(report_json(run_experiment(cfg_again))) == _strip_runtime(first)

    def test_echo_carries_every_experiment_key_but_workers(self):
        keys = {f.name for f in dataclasses.fields(ExperimentConfig)} - set(KINDS)
        cfg = ExperimentConfig(
            jump=build("jump", "gaussian"), wait=build("wait", "exponential"),
            functional=build("functional", "gauss_bump"), t=1000.0, replicates=100,
            limit_replicates=100,
        )
        echo = run_experiment(cfg).config_echo
        assert keys - {"workers"} <= set(echo)
        assert "workers" not in echo


class TestTypedErrors:
    @pytest.mark.parametrize(
        "base, old, new, message",
        [
            (PASSING_CONFIG, "ks_threshold = 0.2", "ks_threshold = nan",
             "ks_threshold must be in (0, 1]"),
            (PASSING_CONFIG, "variance = 2.0", "variance = inf",
             "variance must be positive and finite, got inf"),
            (PASSING_CONFIG, "mean = 1.0", "mean = inf", "mean must be positive and finite, got inf"),
            (PASSING_CONFIG, "kind = gauss_bump", "kind = box\nlo = -inf",
             "lo must be finite, got -inf"),
            (PASSING_CONFIG.replace("T2", "T3"), "kind = gauss_bump",
             "kind = gauss_bump\n\n[env]\nkind = periodic_inverse\namplitude = nan",
             "need mean_level > |amplitude|"),
            (T5_CONFIG, "kernel = bump", "kernel = bump\namplitude = inf",
             "amplitude must be positive and finite, got inf"),
            (T5_CONFIG, "kernel = bump", "kernel = power\ndecay_beta = 0",
             "decay_beta must be positive and finite"),
            (LATTICE_CONFIG, "kind = rademacher", "kind = lattice\nweights = -1:nan,1:0.5",
             "weights must be positive and sum to 1"),
            (LATTICE_CONFIG, "kind = rademacher", "kind = lattice\nweights = 0:1.0",
             "at least two distinct sites"),
            (LATTICE_CONFIG, "kind = rademacher", "kind = lattice\nweights = 1:0.5,1:0.5",
             "at least two distinct sites"),
            (LATTICE_CONFIG, "kind = rademacher", "kind = lattice\nweights = 0:0.5,1:0.5",
             "centred jumps that generate bZ"),
            (LATTICE_CONFIG, "kind = rademacher", "kind = lattice\na = 0.5",
             "takes no key 'a'"),
        ],
        ids=["experiment", "jump", "wait", "functional", "env", "kernel-amplitude",
             "kernel-decay", "lattice-weight", "lattice-one-site", "lattice-site-twice",
             "lattice-off-bZ", "lattice-a"],
    )
    def test_bad_ini_value_exit_two(self, runner, tmp_path, base, old, new, message):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(base.replace(old, new))
        result = runner.invoke(main, ["compare", "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "config error: " in result.output and message in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "--t", "20", "--jump-variance", "inf"],
             "variance must be positive and finite, got inf"),
            (["simulate", "--t", "20", "--wait-mean", "nan"],
             "mean must be positive and finite, got nan"),
            (["env", "--exp-moment", "--amplitude", "inf"],
             "amplitude must be positive and finite, got inf"),
            (["env", "--exp-moment", "--kernel", "power", "--decay-beta", "0"],
             "decay_beta must be positive and finite"),
            (["sample-stable", "--alpha", "1.5", "--scale", "inf"], "scale_c must be positive"),
            (["local-time", "--alpha", "1.5", "--u-grid", "0.5,inf"], "u_grid must be finite"),
            (["env", "--exp-moment", "--a", "nan"], "--a must be finite"),
            (["env", "--exp-moment", "--a", "inf"], "--a must be finite"),
            (["sample-stable", "--alpha", "1.5", "--n", "0"], "0 is not in the range x>=1"),
            (["simulate", "--t", "20", "--paths", "0"], "0 is not in the range x>=1"),
        ],
    )
    def test_bad_flag_value_exit_two(self, runner, args, message):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert result.output.startswith("Usage:")  # nothing written before the error


# Imports the CLI, then runs tiny T2, T3 and T5 comparisons, each needing a
# quadrature constant, and prints the scipy modules loaded along the way.
SCIPY_PROBE = """
import sys
import ctrwlab.cli
from ctrwlab.harness import ExperimentConfig, build, run_experiment

for theorem, extra in (
    ("T2", {}),
    ("T3", {"env": build("env", "periodic_inverse")}),
    ("T5", {"env": build("kernel", "bump")}),
):
    run_experiment(ExperimentConfig(
        theorem=theorem, jump=build("jump", "symmetric_pareto"),
        wait=build("wait", "exponential"), functional=build("functional", "gauss_bump"),
        t=1000.0, u_grid=(1.0,), replicates=100, limit_replicates=100, **extra,
    ))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


SRC = os.path.dirname(os.path.dirname(ctrwlab.__file__))
# a child process that imports ctrwlab from the same tree as this one
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)}


def test_no_scipy_import_at_start_up_or_during_a_run():
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE], env=SRC_ENV, capture_output=True,
        text=True, timeout=300, check=True,
    )
    assert out.stdout.strip() == "[]"


HOOK_PROBE = """
import importlib.util, sys
from ctrwlab.stable import SymmetricPareto
spec = importlib.util.spec_from_file_location("compare_run", sys.argv[1])
compare_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_run)
compare_run.install_tracing(compare_run.Tracer(), SymmetricPareto)
"""


def test_benchmark_tracing_hooks_resolve():
    # the benchmark's traced run wraps package attributes by name, so a
    # refactor that drops one must fail here; the wrappers stay in the child
    runner_script = Path(SRC).parent / "benchmarks" / "compare_run.py"
    out = subprocess.run(
        [sys.executable, "-c", HOOK_PROBE, str(runner_script)], env=SRC_ENV,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr


def test_module_entry_point_runs(tmp_path):
    # ``python -m ctrwlab.cli`` runs the command line, so a missing config
    # is a usage error, not a silent exit 0
    out = subprocess.run(
        [sys.executable, "-m", "ctrwlab.cli", "compare", "--config", str(tmp_path / "none.cfg")],
        env=SRC_ENV, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 2, out.stderr
    assert "config file not found" in out.stderr


def test_readme_command_examples_run(runner, tmp_path, monkeypatch):
    # every example of the README's "Command line" block but the full-size
    # compare run, so the examples keep step with the flags
    text = README.read_text()
    block = text[text.index("## Command line"):].split("```")[1]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [c for c in commands if c and c[0] == "ctrwlab" and c[1] != "compare"]
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    for command in commands:
        result = runner.invoke(main, command[1:])
        assert result.exit_code == 0, (command, result.output)

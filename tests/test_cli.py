import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from ctrwlab.cli import load_experiment_config, main
from ctrwlab.errors import ExperimentConfigError

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


class TestLocalTime:
    def test_csv_shape(self, runner, tmp_path):
        out = tmp_path / "lt.csv"
        result = runner.invoke(
            main,
            [
                "local-time", "--alpha", "2", "--grid-n", "2000", "--paths", "2",
                "--u-grid", "0.5,1.0", "--seed", "3", "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2


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

    def test_requires_an_action(self, runner):
        result = runner.invoke(main, ["env"])
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

    def test_threshold_failure_exit_three(self, runner, tmp_path):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text(PASSING_CONFIG.replace("ks_threshold = 0.2", "ks_threshold = 0.001"))
        result = runner.invoke(main, ["compare", "--config", str(cfg)])
        assert result.exit_code == 3

    def test_validation_failure_exit_two(self, runner, tmp_path):
        cfg = tmp_path / "invalid.cfg"
        cfg.write_text(PASSING_CONFIG.replace("replicates = 120", "replicates = 10"))
        result = runner.invoke(main, ["compare", "--config", str(cfg)])
        assert result.exit_code == 2

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
        assert cfg5.theorem == "T5" and cfg5.kernel is not None
        assert cfg5.ks_threshold == 0.10


class TestConfigParsing:
    def test_readme_example_parses_as_documented(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        cfg_path = tmp_path / "readme.cfg"
        cfg_path.write_text(block)
        cfg, outputs = load_experiment_config(cfg_path)
        cfg.validate()
        assert cfg.theorem == "T2" and cfg.workers == 8
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

    @pytest.mark.parametrize("key", ["limit_grid_per_unit = 5000", "limit_eps = 0.01"])
    def test_grid_sampler_keys_rejected(self, tmp_path, key):
        cfg_path = tmp_path / "old.cfg"
        cfg_path.write_text(
            PASSING_CONFIG.replace("ks_threshold = 0.2", f"ks_threshold = 0.2\n{key}")
        )
        with pytest.raises(ExperimentConfigError, match="unknown key"):
            load_experiment_config(cfg_path)

import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ctrwlab import environment, harness
from ctrwlab.distances import ks_critical_value, ks_two_sample, wasserstein1
from ctrwlab.environment import (
    PoissonConfig,
    ShotNoiseEnv,
    _kinks,
    _quad,
    bump_kernel,
    periodic_env,
    power_kernel,
    sample_config,
)
from ctrwlab.errors import BoundaryError, DomainError, ExperimentConfigError, QuadratureError
from ctrwlab.harness import (
    KINDS,
    ExperimentConfig,
    build,
    describe,
    emit_report,
    quenched_integral,
    report_csv,
    report_json,
    run_experiment,
    suggest_window_halfwidth,
)
from ctrwlab.rng import spawn_rng
from ctrwlab.stable import (
    Gaussian,
    Lattice,
    StableParams,
    SymmetricPareto,
    rademacher,
    sample_stable,
)
from ctrwlab.walk import DeterministicWait, Exponential, FunctionalSpec, ParetoWait
from oracles import sample_config_eager, split_self_test

SEED = 20240808


def gauss_bump():
    return FunctionalSpec(f=lambda x: np.exp(-(x**2)))


def small_config(**overrides):
    base = dict(
        theorem="T2",
        jump=Gaussian(2.0),
        wait=Exponential(1.0),
        functional=gauss_bump(),
        t=1000.0,
        u_grid=(0.5, 1.0),
        replicates=150,
        limit_replicates=150,
        master_seed=SEED,
        ks_threshold=0.2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def t5_config(**overrides):
    return small_config(
        theorem="T5", jump=SymmetricPareto(1.5), env=bump_kernel(), **overrides
    )


def default_config(cfg, config_seed):
    """The configuration a T5 run of ``cfg`` samples from ``config_seed``,
    in its default window."""
    halfwidth = suggest_window_halfwidth(
        cfg.jump, cfg.wait.mu, cfg.t, cfg.replicates, cfg.env.cutoff_r
    )
    return sample_config((-halfwidth, halfwidth), spawn_rng(config_seed, "environment"))


def quenched_constant(cfg, config_seed):
    """integral of g/Lambda over ``default_config(cfg, config_seed)``."""
    config = default_config(cfg, config_seed)
    return quenched_integral(cfg.functional.f, ShotNoiseEnv(kernel=cfg.env, config=config))


class TestKsTwoSample:
    def test_identical_samples(self):
        assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_singletons(self):
        assert ks_two_sample([0.0], [1.0]) == 1.0

    def test_hand_enumerated_staircase(self):
        assert ks_two_sample([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(1 / 3)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ks_two_sample([], [1.0])

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=50),
        st.lists(st.floats(-100, 100), min_size=1, max_size=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, a, b):
        d = ks_two_sample(a, b)
        assert 0.0 <= d <= 1.0


@given(
    st.lists(
        st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.sampled_from([0.0, 1.0, -2.5, math.inf, -math.inf]),
        ),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=200, deadline=None)
def test_quantiles_are_numpys_bit_for_bit(values):
    # + 0.0 folds -0.0 into 0.0: a sort and numpy's partition may order the
    # two zeros differently, the one case the docstring excepts
    sample = np.asarray(values, dtype=float) + 0.0
    with np.errstate(invalid="ignore"):
        expected = np.quantile(sample, [0.05, 0.5, 0.95])
        got = harness._quantiles(sample)
    assert got.tobytes() == expected.tobytes()


class TestKsCriticalValue:
    @pytest.mark.parametrize(
        "confidence, c", [(0.90, 1.224), (0.95, 1.358), (0.99, 1.628), (0.98, 1.517)]
    )
    def test_smirnov_coefficient(self, confidence, c):
        # c sqrt((n + m) / (n m)) with c = sqrt(-ln((1 - confidence) / 2) / 2)
        assert ks_critical_value(200, 800, confidence) == pytest.approx(
            c * math.sqrt(1000 / (200 * 800)), rel=1e-3
        )

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    def test_confidence_outside_the_open_interval_rejected(self, confidence):
        with pytest.raises(DomainError):
            ks_critical_value(100, 100, confidence)


class TestWasserstein1:
    def test_identical(self):
        assert wasserstein1([1.0, 5.0], [1.0, 5.0]) == 0.0

    def test_pure_shift(self):
        assert wasserstein1([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_hand_sorted_average(self):
        assert wasserstein1([0.0, 1.0], [0.0, 3.0]) == pytest.approx(1.0)

    def test_unequal_sizes_exact_oracle(self):
        # ECDFs 1/2 against 1/3 on [0, 1/2) and against 2/3 on [1/2, 1)
        assert wasserstein1([0.0, 1.0], [0.0, 0.5, 1.0]) == pytest.approx(1 / 6, abs=1e-15)
        assert wasserstein1([0.0, 1.0], [0.0, 0.0, 1.0, 1.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            wasserstein1([1.0], [])

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=40),
        st.floats(-10, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_shift_equivariance(self, a, shift):
        a = np.asarray(a)
        assert wasserstein1(a, a + shift) == pytest.approx(abs(shift), abs=1e-9)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=40),
        st.lists(st.floats(-50, 50), min_size=1, max_size=40),
        st.integers(2, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_replicated_sample_has_the_same_distance(self, a, b, k):
        d = wasserstein1(a, b)
        assert wasserstein1(np.tile(a, k), b) == pytest.approx(d, rel=1e-12, abs=1e-12)

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=40),
        st.lists(st.floats(-50, 50), min_size=1, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetric(self, a, b):
        assert wasserstein1(a, b) == wasserstein1(b, a)

    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(*[st.lists(st.floats(-50, 50), min_size=n, max_size=n)] * 2)
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_equal_sizes_match_sorted_pairs(self, pair):
        a, b = np.sort(pair[0]), np.sort(pair[1])
        expected = float(np.mean(np.abs(a - b)))
        assert wasserstein1(a, b) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# theorem x env: T3 takes a deterministic environment, T5 a kernel, and T2
# and T2-lattice none.  The three valid pairings carry no message.
ENV_CASES = {
    f"{theorem}-env-{kind}": (
        {"theorem": theorem, "env": env,
         "jump": rademacher() if theorem == "T2-lattice" else SymmetricPareto(1.5)},
        None if kind == want else f"{theorem} takes env {want}, got {kind}$",
    )
    for theorem, want in (("T2", "none"), ("T2-lattice", "none"),
                          ("T3", "deterministic_env"), ("T5", "kernel"))
    for env, kind in ((None, "none"), (periodic_env(), "deterministic_env"),
                      (bump_kernel(), "kernel"))
}


class TestValidation:
    def test_too_few_replicates(self):
        with pytest.raises(ExperimentConfigError):
            small_config(replicates=50).validate()

    def test_any_positive_finite_horizon_validates(self):
        small_config(t=100.0).validate()
        small_config(t=0.5).validate()
        for t in (0.0, -1.0):
            with pytest.raises(ExperimentConfigError, match="t must be positive and finite, got"):
                small_config(t=t).validate()

    def test_lattice_jumps_rejected_for_t2(self):
        with pytest.raises(ExperimentConfigError):
            small_config(jump=rademacher()).validate()

    def test_t2_lattice_requires_lattice(self):
        # a law with no lattice and a lattice off bZ fail the same one check
        for jump in (Gaussian(2.0), Lattice(b=1.0, weights=((0, 0.5), (1, 0.5)))):
            with pytest.raises(ExperimentConfigError) as info:
                small_config(theorem="T2-lattice", jump=jump).validate()
            assert str(info.value) == (
                "T2-lattice requires a lattice law: centred jumps that generate bZ "
                "(integer multiples of b with gcd 1)"
            )

    def test_t3_requires_env_and_heavy_tail(self):
        with pytest.raises(ExperimentConfigError):
            small_config(theorem="T3", jump=SymmetricPareto(1.5)).validate()
        with pytest.raises(ExperimentConfigError):
            small_config(theorem="T3", env=periodic_env()).validate()  # alpha=2

    def test_t5_requires_kernel(self):
        with pytest.raises(ExperimentConfigError):
            small_config(theorem="T5", jump=SymmetricPareto(1.5)).validate()

    def test_t5_requires_heavy_tail(self):
        with pytest.raises(ExperimentConfigError, match="alpha < 2"):
            small_config(theorem="T5", env=bump_kernel()).validate()  # alpha=2

    def test_bad_u_grid(self):
        with pytest.raises(ExperimentConfigError):
            small_config(u_grid=(0.5, 0.25)).validate()
        with pytest.raises(ExperimentConfigError):
            small_config(u_grid=(0.0, 1.0)).validate()

    def test_fdd_pair_must_come_from_grid(self):
        with pytest.raises(ExperimentConfigError):
            small_config(fdd_pairs=((0.1, 1.0),)).validate()

    @pytest.mark.parametrize("key", ["master_seed", "env_config_seed"])
    def test_negative_seed_rejected(self, key):
        # on T5, where env_config_seed acts
        with pytest.raises(ExperimentConfigError, match=f"{key} must be nonnegative"):
            t5_config(**{key: -1}).validate()
        t5_config(**{key: 0}).validate()

    @pytest.mark.parametrize("halfwidth", [0.0, -5.0])
    def test_window_must_be_positive(self, halfwidth):
        with pytest.raises(ExperimentConfigError, match="env_window_halfwidth must be positive"):
            t5_config(env_window_halfwidth=halfwidth).validate()

    @pytest.mark.parametrize(
        "theorem, extra",
        [
            ("T2", {}),
            ("T2-lattice", {"jump": rademacher()}),
            ("T3", {"jump": SymmetricPareto(1.5), "env": periodic_env()}),
        ],
    )
    @pytest.mark.parametrize(
        "key, value", [("env_window_halfwidth", 5e4), ("env_config_seed", 3)]
    )
    def test_t5_keys_rejected_elsewhere(self, theorem, extra, key, value):
        cfg = small_config(theorem=theorem, **extra)
        cfg.validate()
        setattr(cfg, key, value)
        with pytest.raises(ExperimentConfigError, match=f"{key} is a T5 key"):
            cfg.validate()
        t5_config(**{key: value}).validate()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"u_grid": (0.5, math.nan)}, "u_grid"),
            ({"t": math.nan}, "t must be positive and finite, got nan"),
            ({"t": math.inf}, "t must be positive and finite, got inf"),
            ({"env_window_halfwidth": math.inf},
             "env_window_halfwidth must be positive and finite, got inf"),
            *ENV_CASES.values(),
        ],
        ids=["u-nan", "t-nan", "t-inf", "window-inf", *ENV_CASES],
    )
    def test_values_a_run_cannot_honour_rejected(self, overrides, message):
        cfg = small_config(**{"jump": SymmetricPareto(1.5), **overrides})
        if message is None:  # a valid theorem x env pairing
            cfg.validate()
            return
        with pytest.raises(ExperimentConfigError, match=message):
            cfg.validate()


class TestRunExperiment:
    def test_degenerate_zero_functional(self):
        cfg = small_config(
            functional=FunctionalSpec(f=lambda x: np.zeros_like(x))
        )
        report = run_experiment(cfg)
        for row in report.rows:
            assert row.ks == 0.0
            assert row.w1 == 0.0
        assert report.passed

    def test_gaussian_t2_small_run_passes(self):
        report = run_experiment(small_config())
        assert report.passed
        assert report.limit_constant == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert all(r.ks < 0.2 for r in report.rows)

    @pytest.mark.parametrize(
        "theorem, extra",
        [
            ("T2", {}),
            ("T2-lattice",
             {"jump": rademacher(), "functional": build("functional", "indicator_zero")}),
            ("T3", {"jump": SymmetricPareto(1.5), "env": periodic_env()}),
        ],
    )
    def test_determinism_across_worker_counts(self, theorem, extra):
        rep1 = run_experiment(small_config(theorem=theorem, workers=1, **extra))
        rep2 = run_experiment(small_config(theorem=theorem, workers=3, **extra))
        d1, d2 = rep1.to_dict(), rep2.to_dict()
        d1.pop("runtime_seconds")
        d2.pop("runtime_seconds")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_f_integral_computed_by_quadrature_when_missing(self):
        cfg = small_config(
            functional=FunctionalSpec(f=lambda x: np.exp(-(x**2)))
        )
        report = run_experiment(cfg)
        assert report.f_integral == pytest.approx(math.sqrt(math.pi), rel=1e-8)

    def test_t3_periodic_environment(self):
        cfg = small_config(
            theorem="T3",
            jump=SymmetricPareto(1.5),
            env=periodic_env(2.0, 1.0, 1.0),
            # for T3 the integral constant is the dx-integral of g/Lambda
            functional=FunctionalSpec(f=lambda x: np.exp(-(x**2))),
            t=4000.0,
            replicates=400,
            limit_replicates=400,
            ks_threshold=0.15,
        )
        report = run_experiment(cfg)
        # integral of e^(-x^2) (2 + sin(2 pi x)) dx = 2 sqrt(pi); the odd part cancels
        assert report.f_integral == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-6)
        assert report.env_constant == pytest.approx(2.0 ** (1.0 / 1.5 - 1.0), rel=1e-12)
        assert report.passed

    def test_box_constants(self):
        box = build("functional", "box", {})
        # T2 integrates the box, T3 integrates 1/Lambda = 2 + sin(2 pi x) over it
        t2 = run_experiment(small_config(functional=box, ks_threshold=1.0))
        assert t2.f_integral == pytest.approx(1.0, rel=1e-14)
        t3 = run_experiment(
            small_config(
                theorem="T3",
                jump=SymmetricPareto(1.5),
                env=periodic_env(2.0, 1.0, 1.0),
                functional=box,
                ks_threshold=1.0,
            )
        )
        assert t3.f_integral == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("lo, hi", [(-0.5, 0.5), (-40.0, 40.0)], ids=["unit", "wide"])
    def test_quenched_box_splits_at_its_edges(self, lo, hi):
        # the span is derived from g: a box wider than any fixed span counts whole
        box = build("functional", "box", {"lo": lo, "hi": hi})
        env = ShotNoiseEnv(
            kernel=bump_kernel(), config=sample_config((-50.0, 50.0), spawn_rng(SEED, "box"))
        )
        expected, _ = _quad(env.lambda_inv_many, lo, hi, _kinks(env, lo, hi))
        assert quenched_integral(
            box.f, env, points=box.breakpoints
        ) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("points", [(), (0.3,)], ids=["empty", "one-point"])
    def test_quenched_integral_oracle(self, points):
        kernel = bump_kernel(math.log(2.0))
        config = PoissonConfig(points=np.array(points, dtype=float), lo=-50.0, hi=50.0)
        got = quenched_integral(
            lambda x: np.exp(-(x**2)), ShotNoiseEnv(kernel=kernel, config=config)
        )
        if not points:
            # 1/Lambda is 1 everywhere
            assert got == pytest.approx(math.sqrt(math.pi), rel=1e-14)
            return
        y = points[0]

        def h(x):
            return math.exp(-(x**2) + float(kernel.phi(x - y)))

        # the bump lifts 1/Lambda on [y - 1, y + 1] only; outside it is e^(-x^2)
        inner = sum(
            integrate.quad(h, a, b, epsabs=0.0, epsrel=1e-13)[0]
            for a, b in ((y - 1.0, y), (y, y + 1.0))
        )
        tails = 0.5 * math.sqrt(math.pi) * (math.erfc(1.0 - y) + math.erfc(1.0 + y))
        assert got == pytest.approx(inner + tails, rel=1e-12)

    def test_quenched_integral_past_the_window_raises(self):
        # exp(-x^2) needs |x| <= 8, which a window of half-width 5 does not cover
        env = ShotNoiseEnv(kernel=bump_kernel(), config=PoissonConfig([0.0], -5.0, 5.0))
        with pytest.raises(BoundaryError, match="window"):
            quenched_integral(lambda x: np.exp(-(x**2)), env)

    @pytest.mark.parametrize("theorem", ["T2", "T3", "T5"])
    def test_unresolvable_functional_raises(self, theorem):
        # the spike of indicator_zero is narrower than any node spacing
        env = {"T3": periodic_env(2.0, 1.0, 1.0), "T5": bump_kernel(math.log(2.0))}.get(theorem)
        cfg = small_config(
            theorem=theorem,
            jump=SymmetricPareto(1.5),
            env=env,
            functional=build("functional", "indicator_zero"),
        )
        with pytest.raises(QuadratureError):
            run_experiment(cfg)

    def test_t5_quenched_pieces(self):
        cfg = small_config(
            theorem="T5",
            jump=SymmetricPareto(1.5),
            functional=FunctionalSpec(f=lambda x: np.exp(-(x**2))),
            env=bump_kernel(math.log(2.0)),
            t=1000.0,
            replicates=120,
            limit_replicates=120,
            ks_threshold=0.3,
        )
        report = run_experiment(cfg)
        assert report.theorem5_factor is not None
        assert report.env_constant == report.theorem5_factor
        assert report.config_echo["env_window_points"] > 0
        assert report.f_integral == quenched_constant(cfg, SEED)
        assert report.f_integral != pytest.approx(math.sqrt(math.pi), rel=1e-3)

    def test_t3_trend_in_t(self):
        # longer horizons do not worsen the fit beyond MC noise
        def run(t):
            return run_experiment(
                small_config(
                    theorem="T3",
                    jump=SymmetricPareto(1.5),
                    env=periodic_env(2.0, 1.0, 1.0),
                    functional=FunctionalSpec(f=lambda x: np.exp(-(x**2))),
                    t=t,
                    replicates=300,
                    limit_replicates=300,
                    ks_threshold=1.0,
                )
            )

        ks_long = run(1e4).rows[-1].ks
        ks_short = run(1e2).rows[-1].ks
        noise_band = ks_critical_value(300, 300, 0.95)
        assert ks_long <= ks_short + 2.0 * noise_band

    def test_t5_same_gamma_different_walks(self):
        shared = dict(
            theorem="T5",
            jump=SymmetricPareto(1.5),
            functional=FunctionalSpec(f=lambda x: np.exp(-(x**2))),
            env=bump_kernel(math.log(2.0)),
            t=1000.0,
            replicates=120,
            limit_replicates=120,
            ks_threshold=0.5,
            env_config_seed=991,
        )
        rep_a = run_experiment(small_config(master_seed=1, **shared))
        rep_b = run_experiment(small_config(master_seed=2, **shared))
        # same configuration: identical quenched constant, distances within noise
        assert rep_a.f_integral == rep_b.f_integral
        band = 2.0 * ks_critical_value(120, 120, 0.99)
        assert abs(rep_a.rows[-1].ks - rep_b.rows[-1].ks) < band
        # a different configuration changes the quenched constant
        rep_c = run_experiment(
            small_config(master_seed=2, **{**shared, "env_config_seed": 992})
        )
        assert rep_c.f_integral != rep_a.f_integral

    def test_echo_names_the_configuration_seed(self):
        cfg = small_config(
            theorem="T5",
            jump=SymmetricPareto(1.5),
            functional=FunctionalSpec(f=lambda x: np.exp(-(x**2))),
            env=bump_kernel(math.log(2.0)),
            ks_threshold=1.0,
            env_config_seed=991,
        )
        report = run_experiment(cfg)
        # the quenched constant is over configuration 991, not master_seed's
        assert report.f_integral == quenched_constant(cfg, 991)
        assert report.f_integral != quenched_constant(cfg, cfg.master_seed)
        echo = report.config_echo
        assert echo["env_config_seed"] == 991
        assert "g_support_halfwidth" not in echo
        assert run_experiment(small_config()).config_echo["env_config_seed"] is None

    def test_one_configuration_seed_gives_one_configuration_in_any_window(self):
        # replicates 1000 and 2000 size different default windows; the
        # points of the smaller one, and so the quenched constant, are the
        # same in both
        small, large = (t5_config(replicates=m) for m in (1000, 2000))
        inner, outer = default_config(small, 7), default_config(large, 7)
        assert outer.lo < inner.lo and inner.hi < outer.hi
        np.testing.assert_array_equal(
            inner.between(inner.lo, inner.hi), outer.between(inner.lo, inner.hi)
        )
        assert quenched_constant(small, 7) == quenched_constant(large, 7)

    def test_span_widening_in_workers_keeps_reports_identical(self, monkeypatch):
        # the walks draw only the cells they reach, and each forked worker
        # widens its own copy; the points, and so the report, are those of
        # the eager draw of the whole window at any worker count.  Narrow
        # cells make the walks widen the run many times.
        monkeypatch.setattr(environment, "_CELL_WIDTH", 64.0)
        cfg = dict(env_window_halfwidth=1e5, t=1000.0, replicates=120,
                   limit_replicates=120, ks_threshold=1.0)
        cells = []
        draw = environment._cell_points

        def recorded_draw(key, k):
            cells.append(k)
            return draw(key, k)

        monkeypatch.setattr(environment, "_cell_points", recorded_draw)
        reports = [run_experiment(t5_config(workers=1, **cfg))]
        # no cell is drawn twice: the walks draw the cells they reach, and
        # the count the window's two edge cells
        assert len(set(cells)) == len(cells)
        assert 4 < len(cells) < 2e5 / 64.0
        reports.append(run_experiment(t5_config(workers=2, **cfg)))
        monkeypatch.setattr(harness, "sample_config", sample_config_eager)
        reports.append(run_experiment(t5_config(workers=2, **cfg)))
        dumps = []
        for report in reports:
            d = report.to_dict()
            d.pop("runtime_seconds")
            dumps.append(json.dumps(d, sort_keys=True))
        assert dumps[0] == dumps[1] == dumps[2]


class TestFddJointCheck:
    def test_pairs_reuse_the_rows_and_add_the_increment(self):
        rep = run_experiment(
            small_config(
                u_grid=(0.25, 0.5, 1.0),
                fdd_pairs=((0.25, 0.5), (0.5, 1.0)),
                # at this seed one pair passes and the other fails
                ks_threshold=0.16,
            )
        )
        ks_at = {row.u: row.ks for row in rep.rows}
        assert len(rep.fdd) == 2
        for frag in rep.fdd:
            assert "ks_u1" not in frag and "ks_u2" not in frag
            worst = max(ks_at[frag["u1"]], ks_at[frag["u2"]], frag["ks_increment"])
            assert frag["passed"] == (worst <= frag["threshold"])

    def test_limit_increments_are_nonnegative(self):
        from ctrwlab.levy import sample_limit_rv

        draws = np.vstack(
            [
                sample_limit_rv(1.5, 0.0, 1.0, [0.5, 1.0], spawn_rng(SEED, "inc", j))
                for j in range(200)
            ]
        )
        assert np.all(draws[:, 1] - draws[:, 0] >= 0.0)


class TestNullCalibration:
    def test_split_self_test_mostly_passes(self):
        samples = sample_stable(StableParams(1.5, 0.0), spawn_rng(SEED, "null"), 2000)
        frac = split_self_test(samples, 40, spawn_rng(SEED, "splits"))
        assert frac >= 0.95


class TestReports:
    def test_json_round_trip(self, tmp_path):
        report = run_experiment(small_config())
        dest = tmp_path / "report.json"
        emit_report(report, dest, "json")
        parsed = json.loads(dest.read_text())
        assert parsed == report.to_dict()
        assert parsed["schema_version"] == "4"

    @pytest.mark.parametrize(
        "theorem, env, kind",
        [("T2", None, "none"), ("T3", periodic_env(), "deterministic_env"),
         ("T5", bump_kernel(), "kernel")],
    )
    def test_config_lives_only_in_the_echo(self, theorem, env, kind):
        cfg = small_config(theorem=theorem, jump=SymmetricPareto(1.5), env=env, ks_threshold=1.0)
        report = run_experiment(cfg).to_dict()
        names = {f.name for f in fields(ExperimentConfig)}
        # one field per law section the loader reads, and no other law field
        assert names & set(KINDS) == set(harness._KIND_SECTIONS)
        keys = names - set(harness._KIND_SECTIONS)
        assert not keys & set(report)
        echo = report["config_echo"]
        assert keys - {"workers"} <= set(echo)
        # the environment echoes once, under env
        assert echo["env"] == describe(env) and echo["env"]["kind"] == kind
        assert "kernel" not in echo

    def test_csv_row_count(self, tmp_path):
        report = run_experiment(small_config())
        dest = tmp_path / "report.csv"
        emit_report(report, dest, "csv")
        lines = dest.read_text().strip().split("\n")
        assert len(lines) == len(report.rows) + 1

    def test_unwritable_destination_reports_path(self, tmp_path):
        report = run_experiment(small_config())
        from ctrwlab.errors import ReportIOError

        bad = tmp_path / "missing-dir" / "report.json"
        with pytest.raises(ReportIOError) as info:
            emit_report(report, bad, "json")
        assert "missing-dir" in str(info.value)

    def test_same_seed_reports_identical_json(self):
        r1 = report_json(run_experiment(small_config()))
        r2 = report_json(run_experiment(small_config()))
        strip = lambda s: "\n".join(
            ln for ln in s.split("\n") if '"runtime_seconds"' not in ln
        )
        assert strip(r1) == strip(r2)


class TestWindowSuggestion:
    def test_scales_with_horizon(self):
        law = SymmetricPareto(1.5)
        small = suggest_window_halfwidth(law, 1.0, 1e3, 100, 1.0)
        large = suggest_window_halfwidth(law, 1.0, 1e4, 100, 1.0)
        assert large > small
        # displacement scale is (t/mu)^(1/alpha): a decade in t widens the
        # window by nearly 10^(2/3), shaved slightly by additive margins
        assert 3.5 < large / small < 10 ** (2.0 / 3.0) * 1.05


class TestKindTable:
    @pytest.mark.parametrize("section", list(KINDS))
    def test_constructors_take_no_arguments(self, section):
        # a kind's defaults are its constructor's; for laws, built ones compare
        for kind, make in KINDS[section].items():
            made = make()
            if section in ("jump", "wait"):
                assert made == build(section, kind, {}), kind

    def test_python_defaults_are_the_ini_defaults(self):
        assert ParetoWait().mu == 1.0
        assert power_kernel().cutoff_r == build("kernel", "power").cutoff_r
        assert power_kernel().bound_c == math.log(2.0)

    def test_defaults_fill_missing_keys(self):
        assert build("wait", "pareto", {}) == ParetoWait(2.0, 0.5)
        assert build("wait", "pareto", {"index": "3"}) == ParetoWait(3.0, 0.5)
        assert build("jump", "rademacher") == rademacher()
        assert build("env", "none") is None

    @pytest.mark.parametrize(
        "section, kind, key",
        [
            ("jump", "gaussian", "alpha"),
            ("wait", "exponential", "shape"),
            ("env", "none", "amplitude"),
            ("kernel", "bump", "decay_beta"),
            ("functional", "gauss_bump", "lo"),
        ],
    )
    def test_key_of_another_kind_rejected(self, section, kind, key):
        with pytest.raises(ExperimentConfigError, match=f"takes no key '{key}'"):
            build(section, kind, {key: "1.0"})

    def test_unknown_kind_and_bad_value_rejected(self):
        with pytest.raises(ExperimentConfigError, match="unknown wait kind"):
            build("wait", "weibull")
        with pytest.raises(ExperimentConfigError, match="bad jump variance"):
            build("jump", "gaussian", {"variance": "two"})

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "section, kind, key",
        [(section, kind, key) for section, kinds in KINDS.items() for kind in kinds
         for key, default in harness.kind_keys(section, kind).items()
         if isinstance(default, float)],
    )
    def test_value_not_finite_rejected_by_its_owner(self, section, kind, key, raw):
        # the reader only parses; the constructor that owns the key rejects
        # the value and names it
        with pytest.raises((DomainError, ExperimentConfigError)) as info:
            build(section, kind, {key: raw})
        assert re.search(rf"\b{key}\b", str(info.value)), str(info.value)

    def test_describe_uses_ini_names_and_values(self):
        assert describe(ParetoWait(2.0, 0.5)) == {"kind": "pareto", "index": 2.0, "x_min": 0.5}
        assert describe(DeterministicWait(0.7)) == {"kind": "deterministic", "mean": 0.7}
        assert describe(rademacher()) == {"kind": "lattice", "b": 1.0, "weights": "-1:0.5,1:0.5"}
        assert describe(None) == {"kind": "none"}

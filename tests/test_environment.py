import math
import tracemalloc

import numpy as np
import pytest

from ctrwlab.environment import (
    DeterministicEnv,
    Kernel,
    PoissonConfig,
    ShotNoiseEnv,
    _exp_phi_integral,
    _quad,
    _subdivide,
    bump_kernel,
    cesaro_error,
    load_config,
    mc_mean_lambda_inv,
    mean_lambda_inv_analytic,
    periodic_env,
    power_kernel,
    sample_config,
    save_config,
    sup_growth_check,
    theorem5_constant,
)
from ctrwlab.errors import BoundaryError, DomainError, QuadratureError
from ctrwlab.rng import spawn_rng
from ctrwlab.stable import Gaussian
from ctrwlab.walk import Exponential, simulate_skeleton

SEED = 20240808


def zero_kernel() -> Kernel:
    return Kernel(
        phi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        bound_c=1.0,
        decay_beta=1.0,
        cutoff_r=1.0,
        compact_support=True,
        name="zero",
    )


def hat_kernel(amplitude: float = math.log(2.0)) -> Kernel:
    # linear hat A*max(0, 1-|x|); continuous, compact support
    return Kernel(
        phi=lambda x: amplitude * np.clip(1.0 - np.abs(x), 0.0, None),
        bound_c=2.0 * amplitude,
        decay_beta=1.0,
        cutoff_r=1.0,
        compact_support=True,
        name="hat",
    )


def lorentz_kernel() -> Kernel:
    # phi(x) = 1/(1+x^2): beta = 1 envelope with C = 1
    return Kernel(
        phi=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2),
        bound_c=1.0,
        decay_beta=1.0,
        cutoff_r=200.0,
        name="lorentz",
    )


class TestKernel:
    def test_envelope_violation_rejected(self):
        with pytest.raises(DomainError):
            Kernel(
                phi=lambda x: np.full_like(np.asarray(x, dtype=float), 5.0),
                bound_c=1.0,
                decay_beta=1.0,
                cutoff_r=1.0,
            )

    def test_negative_kernel_rejected(self):
        with pytest.raises(DomainError):
            Kernel(
                phi=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
                bound_c=1.0,
                decay_beta=1.0,
                cutoff_r=1.0,
            )

    def test_power_kernel_tail_bound(self):
        k = power_kernel(0.5, 3.0, tail_tol=1e-6)
        assert k.tail_bound <= 1e-6 * (1.0 + 1e-9)

    def test_bump_kernel_exact_truncation(self):
        assert bump_kernel(0.5).tail_bound == 0.0


class TestPoissonConfig:
    def test_zero_length_window(self):
        cfg = sample_config((0.0, 0.0), spawn_rng(SEED, "empty"))
        assert cfg.count == 0

    def test_count_concentration(self):
        cfg = sample_config((0.0, 1000.0), spawn_rng(SEED, "count"))
        assert 900 <= cfg.count <= 1100  # +-3.16 sigma band

    def test_points_sorted_and_in_window(self):
        cfg = sample_config((-5.0, 5.0), spawn_rng(SEED, "sorted"))
        assert np.all(np.diff(cfg.points) >= 0)
        assert np.all((cfg.points >= -5.0) & (cfg.points <= 5.0))

    def test_disjoint_counts_uncorrelated(self):
        rng = spawn_rng(SEED, "indep", 0)
        left, right = [], []
        for _ in range(1000):
            cfg = sample_config((0.0, 2e4), rng)
            left.append(np.searchsorted(cfg.points, 1e4))
            right.append(cfg.count - left[-1])
        corr = np.corrcoef(left, right)[0, 1]
        assert abs(corr) < 0.05

    def test_sorts_in_place(self):
        # the sorted configuration is the only window-sized array built
        tracemalloc.start()
        try:
            cfg = sample_config((-5e5, 5e5), spawn_rng(SEED, "in-place"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * cfg.points.nbytes

    def test_save_load_round_trip(self, tmp_path):
        cfg = sample_config((-3.0, 7.0), spawn_rng(SEED, "io"))
        dest = tmp_path / "config.txt"
        save_config(cfg, dest)
        loaded = load_config(dest)
        assert loaded.lo == cfg.lo and loaded.hi == cfg.hi
        assert np.array_equal(loaded.points, cfg.points)

    def test_load_sorts_unordered_points(self, tmp_path):
        dest = tmp_path / "config.txt"
        dest.write_text("# window -10 10\n6.2\n-5.2\n0.1\n5.5\n-4.9\n0.4\n")
        loaded = load_config(dest)
        assert np.array_equal(loaded.points, [-5.2, -4.9, 0.1, 0.4, 5.5, 6.2])
        env = ShotNoiseEnv(kernel=bump_kernel(1.0), config=loaded)
        # phi = (1 - |x - y|)^2 summed by hand: 0.8^2 + 0.9^2, 0.9^2 + 0.6^2,
        # 0.7^2 + 0.6^2
        assert env.potential_many(np.array([-5.0, 0.0, 5.8])) == pytest.approx(
            [1.45, 1.17, 0.85], rel=1e-12
        )

    @pytest.mark.parametrize("point", ["10.5", "-11", "nan"])
    def test_load_rejects_a_point_outside_the_window(self, tmp_path, point):
        dest = tmp_path / "config.txt"
        dest.write_text(f"# window -10 10\n0.1\n{point}\n")
        with pytest.raises(DomainError, match="window"):
            load_config(dest)

    @pytest.mark.parametrize("bad", ["abc", "# window -10 ten"])
    def test_load_names_a_malformed_line(self, tmp_path, bad):
        dest = tmp_path / "config.txt"
        dest.write_text(f"# window -10 10\n0.1\n\n{bad}\n")
        with pytest.raises(DomainError, match="line 4"):
            load_config(dest)


def potential(env: ShotNoiseEnv, x: float) -> float:
    return float(env.potential_many(np.array([x]))[0])


def lambda_inv(env, x: float) -> float:
    return float(env.lambda_inv_many(np.array([x]))[0])


class TestPotential:
    def test_empty_config(self):
        env = ShotNoiseEnv(
            kernel=bump_kernel(), config=PoissonConfig(np.array([]), -10.0, 10.0)
        )
        assert potential(env, 0.0) == 0.0
        assert lambda_inv(env, 0.0) == 1.0

    def test_single_point_lorentzian(self):
        env = ShotNoiseEnv(
            kernel=lorentz_kernel(),
            config=PoissonConfig(np.array([0.0]), -500.0, 500.0),
        )
        assert potential(env, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_uncut_sum_oracle(self):
        # small cutoff versus a direct sum over every point
        kernel = power_kernel(0.5, 3.0, tail_tol=1e-3)
        cfg = sample_config((-60.0, 60.0), spawn_rng(SEED, "uncut"))
        env = ShotNoiseEnv(kernel=kernel, config=cfg)
        xs = np.linspace(-10.0, 10.0, 41)
        truncated = env.potential_many(xs)
        full = np.array(
            [float(np.sum(kernel.phi(x - cfg.points))) for x in xs]
        )
        assert np.all(truncated <= full + 1e-12)
        assert np.max(full - truncated) < 5.0 * kernel.tail_bound

    def test_boundary_error(self):
        env = ShotNoiseEnv(
            kernel=bump_kernel(), config=PoissonConfig(np.array([0.0]), -2.0, 2.0)
        )
        with pytest.raises(BoundaryError):
            potential(env, 1.5)

    def test_out_of_window_site_inside_an_unsorted_batch(self):
        env = ShotNoiseEnv(
            kernel=bump_kernel(), config=PoissonConfig(np.array([0.0]), -10.0, 10.0)
        )
        with pytest.raises(BoundaryError, match="window"):
            env.potential_many(np.array([3.0, -2.0, 9.5, 0.5, -4.0]))

    def test_points_near_slices_within_the_cutoff(self):
        pts = np.array([-5.0, -2.5, -1.0, 0.0, 2.0, 3.5, 6.0])
        env = ShotNoiseEnv(kernel=bump_kernel(), config=PoissonConfig(pts, -10.0, 10.0))
        np.testing.assert_array_equal(env.points_near(-1.5, 2.5), [-2.5, -1.0, 0.0, 2.0, 3.5])
        for lo, hi in [(-9.5, 0.0), (0.0, 9.5), (math.nan, 0.0)]:
            with pytest.raises(BoundaryError, match="window"):
                env.points_near(lo, hi)

    def test_inverse_intensity_at_least_one(self):
        # phi >= 0 forces 1/Lambda = exp(potential) >= 1 everywhere
        cfg = sample_config((-50.0, 50.0), spawn_rng(SEED, "geq1"))
        env = ShotNoiseEnv(kernel=bump_kernel(), config=cfg)
        xs = np.linspace(-40.0, 40.0, 5000)
        assert np.min(env.lambda_inv_many(xs)) >= 1.0

    def test_potential_log_two_inverts_to_two(self):
        env = ShotNoiseEnv(
            kernel=bump_kernel(math.log(2.0)),
            config=PoissonConfig(np.array([5.0]), -10.0, 20.0),
        )
        # at the point itself the bump contributes its full amplitude
        assert lambda_inv(env, 5.0) == pytest.approx(2.0, rel=1e-12)

    @pytest.fixture(params=["bump", "power"])
    def batch_env(self, request):
        kernel = bump_kernel() if request.param == "bump" else power_kernel(0.5, 3.0, tail_tol=1e-3)
        cfg = sample_config((-300.0, 300.0), spawn_rng(SEED, "batch", request.param))
        xs = spawn_rng(SEED, "batch-sites", request.param).uniform(-250.0, 250.0, 2000)
        return ShotNoiseEnv(kernel=kernel, config=cfg), xs

    def test_batch_matches_scalar_bits(self, batch_env):
        env, xs = batch_env
        scalar = np.array([potential(env, x) for x in xs])
        assert np.array_equal(env.potential_many(xs), scalar)

    def test_reversed_batch_same_bits(self, batch_env):
        env, xs = batch_env
        assert np.array_equal(env.potential_many(xs[::-1])[::-1], env.potential_many(xs))

    def test_fsum_oracle(self, batch_env):
        env, xs = batch_env
        pts, r = env.config.points, env.kernel.cutoff_r
        exact = np.array(
            [
                math.fsum(env.kernel.phi(x - pts[(pts >= x - r) & (pts <= x + r)]))
                for x in xs
            ]
        )
        np.testing.assert_allclose(env.potential_many(xs), exact, rtol=1e-14, atol=0.0)

    def test_many_neighbours_fsum_oracle(self):
        # about 500 points within the cutoff of the origin, summed in order
        pts = np.sort(spawn_rng(SEED, "crowd").uniform(-60.0, 60.0, 500))
        env = ShotNoiseEnv(kernel=power_kernel(), config=PoissonConfig(pts, -200.0, 200.0))
        assert env.kernel.cutoff_r > 60.0
        exact = math.fsum(env.kernel.phi(-pts))
        assert potential(env, 0.0) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_scratch_memory_bounded_by_the_batch(self):
        # the default power kernel reaches about 140 points per site; the
        # scratch arrays must scale with the sites, not with the pairs
        cfg = sample_config((-1200.0, 1200.0), spawn_rng(SEED, "memory"))
        env = ShotNoiseEnv(kernel=power_kernel(), config=cfg)
        xs = spawn_rng(SEED, "memory-sites").uniform(-1000.0, 1000.0, 20_000)
        tracemalloc.start()
        try:
            env.potential_many(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * xs.nbytes

    @pytest.mark.parametrize(
        "kernel", [bump_kernel(), power_kernel(0.5, 3.0, tail_tol=1e-3)], ids=["bump", "power"]
    )
    def test_far_apart_and_unreached_sites(self, kernel):
        pts = np.array([-50.3, -50.1, -49.6, 49.8, 50.0, 50.4])
        env = ShotNoiseEnv(kernel=kernel, config=PoissonConfig(pts, -200.0, 200.0))
        sites = np.array([-50.2, 0.0, 50.1, 120.0])
        out = env.potential_many(sites)
        assert out[0] == potential(env, -50.2) > 0.0
        assert out[2] == potential(env, 50.1) > 0.0
        assert out[1] == 0.0 and out[3] == 0.0


class TestExponentialMoment:
    def test_zero_exponent(self):
        assert mean_lambda_inv_analytic(bump_kernel(), 0.0) == 1.0

    def test_zero_kernel(self):
        assert mean_lambda_inv_analytic(zero_kernel(), 1.0) == 1.0

    def test_hat_kernel_closed_form(self):
        # integral of (2^(1-|x|) - 1) over [-1, 1] equals 2(1/ln 2 - 1)
        expected = math.exp(2.0 * (1.0 / math.log(2.0) - 1.0))
        assert mean_lambda_inv_analytic(hat_kernel(), 1.0) == pytest.approx(
            expected, rel=1e-10
        )

    def test_hat_kernel_against_monte_carlo(self):
        analytic = mean_lambda_inv_analytic(hat_kernel(), 1.0)
        mc, se = mc_mean_lambda_inv(hat_kernel(), 10**4, spawn_rng(SEED, "hat-mc"))
        assert abs(mc - analytic) < 3.0 * se
        assert abs(mc - analytic) / analytic < 0.01

    def test_stationarity_across_locations(self):
        # the law of Lambda(x) does not depend on x
        kernel = bump_kernel()
        rng = spawn_rng(SEED, "stationary")
        vals0, vals37 = [], []
        for _ in range(3000):
            cfg = sample_config((-3.0, 41.0), rng)
            env = ShotNoiseEnv(kernel=kernel, config=cfg)
            out = env.lambda_inv_many(np.array([0.0, 37.2]))
            vals0.append(out[0])
            vals37.append(out[1])
        diff = np.array(vals0) - np.array(vals37)
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        assert abs(diff.mean()) < 3.0 * se


class TestTheorem5Constant:
    def test_zero_kernel_gives_one(self):
        assert theorem5_constant(zero_kernel(), 1.5) == 1.0

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            theorem5_constant(bump_kernel(), 1.0)
        with pytest.raises(DomainError):
            theorem5_constant(bump_kernel(), 2.0)

    def test_consistency_with_moment(self):
        k = bump_kernel(0.4)
        alpha = 1.5
        expected = mean_lambda_inv_analytic(k, 1.0) ** (1.0 / alpha - 1.0)
        assert theorem5_constant(k, alpha) == pytest.approx(expected, rel=1e-12)


class TestQuadrature:
    """The double-exponential rule behind every deterministic constant."""

    def test_gaussian_constants(self):
        # the T2 constant sqrt(pi), and the T3 constant 2 sqrt(pi): with
        # 1/Lambda = 2 + sin(2 pi x) the odd part cancels
        value, err = _quad(lambda x: np.exp(-(x**2)), -math.inf, math.inf)
        assert value == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert err < 1e-12
        env = periodic_env(2.0, 1.0, 1.0)
        value, _ = _quad(
            lambda x: np.exp(-(x**2)) * env.lambda_inv_many(x), -math.inf, math.inf
        )
        assert value == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-14)

    def test_bump_kernel_series(self):
        # integral of (e^(A (1-|x|)^2) - 1) = 2 sum_n A^n / (n! (2n + 1))
        a = math.log(2.0)
        series = 2.0 * sum(a**n / (math.factorial(n) * (2 * n + 1)) for n in range(1, 40))
        assert _exp_phi_integral(bump_kernel(a), 1.0) == pytest.approx(series, rel=1e-13)

    def test_power_kernel_against_adaptive_quadrature(self):
        quad = pytest.importorskip("scipy.integrate").quad
        kernel = power_kernel()
        r = kernel.cutoff_r

        def h(y):
            return math.expm1(float(kernel.phi(np.array([y]))[0]))

        oracle = (
            quad(h, -r, r, points=[0.0], limit=400, epsabs=1e-13)[0]
            + quad(h, r, np.inf, limit=400, epsabs=1e-13)[0]
            + quad(h, -np.inf, -r, limit=400, epsabs=1e-13)[0]
        )
        assert _exp_phi_integral(kernel, 1.0) == pytest.approx(oracle, rel=1e-12)

    def test_finite_interval(self):
        # integral of 1/Lambda over the T3 box [-1/2, 1/2]
        env = periodic_env(2.0, 1.0, 1.0)
        value, _ = _quad(env.lambda_inv_many, -0.5, 0.5)
        assert value == pytest.approx(2.0, rel=1e-14)

    def test_jump_needs_a_breakpoint(self):
        def box(x):
            return ((x >= -0.5) & (x < 0.5)).astype(float)

        value, err = _quad(box, -math.inf, math.inf, points=(-0.5, 0.5))
        assert value == pytest.approx(1.0, rel=1e-14)
        assert err < 1e-12
        _, err = _quad(box, -math.inf, math.inf)
        assert err > 1e-6

    def test_unresolved_kernel_raises(self):
        # jumps at +-1/2, where the exp-moment rule does not split
        kernel = Kernel(
            phi=lambda x: 0.5 * (np.abs(x) < 0.5),
            bound_c=1.0,
            decay_beta=1.0,
            cutoff_r=1.0,
            compact_support=True,
        )
        with pytest.raises(QuadratureError):
            mean_lambda_inv_analytic(kernel, 1.0)


class TestCesaroError:
    def test_constant_environment_is_exact_zero(self):
        # a truly constant environment: zero kernel (ensemble mean 1) or a
        # deterministic flat profile; either way the deviation is exactly 0
        cfg = PoissonConfig(np.array([]), -200.0, 200.0)
        env = ShotNoiseEnv(kernel=zero_kernel(), config=cfg)
        assert cesaro_error(env, [10.0], 1.0) == pytest.approx([0.0], abs=1e-14)
        flat = DeterministicEnv(
            lambda_inv_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lambda_bar_inv=1.0,
        )
        assert cesaro_error(flat, [10.0], 1.0) == pytest.approx([0.0], abs=1e-13)

    def test_periodic_profile_full_periods(self):
        env = periodic_env(2.0, 1.0, 1.0)
        assert cesaro_error(env, [5.0], 1.2)[0] < 1e-6

    def test_window_too_small(self):
        cfg = PoissonConfig(np.array([0.0]), -50.0, 50.0)
        env = ShotNoiseEnv(kernel=bump_kernel(), config=cfg)
        with pytest.raises(BoundaryError):
            cesaro_error(env, [10.0], 2.0)

    def test_subdivide_matches_per_gap_linspace(self):
        rng = spawn_rng(SEED, "subdivide")
        breakpoints = np.unique(np.concatenate([[0.0], rng.uniform(0.0, 50.0, 40)]))
        expected = np.unique(
            np.concatenate(
                [breakpoints]
                + [
                    np.linspace(a, b, int(np.ceil((b - a) / 0.3)) + 1)[1:-1]
                    for a, b in zip(breakpoints[:-1], breakpoints[1:])
                ]
            )
        )
        assert np.array_equal(_subdivide(breakpoints, 0.3), expected)

    def test_shotnoise_error_shrinks_with_t(self):
        # single-config smoke version of the Cesaro-convergence trend
        cfg = sample_config((-10102.0, 10102.0), spawn_rng(77, "ces", 1))
        env = ShotNoiseEnv(kernel=bump_kernel(0.3), config=cfg)
        e20, e100 = cesaro_error(env, (20.0, 100.0), 2.0)
        assert e100 < e20

    def test_ladder_reads_each_rung_in_the_given_order(self):
        cfg = sample_config((-10102.0, 10102.0), spawn_rng(77, "ces", 1))
        env = ShotNoiseEnv(kernel=bump_kernel(0.3), config=cfg)
        up = cesaro_error(env, (20.0, 100.0), 2.0)
        # the same breakpoints either way round
        assert cesaro_error(env, (100.0, 20.0), 2.0) == up[::-1]
        # alone, a rung loses only the other rung's split points
        assert cesaro_error(env, [20.0], 2.0)[0] == pytest.approx(up[0], rel=1e-6)

    @pytest.mark.parametrize("ts", [[], [10.0, 0.0], [-1.0]])
    def test_empty_or_nonpositive_ladder_rejected(self, ts):
        with pytest.raises(DomainError):
            cesaro_error(periodic_env(), ts, 1.0)


class TestSupGrowth:
    def test_constant_environment(self):
        cfg = PoissonConfig(np.array([]), -200.0, 200.0)
        env = ShotNoiseEnv(kernel=bump_kernel(), config=cfg)
        assert sup_growth_check(env, [10, 100]) == [(10, 1.0), (100, 1.0)]

    def test_sampled_config_subpolynomial_trend(self):
        # ratios sup / n^0.1 decrease over a decade list for a gentle kernel
        wins = 0
        n_configs = 20
        for i in range(n_configs):
            cfg = sample_config((-10002.0, 10002.0), spawn_rng(SEED, "sup-growth", i))
            env = ShotNoiseEnv(kernel=bump_kernel(0.08), config=cfg)
            sups = sup_growth_check(env, [100, 1000, 10000])
            ratios = [s / n**0.1 for n, s in sups]
            wins += ratios[0] > ratios[1] > ratios[2]
        assert wins >= 0.95 * n_configs


class TestOverflow:
    # potentials past about 709.8 overflow 1/Lambda = e^E at the origin
    @staticmethod
    def stacked_env():
        # 1100 points at 0 reach a potential of 1100 ln 2 and keep E[1/Lambda],
        # which sizes a walk's blocks, finite
        return ShotNoiseEnv(kernel=bump_kernel(), config=PoissonConfig(np.zeros(1100), -1e4, 1e4))

    @pytest.fixture(params=["one point, A=1000", "1100 points, A=ln 2"])
    def env(self, request):
        if request.param.startswith("one"):
            cfg = PoissonConfig(np.array([0.0]), -1e4, 1e4)
            return ShotNoiseEnv(kernel=bump_kernel(1000.0), config=cfg)
        return self.stacked_env()

    def test_lambda_inv_many(self, env):
        assert lambda_inv(env, 2.0) == 1.0
        with pytest.raises(DomainError, match="finite"):
            env.lambda_inv_many(np.array([0.0]))

    def test_sup_growth_check(self, env):
        with pytest.raises(DomainError, match="finite"):
            sup_growth_check(env, [5])

    def test_simulate_skeleton(self):
        # with A=1000 E[1/Lambda] itself overflows before the first step
        env = self.stacked_env()
        with pytest.raises(DomainError, match="finite"):
            simulate_skeleton(Gaussian(1.0), Exponential(1.0), 10.0, spawn_rng(SEED), env=env)

    @pytest.mark.parametrize("amplitude", [10.0, 1000.0])
    def test_moment_overflow(self, amplitude):
        # A=10: the integral is finite but exp of it is not; A=1000: exp(a phi)
        # itself overflows at the origin
        with pytest.raises(DomainError, match="overflows"):
            mean_lambda_inv_analytic(bump_kernel(amplitude), 1.0)

    def test_simulate_skeleton_sized_by_an_overflowing_moment(self):
        # the block size reads E[1/Lambda] before the first step
        cfg = PoissonConfig(np.array([0.0]), -1e4, 1e4)
        env = ShotNoiseEnv(kernel=bump_kernel(1000.0), config=cfg)
        with pytest.raises(DomainError, match="overflows"):
            simulate_skeleton(Gaussian(1.0), Exponential(1.0), 10.0, spawn_rng(SEED), env=env)


class TestDeterministicEnv:
    def test_positive_lambda_enforced(self):
        env = DeterministicEnv(
            lambda_inv_fn=lambda x: np.asarray(x, dtype=float), lambda_bar_inv=1.0
        )
        with pytest.raises(DomainError):
            env.lambda_inv_many(np.array([-1.0]))

    @pytest.mark.parametrize("bad", [0.0, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_inverse_intensity_rejected(self, bad):
        env = DeterministicEnv(
            lambda_inv_fn=lambda x: np.where(np.asarray(x) > 0.0, bad, 1.0),
            lambda_bar_inv=1.0,
        )
        assert env.lambda_inv_many(np.array([-1.0, -0.5])).tolist() == [1.0, 1.0]
        with pytest.raises(DomainError):
            env.lambda_inv_many(np.array([-1.0, 0.5, -0.5]))

    def test_periodic_answers_its_definition(self):
        xs = spawn_rng(SEED, "periodic-sites").uniform(-1e3, 1e3, 10_000)
        expected = 2.0 + 0.5 * np.sin(2.0 * math.pi * 0.3 * xs)
        assert np.array_equal(periodic_env(2.0, 0.5, 0.3).lambda_inv_many(xs), expected)

    def test_periodic_needs_positive_floor(self):
        with pytest.raises(DomainError):
            periodic_env(1.0, 1.0)

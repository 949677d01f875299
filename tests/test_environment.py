import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrwlab import environment
from ctrwlab.environment import (
    DeterministicEnv,
    Kernel,
    PoissonConfig,
    ShotNoiseEnv,
    _exp_phi_integral,
    _quad,
    bump_kernel,
    mean_lambda_inv_analytic,
    periodic_env,
    power_kernel,
    sample_config,
    sup_growth_check,
    theorem5_constant,
)
from ctrwlab.errors import BoundaryError, DomainError, QuadratureError
from ctrwlab.rng import spawn_rng
from ctrwlab.stable import Gaussian
from ctrwlab.walk import Exponential, simulate_skeleton
from oracles import _subdivide, cesaro_error, mc_mean_lambda_inv, sample_config_eager

SEED = 20240808


def zero_kernel() -> Kernel:
    return Kernel(
        phi=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        bound_c=1.0,
        decay_beta=1.0,
        cutoff_r=1.0,
        name="zero",
    )


def hat_kernel(amplitude: float = math.log(2.0)) -> Kernel:
    # linear hat A*max(0, 1-|x|); continuous, compact support
    return Kernel(
        phi=lambda x: amplitude * np.clip(1.0 - np.abs(x), 0.0, None),
        bound_c=2.0 * amplitude,
        decay_beta=1.0,
        cutoff_r=1.0,
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
        # the truncated mass per unit intensity is at most 2 C r^(-beta) / beta
        k = power_kernel(0.5, 3.0)
        tail = 2.0 * k.bound_c * k.cutoff_r**-k.decay_beta / k.decay_beta
        assert tail <= environment.POWER_TAIL_TOL * (1.0 + 1e-9)

    @pytest.mark.parametrize(
        "decay_beta, tail_tol, message",
        [
            (0.0, 1e-6, "must be positive"),
            (math.nan, 1e-6, "must be positive"),
            (1e-300, 1e-6, "cutoff overflows"),
            (1e-200, 1e-200, "cutoff overflows"),
        ],
    )
    def test_power_kernel_bad_decay_or_tolerance(
        self, monkeypatch, decay_beta, tail_tol, message
    ):
        monkeypatch.setattr(environment, "POWER_TAIL_TOL", tail_tol)
        with pytest.raises(DomainError, match=message):
            power_kernel(0.5, decay_beta)

    def test_bump_kernel_exact_truncation(self):
        # phi vanishes at and beyond the cutoff, so truncation drops nothing
        k = bump_kernel(0.5)
        xs = k.cutoff_r * np.array([1.0, 1.0 + 1e-12, 1.5, 10.0, 1e6])
        assert np.all(k.phi(xs) == 0.0)
        assert np.all(k.phi(-xs) == 0.0)

    def test_bump_kernel_matches_the_clip_form_bitwise(self):
        amplitude = math.log(2.0)
        edges = np.array([0.0, 1.0, math.nan, math.inf])
        edges = np.concatenate(
            [edges, np.nextafter(edges, -math.inf), np.nextafter(edges, math.inf)]
        )
        xs = np.concatenate(
            [edges, -edges, spawn_rng(SEED, "bump-bits").uniform(-3.0, 3.0, 200_000)]
        )
        clipped = amplitude * np.clip(1.0 - np.abs(xs), 0.0, None) ** 2
        assert bump_kernel(amplitude).phi(xs).tobytes() == clipped.tobytes()


class TestPoissonConfig:
    def test_zero_length_window(self):
        cfg = sample_config((0.0, 0.0), spawn_rng(SEED, "empty"))
        assert cfg.count == 0

    def test_count_concentration(self):
        cfg = sample_config((0.0, 1000.0), spawn_rng(SEED, "count"))
        assert 900 <= cfg.count <= 1100  # +-3.16 sigma band

    def test_points_sorted_and_in_window(self):
        cfg = sample_config((-5.0, 5.0), spawn_rng(SEED, "sorted"))
        pts = cfg.between(cfg.lo, cfg.hi)
        assert np.all(np.diff(pts) >= 0)
        assert np.all((pts >= -5.0) & (pts <= 5.0))

    def test_holds_a_sorted_copy_of_explicit_points(self):
        given = np.array([5.0, -5.0, 0.0])
        cfg = PoissonConfig(given, -10.0, 10.0)
        given[:] = 7.0
        pts = cfg.between(cfg.lo, cfg.hi)
        np.testing.assert_array_equal(pts, [-5.0, 0.0, 5.0])
        assert cfg.count == pts.size == 3

    @pytest.mark.parametrize(
        "points, lo, hi",
        [([50.0], -10.0, 10.0), ([-10.5], -10.0, 10.0), ([0.0, math.nan], -10.0, 10.0),
         ([], math.nan, 10.0), ([], -10.0, math.nan), ([], 10.0, -10.0)],
        ids=["above", "below", "nan-point", "nan-lo", "nan-hi", "reversed"],
    )
    def test_rejects_a_point_outside_the_window(self, points, lo, hi):
        with pytest.raises(DomainError, match="window"):
            PoissonConfig(points, lo, hi)

    @pytest.mark.parametrize("a, b", [(-10.5, 0.0), (0.0, 10.5), (math.nan, 0.0), (0.0, math.nan)])
    def test_between_rejects_a_range_past_the_window(self, a, b):
        cfg = PoissonConfig([0.0], -10.0, 10.0)
        with pytest.raises(BoundaryError, match="window"):
            cfg.between(a, b)

    def test_disjoint_counts_uncorrelated(self):
        rng = spawn_rng(SEED, "indep", 0)
        left, right = [], []
        for _ in range(1000):
            cfg = sample_config((0.0, 2e4), rng)
            left.append(np.searchsorted(cfg.between(cfg.lo, cfg.hi), 1e4))
            right.append(cfg.count - left[-1])
        corr = np.corrcoef(left, right)[0, 1]
        assert abs(corr) < 0.05

    def test_holds_the_span_not_the_window(self):
        # of the window's 1e6 points, a read near 0 builds only the two
        # cells it meets
        tracemalloc.start()
        try:
            cfg = sample_config((-5e5, 5e5), spawn_rng(SEED, "in-place"))
            near = cfg.between(-100.0, 100.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cell = environment._CELL_WIDTH * near.itemsize
        assert peak <= 6 * cell
        assert peak <= 0.1 * cfg.count * near.itemsize

    def test_points_do_not_depend_on_the_window_or_the_reads(self):
        wide = sample_config((-1e5, 1e5), spawn_rng(SEED, "cells"))
        right = wide.between(0.0, 5e4)
        narrow = sample_config((-3e4, 6e4), spawn_rng(SEED, "cells"))
        np.testing.assert_array_equal(narrow.between(-3e4, 6e4), wide.between(-3e4, 6e4))
        np.testing.assert_array_equal(narrow.between(0.0, 5e4), right)

    def test_no_seam_at_the_cell_edges(self):
        # 20 cells' points: the gaps, those across cell edges among them,
        # are Exp(1), and the positions within their cells U(0, width)
        stats = pytest.importorskip("scipy.stats")
        width = environment._CELL_WIDTH
        cfg = sample_config((-10 * width, 10 * width), spawn_rng(SEED, "seam"))
        pts = cfg.between(cfg.lo, cfg.hi)
        assert stats.kstest(np.diff(pts), "expon").pvalue > 0.01
        assert stats.kstest(np.mod(pts, width), "uniform", args=(0.0, width)).pvalue > 0.01

    def test_window_of_too_many_cells_rejected(self):
        width = environment._CELL_WIDTH
        sample_config((0.0, (environment._MAX_CELLS - 1) * width), spawn_rng(SEED, "long"))
        with pytest.raises(DomainError, match="too long to draw its Poisson count"):
            sample_config((0.0, environment._MAX_CELLS * width), spawn_rng(SEED, "long"))
        with pytest.raises(DomainError, match="too long"):
            sample_config((0.0, math.inf), spawn_rng(SEED, "long"))

    @settings(max_examples=40, deadline=None)
    @given(
        lo=st.floats(-1e6, 1e6),
        width=st.floats(0.0, 3e5),
        seed=st.integers(0, 2**32),
        cuts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=6),
    )
    def test_matches_the_eager_oracle(self, lo, width, seed, cuts):
        hi = lo + width
        lazy_rng, eager_rng = spawn_rng(seed, "config"), spawn_rng(seed, "config")
        lazy = sample_config((lo, hi), lazy_rng)
        eager = sample_config_eager((lo, hi), eager_rng)
        assert lazy.count == eager.count
        # both draw one key from the generator and nothing more
        assert lazy_rng.bit_generator.state == eager_rng.bit_generator.state
        pts = eager.between(eager.lo, eager.hi)
        for c, d in cuts:
            a, b = lo + width * min(c, d), lo + width * max(c, d)
            np.testing.assert_array_equal(lazy.between(a, b), pts[(a <= pts) & (pts <= b)])
        np.testing.assert_array_equal(lazy.between(lazy.lo, lazy.hi), pts)


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

    def test_uncut_sum_oracle(self, monkeypatch):
        # small cutoff versus a direct sum over every point
        monkeypatch.setattr(environment, "POWER_TAIL_TOL", 1e-3)
        kernel = power_kernel(0.5, 3.0)
        cfg = sample_config((-60.0, 60.0), spawn_rng(SEED, "uncut"))
        env = ShotNoiseEnv(kernel=kernel, config=cfg)
        xs = np.linspace(-10.0, 10.0, 41)
        truncated = env.potential_many(xs)
        pts = cfg.between(cfg.lo, cfg.hi)
        full = np.array([float(np.sum(kernel.phi(x - pts))) for x in xs])
        assert np.all(truncated <= full + 1e-12)
        tail = 2.0 * kernel.bound_c * kernel.cutoff_r**-kernel.decay_beta / kernel.decay_beta
        assert np.max(full - truncated) < 5.0 * tail

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

    def test_sites_read_the_points_within_the_cutoff(self):
        pts = np.array([-5.0, -2.5, -1.0, 0.0, 2.0, 3.5, 6.0])
        env = ShotNoiseEnv(kernel=bump_kernel(), config=PoissonConfig(pts, -10.0, 10.0))
        np.testing.assert_array_equal(env.config.between(-2.5, 3.5), [-2.5, -1.0, 0.0, 2.0, 3.5])
        # sites within the cutoff of the window's edge
        for lo, hi in [(-9.5, 0.0), (0.0, 9.5), (math.nan, 0.0)]:
            with pytest.raises(BoundaryError, match="window"):
                env.potential_many(np.array([lo, hi]))

    def test_unsorted_points_give_the_sorted_potential(self):
        xs = np.array([-5.0, 0.0, 5.0])
        unsorted = ShotNoiseEnv(bump_kernel(1.0), PoissonConfig([5.0, -5.0, 0.0], -10.0, 10.0))
        ordered = ShotNoiseEnv(bump_kernel(1.0), PoissonConfig([-5.0, 0.0, 5.0], -10.0, 10.0))
        assert np.array_equal(unsorted.potential_many(xs), [1.0, 1.0, 1.0])
        assert np.array_equal(unsorted.potential_many(xs), ordered.potential_many(xs))

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
    def batch_env(self, request, monkeypatch):
        monkeypatch.setattr(environment, "POWER_TAIL_TOL", 1e-3)
        kernel = bump_kernel() if request.param == "bump" else power_kernel(0.5, 3.0)
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
        cfg, r = env.config, env.kernel.cutoff_r
        pts = cfg.between(cfg.lo, cfg.hi)
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
        env = ShotNoiseEnv(kernel=power_kernel(0.5), config=PoissonConfig(pts, -200.0, 200.0))
        assert env.kernel.cutoff_r > 60.0
        exact = math.fsum(env.kernel.phi(-pts))
        assert potential(env, 0.0) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_scratch_memory_bounded_by_the_batch(self):
        # the power kernel at A = 0.5 reaches about 140 points per site; the
        # scratch arrays must scale with the sites, not with the pairs
        cfg = sample_config((-1200.0, 1200.0), spawn_rng(SEED, "memory"))
        env = ShotNoiseEnv(kernel=power_kernel(0.5), config=cfg)
        xs = spawn_rng(SEED, "memory-sites").uniform(-1000.0, 1000.0, 20_000)
        tracemalloc.start()
        try:
            env.potential_many(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * xs.nbytes

    @pytest.mark.parametrize("name", ["bump", "power"])
    def test_far_apart_and_unreached_sites(self, monkeypatch, name):
        monkeypatch.setattr(environment, "POWER_TAIL_TOL", 1e-3)
        kernel = bump_kernel() if name == "bump" else power_kernel(0.5, 3.0)
        pts = np.array([-50.3, -50.1, -49.6, 49.8, 50.0, 50.4])
        env = ShotNoiseEnv(kernel=kernel, config=PoissonConfig(pts, -200.0, 200.0))
        sites = np.array([-50.2, 0.0, 50.1, 120.0])
        out = env.potential_many(sites)
        assert out[0] == potential(env, -50.2) > 0.0
        assert out[2] == potential(env, 50.1) > 0.0
        assert out[1] == 0.0 and out[3] == 0.0


class TestExponentialMoment:
    def test_zero_exponent(self):
        # the quadrature of exp(0 phi) - 1 = 0 is exactly 0 for either kernel
        for kernel in (bump_kernel(), power_kernel()):
            assert _exp_phi_integral(kernel, 0.0) == 0.0
            assert mean_lambda_inv_analytic(kernel, 0.0) == 1.0

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
        kernel = power_kernel(0.5)
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

    def test_grid_built_by_chunks(self):
        # the values of the whole-grid np.arange(-n, n + 0.125, 0.25) on
        # this configuration; that grid holds 8e6 + 1 doubles, 61 MiB, at
        # n = 1e6, more than the configuration and a chunk's scratch
        cfg = sample_config((-1e6 - 2.0, 1e6 + 2.0), spawn_rng(SEED, "sup-grid"))
        env = ShotNoiseEnv(kernel=bump_kernel(), config=cfg)
        tracemalloc.start()
        try:
            sups = sup_growth_check(env, [10**6, 100, 1000])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sups == [
            (100, 8.306735745114235),
            (1000, 35.77497178105302),
            (10**6, 71.50791137397378),
        ]
        assert peak < (8 * 10**6 + 1) * 8

    @pytest.mark.parametrize("n", [10, 1000, 123457])
    def test_chunked_grid_matches_the_whole_grid(self, n):
        # 123457 gives 987,657 grid points: four whole chunks and a part
        cfg = sample_config((-n - 2.0, n + 2.0), spawn_rng(SEED, "sup-chunks", n))
        env = ShotNoiseEnv(kernel=bump_kernel(), config=cfg)
        grid = np.arange(-n, n + 0.125, 0.25)
        assert sup_growth_check(env, [n]) == [(n, float(np.max(env.lambda_inv_many(grid))))]

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

    @pytest.mark.parametrize(
        "build, key",
        [
            (periodic_env, "mean_level"),
            (periodic_env, "frequency"),
            (bump_kernel, "amplitude"),
            (power_kernel, "amplitude"),
            (power_kernel, "decay_beta"),
        ],
    )
    def test_an_infinite_parameter_is_rejected(self, build, key):
        with pytest.raises(DomainError, match="finite"):
            build(**{key: math.inf})

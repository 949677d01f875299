import math

import numpy as np
import pytest

from scipy.integrate import quad

from ctrwlab.distances import ks_critical_value, ks_two_sample
from ctrwlab.errors import DomainError
from ctrwlab.levy import (
    LevyPath,
    local_time_constant,
    local_time_zero,
    sample_limit_rv,
    sample_local_time_exact,
    simulate_levy,
)
from ctrwlab.rng import spawn_rng
from ctrwlab.stable import StableParams
from oracles import empirical_chf, stable_chf

SEED = 20240808


def injected_path(values, horizon=1.0, alpha=2.0):
    values = np.asarray(values, dtype=float)
    return LevyPath(
        alpha=alpha,
        beta=0.0,
        grid_n=len(values) - 1,
        horizon_u=horizon,
        values=values,
    )


class TestSimulateLevy:
    def test_starts_at_zero(self):
        path = simulate_levy(1.5, 0.0, 1000, 1.0, spawn_rng(SEED, "z0"))
        assert path.values[0] == 0.0

    def test_grid_floor(self):
        with pytest.raises(DomainError):
            simulate_levy(1.5, 0.0, 999, 1.0, spawn_rng(SEED))

    def test_gaussian_endpoint_variance(self):
        ends = [
            simulate_levy(2.0, 0.0, 1000, 1.0, spawn_rng(SEED, "var", j)).values[-1]
            for j in range(10**4)
        ]
        assert np.var(ends) == pytest.approx(2.0, abs=0.06)

    def test_endpoint_chf(self):
        ends = np.array(
            [
                simulate_levy(1.5, 0.0, 1000, 1.0, spawn_rng(SEED, "chf", j)).values[-1]
                for j in range(10**4)
            ]
        )
        emp = empirical_chf(ends, [1.0])[0]
        assert abs(emp - stable_chf(StableParams(1.5, 0.0), 1.0)) < 0.01

    def test_self_similarity(self):
        # Z(1/2) 2^(1/alpha) should be indistinguishable from Z(1)
        alpha = 1.5
        half = np.array(
            [
                simulate_levy(alpha, 0.0, 1000, 0.5, spawn_rng(SEED, "ss-h", j)).values[-1]
                for j in range(10**4)
            ]
        )
        full = np.array(
            [
                simulate_levy(alpha, 0.0, 1000, 1.0, spawn_rng(SEED, "ss-f", j)).values[-1]
                for j in range(10**4)
            ]
        )
        assert ks_two_sample(half * 2.0 ** (1.0 / alpha), full) < 0.02


    def test_brownian_path_keeps_its_values(self):
        # the alpha = 2 route works in place: the same values as the
        # whole-array expressions it replaced
        alpha, grid_n = 2.0, 20_001
        path = simulate_levy(alpha, 0.0, grid_n, 3.0, spawn_rng(SEED, "in-place"))
        rng = spawn_rng(SEED, "in-place")
        u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, grid_n)
        w = rng.standard_exponential(grid_n)
        x = 0.0 + 1.0 ** (1.0 / alpha) * (2.0 * np.sin(u) * np.sqrt(w))
        expected = np.concatenate(([0.0], np.cumsum((3.0 / grid_n) ** (1.0 / alpha) * x)))
        assert path.values.tobytes() == expected.tobytes()


class TestLocalTimeZero:
    def test_path_away_from_zero_keeps_only_origin_term(self):
        values = np.full(1001, 10.0)
        values[0] = 0.0
        path = injected_path(values)
        est = local_time_zero(path, 0.05, [1.0])[0]
        assert est == pytest.approx(path.dt / (2.0 * 0.05), rel=1e-12)

    def test_zero_path_full_occupation(self):
        path = injected_path(np.zeros(2001))
        est = local_time_zero(path, 0.1, [1.0])[0]
        # dt * (grid_n + 1) / (2 eps), i.e. u/(2 eps) up to one grid cell
        assert est == pytest.approx(1.0 / 0.2, rel=2e-3)

    def test_counts_match_the_occupancy_cumsum(self):
        path = simulate_levy(1.5, 0.0, 10_000, 1.0, spawn_rng(SEED, "count"))
        u = [0.0, 0.1, 0.25, 0.5, 0.99, 1.0]
        cum = np.concatenate(([0], np.cumsum(np.abs(path.values) <= 0.05)))
        times = np.linspace(0.0, path.horizon_u, path.grid_n + 1)
        counts = cum[np.searchsorted(times, u, side="right")]
        expected = path.dt * counts / (2.0 * 0.05)
        assert local_time_zero(path, 0.05, u).tolist() == expected.tolist()

    # grid_n (horizon_u / grid_n) is horizon_u, below it, and above it
    @pytest.mark.parametrize("grid_n, horizon_u", [(10_000, 1.0), (3000, 3.3), (3000, 0.9)])
    def test_grid_index_is_linspaces(self, grid_n, horizon_u):
        # u at, just below and just above grid points, the first and last
        # among them, count the grid times that np.linspace gives; a path
        # held at 0 makes the count the index itself
        path = injected_path(np.zeros(grid_n + 1), horizon=horizon_u)
        times = np.linspace(0.0, horizon_u, grid_n + 1)
        picks = spawn_rng(SEED, "index-picks", grid_n).integers(0, grid_n + 1, 40)
        on = times[np.concatenate((picks, [0, 1, grid_n - 1, grid_n]))]
        u = np.concatenate((on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf)))
        u = u[u >= 0.0]
        expected = path.dt * np.searchsorted(times, u, side="right") / (2.0 * 0.05)
        assert local_time_zero(path, 0.05, u).tolist() == expected.tolist()

    def test_monotone_in_u(self):
        path = simulate_levy(1.5, 0.0, 10**4, 1.0, spawn_rng(SEED, "mono"))
        values = local_time_zero(path, 0.02, np.linspace(0.1, 1.0, 10)).tolist()
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_nan_u_rejected(self):
        path = injected_path(np.zeros(2001))
        with pytest.raises(DomainError, match="u_grid must lie within"):
            local_time_zero(path, 0.1, [0.5, math.nan])

    def test_eps_below_resolution_rejected(self):
        path = simulate_levy(2.0, 0.0, 1000, 1.0, spawn_rng(SEED, "res"))
        with pytest.raises(DomainError):
            local_time_zero(path, 1e-6, [1.0])

    def test_brownian_expectation_oracle(self):
        # E[local time at 0 up to 1] = 1/sqrt(pi) for the alpha=2 law
        total = 0.0
        n_paths = 1500
        for j in range(n_paths):
            path = simulate_levy(2.0, 0.0, 10**5, 1.0, spawn_rng(10, "bm", j))
            total += local_time_zero(path, 0.01, [1.0])[0]
        assert total / n_paths == pytest.approx(1.0 / math.sqrt(math.pi), rel=0.05)

    def test_eps_robustness(self):
        # independent ensembles at eps and eps/2 agree within 3 combined
        # standard errors
        big, small = [], []
        for j in range(800):
            path = simulate_levy(2.0, 0.0, 10**4, 1.0, spawn_rng(SEED, "rob-a", j))
            big.append(local_time_zero(path, 0.08, [1.0])[0])
            path = simulate_levy(2.0, 0.0, 10**4, 1.0, spawn_rng(SEED, "rob-b", j))
            small.append(local_time_zero(path, 0.04, [1.0])[0])
        big, small = np.array(big), np.array(small)
        combined_se = math.sqrt(
            big.var(ddof=1) / len(big) + small.var(ddof=1) / len(small)
        )
        assert abs(big.mean() - small.mean()) < 3.0 * combined_se

    def test_scaling_in_u(self):
        # E l(u) = u^(1 - 1/alpha) E l(1), checked as a paired statistic
        alpha = 2.0
        u = 0.25
        diffs = []
        for j in range(2000):
            path = simulate_levy(alpha, 0.0, 10**4, 1.0, spawn_rng(SEED, "scale", j))
            ests = local_time_zero(path, 0.05, [u, 1.0])
            diffs.append(ests[0] - u ** (1.0 - 1.0 / alpha) * ests[1])
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / math.sqrt(len(diffs))
        assert abs(diffs.mean()) < 3.0 * se


class TestExactLocalTime:
    U = (0.25, 0.5, 0.75, 1.0)

    def draws(self, alpha, beta, n, tag, u=U):
        rng = spawn_rng(SEED, "exact", tag)
        return np.vstack(
            [sample_local_time_exact(alpha, beta, u, rng) for _ in range(n)]
        )

    @pytest.mark.parametrize("alpha,beta", [(2.0, 0.0), (1.5, 0.0), (1.2, -0.8)])
    def test_moments_match_closed_form(self, alpha, beta):
        # E L_u^p = u1^p u^(gamma p) Gamma(1+p) / Gamma(1+gamma p); each
        # sample moment within 4 standard errors
        gamma = 1.0 - 1.0 / alpha
        u1 = local_time_constant(alpha, beta)
        draws = self.draws(alpha, beta, 20_000, f"moments-{alpha}-{beta}")
        for i, u in enumerate(self.U):
            for p in (1, 2):
                exact = (
                    u1**p * u ** (gamma * p) * math.gamma(1 + p)
                    / math.gamma(1 + gamma * p)
                )
                sample = draws[:, i] ** p
                se = sample.std(ddof=1) / math.sqrt(len(sample))
                assert abs(sample.mean() - exact) < 4.0 * se, (u, p)

    def test_constant_is_occupation_density(self):
        # E L_1 = u1 / Gamma(1+gamma) must equal the integral over s <= 1 of
        # the density of Z(s) at zero, s^(-1/alpha) p_1(0), with p_1(0)
        # taken from the characteristic function
        for alpha, beta in [(1.5, 0.5), (1.2, -0.8), (1.8, 1.0)]:
            params = StableParams(alpha, beta)
            p1, _ = quad(lambda x: stable_chf(params, x).real, 0.0, np.inf)
            gamma = 1.0 - 1.0 / alpha
            expected = p1 / math.pi / gamma
            got = local_time_constant(alpha, beta) / math.gamma(1.0 + gamma)
            assert got == pytest.approx(expected, rel=1e-7)

    def test_brownian_mean_is_inverse_sqrt_pi(self):
        closed = local_time_constant(2.0, 0.0) / math.gamma(1.5)
        assert closed == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
        ends = self.draws(2.0, 0.0, 20_000, "bm-mean", u=(1.0,))[:, 0]
        se = ends.std(ddof=1) / math.sqrt(len(ends))
        assert abs(ends.mean() - 1.0 / math.sqrt(math.pi)) < 4.0 * se

    def test_arcsine_law(self):
        # at alpha=2 the last zero before 1 is arcsine distributed, so no
        # local time accrues on (1/2, 1] with probability 1/2
        draws = self.draws(2.0, 0.0, 20_000, "arcsine", u=(0.5, 1.0))
        share = float(np.mean(draws[:, 1] == draws[:, 0]))
        assert abs(share - 0.5) < 4.0 * math.sqrt(0.25 / len(draws))

    @pytest.mark.parametrize("alpha,beta", [(2.0, 0.0), (1.5, 1.0), (1.1, -0.5)])
    def test_nondecreasing_in_u(self, alpha, beta):
        draws = self.draws(alpha, beta, 500, f"mono-{alpha}", u=np.linspace(0, 1, 21))
        assert np.all(draws[:, 0] == 0.0)
        assert np.all(np.diff(draws, axis=1) >= 0.0)

    def test_same_generator_same_vector(self):
        a = sample_local_time_exact(1.5, 0.3, self.U, spawn_rng(SEED, "same"))
        b = sample_local_time_exact(1.5, 0.3, self.U, spawn_rng(SEED, "same"))
        assert np.array_equal(a, b)

    def test_bad_grid_rejected(self):
        for u in ([0.5, 0.25], [-0.1, 1.0], [float("nan")], [0.5, float("inf")]):
            with pytest.raises(DomainError):
                sample_local_time_exact(1.5, 0.0, u, spawn_rng(SEED))
        with pytest.raises(DomainError):
            sample_local_time_exact(0.9, 0.0, [1.0], spawn_rng(SEED))

    def test_agrees_with_grid_estimator(self):
        # two-sample KS of the exact draws against grid occupation-time
        # estimates at alpha=2, per u, under the 99% critical value
        n_grid, n_exact = 600, 4000
        grid_n = 10**5
        # 10x the grid resolution scale dt^(1/alpha)
        eps = 10.0 * (1.0 / grid_n) ** 0.5
        grid = np.array(
            [
                local_time_zero(
                    simulate_levy(2.0, 0.0, grid_n, 1.0, spawn_rng(SEED, "ks-grid", j)),
                    eps,
                    [0.5, 1.0],
                )
                for j in range(n_grid)
            ]
        )
        exact = self.draws(2.0, 0.0, n_exact, "ks-exact", u=(0.5, 1.0))
        crit = ks_critical_value(n_grid, n_exact, 0.99)
        for i in range(2):
            assert ks_two_sample(grid[:, i], exact[:, i]) < crit


class TestSampleLimitRv:
    def test_zero_integral_gives_zeros(self):
        out = sample_limit_rv(1.5, 0.0, 0.0, [0.5, 1.0], spawn_rng(SEED, "zero"))
        assert np.array_equal(out, np.zeros(2))

    def test_constant_scales_linearly(self):
        a = sample_limit_rv(1.5, 0.0, 1.0, [1.0], spawn_rng(SEED, "lin"))
        b = sample_limit_rv(1.5, 0.0, 3.0, [1.0], spawn_rng(SEED, "lin"))
        assert b[0] == pytest.approx(3.0 * a[0], rel=1e-12)

    def test_is_constant_times_exact_local_time(self):
        out = sample_limit_rv(1.5, 0.5, 2.5, [0.5, 1.0], spawn_rng(SEED, "c"))
        local = sample_local_time_exact(1.5, 0.5, [0.5, 1.0], spawn_rng(SEED, "c"))
        assert np.allclose(out, 2.5 * local, rtol=1e-14)

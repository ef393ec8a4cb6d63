import math

import numpy as np
import pytest
from scipy.stats import kendalltau as scipy_kendalltau
from scipy.stats import norm

from basisrisk.dependence import (
    PairedObservations,
    chatterjee_xi,
    conditional_probabilities,
    eta_from_tau,
    gumbel_lambda_u,
    gumbel_mle,
    kendall_tau,
    normal_quantile,
    plateau_k,
    sample_gumbel,
    sigma_u_sq,
    tail_ci,
    tail_estimate,
    tail_lambda,
)
from conftest import rng


class TestPairedObservations:
    def test_validation(self):
        with pytest.raises(ValueError):
            PairedObservations([1.0], [1.0])
        with pytest.raises(ValueError):
            PairedObservations([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            PairedObservations([1.0, np.nan], [1.0, 2.0])


class TestConditionalProbabilities:
    def test_hand_enumerated(self):
        # rows: (w1, w2); incidents where w > 0, triggers where w >= 80
        w = np.array([
            [90.0, 85.0],
            [70.0, 0.0],
            [0.0, 95.0],
            [88.0, 60.0],
            [0.0, 0.0],
        ])
        p_inc, p_trig = conditional_probabilities(w, threshold=80.0)
        # site 1 incidents: rows 0,1,3; joint with site 2: row 0 only... row 0
        # and row 3 (w2=60>0): joint rows 0,3 -> 2/3
        assert p_inc[1, 0] == pytest.approx(2.0 / 3.0)
        # site 2 incidents: rows 0,2,3; joint: rows 0,3 -> 2/3
        assert p_inc[0, 1] == pytest.approx(2.0 / 3.0)
        # site 1 triggers: rows 0,3; site 2 triggered among them: row 0 -> 1/2
        assert p_trig[1, 0] == pytest.approx(0.5)
        # site 2 triggers: rows 0,2; site 1 triggered among them: row 0 -> 1/2
        assert p_trig[0, 1] == pytest.approx(0.5)
        assert np.isnan(p_inc[0, 0]) and np.isnan(p_trig[1, 1])

    def test_absent_when_no_conditioning_events(self):
        w = np.array([[50.0, 0.0], [60.0, 0.0]])
        p_inc, p_trig = conditional_probabilities(w, threshold=80.0)
        assert np.isnan(p_inc[0, 1])
        assert np.isnan(p_trig[0, 1]) and np.isnan(p_trig[1, 0])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            conditional_probabilities(np.ones(5), threshold=80.0)


class TestKendallTau:
    def test_comonotone_and_antimonotone(self):
        x = np.arange(10.0)
        assert kendall_tau(PairedObservations(x, 2 * x + 1)) == pytest.approx(1.0)
        assert kendall_tau(PairedObservations(x, -x)) == pytest.approx(-1.0)

    def test_matches_scipy_with_ties(self):
        r = rng(40)
        x = np.round(r.random(200), 1)
        y = np.round(r.random(200), 1)
        ref, _ = scipy_kendalltau(x, y)
        assert kendall_tau(PairedObservations(x, y)) == pytest.approx(float(ref))

    def test_constant_raises(self):
        with pytest.raises(ValueError):
            kendall_tau(PairedObservations(np.ones(5), np.arange(5.0)))


class TestChatterjeeXi:
    def test_identity_closed_form(self):
        # xi(x, x) = (m - 2) / (m + 1) for distinct values
        for m in (3, 10, 100):
            x = np.arange(float(m))
            assert chatterjee_xi(PairedObservations(x, x)) == pytest.approx(
                (m - 2) / (m + 1))

    def test_monotone_transform_invariance(self):
        r = rng(41)
        for _ in range(100):
            m = int(r.integers(5, 60))
            x = r.normal(size=m)
            y = r.normal(size=m)
            base = chatterjee_xi(PairedObservations(x, y), seed=3)
            trans = chatterjee_xi(PairedObservations(np.exp(x), y ** 3), seed=3)
            assert trans == pytest.approx(base, abs=1e-12)

    def test_independent_near_zero(self):
        r = rng(42)
        x, y = r.normal(size=5000), r.normal(size=5000)
        assert abs(chatterjee_xi(PairedObservations(x, y))) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            chatterjee_xi(PairedObservations([1.0, 2.0], [1.0, 2.0]))
        with pytest.raises(ValueError):
            chatterjee_xi(PairedObservations([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]))


class TestTailLambda:
    def test_hand_oracle(self):
        # m=6, k=2: top-2 x are indices 4,5; top-2 y are indices 3,5
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = np.array([1.0, 2.0, 3.0, 6.0, 4.0, 5.0])
        assert tail_lambda(PairedObservations(x, y), k=2) == pytest.approx(0.5)
        assert tail_lambda(PairedObservations(x, x), k=3) == pytest.approx(1.0)

    def test_k_validation(self):
        p = PairedObservations(np.arange(5.0), np.arange(5.0))
        for k in (0, 5, 7):
            with pytest.raises(ValueError):
                tail_lambda(p, k)


class TestPlateauK:
    def test_comonotone_plateau(self):
        x = np.arange(500.0)
        p = PairedObservations(x, x)
        k = plateau_k(p)
        assert 1 <= k < 500
        # comonotone data: lambda_hat(k) = 1 everywhere, so the estimate at
        # the chosen k is exact
        assert tail_lambda(p, k) == pytest.approx(1.0)

    def test_minimum_size(self):
        p = PairedObservations(np.arange(10.0), np.arange(10.0))
        with pytest.raises(ValueError):
            plateau_k(p)

    def test_fallback_is_sqrt_m(self):
        # a wildly non-plateauing series with a tiny window forces the fallback
        r = rng(43)
        x, y = r.normal(size=100), r.normal(size=100)
        k = plateau_k(PairedObservations(x, y), range_factor=1e-9)
        assert k == math.isqrt(100)


class TestGumbelModel:
    def test_lambda_and_sigma_closed_forms(self):
        assert gumbel_lambda_u(1.0) == pytest.approx(0.0)
        assert gumbel_lambda_u(2.0) == pytest.approx(2.0 - math.sqrt(2.0))
        # independence: zero asymptotic variance
        assert sigma_u_sq(1.0) == pytest.approx(0.0, abs=1e-15)
        # eta = 2 reference value
        s2 = (2.0 ** 1.5 - 2.0) * (2.0 ** -0.5 - 0.5)
        assert sigma_u_sq(2.0) == pytest.approx(s2, abs=1e-15)
        assert s2 == pytest.approx(0.17157287525381, abs=1e-11)
        for fn in (gumbel_lambda_u, sigma_u_sq, eta_from_tau):
            with pytest.raises(ValueError):
                fn(-0.5) if fn is eta_from_tau else fn(0.5)

    def test_eta_from_tau(self):
        assert eta_from_tau(0.0) == 1.0
        assert eta_from_tau(0.5) == 2.0

    def test_sampler_tau_consistency(self):
        for eta in (1.5, 3.0):
            pairs = sample_gumbel(eta, 20_000, seed=7)
            tau = kendall_tau(pairs)
            assert tau == pytest.approx(1.0 - 1.0 / eta, abs=0.02)
        # eta = 1 is independence
        pairs = sample_gumbel(1.0, 20_000, seed=8)
        assert abs(kendall_tau(pairs)) < 0.02

    @pytest.mark.parametrize("eta", [0.999, 0.5, -2.0])
    def test_sampler_rejects_eta_below_one(self, eta):
        with pytest.raises(ValueError, match="eta must be >= 1"):
            sample_gumbel(eta, 100, seed=1)

    def test_mle_recovery(self):
        pairs = sample_gumbel(2.0, 4000, seed=9)
        eta_hat = gumbel_mle(pairs)
        assert eta_hat == pytest.approx(2.0, abs=0.15)

    def test_mle_validation(self):
        with pytest.raises(ValueError):
            gumbel_mle(PairedObservations(np.arange(5.0), np.arange(5.0)))


class TestNormalQuantile:
    def test_against_scipy(self):
        for p in (1e-6, 0.001, 0.025, 0.3, 0.5, 0.7, 0.975, 0.999, 1 - 1e-6):
            assert normal_quantile(p) == pytest.approx(float(norm.ppf(p)), abs=1e-8)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestTailCI:
    def test_degenerate_width_at_independence(self):
        lo, hi = tail_ci(0.3, k=50, eta_hat=1.0)
        assert lo == hi == pytest.approx(0.3)

    def test_symmetric_width(self):
        lo, hi = tail_ci(0.5, k=100, eta_hat=2.0, level=0.95)
        z = normal_quantile(0.975)
        half = z * math.sqrt(sigma_u_sq(2.0) / 100)
        assert hi - 0.5 == pytest.approx(half)
        assert 0.5 - lo == pytest.approx(half)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_validation(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            tail_ci(0.5, k=k, eta_hat=2.0)


class TestTailEstimate:
    def test_end_to_end_recovery(self):
        # mean absolute error over seeds for the Gumbel(eta=2) ground truth
        lam_true = gumbel_lambda_u(2.0)
        errs, eta_errs, covered = [], [], 0
        for seed in range(10):
            pairs = sample_gumbel(2.0, 2000, seed=seed)
            est = tail_estimate(pairs)
            errs.append(abs(est.lambda_hat - lam_true))
            eta_errs.append(abs(est.eta_hat - 2.0))
            if est.ci_low <= lam_true <= est.ci_high:
                covered += 1
        assert np.mean(errs) <= 0.08
        assert np.mean(eta_errs) <= 0.15
        assert covered >= 5

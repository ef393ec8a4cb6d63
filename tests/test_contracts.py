import numpy as np
import pytest

from basisrisk.contracts import (
    AnalyticConditioner,
    BasisRiskOptimal,
    ContractSpec,
    DegenerateTriggerError,
    EmpiricalBinConditioner,
    ExponentialConditioner,
    InsufficientConditionalDataError,
    LossIndexSample,
    PayoutVector,
    PremiumPrinciple,
    PureUtility,
    asymmetric_objective,
    basis_risk,
    fit_piecewise_linear,
    index_payout,
    premium,
    pure_parametric_payout,
    split_by_trigger,
)
from basisrisk.expectile import EmpiricalSample, expectile, expectile_exponential
from basisrisk.weighting_pure import UtilityContext
from conftest import rng


def toy_sample():
    indices = np.array([50.0, 90.0, 100.0, 70.0, 120.0])
    losses = np.array([0.0, 10.0, 20.0, 1.0, 40.0])
    return LossIndexSample(losses, indices)


class TestContractSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContractSpec(t_lo=83.0, rho=0.0)
        with pytest.raises(ValueError):
            ContractSpec(t_lo=83.0, building_value=-1.0)
        with pytest.raises(ValueError):
            ContractSpec(t_lo=90.0, t_hi=90.0)

    @pytest.mark.parametrize("field", ["rho", "building_value", "t_lo", "t_hi", "cap"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError):
            ContractSpec(**{"t_lo": 83.0, field: np.nan})

    def test_trigger_interval_half_open(self):
        spec = ContractSpec(t_lo=83.0, t_hi=120.0)
        mask = spec.in_trigger(np.array([82.9, 83.0, 119.9, 120.0]))
        assert mask.tolist() == [False, True, True, False]

    def test_attachment_cap_defaults(self):
        spec = ContractSpec(t_lo=83.0, building_value=50.0)
        assert spec.attachment == 83.0
        assert spec.cap == 50.0


class TestLossIndexSample:
    def test_validation(self):
        with pytest.raises(ValueError):
            LossIndexSample([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            LossIndexSample([-1.0], [1.0])
        with pytest.raises(ValueError):
            LossIndexSample([np.nan], [1.0])

    def test_csv_round_trip_exact(self, tmp_path):
        sample = toy_sample()
        path = tmp_path / "s.csv"
        sample.to_csv(path)
        back = LossIndexSample.from_csv(path)
        assert np.array_equal(back.losses, sample.losses)
        assert np.array_equal(back.indices, sample.indices)


class TestSplitAndPayouts:
    def test_split_partition(self):
        spec = ContractSpec(t_lo=83.0)
        trig, untrig = split_by_trigger(toy_sample(), spec)
        assert sorted(trig.indices.tolist()) == [90.0, 100.0, 120.0]
        assert sorted(untrig.indices.tolist()) == [50.0, 70.0]
        assert len(trig) + len(untrig) == 5

    def test_split_degenerate(self):
        with pytest.raises(DegenerateTriggerError):
            split_by_trigger(toy_sample(), ContractSpec(t_lo=10.0))
        with pytest.raises(DegenerateTriggerError):
            split_by_trigger(toy_sample(), ContractSpec(t_lo=500.0))

    def test_pure_parametric_payout(self):
        spec = ContractSpec(t_lo=83.0)
        pay = pure_parametric_payout(toy_sample(), spec, 0.5)
        level = np.mean([10.0, 20.0, 40.0])
        expected = np.array([0.0, level, level, 0.0, level])
        assert np.allclose(pay.payments, expected, atol=1e-12)

    def test_index_payout_exponential_conditioner(self):
        spec = ContractSpec(t_lo=83.0)
        cond = ExponentialConditioner(lambda th: 0.1 * th)
        pay = index_payout(toy_sample(), spec, 0.7, cond)
        unit = expectile_exponential(1.0, 0.7)
        expected = np.array([0.0, 9.0 * unit, 10.0 * unit, 0.0, 12.0 * unit])
        assert np.allclose(pay.payments, expected, rtol=1e-12)

    def test_payout_vector_validation(self):
        with pytest.raises(ValueError):
            PayoutVector(np.array([-1.0]))
        with pytest.raises(ValueError):
            PayoutVector(np.array([np.inf]))


class TestPremium:
    def test_three_principles(self):
        y = np.array([0.0, 0.0, 10.0, 10.0])
        pay = PayoutVector(y)
        m, sd, var = y.mean(), y.std(), y.var()
        rho = 0.3
        spec_e = ContractSpec(t_lo=1.0, rho=rho, principle=PremiumPrinciple.EXPECTED_VALUE)
        spec_s = ContractSpec(t_lo=1.0, rho=rho, principle=PremiumPrinciple.STD_DEV)
        spec_v = ContractSpec(t_lo=1.0, rho=rho, principle=PremiumPrinciple.VARIANCE)
        assert premium(pay, spec_e) == pytest.approx((1 + rho) * m)
        assert premium(pay, spec_s) == pytest.approx(m + rho * sd)
        assert premium(pay, spec_v) == pytest.approx(m + rho * var)


class TestBasisRisk:
    def test_sign_convention(self):
        pay = PayoutVector(np.array([5.0, 0.0]))
        b = basis_risk(np.array([3.0, 2.0]), pay)
        # positive = overcompensation
        assert b.tolist() == [2.0, -2.0]

    def test_misaligned_lengths_rejected(self):
        with pytest.raises(ValueError, match="must align"):
            basis_risk(np.array([3.0, 2.0, 1.0]), PayoutVector(np.array([5.0, 0.0])))

    def test_asymmetric_objective_oracle(self):
        losses = np.array([4.0, 1.0])
        pay = PayoutVector(np.array([1.0, 3.0]))
        a = 0.3
        expected = np.mean([(a * 3.0) ** 2, ((1 - a) * 2.0) ** 2])
        assert asymmetric_objective(losses, pay, a) == pytest.approx(expected)

    def test_expectile_minimizes_objective(self):
        # the conditional expectile payout minimizes the asymmetric objective
        # within constant-on-trigger schemes
        r = rng(7)
        idx = r.uniform(60, 140, 4000)
        losses = np.clip(r.normal(idx - 60, 10), 0, None)
        sample = LossIndexSample(losses, idx)
        spec = ContractSpec(t_lo=83.0)
        a = 0.7
        from basisrisk.expectile import gamma_from_alpha
        g = gamma_from_alpha(a)
        best = pure_parametric_payout(sample, spec, g)
        obj_best = asymmetric_objective(losses, best, a)
        mask = spec.in_trigger(idx)
        for delta in (-1.0, -0.1, 0.1, 1.0):
            other = PayoutVector(np.where(mask, best.payments + delta, 0.0))
            assert asymmetric_objective(losses, other, a) >= obj_best


class TestEmpiricalBinConditioner:
    def test_min_bin_count_enforced(self):
        r = rng(8)
        trig = LossIndexSample(r.random(100), r.uniform(83, 140, 100))
        with pytest.raises(InsufficientConditionalDataError):
            EmpiricalBinConditioner(trig, n_bins=10, min_bin_count=50)

    def test_n_bins_validated(self):
        trig = LossIndexSample(np.ones(10), np.linspace(83, 140, 10))
        with pytest.raises(ValueError, match="n_bins must be >= 1"):
            EmpiricalBinConditioner(trig, n_bins=0)

    def test_piecewise_constant_expectiles(self):
        r = rng(9)
        n = 2000
        idx = np.sort(r.uniform(83, 140, n))
        losses = idx - 80 + r.normal(0, 1, n)
        trig = LossIndexSample(np.clip(losses, 0, None), idx)
        cond = EmpiricalBinConditioner(trig, n_bins=4, min_bin_count=100)
        assert cond.bin_centers.size == 4
        assert np.all(np.diff(cond.bin_centers) > 0)
        # expectile at a bin center equals the bin sample's expectile
        vals = cond.conditional_expectile(cond.bin_centers, 0.6)
        for b in range(4):
            assert vals[b] == pytest.approx(expectile(cond.bin_samples[b], 0.6))
        # assignment maps arbitrary thetas to the nearest bin by edges
        assert cond.assign([0.0]).item() == 0
        assert cond.assign([1e9]).item() == 3

    def test_analytic_conditioner(self):
        cond = AnalyticConditioner(lambda th, g: th * g)
        out = cond.conditional_expectile(np.array([2.0, 3.0]), 0.25)
        assert np.allclose(out, [0.5, 0.75])


class TestFitPiecewiseLinear:
    def test_recovers_exact_linear_loss(self):
        r = rng(10)
        idx = r.uniform(60, 140, 5000)
        spec = ContractSpec(t_lo=83.0, building_value=100.0)
        true_slope = 1.7
        losses = np.minimum(np.maximum(0.0, true_slope * (idx - spec.attachment)),
                            spec.cap)
        sample = LossIndexSample(losses, idx)
        fit = fit_piecewise_linear(sample, spec, BasisRiskOptimal(gamma_star=0.5))
        assert fit.slope == pytest.approx(true_slope, rel=1e-4)
        assert fit.objective == pytest.approx(0.0, abs=1e-8)
        assert not fit.at_lower_boundary

    def test_matches_dense_scan_oracle(self):
        r = rng(11)
        idx = r.uniform(60, 140, 2000)
        losses = np.clip(1.2 * (idx - 83) + r.normal(0, 8, 2000), 0, 100)
        sample = LossIndexSample(losses, idx)
        spec = ContractSpec(t_lo=83.0)
        g = 0.75
        fit = fit_piecewise_linear(sample, spec, BasisRiskOptimal(gamma_star=g))

        def obj(lam):
            y = np.minimum(np.maximum(0.0, lam * (idx - spec.attachment)), spec.cap)
            d = losses - y
            return np.mean(g * np.clip(d, 0, None) ** 2
                           + (1 - g) * np.clip(-d, 0, None) ** 2)

        lam_max = spec.cap / (idx.max() - spec.attachment)
        dense = np.linspace(lam_max / 20000, lam_max, 20000)
        best = dense[np.argmin([obj(l) for l in dense])]
        assert fit.slope == pytest.approx(best, abs=2 * lam_max / 20000)

    def test_pure_utility_mode(self):
        r = rng(12)
        idx = r.uniform(60, 140, 3000)
        losses = np.clip(1.0 * (idx - 83) + r.normal(0, 5, 3000), 0, 100)
        sample = LossIndexSample(losses, idx)
        spec = ContractSpec(t_lo=83.0, rho=0.05)
        util = UtilityContext.exponential(beta=0.05, w0=120.0)
        fit = fit_piecewise_linear(sample, spec, PureUtility(utility=util))
        assert 0 < fit.slope
        # fitted slope beats nearby slopes on the same criterion
        def negu(lam):
            y = np.minimum(np.maximum(0.0, lam * (idx - spec.attachment)), spec.cap)
            pi = (1 + spec.rho) * y.mean()
            return -np.mean(util.u(120.0 - losses + y - pi))
        assert negu(fit.slope) <= min(negu(fit.slope * 0.9), negu(fit.slope * 1.1)) + 1e-12

    def test_gamma_star_validated(self):
        sample = toy_sample()
        spec = ContractSpec(t_lo=83.0)
        with pytest.raises(ValueError):
            fit_piecewise_linear(sample, spec, BasisRiskOptimal(gamma_star=1.5))

    def test_unknown_mode_rejected(self):
        with pytest.raises(TypeError, match="unknown fit mode"):
            fit_piecewise_linear(toy_sample(), ContractSpec(t_lo=83.0), object())

    def test_no_data_beyond_attachment(self):
        sample = LossIndexSample([1.0, 2.0], [10.0, 20.0])
        spec = ContractSpec(t_lo=83.0)
        with pytest.raises(ValueError):
            fit_piecewise_linear(sample, spec, BasisRiskOptimal(gamma_star=0.5))

    @pytest.mark.parametrize("rho", [0.05, 0.3])
    @pytest.mark.parametrize("util", [UtilityContext.exponential(beta=0.05, w0=120.0),
                                      UtilityContext.power(eta=3.0, w0=150.0)],
                             ids=["exponential", "power"])
    def test_pure_utility_matches_dense_scan_oracle(self, util, rho):
        # -u of a concave utility is convex in the slope below lam_max, so the
        # one search lands within a step of the best slope of a dense scan
        r = rng(13)
        idx = r.uniform(60, 140, 3000)
        losses = np.clip(1.0 * (idx - 83) + r.normal(0, 5, 3000), 0, 100)
        spec = ContractSpec(t_lo=83.0, rho=rho)
        fit = fit_piecewise_linear(LossIndexSample(losses, idx), spec, PureUtility(utility=util))

        def negu(lam):
            y = np.minimum(np.maximum(0.0, lam * (idx - spec.attachment)), spec.cap)
            return -float(np.mean(util.u(util.w0 - losses + y - (1 + spec.rho) * y.mean())))

        lam_max = spec.cap / (idx.max() - spec.attachment)
        dense = np.linspace(lam_max / 4000, lam_max, 4000)
        vals = [negu(lam) for lam in dense]
        best = int(np.argmin(vals))
        assert 0 < best < dense.size - 1  # an interior optimum
        assert fit.slope == pytest.approx(dense[best], abs=lam_max / 4000)
        assert fit.objective <= vals[best] + 1e-12
        assert not fit.at_lower_boundary

    def test_zero_losses_fit_at_the_lower_boundary(self, caplog):
        # no loss to cover: the basis-risk criterion (1 - g) E[Y^2] is least at slope 0
        idx = np.array([70.0, 90.0, 100.0, 120.0])
        spec = ContractSpec(t_lo=83.0)
        with caplog.at_level("WARNING"):
            fit = fit_piecewise_linear(LossIndexSample(np.zeros(4), idx), spec,
                                       BasisRiskOptimal(gamma_star=0.5))
        lam_max = spec.cap / (idx.max() - spec.attachment)
        assert fit.at_lower_boundary
        assert caplog.messages == ["fitted slope at lower boundary (near-zero payouts)"]
        assert 0 < fit.slope <= 1e-9 * lam_max
        assert fit.objective <= 1e-12

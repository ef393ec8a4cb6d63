import math

import numpy as np
import pytest

from basisrisk.contracts import ContractSpec, LossIndexSample, PremiumPrinciple
from basisrisk.expectile import EmpiricalSample, expectile, gamma_from_alpha
from basisrisk.hazard import LossModelParams, simulate_losses
from basisrisk.weighting_pure import (
    Decision,
    MonotonicityError,
    PremiumDominatesError,
    TriggeredSplit,
    UtilityContext,
    UtilityDomainError,
    _fallback_decision,
    _FirstOrderSystem,
    _LEVEL_RANGE,
    _pure_system,
    check_bounds,
    closed_form_exponential,
    expected_utility_constant_payout,
    solve_gamma_star,
    utility_curve,
    v1_v2,
    violated_boundary_decision,
)
from conftest import rng


def smooth_split(seed=20, n=20_000, p_scale=1.0):
    """A well-behaved split with an interior optimum under mild loading."""
    r = rng(seed)
    trig = EmpiricalSample(r.gamma(4.0, 5.0, n) + 5.0)
    untrig = EmpiricalSample(r.gamma(2.0, 1.0, n))
    return TriggeredSplit(trig, untrig, 0.3 * p_scale)


class TestUtilityContext:
    def test_exponential_derivatives(self):
        u = UtilityContext.exponential(beta=0.5, w0=10.0)
        x = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(u.u(x), 1 - np.exp(-0.5 * x))
        assert np.allclose(u.u_prime(x), 0.5 * np.exp(-0.5 * x))
        u.check_support(x)

    def test_power_domain(self):
        u = UtilityContext.power(eta=2.0, w0=10.0)
        assert u.u(1.0) == pytest.approx(0.0)
        with pytest.raises(UtilityDomainError):
            u.u(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            UtilityContext.power(eta=1.0, w0=10.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_parameters_rejected(self, value):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            UtilityContext.exponential(beta=value)
        with pytest.raises(ValueError, match="eta must be positive, finite"):
            UtilityContext.power(eta=value, w0=10.0)

    def test_largest_finite_parameters_accepted(self):
        big = np.finfo(np.float64).max
        assert UtilityContext.exponential(beta=big).beta == big
        UtilityContext.power(eta=big, w0=10.0)

    def test_check_support_rejects_non_increasing(self):
        u = UtilityContext.custom(u=lambda x: -x, u_prime=lambda x: -np.ones_like(x),
                                  u_second=lambda x: np.zeros_like(x), w0=0.0)
        with pytest.raises(UtilityDomainError, match="marginal utility"):
            u.check_support(np.array([1.0, 2.0]))

    def test_check_support_rejects_convex(self):
        u = UtilityContext.custom(u=lambda x: x ** 2, u_prime=lambda x: 2 * x,
                                  u_second=lambda x: 2.0 * np.ones_like(x), w0=0.0)
        with pytest.raises(UtilityDomainError):
            u.check_support(np.array([1.0, 2.0]))


class TestTriggeredSplit:
    def test_p_validation(self):
        s = EmpiricalSample([1.0])
        for p in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                TriggeredSplit(s, s, p)

    def test_from_sample_and_moments(self):
        sample = LossIndexSample([1.0, 2.0, 10.0, 20.0], [50.0, 60.0, 90.0, 95.0])
        split = TriggeredSplit.from_sample(sample, ContractSpec(t_lo=83.0))
        assert split.p == 0.5
        assert split.mean_loss() == pytest.approx(np.mean([1, 2, 10, 20]))
        assert split.var_loss() == pytest.approx(np.var([1, 2, 10, 20]))

    def test_untriggered_side_never_builds_knot_ratio(self):
        split = smooth_split()
        sol = solve_gamma_star(split, ContractSpec(t_lo=83.0, rho=0.2),
                               UtilityContext.exponential(beta=0.1))
        assert sol.gamma_star is not None
        assert split.triggered._knot_ratio is not None
        assert split.untriggered._knot_ratio is None

    @pytest.mark.parametrize("beta", [0.1, None], ids=["exponential", "power"])
    def test_pure_solve_leaves_untriggered_side_unsorted(self, beta):
        theta = 25.0 + 110.0 * rng(3).beta(2.0, 2.8, size=20_000)
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        split = TriggeredSplit.from_sample(simulate_losses(theta, LossModelParams(), 3), spec)
        utility = (UtilityContext.exponential(beta=beta) if beta is not None
                   else UtilityContext.power(eta=3.0, w0=120.0))
        sol = solve_gamma_star(split, spec, utility)
        assert sol.decision is Decision.INTERIOR_OPTIMUM
        assert split.triggered._sorted is not None
        assert split.untriggered._sorted is None


class TestV1V2:
    def test_signs_and_monotonicity(self):
        split = smooth_split()
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        util = UtilityContext.exponential(beta=0.1, w0=0.0)
        gs = np.linspace(0.01, 0.99, 50)
        v1s, v2s = zip(*(v1_v2(split, spec, util, float(g)) for g in gs))
        assert all(v > 0 for v in v1s) and all(v > 0 for v in v2s)
        assert np.all(np.diff(v1s) < 0)
        assert np.all(np.diff(v2s) > 0)

    def test_premium_dominates(self):
        split = smooth_split()
        split.p = 0.9
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        util = UtilityContext.exponential(beta=0.1)
        with pytest.raises(PremiumDominatesError):
            v1_v2(split, spec, util, 0.5)


class TestSolveGammaStar:
    def test_interior_matches_utility_grid_oracle(self):
        split = smooth_split()
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        util = UtilityContext.exponential(beta=0.1, w0=0.0)
        sol = solve_gamma_star(split, spec, util)
        assert sol.decision is Decision.INTERIOR_OPTIMUM
        gs = np.linspace(0.001, 0.999, 1999)
        us = [expected_utility_constant_payout(split, spec, util,
                                               expectile(split.triggered, float(g)))
              for g in gs]
        g_oracle = gs[int(np.argmax(us))]
        assert sol.gamma_star == pytest.approx(g_oracle, abs=2e-3)
        assert sol.alpha_star is not None and 0 < sol.alpha_star < 1
        assert gamma_from_alpha(sol.alpha_star).gamma == pytest.approx(sol.gamma_star,
                                                                       abs=1e-9)

    def test_variance_principle_interior(self):
        split = smooth_split()
        spec = ContractSpec(t_lo=83.0, rho=0.005,
                            principle=PremiumPrinciple.VARIANCE)
        util = UtilityContext.exponential(beta=0.1)
        sol = solve_gamma_star(split, spec, util)
        assert sol.decision is Decision.INTERIOR_OPTIMUM
        gs = np.linspace(0.001, 0.999, 1999)
        us = [expected_utility_constant_payout(split, spec, util,
                                               expectile(split.triggered, float(g)))
              for g in gs]
        assert sol.gamma_star == pytest.approx(gs[int(np.argmax(us))], abs=2e-3)

    def test_std_dev_principle_interior(self):
        split = smooth_split()
        spec = ContractSpec(t_lo=83.0, rho=0.15,
                            principle=PremiumPrinciple.STD_DEV)
        util = UtilityContext.exponential(beta=0.1)
        sol = solve_gamma_star(split, spec, util)
        assert sol.decision is Decision.INTERIOR_OPTIMUM
        gs = np.linspace(0.001, 0.999, 1999)
        us = [expected_utility_constant_payout(split, spec, util,
                                               expectile(split.triggered, float(g)))
              for g in gs]
        assert sol.gamma_star == pytest.approx(gs[int(np.argmax(us))], abs=2e-3)

    def test_restrict_endpoints(self):
        split = smooth_split()
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        util = UtilityContext.exponential(beta=0.1)
        free = solve_gamma_star(split, spec, util)
        g_star = free.gamma_star
        hi_window = (min(g_star + 0.1, 0.98), 0.99)
        sol_low = solve_gamma_star(split, spec, util, restrict=hi_window)
        assert sol_low.decision is Decision.ENDPOINT_LOW
        assert sol_low.gamma_star == pytest.approx(hi_window[0])
        lo_window = (0.01, max(g_star - 0.1, 0.02))
        sol_high = solve_gamma_star(split, spec, util, restrict=lo_window)
        assert sol_high.decision is Decision.ENDPOINT_HIGH
        assert sol_high.gamma_star == pytest.approx(lo_window[1])
        # restriction containing the optimum reproduces it
        sol_in = solve_gamma_star(split, spec, util,
                                  restrict=(g_star - 0.05, g_star + 0.05))
        assert sol_in.decision is Decision.INTERIOR_OPTIMUM
        assert sol_in.gamma_star == pytest.approx(g_star, abs=1e-6)

    def test_restrict_validated(self):
        split = smooth_split()
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        util = UtilityContext.exponential(beta=0.1)
        with pytest.raises(ValueError, match="restriction must satisfy"):
            solve_gamma_star(split, spec, util, restrict=(0.6, 0.4))

    def test_monotonicity_error_on_convex_utility(self):
        split = smooth_split()
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        convex = UtilityContext.custom(
            u=lambda x: np.exp(0.05 * x), u_prime=lambda x: 0.05 * np.exp(0.05 * x),
            u_second=lambda x: 0.0025 * np.exp(0.05 * x), w0=0.0)
        with pytest.raises(MonotonicityError):
            solve_gamma_star(split, spec, convex)

    def test_trace_shape(self):
        split = smooth_split()
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        util = UtilityContext.exponential(beta=0.1)
        sol = solve_gamma_star(split, spec, util, grid_size=64)
        assert sol.trace["gamma"].shape == (64,)
        assert sol.trace["v1"].shape == (64,)

    def test_overflowing_u_prime_is_a_domain_error(self):
        # the CLI's wind_beta stand-in at seed 1: beta * max S = 10 * ~88 > 709,
        # so u' overflows at the worst wealth and V1 is inf at most trace levels
        theta = 25.0 + 110.0 * rng(1).beta(2.0, 2.8, size=20_000)
        sample = simulate_losses(theta, LossModelParams(), 1)
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        split = TriggeredSplit.from_sample(sample, spec)
        with pytest.raises(UtilityDomainError, match="overflow"):
            solve_gamma_star(split, spec, UtilityContext.exponential(beta=10.0))


class TestViolatedBoundaryDecisions:
    def two_point(self, rho, a, p):
        return (TriggeredSplit(EmpiricalSample([5.0, 10.0]),
                               EmpiricalSample([0.0, a]), p),
                ContractSpec(t_lo=83.0, rho=rho),
                UtilityContext.exponential(beta=0.1, w0=10.0))

    def test_prefer_smallest_alpha(self):
        split, spec, util = self.two_point(0.1, 4.0, 0.5)
        sol = solve_gamma_star(split, spec, util)
        assert not sol.lower_bound_holds
        assert sol.decision is Decision.PREFER_SMALLEST_ALPHA

    def test_prefer_no_insurance(self):
        for rho, a, p in ((0.2, 4.0, 0.5), (0.3, 1.0, 0.6)):
            split, spec, util = self.two_point(rho, a, p)
            sol = solve_gamma_star(split, spec, util)
            assert sol.decision is Decision.PREFER_NO_INSURANCE

    def upper_violated(self):
        # an untriggered-state gain keeps off-trigger marginal utility low, so
        # even the maximal payout level remains beneficial on trigger
        split = TriggeredSplit(EmpiricalSample([9.9, 10.0]),
                               EmpiricalSample([-2.0, -2.0]), 0.3)
        spec = ContractSpec(t_lo=83.0, rho=0.01)
        util = UtilityContext.exponential(beta=2.0, w0=0.0)
        return split, spec, util

    def test_prefer_indemnity(self):
        split, spec, util = self.upper_violated()
        lower, upper, _ = check_bounds(split, spec, util)
        assert lower and not upper
        sol = solve_gamma_star(split, spec, util)
        assert sol.decision is Decision.PREFER_INDEMNITY

    def test_prefer_largest_alpha_when_indemnity_expensive(self):
        split, spec, util = self.upper_violated()
        sol = solve_gamma_star(split, spec, util, rho_indemnity=5.0 * spec.rho)
        assert sol.decision is Decision.PREFER_LARGEST_ALPHA

    def test_raises_when_bounds_hold(self):
        split = smooth_split()
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        util = UtilityContext.exponential(beta=0.1)
        with pytest.raises(ValueError):
            violated_boundary_decision(split, spec, util, rho_indemnity=0.2)


def _mean(xs):
    return sum(xs) / len(xs)


def _lower_threshold(principle, rho, p):
    """v0 at or below which no insurance is preferred, by hand."""
    if principle is PremiumPrinciple.VARIANCE:
        return 1.0
    if principle is PremiumPrinciple.EXPECTED_VALUE:
        c = (1.0 + rho) * p
    else:
        c = p + rho * math.sqrt(p * (1.0 - p))
    return (1.0 - p) * c / (p * (1.0 - c))


def _lower_violated_oracle(t, u, p, principle, rho, beta, w0):
    """The lower-violated decision under exponential utility, in plain floats.

    v0 = E_T[u'(w0 - S)] / E_U[u'(w0 - S)]; above the threshold, compare
    the expected utility of the payout min(t) on trigger against none.
    """
    v0 = _mean([math.exp(beta * s) for s in t]) / _mean([math.exp(beta * s) for s in u])
    if v0 <= _lower_threshold(principle, rho, p):
        return Decision.PREFER_NO_INSURANCE

    def util(x):
        return 1.0 - math.exp(-beta * x)

    def expected_utility(y):
        if principle is PremiumPrinciple.EXPECTED_VALUE:
            pi = (1.0 + rho) * p * y
        elif principle is PremiumPrinciple.STD_DEV:
            pi = p * y + rho * y * math.sqrt(p * (1.0 - p))
        else:
            pi = p * y + rho * y * y * p * (1.0 - p)
        return (p * _mean([util(w0 - s + y - pi) for s in t])
                + (1.0 - p) * _mean([util(w0 - s - pi) for s in u]))

    return (Decision.PREFER_SMALLEST_ALPHA if expected_utility(min(t)) > expected_utility(0.0)
            else Decision.PREFER_NO_INSURANCE)


class TestFallbackDecisionThresholds:
    """_fallback_decision on both sides of each threshold, with explicit flags."""

    @pytest.mark.parametrize("principle", list(PremiumPrinciple))
    def test_lower_violated(self, principle):
        beta, w0, p, rho = 0.1, 10.0, 0.4, 0.1
        t = [0.05, 6.0]
        spec = ContractSpec(t_lo=83.0, rho=rho, principle=principle)
        util = UtilityContext.exponential(beta=beta, w0=w0)
        # untriggered losses (0, a) put v0 on the threshold at a = a_star.
        # Just below it V1(0) > V2(0) by 1.5e-7 to 4e-7 relative, so the short-cut
        # does not fire, and the utility comparison gives no insurance too:
        # expected utility is concave in the payout and nearly flat at 0.
        thr = _lower_threshold(principle, rho, p)
        a_star = math.log(2.0 * _mean([math.exp(beta * s) for s in t]) / thr - 1.0) / beta
        for a, expected in ((a_star - 0.5, Decision.PREFER_SMALLEST_ALPHA),
                            (a_star * (1.0 - 1e-6), Decision.PREFER_NO_INSURANCE),
                            (a_star * (1.0 + 1e-6), Decision.PREFER_NO_INSURANCE),
                            (a_star + 0.5, Decision.PREFER_NO_INSURANCE)):
            u = [0.0, a]
            split = TriggeredSplit(EmpiricalSample(t), EmpiricalSample(u), p)
            system = _pure_system(split, spec, util)
            v1, v2 = system.v_pair(0.0)
            assert (v1 <= v2) is (a > a_star)  # the system's own V1(0) <= V2(0) test
            got = _fallback_decision(system, split, rho, False, True)
            assert got is expected
            assert got is _lower_violated_oracle(t, u, p, principle, rho, beta, w0)

    @pytest.mark.parametrize("principle", list(PremiumPrinciple))
    def test_upper_violated(self, principle):
        t, u, p, rho = [4.0, 9.0], [0.0, 2.0], 0.3, 0.2
        split = TriggeredSplit(EmpiricalSample(t), EmpiricalSample(u), p)
        spec = ContractSpec(t_lo=83.0, rho=rho, principle=principle)
        util = UtilityContext.exponential(beta=0.1)
        mean = p * _mean(t) + (1.0 - p) * _mean(u)
        var = (p * _mean([s * s for s in t]) + (1.0 - p) * _mean([s * s for s in u])
               - mean * mean)
        sup = max(t)
        # the loading ratio rho_indemnity / rho above which indemnity is not preferred
        ratio_star = {
            PremiumPrinciple.EXPECTED_VALUE: sup * p / mean,
            PremiumPrinciple.STD_DEV: sup * math.sqrt(p * (1.0 - p) / var),
            PremiumPrinciple.VARIANCE: sup * sup * p * (1.0 - p) / var,
        }[principle]
        for scale, expected in ((0.99, Decision.PREFER_INDEMNITY),
                                (1.01, Decision.PREFER_LARGEST_ALPHA)):
            rho_indemnity = scale * ratio_star * rho
            assert _fallback_decision(_pure_system(split, spec, util), split,
                                      rho_indemnity, True, False) is expected

    @pytest.mark.parametrize("principle", list(PremiumPrinciple))
    @pytest.mark.parametrize("lower_holds", [False, True])
    def test_decision_does_not_depend_on_the_unit_of_loss(self, principle, lower_holds):
        # Losses times 10 with beta / 10 leave the utility of each outcome
        # unchanged; the variance principle's loading rho * Var needs rho / 10
        # as well, and rho_indemnity with it.
        t, u, p, rho = [4.0, 9.0], [0.0, 2.0], 0.3, 0.2

        def decide(scale, ratio):
            split = TriggeredSplit(EmpiricalSample([scale * s for s in t]),
                                   EmpiricalSample([scale * s for s in u]), p)
            r = rho / scale if principle is PremiumPrinciple.VARIANCE else rho
            spec = ContractSpec(t_lo=83.0, rho=r, principle=principle)
            util = UtilityContext.exponential(beta=0.1 / scale)
            return _fallback_decision(_pure_system(split, spec, util), split,
                                      ratio * r, lower_holds, not lower_holds)

        ratios = np.geomspace(0.1, 10.0, 9)  # rho_indemnity / rho
        decisions = [decide(1.0, ratio) for ratio in ratios]
        assert [decide(10.0, ratio) for ratio in ratios] == decisions
        if lower_holds:  # the upper branch, on both sides of its threshold
            assert set(decisions) == {Decision.PREFER_INDEMNITY, Decision.PREFER_LARGEST_ALPHA}


def _old_upper_violated_decision(split, spec, rho_indemnity):
    """The pure contract's upper-violated test before both contracts shared one,
    verbatim apart from its name and signature."""
    ess_sup = split.triggered.max
    ratio = rho_indemnity / spec.rho
    p = split.p
    if spec.principle is PremiumPrinciple.EXPECTED_VALUE:
        prefers = ess_sup > ratio * split.mean_loss() / p
    elif spec.principle is PremiumPrinciple.STD_DEV:
        prefers = ess_sup ** 2 > ratio ** 2 * split.var_loss() / (p * (1.0 - p))
    else:
        prefers = ess_sup ** 2 > ratio * split.var_loss() / (p * (1.0 - p))
    return Decision.PREFER_INDEMNITY if prefers else Decision.PREFER_LARGEST_ALPHA


def _random_split(r):
    """Gamma losses on both sides, weighted on trigger half the time."""
    n_t, n_u = (int(n) for n in r.integers(2, 300, size=2))
    t = r.gamma(r.uniform(0.5, 4.0), r.uniform(0.5, 20.0), n_t) + r.uniform(0.0, 5.0)
    w = r.dirichlet(np.ones(n_t)) if r.random() < 0.5 else None
    u = r.gamma(r.uniform(0.5, 4.0), r.uniform(0.1, 5.0), n_u)
    return TriggeredSplit(EmpiricalSample(t, w), EmpiricalSample(u), r.uniform(0.05, 0.6))


def _pure_ratio_star(split, principle):
    """The loading ratio rho_indemnity / rho at which the pure decision switches."""
    sup, p = split.triggered.max, split.p
    return {
        PremiumPrinciple.EXPECTED_VALUE: sup * p / split.mean_loss(),
        PremiumPrinciple.STD_DEV: sup * math.sqrt(p * (1.0 - p) / split.var_loss()),
        PremiumPrinciple.VARIANCE: sup * sup * p * (1.0 - p) / split.var_loss(),
    }[principle]


@pytest.mark.parametrize("principle", list(PremiumPrinciple))
def test_shared_indemnity_test_decides_as_the_old_pure_one(principle):
    r = rng(71)
    util = UtilityContext.exponential(beta=0.05)
    for _ in range(300):
        split = _random_split(r)
        spec = ContractSpec(t_lo=83.0, rho=r.uniform(0.01, 0.3), principle=principle)
        system = _pure_system(split, spec, util)
        star = _pure_ratio_star(split, principle)
        # rho_indemnity / rho: spread out, and just either side of the switch
        ratios = [*r.lognormal(0.0, 1.5, size=3), star * (1.0 - 1e-6), star * (1.0 + 1e-6)]
        got = [_fallback_decision(system, split, ratio * spec.rho, True, False)
               for ratio in ratios]
        assert got == [_old_upper_violated_decision(split, spec, ratio * spec.rho)
                       for ratio in ratios]
        assert got[-2:] == [Decision.PREFER_INDEMNITY, Decision.PREFER_LARGEST_ALPHA]


def _tied_at_zero():
    """V1 = V2 exactly at the low end of the level range, k = 0, under the variance principle.

    Both sides hold losses constant at 0, so every triggered expectile is 0.
    With p = 1/2 the premium's slope at 0 is exactly 1/2, so both sides
    weigh u' by 1/2, and both sides hold the same losses at the same wealth.
    """
    split = TriggeredSplit(EmpiricalSample([0.0, 0.0]), EmpiricalSample([0.0, 0.0]), 0.5)
    spec = ContractSpec(t_lo=83.0, rho=0.1, principle=PremiumPrinciple.VARIANCE)
    return split, spec, UtilityContext.exponential(beta=0.1, w0=10.0)


class TestTieAtTheLowerEnd:
    def test_an_exact_tie_fails_the_lower_bound_only(self):
        split, spec, util = _tied_at_zero()
        assert expectile(split.triggered, _LEVEL_RANGE[0]) == 0.0
        v1, v2 = _pure_system(split, spec, util).v_pair(0.0)
        assert v1 == v2
        lower, upper, witnesses = check_bounds(split, spec, util)
        assert (lower, upper) == (False, True)
        assert witnesses["upper_k"] == witnesses["lower_k"] == 0.0
        sol = solve_gamma_star(split, spec, util)
        assert (sol.lower_bound_holds, sol.upper_bound_holds) == (False, True)
        assert sol.decision is Decision.PREFER_NO_INSURANCE

    def test_tie_with_no_point_above_it_is_one_decision(self, monkeypatch):
        # V1 raised to V2 at every k: a tie at k_lo and V1 < V2 nowhere, the
        # state a scan that did not decide both bounds at k_lo reported as
        # both bounds violated
        split, spec, util = _tied_at_zero()
        v_pair = _FirstOrderSystem.v_pair

        def tied(self, k):
            v1, v2 = v_pair(self, k)
            return max(v1, v2), v2

        monkeypatch.setattr(_FirstOrderSystem, "v_pair", tied)
        assert check_bounds(split, spec, util)[:2] == (False, True)
        assert violated_boundary_decision(split, spec, util, spec.rho) is (
            Decision.PREFER_NO_INSURANCE)


class TestClosedFormExponential:
    def test_matches_bisection(self):
        split = smooth_split()
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        beta = 0.1
        util = UtilityContext.exponential(beta=beta, w0=0.0)
        sol = solve_gamma_star(split, spec, util)
        alpha_c, gamma_c, x_exp = closed_form_exponential(split, spec, beta)
        assert gamma_c == pytest.approx(sol.gamma_star, abs=1e-8)
        assert alpha_c == pytest.approx(sol.alpha_star, abs=1e-8)
        assert x_exp == pytest.approx(expectile(split.triggered, gamma_c), abs=1e-9)

    def test_w0_invariance(self):
        split = smooth_split()
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        out = closed_form_exponential(split, spec, 0.1)
        for w0 in (-50.0, 0.0, 1234.5):
            sol = solve_gamma_star(split, spec,
                                   UtilityContext.exponential(beta=0.1, w0=w0))
            assert sol.gamma_star == pytest.approx(out[1], abs=1e-8)

    def test_requires_e_principle(self):
        split = smooth_split()
        spec = ContractSpec(t_lo=83.0, rho=0.2, principle=PremiumPrinciple.VARIANCE)
        with pytest.raises(ValueError):
            closed_form_exponential(split, spec, 0.1)

    @pytest.mark.parametrize("beta", [0.0, np.nan])
    def test_beta_validated(self, beta):
        with pytest.raises(ValueError, match="beta must be positive"):
            closed_form_exponential(smooth_split(), ContractSpec(t_lo=83.0, rho=0.2), beta)

    def test_premium_dominates(self):
        # c = (1 + rho) p = 1.08
        split = smooth_split(p_scale=3.0)
        with pytest.raises(PremiumDominatesError):
            closed_form_exponential(split, ContractSpec(t_lo=83.0, rho=0.2), 0.1)

    def test_raises_outside_support(self):
        split, spec, _ = TestViolatedBoundaryDecisions().upper_violated()
        with pytest.raises(ValueError, match="bounds violated"):
            closed_form_exponential(split, spec, 2.0)


class TestUtilityCurve:
    def test_peak_matches_solver(self):
        r = rng(21)
        idx = r.uniform(60, 140, 30_000)
        losses = np.clip(np.where(idx >= 83, idx - 70, 0.5) + r.normal(0, 4, idx.size),
                         0, None)
        sample = LossIndexSample(losses, idx)
        spec = ContractSpec(t_lo=83.0, rho=0.2)
        util = UtilityContext.exponential(beta=0.1)
        curve = utility_curve(sample, spec, util, np.linspace(0.005, 0.995, 199))
        split = TriggeredSplit.from_sample(sample, spec)
        sol = solve_gamma_star(split, spec, util)
        g_peak = curve[int(np.argmax(curve[:, 3])), 0]
        assert g_peak == pytest.approx(sol.gamma_star, abs=0.02)
        # U = U1 + U2 columns are consistent
        assert np.allclose(curve[:, 1] + curve[:, 2], curve[:, 3], atol=1e-12)

    def test_grid_validation(self):
        sample = LossIndexSample([1.0, 2.0], [50.0, 90.0])
        spec = ContractSpec(t_lo=83.0)
        util = UtilityContext.exponential(beta=0.1)
        with pytest.raises(ValueError):
            utility_curve(sample, spec, util, [0.0, 0.5])


class TestFallbackReusesTheSolvesSystem:
    """A violated bound's decision reads the sides and moments of the solve's own system."""

    @staticmethod
    def counting_sides(monkeypatch):
        calls = []
        side = UtilityContext.side

        def counted(self, s, w):
            calls.append(np.size(s))
            return side(self, s, w)

        monkeypatch.setattr(UtilityContext, "side", counted)
        return calls

    @pytest.mark.parametrize("beta", [0.1, None], ids=["moment_sides", "row_sides"])
    def test_lower_violated_prepares_each_side_once(self, monkeypatch, beta):
        split, spec, _ = TestViolatedBoundaryDecisions().two_point(0.1, 4.0, 0.5)
        util = (UtilityContext.exponential(beta=0.1, w0=10.0) if beta else
                UtilityContext.custom(lambda x: 1.0 - np.exp(-0.1 * x),
                                      lambda x: 0.1 * np.exp(-0.1 * x),
                                      lambda x: -0.01 * np.exp(-0.1 * x), w0=10.0))
        calls = self.counting_sides(monkeypatch)
        sol = solve_gamma_star(split, spec, util)
        assert sol.decision is Decision.PREFER_SMALLEST_ALPHA
        assert calls == [2, 2]
        calls.clear()
        assert violated_boundary_decision(split, spec, util, 0.1) is Decision.PREFER_SMALLEST_ALPHA
        assert calls == [2, 2]

    def test_upper_violated_prepares_each_side_once(self, monkeypatch):
        split, spec, util = TestViolatedBoundaryDecisions().upper_violated()
        calls = self.counting_sides(monkeypatch)
        assert solve_gamma_star(split, spec, util).decision is Decision.PREFER_INDEMNITY
        assert violated_boundary_decision(split, spec, util, spec.rho) is (
            Decision.PREFER_INDEMNITY)
        assert calls == [2, 2, 2, 2]

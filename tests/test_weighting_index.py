import numpy as np
import pytest

from basisrisk.contracts import (
    AnalyticConditioner,
    ContractSpec,
    DegenerateTriggerError,
    EmpiricalBinConditioner,
    ExponentialConditioner,
    LossIndexSample,
    PremiumPrinciple,
    _trigger_mask,
)
from basisrisk.expectile import EmpiricalSample, expectile
from basisrisk.weighting_index import (
    Decision,
    SeparabilityError,
    SeparableDecomposition,
    UnsupportedPrincipleError,
    _fallback_decision_index,
    build_surface,
    decompose,
    index_quantities,
    solve_gamma_star_index,
    violated_boundary_decision_index,
)
from basisrisk.weighting_pure import (
    MonotonicityError,
    TriggeredSplit,
    UtilityContext,
    solve_gamma_star,
)
from conftest import rng

THETAS = np.linspace(1.0, 5.0, 10)
GAMMAS = np.linspace(0.01, 0.99, 99)  # contains 0.5 exactly


def logit(g):
    return np.log(g / (1.0 - g))


class TestDecompose:
    def test_location_scale_surface_exact(self):
        # e(theta, gamma) = a(theta) + b(theta) q(gamma), q(1/2) = 0
        a = 2.0 * THETAS
        b = 1.0 + THETAS ** 2
        surface = a[:, None] + b[None, :].T * logit(GAMMAS)[None, :]
        d = decompose(surface, GAMMAS, THETAS)
        assert d.residual <= 1e-10
        assert np.all(d.h1 > 0)
        assert np.all(np.diff(d.h2_grid) > 0)
        assert d.eval_h2(0.5) == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(d.h3, a, atol=1e-9)
        # h1 recovers b up to the reference normalization
        assert np.allclose(d.h1, b / b[d.ref_index], rtol=1e-9)
        assert np.allclose(d.h2_grid, b[d.ref_index] * logit(GAMMAS), rtol=1e-7,
                           atol=1e-9)

    def test_exponential_conditioner_surface(self):
        cond = ExponentialConditioner(lambda th: 0.5 + 0.2 * th)
        surface = build_surface(cond, THETAS, GAMMAS)
        assert surface.shape == (THETAS.size, GAMMAS.size)
        d = decompose(surface, GAMMAS, THETAS, conditioner=cond)
        assert d.residual <= 1e-10
        # H3 pins the conditional mean
        assert np.allclose(d.h3, 0.5 + 0.2 * THETAS, atol=1e-9)
        # exact evaluator agrees with the grid interpolation
        for g in (0.07, 0.33, 0.5, 0.81):
            assert d.eval_h2(g) == pytest.approx(
                float(np.interp(g, GAMMAS, d.h2_grid)), abs=1e-6)

    def test_non_separable_raises_with_residual(self):
        q1 = logit(GAMMAS)
        q2 = 100.0 * (GAMMAS - 0.5) ** 3
        surface = np.where(THETAS[:, None] < 3.0,
                           THETAS[:, None] * q1[None, :],
                           THETAS[:, None] * q2[None, :])
        with pytest.raises(SeparabilityError) as exc:
            decompose(surface, GAMMAS, THETAS, tolerance=1e-2)
        assert exc.value.residual > 1e-2
        assert exc.value.residual_map.shape == surface.shape

    def test_sign_mixed_scale_rejected(self):
        b = THETAS - 3.0  # crosses zero
        surface = (2.0 * THETAS)[:, None] + np.outer(b, logit(GAMMAS))
        with pytest.raises(SeparabilityError, match="h1"):
            decompose(surface, GAMMAS, THETAS)

    def test_non_monotone_h2_rejected(self):
        q = np.sin(2.0 * np.pi * (GAMMAS - 0.5))
        surface = (2.0 * THETAS)[:, None] + np.outer(1.0 + THETAS, q)
        with pytest.raises(SeparabilityError, match="increasing"):
            decompose(surface, GAMMAS, THETAS)

    def test_input_validation(self):
        surface = np.zeros((THETAS.size, GAMMAS.size))
        with pytest.raises(ValueError):
            decompose(surface[:, :50], GAMMAS, THETAS)
        no_half = np.linspace(0.02, 0.97, 20)
        with pytest.raises(ValueError, match="1/2"):
            decompose(np.zeros((THETAS.size, no_half.size)), no_half, THETAS)
        with pytest.raises(ValueError):
            decompose(np.zeros((1, GAMMAS.size)), GAMMAS, THETAS[:1])
        with pytest.raises(ValueError, match="gamma grid must be strictly increasing"):
            decompose(surface, GAMMAS[::-1], THETAS)

    def test_h2_unbounded_flag(self):
        a = 2.0 * THETAS
        surface = a[:, None] + np.outer(1.0 + THETAS, logit(GAMMAS))
        d = decompose(surface, GAMMAS, THETAS, h2_unbounded=True)
        assert d.h2_1 == np.inf


def separable_sample(seed=30, n=40_000):
    r = rng(seed)
    idx = r.uniform(60.0, 140.0, n)
    losses = np.clip(0.4 * (idx - 60.0) + r.gamma(2.0, 2.0, n), 0.0, None)
    return LossIndexSample(losses, idx)


class TestIndexQuantities:
    def test_matches_direct_moments(self):
        sample = separable_sample()
        spec = ContractSpec(t_lo=83.0, rho=0.1)
        a = 2.0 * THETAS
        b = 1.0 + THETAS ** 2
        surface = a[:, None] + np.outer(b, logit(GAMMAS))
        d = decompose(surface, GAMMAS, THETAS)
        q = index_quantities(d, sample, spec)
        mask = spec.in_trigger(sample.indices)
        h1 = np.where(mask, np.interp(sample.indices, d.thetas, d.h1), 0.0)
        h3 = np.where(mask, np.interp(sample.indices, d.thetas, d.h3), 0.0)
        assert q.p_trigger == pytest.approx(mask.mean())
        assert q.int_h1 == pytest.approx(h1.mean())
        assert q.int_h3 == pytest.approx(h3.mean())
        assert q.v1 == pytest.approx(h1.var())
        assert q.v3 == pytest.approx(h3.var())
        assert q.v13 == pytest.approx(np.cov(h1, h3, bias=True)[0, 1], abs=1e-12)
        # premium functionals at a point
        k = 1.7
        assert q.premium(k) == pytest.approx((1 + spec.rho) * (q.int_h1 * k + q.int_h3))
        q_var = index_quantities(d, sample, ContractSpec(t_lo=83.0, rho=0.1,
                                                         principle=PremiumPrinciple.VARIANCE))
        assert q_var.premium(k) == pytest.approx(
            q.int_h1 * k + q.int_h3
            + spec.rho * (k * k * q.v1 + 2 * k * q.v13 + q.v3))


def independent_sample(seed=30, n=40_000):
    """Losses independent of the index: basis risk makes the optimum interior."""
    r = rng(seed)
    idx = r.uniform(60.0, 140.0, n)
    losses = np.where(idx >= 116.0, r.gamma(4.0, 5.0, n) + 5.0, r.gamma(2.0, 1.0, n))
    return LossIndexSample(losses, idx)


def degenerate_decomposition(sample, spec, gammas=GAMMAS):
    """Index scheme whose conditional law ignores theta: pooled expectiles."""
    trig = sample.losses[spec.in_trigger(sample.indices)]
    pooled = EmpiricalSample(trig)
    cond = AnalyticConditioner(
        lambda th, g: np.full(np.asarray(th).shape, expectile(pooled, g)))
    lo, hi = spec.t_lo, float(sample.indices.max())
    thetas = np.linspace(lo, hi, 5)
    surface = build_surface(cond, thetas, gammas)
    return decompose(surface, gammas, thetas, conditioner=cond)


class TestSolveIndex:
    def test_matches_pure_when_theta_independent(self):
        sample = independent_sample()
        spec = ContractSpec(t_lo=116.0, rho=0.2)
        util = UtilityContext.exponential(beta=0.1, w0=0.0)
        d = degenerate_decomposition(sample, spec)
        sol_pi = solve_gamma_star_index(sample, spec, util, d)
        sol_pp = solve_gamma_star(TriggeredSplit.from_sample(sample, spec), spec, util)
        assert sol_pi.decision is Decision.INTERIOR_OPTIMUM
        assert sol_pi.gamma_star == pytest.approx(sol_pp.gamma_star, abs=1e-8)
        assert sol_pi.alpha_star == pytest.approx(sol_pp.alpha_star, abs=1e-8)

    def test_variance_principle_interior(self):
        sample = independent_sample()
        spec = ContractSpec(t_lo=116.0, rho=0.005,
                            principle=PremiumPrinciple.VARIANCE)
        util = UtilityContext.exponential(beta=0.1, w0=0.0)
        d = degenerate_decomposition(sample, spec)
        sol_pi = solve_gamma_star_index(sample, spec, util, d)
        sol_pp = solve_gamma_star(TriggeredSplit.from_sample(sample, spec), spec, util)
        assert sol_pi.decision is Decision.INTERIOR_OPTIMUM
        assert sol_pi.gamma_star == pytest.approx(sol_pp.gamma_star, abs=1e-8)

    def test_binned_conditioner_interior(self):
        sample = independent_sample()
        spec = ContractSpec(t_lo=116.0, rho=0.2)
        util = UtilityContext.exponential(beta=0.1, w0=0.0)
        trig_mask = spec.in_trigger(sample.indices)
        trig = LossIndexSample(sample.losses[trig_mask], sample.indices[trig_mask])
        cond = EmpiricalBinConditioner(trig, n_bins=6, min_bin_count=200)
        surface = build_surface(cond, cond.bin_centers, GAMMAS)
        d = decompose(surface, GAMMAS, cond.bin_centers, tolerance=0.1,
                      conditioner=cond)
        sol = solve_gamma_star_index(sample, spec, util, d)
        assert sol.decision is Decision.INTERIOR_OPTIMUM
        assert 0.0 < sol.gamma_star < 1.0

    def test_monotonicity_error_on_convex_utility(self):
        sample = independent_sample()
        spec = ContractSpec(t_lo=116.0, rho=0.2)
        convex = UtilityContext.custom(
            u=lambda x: np.exp(0.05 * x), u_prime=lambda x: 0.05 * np.exp(0.05 * x),
            u_second=lambda x: 0.0025 * np.exp(0.05 * x), w0=0.0)
        with pytest.raises(MonotonicityError):
            solve_gamma_star_index(sample, spec, convex,
                                   degenerate_decomposition(sample, spec))

    def test_std_dev_rejected(self):
        sample = separable_sample()
        spec = ContractSpec(t_lo=83.0, rho=0.15,
                            principle=PremiumPrinciple.STD_DEV)
        util = UtilityContext.exponential(beta=0.05)
        d = degenerate_decomposition(sample,
                                     ContractSpec(t_lo=83.0, rho=0.15))
        with pytest.raises(UnsupportedPrincipleError):
            solve_gamma_star_index(sample, spec, util, d)

    def test_degenerate_trigger(self):
        sample = independent_sample()
        d = degenerate_decomposition(sample, ContractSpec(t_lo=116.0, rho=0.2))
        util = UtilityContext.exponential(beta=0.1)
        for t_lo in (0.0, 500.0):  # every row triggered, then none
            with pytest.raises(DegenerateTriggerError):
                solve_gamma_star_index(sample, ContractSpec(t_lo=t_lo, rho=0.2), util, d)


class TestViolatedBoundaryIndex:
    def test_prefer_no_insurance_when_bin_minima_zero(self):
        # zero losses occur in every conditional bin; a steep premium loading
        # violates the lower bound
        r = rng(31)
        idx = r.uniform(60.0, 140.0, 20_000)
        losses = np.clip(0.4 * (idx - 60.0) + r.gamma(2.0, 2.0, idx.size), 0.0, None)
        losses[r.random(idx.size) < 0.2] = 0.0
        sample = LossIndexSample(losses, idx)
        spec = ContractSpec(t_lo=83.0, rho=0.9)
        util = UtilityContext.exponential(beta=0.05, w0=0.0)
        d = degenerate_decomposition(sample, spec)
        sol = solve_gamma_star_index(sample, spec, util, d)
        assert not sol.lower_bound_holds
        assert sol.decision is Decision.PREFER_NO_INSURANCE

    def test_prefer_smallest_alpha_when_minima_positive(self):
        sample = separable_sample(seed=32)
        shifted = LossIndexSample(sample.losses + 8.0, sample.indices)
        spec = ContractSpec(t_lo=83.0, rho=0.9)
        util = UtilityContext.exponential(beta=0.3, w0=0.0)
        d = degenerate_decomposition(shifted, spec)
        sol = solve_gamma_star_index(shifted, spec, util, d)
        if sol.decision is Decision.PREFER_SMALLEST_ALPHA:
            assert not sol.lower_bound_holds
        else:
            # fixture landed interior; the branch is still exercised below
            assert sol.decision is Decision.INTERIOR_OPTIMUM

    def test_raises_when_bounds_hold(self):
        sample = independent_sample()
        spec = ContractSpec(t_lo=116.0, rho=0.2)
        util = UtilityContext.exponential(beta=0.1, w0=0.0)
        d = degenerate_decomposition(sample, spec)
        with pytest.raises(ValueError):
            violated_boundary_decision_index(sample, spec, util, d,
                                             rho_indemnity=spec.rho)


# Hand fixture for the fallback rules: bin centers 1..4 (edges 1.5, 2.5, 3.5),
# trigger at 2.0. Bin 0 holds one untriggered row only; the triggered rows'
# per-bin loss maxima are 5, 4 and 9.
FALLBACK_THETAS = np.array([1.0, 2.0, 3.0, 4.0])
FALLBACK_INDICES = [1.2, 1.8, 2.1, 2.4, 2.7, 3.2, 3.6, 3.9, 4.4]
FALLBACK_LOSSES = [0.5, 1.0, 2.0, 5.0, 3.0, 4.0, 6.0, 9.0, 7.0]
FALLBACK_SPEC = dict(t_lo=2.0, rho=0.2)


def fallback_decomposition(h2_unbounded=False):
    n = FALLBACK_THETAS.size
    return SeparableDecomposition(
        thetas=FALLBACK_THETAS, h1=np.ones(n), h3=np.zeros(n), gammas=GAMMAS,
        h2_grid=logit(GAMMAS), residual=0.0, ref_index=0, h2_unbounded=h2_unbounded)


def bin_sup_oracle(indices, losses, t_lo):
    """Per row: the largest triggered loss of its nearest center's bin, 0 off trigger."""
    def nearest(x):
        return min(range(FALLBACK_THETAS.size), key=lambda b: abs(x - FALLBACK_THETAS[b]))

    sup = {}
    for x, s in zip(indices, losses):
        if x >= t_lo:
            b = nearest(x)
            sup[b] = max(sup.get(b, s), s)
    return [sup[nearest(x)] if x >= t_lo else 0.0 for x in indices]


def _old_fallback_decision_index(sample, spec, decomp, rho_indemnity, lower):
    """The index fallback before both contracts shared one indemnity test,
    verbatim apart from its name, its signature and the bound-outcome check."""
    if lower and decomp.h2_unbounded:  # upper violated with H2(1) = +inf
        return Decision.PREFER_INDEMNITY
    # triggered losses binned by nearest decomposition center
    mask = _trigger_mask(sample, spec)
    edges = 0.5 * (decomp.thetas[:-1] + decomp.thetas[1:])
    bins = np.searchsorted(edges, sample.indices, side="right")
    # per-bin extrema of the triggered losses; an empty bin keeps its +-inf
    mins, maxs = np.full(decomp.thetas.size, np.inf), np.full(decomp.thetas.size, -np.inf)
    np.minimum.at(mins, bins[mask], sample.losses[mask])
    np.maximum.at(maxs, bins[mask], sample.losses[mask])
    if not lower:
        observed = mins[np.isfinite(mins)]
        tol = 1e-9 * max(float(sample.losses.max()), 1.0)
        if observed.size and np.all(observed <= tol):
            return Decision.PREFER_NO_INSURANCE
        return Decision.PREFER_SMALLEST_ALPHA
    # upper violated
    sup_all = maxs[bins]
    sup_ind = np.where(mask & np.isfinite(sup_all), sup_all, 0.0)
    ratio = rho_indemnity / spec.rho
    if spec.principle is PremiumPrinciple.EXPECTED_VALUE:
        p = float(mask.mean())
        e_sup_cond = float(sup_ind.mean()) / p
        prefers = e_sup_cond > ratio * float(sample.losses.mean()) / p
    else:
        prefers = float(sup_ind.var()) > ratio * float(sample.losses.var())
    return Decision.PREFER_INDEMNITY if prefers else Decision.PREFER_LARGEST_ALPHA


def _random_index_case(r):
    """Gamma losses over a uniform index, 2 to 8 bin centers, a trigger
    inside the index range; each row's loss is 0 with a random probability,
    so some samples put a zero in every triggered bin."""
    n = int(r.integers(10, 400))
    idx = r.uniform(0.0, 10.0, n)
    losses = r.gamma(r.uniform(0.5, 4.0), r.uniform(0.5, 20.0), n)
    losses[r.random(n) < r.choice([0.0, 0.3, 0.9])] = 0.0
    thetas = np.sort(r.uniform(0.0, 10.0, int(r.integers(2, 9))))
    decomp = SeparableDecomposition(
        thetas=thetas, h1=np.ones(thetas.size), h3=np.zeros(thetas.size), gammas=GAMMAS,
        h2_grid=logit(GAMMAS), residual=0.0, ref_index=0)
    t_lo = float(np.quantile(idx, r.uniform(0.2, 0.9)))
    return LossIndexSample(losses, idx), t_lo, decomp


@pytest.mark.parametrize("principle", [PremiumPrinciple.EXPECTED_VALUE,
                                       PremiumPrinciple.VARIANCE])
def test_shared_indemnity_test_decides_as_the_old_index_one(principle):
    r = rng(72)
    lower_decisions = set()
    for _ in range(300):
        sample, t_lo, decomp = _random_index_case(r)
        spec = ContractSpec(t_lo=t_lo, rho=r.uniform(0.01, 0.3), principle=principle)
        # per row, the largest triggered loss of its nearest center's bin; 0 off trigger
        mask = spec.in_trigger(sample.indices)
        nearest = np.abs(sample.indices[:, None] - decomp.thetas[None, :]).argmin(axis=1)
        sup = np.array([sample.losses[mask & (nearest == b)].max() if t else 0.0
                        for t, b in zip(mask, nearest)])
        with np.errstate(invalid="ignore"):  # NaN when every loss is 0
            star = (sup.mean() / sample.losses.mean()
                    if principle is PremiumPrinciple.EXPECTED_VALUE
                    else sup.var() / sample.losses.var())
        # rho_indemnity / rho: spread out, and just either side of the switch
        ratios = [*r.lognormal(0.0, 1.5, size=3), star * (1.0 - 1e-6), star * (1.0 + 1e-6)]
        for lower in (False, True):
            got = [_fallback_decision_index(sample, spec, decomp, ratio * spec.rho,
                                            lower, not lower) for ratio in ratios]
            assert got == [_old_fallback_decision_index(sample, spec, decomp,
                                                        ratio * spec.rho, lower)
                           for ratio in ratios]
            if not lower:
                lower_decisions.add(got[0])
            elif star > 0.0:  # every triggered loss, or every loss, can be 0
                assert got[-2:] == [Decision.PREFER_INDEMNITY, Decision.PREFER_LARGEST_ALPHA]
    assert lower_decisions == {Decision.PREFER_NO_INSURANCE, Decision.PREFER_SMALLEST_ALPHA}


class TestFallbackDecisionIndexThresholds:
    """_fallback_decision_index on both sides of each threshold, with explicit flags."""

    @pytest.mark.parametrize("principle", [PremiumPrinciple.EXPECTED_VALUE,
                                           PremiumPrinciple.VARIANCE])
    def test_upper_violated(self, principle):
        sample = LossIndexSample(FALLBACK_LOSSES, FALLBACK_INDICES)
        spec = ContractSpec(principle=principle, **FALLBACK_SPEC)
        sup = np.array(bin_sup_oracle(FALLBACK_INDICES, FALLBACK_LOSSES, spec.t_lo))
        assert list(sup) == [0.0, 0.0, 5.0, 5.0, 4.0, 4.0, 9.0, 9.0, 9.0]
        losses = np.array(FALLBACK_LOSSES)
        # the loading ratio rho_indemnity / rho above which indemnity is not preferred
        if principle is PremiumPrinciple.EXPECTED_VALUE:
            ratio_star = sup.mean() / losses.mean()
        else:
            ratio_star = sup.var() / losses.var()
        for scale, expected in ((0.99, Decision.PREFER_INDEMNITY),
                                (1.01, Decision.PREFER_LARGEST_ALPHA)):
            rho_indemnity = scale * ratio_star * spec.rho
            assert _fallback_decision_index(sample, spec, fallback_decomposition(),
                                            rho_indemnity, True, False) is expected
            # an unbounded H2(1) prefers indemnity whatever the loading
            assert _fallback_decision_index(
                sample, spec, fallback_decomposition(h2_unbounded=True),
                rho_indemnity, True, False) is Decision.PREFER_INDEMNITY

    def test_lower_violated(self):
        spec = ContractSpec(**FALLBACK_SPEC)
        tol = 1e-9 * max(FALLBACK_LOSSES)
        # rows 2.1, 2.7 and 3.6 hold the smallest triggered loss of their bins
        for low, expected in ((0.5 * tol, Decision.PREFER_NO_INSURANCE),
                              (2.0 * tol, Decision.PREFER_SMALLEST_ALPHA)):
            losses = list(FALLBACK_LOSSES)
            losses[2] = losses[4] = losses[6] = low
            sample = LossIndexSample(losses, FALLBACK_INDICES)
            assert _fallback_decision_index(sample, spec, fallback_decomposition(),
                                            spec.rho, False, True) is expected

    def test_empty_bin_is_ignored(self):
        # a center at 6.0 that no triggered row is nearest to: its bin is empty
        thetas = np.append(FALLBACK_THETAS, 6.0)
        decomp = SeparableDecomposition(
            thetas=thetas, h1=np.ones(thetas.size), h3=np.zeros(thetas.size),
            gammas=GAMMAS, h2_grid=logit(GAMMAS), residual=0.0, ref_index=0)
        spec = ContractSpec(**FALLBACK_SPEC)
        tol = 1e-9 * max(FALLBACK_LOSSES)
        for low, expected in ((0.5 * tol, Decision.PREFER_NO_INSURANCE),
                              (2.0 * tol, Decision.PREFER_SMALLEST_ALPHA)):
            losses = list(FALLBACK_LOSSES)
            losses[2] = losses[4] = losses[6] = low
            sample = LossIndexSample(losses, FALLBACK_INDICES)
            assert _fallback_decision_index(sample, spec, decomp, spec.rho,
                                            False, True) is expected
        sample = LossIndexSample(FALLBACK_LOSSES, FALLBACK_INDICES)
        sup = np.array(bin_sup_oracle(FALLBACK_INDICES, FALLBACK_LOSSES, spec.t_lo))
        ratio_star = sup.mean() / np.mean(FALLBACK_LOSSES)
        for scale, expected in ((0.99, Decision.PREFER_INDEMNITY),
                                (1.01, Decision.PREFER_LARGEST_ALPHA)):
            assert _fallback_decision_index(sample, spec, decomp, scale * ratio_star * spec.rho,
                                            True, False) is expected

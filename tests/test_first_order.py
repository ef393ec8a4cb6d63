"""The one first-order system shared by pure and index contracts.

``_v_pair_at_level`` and ``_v_pair_index`` below are the two evaluators the
system replaced; their bodies are kept verbatim as reference implementations,
except that ``_v_pair_index`` writes the premium and its slope out inline.
"""

import math

import numpy as np
import pytest

from basisrisk import weighting_pure
from basisrisk.contracts import (
    ContractSpec,
    LossIndexSample,
    PayoutVector,
    PremiumPrinciple,
    premium,
)
from basisrisk.expectile import EmpiricalSample, expectile, expectile_grid
from basisrisk.weighting_index import (
    SeparableDecomposition,
    UnsupportedPrincipleError,
    _index_system,
    check_bounds_index,
    decompose,
    index_quantities,
    solve_gamma_star_index,
)
from basisrisk.weighting_pure import (
    Decision,
    PremiumDominatesError,
    TriggeredSplit,
    UtilityContext,
    _LEVEL_RANGE as LEVEL_RANGE,
    _pure_level_map,
    _pure_system,
    check_bounds,
    solve_gamma_star,
)
from conftest import rng
from test_weighting_index import (
    GAMMAS,
    THETAS,
    degenerate_decomposition,
    independent_sample,
    logit,
    separable_sample,
)

EV = PremiumPrinciple.EXPECTED_VALUE
SD = PremiumPrinciple.STD_DEV
VAR = PremiumPrinciple.VARIANCE


# ---------------------------------------------------------------------------
# reference implementations: the evaluators before the shared system
# ---------------------------------------------------------------------------

def _wmean(sample, values):
    return float(np.sum(sample.weights * values))


def _premium_multiplier(spec, p):
    if spec.principle is PremiumPrinciple.EXPECTED_VALUE:
        return (1.0 + spec.rho) * p
    if spec.principle is PremiumPrinciple.STD_DEV:
        return p + spec.rho * math.sqrt(p * (1.0 - p))
    raise ValueError("no constant multiplier under the variance principle")


def _v_pair_at_level(split, spec, utility, x):
    p = split.p
    w0 = utility.w0
    st = split.triggered
    su = split.untriggered
    if spec.principle in (PremiumPrinciple.EXPECTED_VALUE, PremiumPrinciple.STD_DEV):
        c = _premium_multiplier(spec, p)
        if c >= 1.0:
            raise PremiumDominatesError("premium dominates payout (c >= 1)")
        v1 = p * (1.0 - c) * _wmean(st, utility.u_prime(w0 - st.values + (1.0 - c) * x))
        v2 = (1.0 - p) * c * _wmean(su, utility.u_prime(w0 - su.values - c * x))
        return v1, v2
    # variance principle
    big_r = p * (1.0 + spec.rho * (1.0 - p) * x)
    small_r = p * (1.0 + 2.0 * spec.rho * (1.0 - p) * x)
    v1 = p * (1.0 - small_r) * _wmean(st, utility.u_prime(w0 - st.values + (1.0 - big_r) * x))
    v2 = (1.0 - p) * small_r * _wmean(su, utility.u_prime(w0 - su.values - big_r * x))
    return v1, v2


def _v_pair_index(sample, spec, utility, decomp, quants, k):
    mask = spec.in_trigger(sample.indices)
    w0 = utility.w0
    s = sample.losses
    h1_all, h3_all = decomp.eval_theta(sample.indices)
    p, iq = quants.p_trigger, quants
    if spec.principle is PremiumPrinciple.EXPECTED_VALUE:
        d1 = h1_all - (1.0 + spec.rho) * iq.int_h1
        d3 = h3_all - (1.0 + spec.rho) * iq.int_h3
        wt = w0 - s + d1 * k + d3
        v1 = float(np.mean(np.where(mask, d1, 0.0)
                           * np.where(mask, utility.u_prime(np.where(mask, wt, w0)), 0.0)))
        pi = (1.0 + iq.rho) * (iq.int_h1 * k + iq.int_h3)
        wu = w0 - s - pi
        v2 = ((1.0 + spec.rho) * iq.int_h1
              * float(np.mean(np.where(mask, 0.0,
                                       utility.u_prime(np.where(mask, w0, wu))))))
        return v1, v2
    if spec.principle is PremiumPrinciple.VARIANCE:
        r = 2.0 * iq.rho * k * iq.v1 + 2.0 * iq.rho * iq.v13 + iq.int_h1
        pi = (iq.int_h1 * k + iq.int_h3
              + iq.rho * (k * k * iq.v1 + 2.0 * k * iq.v13 + iq.v3))
        wt = w0 - s + h1_all * k + h3_all - pi
        v1 = float(np.mean(np.where(mask, h1_all - r, 0.0)
                           * np.where(mask, utility.u_prime(np.where(mask, wt, w0)), 0.0)))
        wu = w0 - s - pi
        v2 = r * float(np.mean(np.where(mask, 0.0,
                                        utility.u_prime(np.where(mask, w0, wu)))))
        return v1, v2
    raise UnsupportedPrincipleError(
        "standard-deviation principle is not supported for index insurance")


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def scan_points(k_lo, k_hi, interior=()):
    """The old boundary scan's points on [k_lo, k_hi], plus extra interior ones."""
    ts = np.linspace(0.0, 9.0, 50)
    ks = np.concatenate([[k_lo], k_hi - (k_hi - k_lo) * 10.0 ** (-ts), [k_hi],
                         np.asarray(interior, dtype=float)])
    return [float(k) for k in ks]


def weighted_two_point():
    return TriggeredSplit(EmpiricalSample([5.0, 10.0], [0.3, 0.7]),
                          EmpiricalSample([0.0, 4.0], [0.6, 0.4]), 0.5)


def smooth_40k():
    r = rng(41)
    return TriggeredSplit(EmpiricalSample(r.gamma(4.0, 5.0, 20_000) + 5.0),
                          EmpiricalSample(r.gamma(2.0, 1.0, 20_000)), 0.3)


PURE_CASES = [
    ("two_point", weighted_two_point, UtilityContext.exponential(beta=0.1, w0=10.0)),
    ("two_point_power", weighted_two_point, UtilityContext.power(eta=2.0, w0=30.0)),
    ("smooth_40k", smooth_40k, UtilityContext.exponential(beta=0.1, w0=0.0)),
    ("smooth_40k_power", smooth_40k, UtilityContext.power(eta=1.5, w0=200.0)),
]
PRINCIPLES = [(EV, 0.2), (SD, 0.15), (VAR, 0.005)]


def assert_pairs_close(got, want):
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
    assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)


def separable_decomposition():
    surface = (2.0 * THETAS)[:, None] + np.outer(1.0 + THETAS ** 2, logit(GAMMAS))
    return decompose(surface, GAMMAS, THETAS)


def shifted_separable_sample():
    """separable_sample() with the index mapped onto the decomposition's theta range."""
    sample = separable_sample()
    return LossIndexSample(sample.losses, 1.0 + 4.0 * (sample.indices - 60.0) / 80.0)


# ---------------------------------------------------------------------------
# oracle tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,make_split,utility", PURE_CASES,
                         ids=[c[0] for c in PURE_CASES])
@pytest.mark.parametrize("principle,rho", PRINCIPLES, ids=["ev", "sd", "var"])
def test_pure_system_matches_level_evaluator(name, make_split, utility, principle, rho):
    split = make_split()
    spec = ContractSpec(t_lo=83.0, rho=rho, principle=principle)
    system = _pure_system(split, spec, utility)
    st = split.triggered
    interior = expectile_grid(st, np.linspace(0.01, 0.99, 9))
    for k in scan_points(st.min, st.max, interior):
        assert_pairs_close(system.v_pair(k), _v_pair_at_level(split, spec, utility, k))


@pytest.mark.parametrize("principle,rho", [(EV, 0.1), (VAR, 0.002)], ids=["ev", "var"])
@pytest.mark.parametrize("t_lo", [2.2, 3.5])
def test_index_system_matches_index_evaluator(principle, rho, t_lo):
    sample = shifted_separable_sample()
    spec = ContractSpec(t_lo=t_lo, rho=rho, principle=principle)
    utility = UtilityContext.exponential(beta=0.05, w0=0.0)
    decomp = separable_decomposition()
    quants = index_quantities(decomp, sample, spec)
    system = _index_system(sample, spec, utility, decomp)
    interior = [decomp.eval_h2(g) for g in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
    for k in scan_points(decomp.eval_h2(1e-9), decomp.eval_h2(1.0 - 1e-9), interior):
        assert_pairs_close(system.v_pair(k),
                           _v_pair_index(sample, spec, utility, decomp, quants, k))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_index_quantities_equal_full_array_moments():
    sample = shifted_separable_sample()
    spec = ContractSpec(t_lo=2.2, rho=0.1)
    decomp = separable_decomposition()
    q = index_quantities(decomp, sample, spec)
    mask = spec.in_trigger(sample.indices)
    h1 = np.where(mask, np.interp(sample.indices, decomp.thetas, decomp.h1), 0.0)
    h3 = np.where(mask, np.interp(sample.indices, decomp.thetas, decomp.h3), 0.0)
    tight = {"rel": 1e-12, "abs": 0.0}
    assert q.p_trigger == mask.mean()
    assert q.int_h1 == pytest.approx(h1.mean(), **tight)
    assert q.int_h3 == pytest.approx(h3.mean(), **tight)
    assert q.v1 == pytest.approx(h1.var(), **tight)
    assert q.v3 == pytest.approx(h3.var(), **tight)
    assert q.v13 == pytest.approx(np.mean(h1 * h3) - h1.mean() * h3.mean(), **tight)


@pytest.mark.parametrize("x", [0.0, 5.0, 7.3, 10.0])
def test_pure_moments_reproduce_pure_premiums(x):
    split = weighted_two_point()
    p, rho = split.p, 0.05
    q = _pure_system(split, ContractSpec(t_lo=83.0, rho=rho, principle=VAR),
                     UtilityContext.exponential(beta=0.1)).quants
    assert (q.int_h1, q.int_h3, q.v1, q.v3, q.v13) == (p, 0.0, p * (1 - p), 0.0, 0.0)
    assert q.slope(x) == pytest.approx(p * (1 + 2 * rho * (1 - p) * x), rel=1e-15)
    assert q.premium(x) == pytest.approx(p * (1 + rho * (1 - p) * x) * x, rel=1e-15)
    assert (1 + rho) * q.int_h1 == _premium_multiplier(ContractSpec(t_lo=83.0, rho=rho), p)


def _rule_cases():
    """(quantities, payout at k) pairs: index EV and variance, pure under all three."""
    sample = shifted_separable_sample()
    decomp = separable_decomposition()
    cases = []
    for principle, rho in [(EV, 0.1), (VAR, 0.002)]:
        spec = ContractSpec(t_lo=2.2, rho=rho, principle=principle)
        mask = spec.in_trigger(sample.indices)
        h1, h3 = decomp.eval_theta(sample.indices)
        cases.append((index_quantities(decomp, sample, spec),
                      lambda k, h1=h1, h3=h3, mask=mask: np.where(mask, h1 * k + h3, 0.0)))
    mask = ContractSpec(t_lo=2.2).in_trigger(sample.indices)
    split = TriggeredSplit.from_sample(sample, ContractSpec(t_lo=2.2))
    for principle, rho in PRINCIPLES:
        spec = ContractSpec(t_lo=2.2, rho=rho, principle=principle)
        cases.append((_pure_system(split, spec, UtilityContext.exponential(beta=0.1)).quants,
                      lambda k, mask=mask: np.where(mask, k, 0.0)))
    return cases


RULE_IDS = ["index_ev", "index_var", "pure_ev", "pure_sd", "pure_var"]


@pytest.mark.parametrize("case", range(len(RULE_IDS)), ids=RULE_IDS)
def test_premium_prices_the_explicit_payout(case):
    q, payout = _rule_cases()[case]
    spec = ContractSpec(t_lo=2.2, rho=q.rho, principle=q.principle)
    for k in (0.0, 0.5, 3.0, 12.5):
        want = premium(PayoutVector(payout(k)), spec)
        assert q.premium(k) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("case", range(len(RULE_IDS)), ids=RULE_IDS)
def test_slope_is_the_premium_derivative(case):
    q, _ = _rule_cases()[case]
    h = 1e-4
    for k in (0.5, 3.0, 12.5):
        central = (q.premium(k + h) - q.premium(k - h)) / (2.0 * h)
        assert q.slope(k) == pytest.approx(central, rel=1e-8)


def test_index_quantities_reject_std_dev():
    with pytest.raises(UnsupportedPrincipleError):
        index_quantities(separable_decomposition(), shifted_separable_sample(),
                         ContractSpec(t_lo=2.2, rho=0.15, principle=SD))


# ---------------------------------------------------------------------------
# entry-point behaviour
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_split,rho", [(smooth_40k, 0.2), (weighted_two_point, 0.05)],
                         ids=["smooth_40k", "two_point"])
def test_gamma_star_does_not_depend_on_the_trace_size(make_split, rho):
    # bisection runs on the level bracket, not on the trace's first and last level
    spec = ContractSpec(t_lo=83.0, rho=rho)
    util = UtilityContext.exponential(beta=0.1, w0=0.0)
    sols = [solve_gamma_star(make_split(), spec, util, grid_size=n) for n in (1, 2, 200)]
    assert sols[0].decision is Decision.INTERIOR_OPTIMUM
    assert sols[0].gamma_star == sols[1].gamma_star == sols[2].gamma_star

def test_premium_dominates_on_pure_entry_points():
    split = weighted_two_point()
    split.p = 0.9
    spec = ContractSpec(t_lo=83.0, rho=0.2)
    util = UtilityContext.exponential(beta=0.1, w0=10.0)
    for call in (lambda: check_bounds(split, spec, util),
                 lambda: solve_gamma_star(split, spec, util)):
        with pytest.raises(PremiumDominatesError):
            call()


def test_index_bounds_reject_std_dev():
    sample = shifted_separable_sample()
    spec = ContractSpec(t_lo=2.2, rho=0.15, principle=SD)
    with pytest.raises(UnsupportedPrincipleError):
        check_bounds_index(sample, spec, UtilityContext.exponential(beta=0.05),
                           separable_decomposition())


# ---------------------------------------------------------------------------
# work per solve
# ---------------------------------------------------------------------------

def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def no_insurance_fixture():
    r = rng(31)
    idx = r.uniform(60.0, 140.0, 20_000)
    losses = np.clip(0.4 * (idx - 60.0) + r.gamma(2.0, 2.0, idx.size), 0.0, None)
    losses[r.random(idx.size) < 0.2] = 0.0
    sample = LossIndexSample(losses, idx)
    spec = ContractSpec(t_lo=83.0, rho=0.9)
    return sample, spec, degenerate_decomposition(sample, spec)


def test_index_solve_evaluates_theta_once(monkeypatch):
    sample = independent_sample()
    spec = ContractSpec(t_lo=116.0, rho=0.2)
    util = UtilityContext.exponential(beta=0.1, w0=0.0)
    decomp = degenerate_decomposition(sample, spec)
    fallback = no_insurance_fixture()
    calls = counting(monkeypatch, SeparableDecomposition, "eval_theta")
    sol = solve_gamma_star_index(sample, spec, util, decomp)
    assert sol.decision is Decision.INTERIOR_OPTIMUM
    assert len(calls) == 1
    calls.clear()
    fb_sample, fb_spec, fb_decomp = fallback
    sol = solve_gamma_star_index(fb_sample, fb_spec,
                                 UtilityContext.exponential(beta=0.05), fb_decomp)
    assert sol.decision is Decision.PREFER_NO_INSURANCE
    assert len(calls) == 1


def counting_bound_pairs(monkeypatch):
    """The number of v_pair calls of each solve's bound step, one entry per step."""
    counts = []
    original = weighting_pure._bounds_at_ends

    def counted(system, k_of, levels):
        counting = _CountingSystem(system)
        out = original(counting, k_of, levels)
        counts.append(counting.calls)
        return out

    monkeypatch.setattr(weighting_pure, "_bounds_at_ends", counted)
    return counts


def test_bound_step_reads_one_pair_per_end_it_needs(monkeypatch):
    # a failed lower bound decides both bounds at the low end; otherwise the
    # high end decides the upper one
    fb_sample, fb_spec, fb_decomp = no_insurance_fixture()
    counts = counting_bound_pairs(monkeypatch)
    sol = solve_gamma_star(weighted_two_point(), ContractSpec(t_lo=83.0, rho=0.3),
                           UtilityContext.exponential(beta=0.1, w0=10.0))
    assert sol.decision is Decision.PREFER_NO_INSURANCE
    assert counts == [1]
    counts.clear()
    sol = solve_gamma_star_index(fb_sample, fb_spec,
                                 UtilityContext.exponential(beta=0.05), fb_decomp)
    assert sol.decision is Decision.PREFER_NO_INSURANCE
    assert counts == [1]
    counts.clear()
    sol = solve_gamma_star(weighted_two_point(), ContractSpec(t_lo=83.0, rho=0.05),
                           UtilityContext.exponential(beta=0.1))
    assert sol.decision is Decision.INTERIOR_OPTIMUM
    assert counts == [2]
    counts.clear()
    sol = solve_gamma_star(_upper_violated(), ContractSpec(t_lo=83.0, rho=0.01),
                           UtilityContext.exponential(beta=2.0))
    assert (sol.lower_bound_holds, sol.upper_bound_holds) == (True, False)
    assert counts == [2]


def _old_boundary_scan(system, k_lo, k_hi):
    """The boundary scan before it decided both bounds from one pair at k_lo,
    verbatim apart from its name."""
    v1, v2 = system.v_pair(k_lo)
    lower = v1 > v2
    witnesses = {"lower_k": k_lo, "lower_v1": v1, "lower_v2": v2}
    # log-spaced toward k_hi: k_hi - (k_hi - k_lo)*10^-t
    ts = np.linspace(0.0, 9.0, 50)
    ks = np.append(k_hi - (k_hi - k_lo) * 10.0 ** (-ts), k_hi)
    upper = False
    for k in ks:
        v1k, v2k = system.v_pair(float(k))
        if v1k < v2k:
            upper = True
            witnesses.update(upper_k=float(k), upper_v1=v1k, upper_v2=v2k)
            break
    return lower, upper, witnesses


class _CountingSystem:
    def __init__(self, system):
        self.system, self.calls = system, 0

    def v_pair(self, k):
        self.calls += 1
        return self.system.v_pair(k)


def _upper_violated():
    return TriggeredSplit(EmpiricalSample([9.9, 10.0]), EmpiricalSample([-2.0, -2.0]), 0.3)


def _scan_cases():
    """(id, system, k_of): the oracle inputs above and the fallback fixtures, with
    k_of the map from a level to the system's payout scale."""
    for name, make_split, utility in PURE_CASES:
        for principle, rho in PRINCIPLES:
            split = make_split()
            spec = ContractSpec(t_lo=83.0, rho=rho, principle=principle)
            yield (f"{name}-{principle.value}", _pure_system(split, spec, utility),
                   _pure_level_map(split))
    lower_violated = weighted_two_point()
    yield ("lower_violated", _pure_system(lower_violated, ContractSpec(t_lo=83.0, rho=0.3),
                                          UtilityContext.exponential(beta=0.1, w0=10.0)),
           _pure_level_map(lower_violated))
    upper_violated = _upper_violated()
    yield ("upper_violated", _pure_system(upper_violated, ContractSpec(t_lo=83.0, rho=0.01),
                                          UtilityContext.exponential(beta=2.0)),
           _pure_level_map(upper_violated))
    decomp = separable_decomposition()
    for principle, rho in [(EV, 0.1), (VAR, 0.002)]:
        spec = ContractSpec(t_lo=2.2, rho=rho, principle=principle)
        yield (f"index-{principle.value}",
               _index_system(shifted_separable_sample(), spec,
                             UtilityContext.exponential(beta=0.05), decomp),
               decomp.eval_h2)
    fb_sample, fb_spec, fb_decomp = no_insurance_fixture()
    yield ("index_lower_violated",
           _index_system(fb_sample, fb_spec, UtilityContext.exponential(beta=0.05), fb_decomp),
           fb_decomp.eval_h2)


SCAN_CASES = list(_scan_cases())


@pytest.mark.parametrize("name,system,k_of", SCAN_CASES, ids=[c[0] for c in SCAN_CASES])
def test_end_rule_decides_as_the_old_scan(name, system, k_of):
    # the old scan over the same ends, (1e-9, 1 - 1e-9) on the level scale
    new = _CountingSystem(system)
    lower, upper, witnesses = weighting_pure._bounds_at_ends(new, k_of, LEVEL_RANGE)
    k_lo, k_hi = k_of(LEVEL_RANGE[0]), k_of(LEVEL_RANGE[1])
    old_lower, old_upper, old_witnesses = _old_boundary_scan(system, k_lo, k_hi)
    assert (lower, upper) == (old_lower, old_upper)
    assert {k: witnesses[k] for k in ("lower_k", "lower_v1", "lower_v2")} == {
        k: old_witnesses[k] for k in ("lower_k", "lower_v1", "lower_v2")}
    if lower:  # the upper bound is decided at the high end
        assert new.calls == 2
        assert witnesses["upper_k"] == k_hi
        assert upper == (witnesses["upper_v1"] < witnesses["upper_v2"])
    else:  # and at the low end, where it holds
        assert new.calls == 1
        assert witnesses["upper_k"] == k_lo
        assert (witnesses["upper_v1"], witnesses["upper_v2"]) == (
            witnesses["lower_v1"], witnesses["lower_v2"])


def test_scan_cases_reach_every_outcome():
    outcomes = {weighting_pure._bounds_at_ends(system, k_of, LEVEL_RANGE)[:2]
                for _, system, k_of in SCAN_CASES}
    assert outcomes == {(True, True), (False, True), (True, False)}


def _two_interval_case():
    """V1 - V2 changes sign between the triggered minimum 0 and e_{1e-9} = 50."""
    split = TriggeredSplit(EmpiricalSample([0.0, 100.0], [1e-9, 1 - 1e-9]),
                           EmpiricalSample([0.0, 10.0]), 0.3)
    return split, ContractSpec(t_lo=83.0, rho=0.5), UtilityContext.exponential(beta=0.01)


def test_bounds_are_decided_on_the_bisection_interval():
    split, spec, util = _two_interval_case()
    k_lo = expectile(split.triggered, LEVEL_RANGE[0])
    assert k_lo == pytest.approx(50.0, rel=1e-6)
    v1, v2 = _pure_system(split, spec, util).v_pair(k_lo)
    assert v1 < v2  # no optimum inside the bracket: the lower bound fails there
    sol = solve_gamma_star(split, spec, util)
    assert sol.decision is not Decision.INTERIOR_OPTIMUM
    assert (sol.lower_bound_holds, sol.upper_bound_holds) == (False, True)
    assert sol.gamma_star is None
    assert check_bounds(split, spec, util)[:2] == (
        sol.lower_bound_holds, sol.upper_bound_holds)


def test_public_bound_checks_agree_with_the_solve():
    fb_sample, fb_spec, fb_decomp = no_insurance_fixture()
    pure = [_two_interval_case(),
            (weighted_two_point(), ContractSpec(t_lo=83.0, rho=0.3),
             UtilityContext.exponential(beta=0.1, w0=10.0)),
            (weighted_two_point(), ContractSpec(t_lo=83.0, rho=0.05),
             UtilityContext.exponential(beta=0.1)),
            (_upper_violated(), ContractSpec(t_lo=83.0, rho=0.01),
             UtilityContext.exponential(beta=2.0))]
    index = [(shifted_separable_sample(), ContractSpec(t_lo=2.2, rho=0.1),
              separable_decomposition()), (fb_sample, fb_spec, fb_decomp)]
    util = UtilityContext.exponential(beta=0.05)
    outcomes = set()
    for args in pure:
        sol = solve_gamma_star(*args)
        outcomes.add((sol.lower_bound_holds, sol.upper_bound_holds))
        assert check_bounds(*args)[:2] == (sol.lower_bound_holds, sol.upper_bound_holds)
    for sample, spec, decomp in index:
        sol = solve_gamma_star_index(sample, spec, util, decomp)
        outcomes.add((sol.lower_bound_holds, sol.upper_bound_holds))
        assert check_bounds_index(sample, spec, util, decomp)[:2] == (
            sol.lower_bound_holds, sol.upper_bound_holds)
    assert outcomes == {(True, True), (False, True), (True, False)}

"""Units of loss: the optimal weighting does not depend on the currency.

Multiplying every loss and the building value by c, with the parameters
that carry a unit of loss rescaled to match, multiplies every payout,
premium and wealth by c and leaves the first-order system's sign unchanged
at each level. So the decision and the optimal level gamma* must not move:

- exponential utility at w0 = 0: beta -> beta / c;
- power utility: w0 -> w0 c (its u' scales by c^-eta on both sides);
- variance principle: rho -> rho / c (the expected-value and
  standard-deviation premiums are already linear in the loss).

Bisection reads only the sign of V1 - V2 and stops within a relative
1e-10 of a tie, far above the rounding of the rescaled sums, so gamma* is
compared bit for bit.
"""

import numpy as np
import pytest

from basisrisk.contracts import (
    ContractSpec,
    EmpiricalBinConditioner,
    LossIndexSample,
    PremiumPrinciple,
    _trigger_mask,
)
from basisrisk.weighting_index import build_surface, decompose, solve_gamma_star_index
from basisrisk.weighting_pure import Decision, TriggeredSplit, UtilityContext, solve_gamma_star
from conftest import rng

EV, SD, VAR = (PremiumPrinciple.EXPECTED_VALUE, PremiumPrinciple.STD_DEV,
               PremiumPrinciple.VARIANCE)
GAMMAS = np.linspace(0.01, 0.99, 99)  # contains 0.5 exactly
SCALES = [1e-3, 1e3]


def sample(c, n=20_000):
    """Triggered losses (index >= 116) that grow with the index, small ones elsewhere."""
    r = rng(30)
    idx = r.uniform(60.0, 140.0, n)
    losses = np.where(idx >= 116.0, 0.05 * (idx - 100.0) * r.gamma(4.0, 5.0, n),
                      r.gamma(2.0, 1.0, n))
    return LossIndexSample(losses * c, idx)


def spec(c, principle, rho):
    return ContractSpec(t_lo=116.0, principle=principle,
                        rho=rho / c if principle is VAR else rho, building_value=100.0 * c)


def utility(c, family):
    if family == "exponential":
        return UtilityContext.exponential(beta=0.05 / c, w0=0.0)
    return UtilityContext.power(eta=5.0, w0=200.0 * c)


def pure_solution(c, principle, rho, family):
    s = spec(c, principle, rho)
    return solve_gamma_star(TriggeredSplit.from_sample(sample(c), s), s, utility(c, family))


def index_solution(c, principle, rho, family):
    data, s = sample(c), spec(c, principle, rho)
    mask = _trigger_mask(data, s)
    cond = EmpiricalBinConditioner(LossIndexSample(data.losses[mask], data.indices[mask]),
                                   n_bins=6)
    decomp = decompose(build_surface(cond, cond.bin_centers, GAMMAS), GAMMAS,
                       cond.bin_centers, tolerance=0.2, conditioner=cond)
    return solve_gamma_star_index(data, s, utility(c, family), decomp)


def assert_same_solution(solve, principle, rho, family, decision):
    base = solve(1.0, principle, rho, family)
    assert base.decision is decision
    for c in SCALES:
        scaled = solve(c, principle, rho, family)
        assert scaled.decision is base.decision
        assert scaled.gamma_star == base.gamma_star
        assert scaled.alpha_star == base.alpha_star


@pytest.mark.parametrize("family", ["exponential", "power"])
@pytest.mark.parametrize("principle,rho", [(EV, 0.2), (SD, 0.3), (VAR, 0.01)],
                         ids=["ev", "sd", "var"])
def test_pure_interior_optimum_is_unit_free(principle, rho, family):
    assert_same_solution(pure_solution, principle, rho, family, Decision.INTERIOR_OPTIMUM)


def test_pure_fallback_decision_is_unit_free():
    # a steep loading under power utility: the lower bound fails
    assert_same_solution(pure_solution, EV, 0.9, "power", Decision.PREFER_NO_INSURANCE)


@pytest.mark.parametrize("family", ["exponential", "power"])
@pytest.mark.parametrize("principle,rho", [(EV, 0.2), (VAR, 0.01)], ids=["ev", "var"])
def test_index_interior_optimum_is_unit_free(principle, rho, family):
    assert_same_solution(index_solution, principle, rho, family, Decision.INTERIOR_OPTIMUM)


def test_index_fallback_decision_is_unit_free():
    assert_same_solution(index_solution, EV, 0.9, "power", Decision.PREFER_SMALLEST_ALPHA)

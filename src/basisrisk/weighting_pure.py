"""Utility-optimal basis-risk weighting for pure parametric contracts.

Implements the first-order system V1(gamma) = V2(gamma) for the expected
value, standard deviation, and variance premium principles (one system,
shared with the index contracts of weighting_index), the two existence
boundary conditions, the fallback decision logic when a boundary fails (no
insurance vs. extreme weightings vs. full indemnity), the closed form under
exponential utility with the expected-value principle, and empirical
expected-utility curves.

V1 is strictly decreasing and V2 strictly increasing in gamma for concave
utilities, so a sign change of V1 - V2 pins down the unique optimum and
bisection is globally convergent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .contracts import (
    ContractSpec,
    LossIndexSample,
    PremiumPrinciple,
    _check_payments,
    _expectile_columns,
    _premium_of,
    _trigger_mask,
)
from .expectile import (
    DegenerateDataError,
    DomainError,
    EmpiricalSample,
    Level,
    alpha_from_gamma,
    expectile,
    expectile_grid,
)

__all__ = list(_EXPORTS["weighting_pure"])


class UtilityDomainError(DomainError):
    """Utility evaluated outside its domain (e.g. power utility at x <= 0)."""


class PremiumDominatesError(DomainError):
    """Premium multiplier c >= 1: premiums would a.s. dominate payouts."""


class MonotonicityError(DomainError):
    """V1/V2 traces are not monotone beyond numerical noise."""


@dataclass(frozen=True)
class UtilityContext:
    """Twice differentiable concave utility plus initial wealth.

    ``u`` and ``u_prime`` take an optional ``out`` array, which they fill in
    place with the same arithmetic. ``side`` prepares one side of the
    trigger for the sums of u' and u that the first-order system and the
    utility curve read. Only the exponential family, which sets ``beta``,
    takes the moment form (``_MomentSide``): at a scalar shift its sums
    cost O(1) per evaluation. Power and custom utilities always sum the
    rows (``_RowSide``).
    """

    u: object
    u_prime: object
    u_second: object
    w0: float
    beta: float | None = None  # risk aversion of the exponential family only

    @classmethod
    def exponential(cls, beta: float, w0: float = 0.0):
        if not 0 < beta < np.inf:  # NaN fails too
            raise ValueError("beta must be positive and finite")

        def u(x, out=None):
            y = np.multiply(-beta, np.asarray(x, dtype=np.float64), out=out)
            return np.subtract(1.0, np.exp(y, out=out), out=out)

        def u_prime(x, out=None):
            y = np.multiply(-beta, np.asarray(x, dtype=np.float64), out=out)
            return np.multiply(beta, np.exp(y, out=out), out=out)

        return cls(
            u=u, u_prime=u_prime,
            u_second=lambda x: -beta * beta * np.exp(-beta * np.asarray(x, dtype=np.float64)),
            w0=w0, beta=beta,
        )

    @classmethod
    def power(cls, eta: float, w0: float):
        if not 0 < eta < np.inf or eta == 1.0:  # NaN fails too
            raise ValueError("eta must be positive, finite and != 1")

        def _check(x):
            x = np.asarray(x, dtype=np.float64)
            # fmin skips NaN, as the elementwise test x <= 0 does
            if x.size and np.fmin.reduce(x, axis=None) <= 0.0:
                raise UtilityDomainError("utility domain violated: non-positive wealth")
            return x

        def u(x, out=None):
            y = np.subtract(np.power(_check(x), 1.0 - eta, out=out), 1.0, out=out)
            return np.divide(y, 1.0 - eta, out=out)

        return cls(
            u=u,
            u_prime=lambda x, out=None: np.power(_check(x), -eta, out=out),
            u_second=lambda x: -eta * _check(x) ** (-eta - 1.0),
            w0=w0,
        )

    @classmethod
    def custom(cls, u, u_prime, u_second, w0: float):
        return cls(u=_writing_into(u), u_prime=_writing_into(u_prime),
                   u_second=u_second, w0=w0)

    def side(self, s, w):
        """The sums over one side of the trigger: losses s, weights w (an array or a scalar).

        The side is read at a scalar shift; a side whose shift varies by row
        sums its rows, and its caller builds that one itself (``_RowSide``).
        """
        if self.beta is None:
            return _RowSide(self, s, w)
        return _MomentSide(self.beta, s, w)

    def check_support(self, wealths) -> None:
        """Sample-based validation of u' > 0 and u'' <= 0 on realized wealths."""
        w = np.asarray(wealths, dtype=np.float64)
        up = np.asarray(self.u_prime(w), dtype=np.float64)
        upp = np.asarray(self.u_second(w), dtype=np.float64)
        if np.any(up <= 0.0):
            raise UtilityDomainError("marginal utility must be strictly positive")
        if np.any(upp > 1e-12 * np.abs(up).max()):
            raise UtilityDomainError("utility must be concave on the wealth support")


def _writing_into(fn):
    """A one-argument function of wealth, given the families' optional ``out`` array."""
    def call(x, out=None):
        if out is None:
            return fn(x)
        out[...] = fn(x)
        return out
    return call


class _RowSide:
    """Sums over one side's rows: losses s, weights w (an array or a scalar).

    ``u_prime_sum(shift, factor)`` is sum w factor u'(shift - s) and
    ``u_sum(shift)`` is sum w u(shift - s); shift and factor are scalars or
    per-row arrays. Both work in one buffer held here, so an evaluation
    allocates nothing sample-sized; between calls a caller may use it too.
    """

    def __init__(self, utility, s, w):
        self.utility, self.s, self.w = utility, s, w
        self.buf = np.empty(s.size)

    def u_prime_sum(self, shift, factor=1.0) -> float:
        x = self.utility.u_prime(np.subtract(shift, self.s, out=self.buf), out=self.buf)
        np.multiply(x, self.w, out=x)
        return float(np.sum(np.multiply(x, factor, out=x)))

    def u_sum(self, shift) -> float:
        x = self.utility.u(np.subtract(shift, self.s, out=self.buf), out=self.buf)
        return float(np.sum(np.multiply(x, self.w, out=x)))


class _MomentSide:
    """The exponential utility's sums over one side at a scalar shift, in O(1).

    With m the side's largest loss and M = sum w e^{beta (s - m)}, both
    computed once,

        sum w u'(shift - s) = beta e^{-beta (shift - m)} M,
        sum w u(shift - s)  = sum w - e^{-beta (shift - m)} M.

    No exponent in M is positive, so M cannot overflow, and the scale
    e^{-beta (shift - m)} overflows only where the largest row term does.
    That overflow is silent here: the caller's finiteness check reports it.

    The terms of M are formed in one side-sized buffer, each step in place;
    a product's operands commute exactly, so the buffer holds the same
    terms, and M sums them in the same order.
    """

    def __init__(self, beta, s, w):
        self.beta, self.top = beta, float(s.max())
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.subtract(s, self.top)
            np.exp(np.multiply(x, beta, out=x), out=x)
            self.mgf = float(np.sum(np.multiply(x, w, out=x)))
            self.mass = float(np.sum(np.broadcast_to(w, s.shape)))

    def _scale(self, shift):
        with np.errstate(over="ignore"):
            return np.exp(-self.beta * (shift - self.top)) * self.mgf

    def u_prime_sum(self, shift, factor=1.0) -> float:
        return float(factor * self.beta * self._scale(shift))

    def u_sum(self, shift) -> float:
        return float(self.mass - self._scale(shift))


class TriggeredSplit:
    """Conditional loss samples given trigger / no trigger, plus P(trigger).

    The empirical stand-in for the pair of conditional distributions used by
    the sample-average first-order system.
    """

    def __init__(self, triggered: EmpiricalSample, untriggered: EmpiricalSample,
                 p_trigger: float):
        if not (0.0 < p_trigger < 1.0):
            raise ValueError("trigger probability must lie strictly inside (0,1)")
        self.triggered = triggered
        self.untriggered = untriggered
        self.p = float(p_trigger)

    @classmethod
    def from_sample(cls, sample: LossIndexSample, spec: ContractSpec):
        mask = _trigger_mask(sample, spec)
        losses = sample.losses
        return cls(EmpiricalSample(losses[mask]), EmpiricalSample(losses[~mask]),
                   int(np.count_nonzero(mask)) / mask.size)

    def mean_loss(self) -> float:
        return self.p * self.triggered.mean + (1.0 - self.p) * self.untriggered.mean

    def var_loss(self) -> float:
        st, su = self.triggered, self.untriggered
        e2 = self.p * _wmean(st, st.values ** 2) + (1.0 - self.p) * _wmean(su, su.values ** 2)
        return e2 - self.mean_loss() ** 2


class Decision(enum.Enum):
    INTERIOR_OPTIMUM = "interior_optimum"
    PREFER_NO_INSURANCE = "prefer_no_insurance"
    PREFER_SMALLEST_ALPHA = "prefer_smallest_alpha"
    PREFER_INDEMNITY = "prefer_indemnity"
    PREFER_LARGEST_ALPHA = "prefer_largest_alpha"
    ENDPOINT_LOW = "endpoint_low"
    ENDPOINT_HIGH = "endpoint_high"


@dataclass
class WeightingSolution:
    gamma_star: float | None
    alpha_star: float | None
    lower_bound_holds: bool
    upper_bound_holds: bool
    decision: Decision
    residual: float | None = None
    trace: dict | None = None  # {"gamma": ..., "v1": ..., "v2": ...}


def _wmean(sample: EmpiricalSample, values: np.ndarray) -> float:
    return float(np.sum(sample.weights * values))


@dataclass(frozen=True)
class IndexQuantities:
    """The payout h1(tau) k + H3(tau) on trigger: its moments and its premium.

    The moments are taken over the index law. A pure contract (h1 = 1,
    H3 = 0) has int_h1 = p, v1 = p(1 - p), and zeros. ``premium(k)`` prices
    the payout under the contract's principle and ``slope(k)`` is its
    derivative in k. The standard-deviation premium c k, with
    c = int_h1 + rho sqrt(v1), holds only when v13 = v3 = 0, as for a pure
    contract; the index system rejects that principle.
    """

    p_trigger: float
    int_h1: float          # E[h1(tau) 1_T]
    int_h3: float          # E[H3(tau) 1_T]
    v1: float              # Var(h1(tau) 1_T)
    v3: float              # Var(H3(tau) 1_T)
    v13: float             # Cov(h1(tau) 1_T, H3(tau) 1_T)
    rho: float
    principle: PremiumPrinciple

    def premium(self, k: float) -> float:
        if self.principle is PremiumPrinciple.EXPECTED_VALUE:
            return (1.0 + self.rho) * (self.int_h1 * k + self.int_h3)
        if self.principle is PremiumPrinciple.VARIANCE:
            return (self.int_h1 * k + self.int_h3
                    + self.rho * (k * k * self.v1 + 2.0 * k * self.v13 + self.v3))
        return self.slope(k) * k

    def slope(self, k: float) -> float:
        if self.principle is PremiumPrinciple.EXPECTED_VALUE:
            return (1.0 + self.rho) * self.int_h1
        if self.principle is PremiumPrinciple.VARIANCE:
            return 2.0 * self.rho * k * self.v1 + 2.0 * self.rho * self.v13 + self.int_h1
        return self.int_h1 + self.rho * math.sqrt(self.v1)


class _FirstOrderSystem:
    """First-order system V1(k) = V2(k) for the payout h1(theta)*k + H3(theta) on trigger.

    Holds everything that does not depend on k: ``k_of``, the one map from
    an array of levels to their payout scales k (the triggered sample's
    ``expectile_grid`` for a pure contract, H2 for an index contract); the
    triggered and the untriggered side, each built here from its (losses,
    weights); h1 and H3 on the triggered rows (the scalars 1 and 0 for a
    pure contract, where k is the payout level); and the moments, which
    price the payout. With
    r = quants.slope(k) and pi = quants.premium(k),

        V1 = p * sum_T w (h1 - r) u'(w0 + h1 k + H3 - pi - S),
        V2 = (1 - p) * sum_U w r u'(w0 - pi - S).

    A side reads the utility's form (``UtilityContext.side``), except that
    the triggered side sums its rows when h1 varies by row, as on an index
    contract. Under exponential utility the other sides take the moment
    form and cost O(1) per evaluation. Row sums run in buffers held here
    and by the sides, so an evaluation allocates nothing sample-sized.
    """

    def __init__(self, utility, quants, k_of, triggered, untriggered, h1=1.0, h3=0.0):
        self.utility, self.quants, self.k_of = utility, quants, k_of
        self.h1, self.h3 = h1, h3
        varies = np.ndim(h1) > 0  # then the triggered side's shift varies by row
        self.triggered = _RowSide(utility, *triggered) if varies else utility.side(*triggered)
        self.untriggered = utility.side(*untriggered)
        # the triggered side's per-row shift and factor; None keeps them scalars
        self._shift = np.empty_like(h1) if varies else None
        self._factor = np.empty_like(h1) if varies else None

    def v_pair(self, k: float):
        """(V1, V2) at payout scale k."""
        q, w0 = self.quants, self.utility.w0
        r, pi = q.slope(k), q.premium(k)
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
            shift = np.multiply(self.h1, k, out=self._shift)
            shift = np.add(np.add(shift, self.h3, out=self._shift), w0 - pi, out=self._shift)
            factor = np.subtract(self.h1, r, out=self._factor)
            v1 = q.p_trigger * self.triggered.u_prime_sum(shift, factor)
            v2 = (1.0 - q.p_trigger) * self.untriggered.u_prime_sum(w0 - pi, r)
        if not (math.isfinite(v1) and math.isfinite(v2)):
            raise UtilityDomainError(f"u' overflowed: V1 = {v1!r}, V2 = {v2!r} at k = {k!r}")
        if v2 == 0.0:  # u' > 0 and r > 0, so only an underflowed u' sums to 0
            raise UtilityDomainError(f"u' underflowed: V2 = 0.0 at k = {k!r}")
        return v1, v2


def _pure_quantities(p: float, spec: ContractSpec) -> IndexQuantities:
    """The pure contract's moments at trigger probability p.

    A pure contract is the index contract with h1 = 1 and H3 = 0.
    """
    return IndexQuantities(p_trigger=p, int_h1=p, int_h3=0.0, v1=p * (1.0 - p), v3=0.0,
                           v13=0.0, rho=spec.rho, principle=spec.principle)


def _sides(split: TriggeredSplit, utility: UtilityContext):
    """The split's triggered and untriggered sides, prepared for the utility's sums."""
    st, su = split.triggered, split.untriggered
    return utility.side(st.values, st.weights), utility.side(su.values, su.weights)


def _pure_system(split: TriggeredSplit, spec: ContractSpec,
                 utility: UtilityContext) -> _FirstOrderSystem:
    """The pure contract's system; k is the payout level x = e_gamma(S | trigger)."""
    quants = _pure_quantities(split.p, spec)
    # under EV and SD the slope is the constant c of the premium c*k
    if spec.principle is not PremiumPrinciple.VARIANCE and quants.slope(0.0) >= 1.0:
        raise PremiumDominatesError("premium dominates payout (c >= 1)")
    st, su = split.triggered, split.untriggered
    return _FirstOrderSystem(utility, quants, lambda gammas: expectile_grid(st, gammas),
                             (st.values, st.weights), (su.values, su.weights))


def v1_v2(split: TriggeredSplit, spec: ContractSpec, utility: UtilityContext,
          gamma: Level | float):
    """Sample versions of the decreasing/increasing sides at level gamma."""
    return _pure_system(split, spec, utility).v_pair(expectile(split.triggered, gamma))


def _bounds_at_ends(system: _FirstOrderSystem, levels):
    """Existence boundary conditions at the ends (g_lo, g_hi) of a level range.

    The system's k_of maps both ends to their payout scales in one call.
    V1 falls and V2 rises in k, so the lower bound is V1 > V2 at k(g_lo),
    and V1 < V2 holds somewhere on the range exactly when it holds at
    k(g_hi). V1 <= V2 at the low end, a tie included, fails the lower bound
    and holds the upper one there. Returns (lower_holds, upper_holds,
    witnesses): k, V1 and V2 where each bound was decided.
    """
    k, k_hi = system.k_of(np.array(levels)).tolist()
    v1, v2 = system.v_pair(k)
    witnesses = {"lower_k": k, "lower_v1": v1, "lower_v2": v2}
    lower = v1 > v2
    if lower:
        k = k_hi
        v1, v2 = system.v_pair(k)
    witnesses.update(upper_k=k, upper_v1=v1, upper_v2=v2)
    return lower, not lower or v1 < v2, witnesses


def check_bounds(split: TriggeredSplit, spec: ContractSpec, utility: UtilityContext):
    """Evaluate the two existence boundary conditions, as solve_gamma_star does.

    Both are decided by the rule of ``_bounds_at_ends`` at the triggered
    expectiles at the ends of the levels a solve brackets, (1e-9, 1 - 1e-9),
    so exactly one bound fails or none does. Returns (lower_holds,
    upper_holds, witnesses).
    """
    return _bounds_at_ends(_pure_system(split, spec, utility), _LEVEL_RANGE)


def _check_monotone(v1, v2):
    slack = 1e-12 * max(np.abs(v1).max(), np.abs(v2).max(), 1e-300)
    if np.any(np.diff(v1) > slack) or np.any(np.diff(v2) < -slack):
        raise MonotonicityError(
            "monotonicity violated: V1 must decrease and V2 increase in gamma "
            "(check utility concavity)")


_BISECTION_TOL = 1e-10  # bisection stops at this gamma bracket or relative |V1 - V2|
_LEVEL_RANGE = (1e-9, 1.0 - 1e-9)  # the levels a solve traces and brackets, inside (0, 1)


def _solve_system(system: _FirstOrderSystem, gammas, bracket, fallback) -> WeightingSolution:
    """Trace, the boundary conditions at the bracket's ends and, when both hold, bisection.

    The system's k_of is the one level map: it maps the trace's levels
    gammas in one call, the bracket's two ends in one more, and each
    bisection midpoint and gamma* alone. The bisection runs over gamma on
    the same bracket whose ends decide the bounds. When a bound fails,
    fallback(lower, upper) gives the solution's (gamma_star or None, decision).
    """
    pairs = np.array([system.v_pair(k) for k in system.k_of(gammas).tolist()]).reshape(-1, 2)
    v1_trace, v2_trace = pairs[:, 0], pairs[:, 1]
    _check_monotone(v1_trace, v2_trace)
    trace = {"gamma": gammas, "v1": v1_trace, "v2": v2_trace}

    lower, upper, _ = _bounds_at_ends(system, bracket)
    if not (lower and upper):
        g_end, decision = fallback(lower, upper)
        return WeightingSolution(
            gamma_star=g_end,
            alpha_star=None if g_end is None else alpha_from_gamma(Level(g_end)).alpha,
            lower_bound_holds=lower, upper_bound_holds=upper, decision=decision,
            trace=trace)
    a, b = bracket
    while b - a > _BISECTION_TOL:
        mid = 0.5 * (a + b)
        v1m, v2m = system.v_pair(system.k_of(np.array([mid])).item())
        if abs(v1m - v2m) <= _BISECTION_TOL * (abs(v1m) + abs(v2m)):
            a = b = mid
            break
        if v1m > v2m:
            a = mid
        else:
            b = mid
    g_star = 0.5 * (a + b)
    v1s, v2s = system.v_pair(system.k_of(np.array([g_star])).item())
    return WeightingSolution(
        gamma_star=g_star, alpha_star=alpha_from_gamma(Level(g_star)).alpha,
        lower_bound_holds=True, upper_bound_holds=True,
        decision=Decision.INTERIOR_OPTIMUM, residual=abs(v1s - v2s), trace=trace)


def solve_gamma_star(split: TriggeredSplit, spec: ContractSpec,
                     utility: UtilityContext, *, grid_size: int = 200,
                     restrict: tuple[float, float] | None = None,
                     rho_indemnity: float | None = None) -> WeightingSolution:
    """Boundary checks plus bisection on V1 - V2, end to end.

    When both boundary conditions hold, bisection over gamma stops when
    |V1 - V2| falls below 1e-10*(|V1| + |V2|) or the gamma bracket below
    1e-10, whichever binds first; alpha* follows from the exact
    level-to-weighting inverse. A violated bound defers to
    violated_boundary_decision (or, under a restricted level interval, to
    the matching endpoint).
    """
    g_lo, g_hi = _LEVEL_RANGE if restrict is None else restrict
    if not (0.0 < g_lo < g_hi < 1.0):
        raise ValueError("restriction must satisfy 0 < lo < hi < 1")
    system = _pure_system(split, spec, utility)
    gammas = np.linspace(g_lo, g_hi, grid_size)

    def fallback(lower, upper):
        if restrict is not None:
            return (g_hi, Decision.ENDPOINT_HIGH) if lower else (g_lo, Decision.ENDPOINT_LOW)
        return None, _fallback_decision(
            system, split, spec.rho if rho_indemnity is None else rho_indemnity, lower, upper)

    return _solve_system(system, gammas, (g_lo, g_hi), fallback)


def expected_utility_constant_payout(split: TriggeredSplit, spec: ContractSpec,
                                     utility: UtilityContext, y: float) -> float:
    """E[u(w0 - S + y*1_T - pi_y)] for a constant-on-trigger payout y."""
    pi = _pure_quantities(split.p, spec).premium(y)
    return sum(_payout_utilities(_sides(split, utility), split.p, utility.w0, y, pi))


def _payout_utilities(sides, p: float, w0: float, y, pi: float):
    """(p E[u | T], (1 - p) E[u | not T]) at wealth w0 - S + y*1_T - pi; a per-row
    payout y (an array) takes the triggered side's shift w0 + y - pi in place."""
    shift = np.subtract(np.add(y, w0, out=y), pi, out=y) if np.ndim(y) else w0 + y - pi
    return p * sides[0].u_sum(shift), (1.0 - p) * sides[1].u_sum(w0 - pi)


def violated_boundary_decision(split: TriggeredSplit, spec: ContractSpec,
                               utility: UtilityContext,
                               rho_indemnity: float) -> Decision:
    """Insurance choice when exactly one boundary condition fails.

    Lower bound violated: expected utility is decreasing in gamma, so compare
    the gamma -> 0 limit (payout at the triggered minimum) against no
    insurance, short-circuiting with the sufficient no-insurance condition.
    Upper bound violated: expected utility is increasing, so check the
    principle-specific sufficient condition for preferring full indemnity
    coverage with loading rho_indemnity.
    """
    system = _pure_system(split, spec, utility)
    lower, upper, _ = _bounds_at_ends(system, _LEVEL_RANGE)
    return _fallback_decision(system, split, rho_indemnity, lower, upper)


def _check_one_bound_violated(lower: bool, upper: bool) -> None:
    """Raise when both bounds hold; _bounds_at_ends never reports both failed."""
    if lower and upper:
        raise ValueError("both boundary conditions hold; no fallback needed")


def _indemnity_decision(principle: PremiumPrinciple, ratio: float,
                        mean_y, var_y, mean_s, var_s) -> Decision:
    """Full indemnity or the largest weighting, when the upper bound fails.

    Y = sup 1_T, with sup the triggered losses' essential supremum (per bin
    on an index contract); S is the loss and ratio = rho_indemnity / rho.
    Indemnity when E[Y] > ratio E[S] (expected value), Var(Y) > ratio^2
    Var(S) (standard deviation) or Var(Y) > ratio Var(S) (variance); only
    the moment the principle reads is called.
    """
    if principle is PremiumPrinciple.EXPECTED_VALUE:
        prefers = mean_y() > ratio * mean_s()
    else:
        factor = ratio ** 2 if principle is PremiumPrinciple.STD_DEV else ratio
        prefers = var_y() > factor * var_s()
    return Decision.PREFER_INDEMNITY if prefers else Decision.PREFER_LARGEST_ALPHA


def _fallback_decision(system: _FirstOrderSystem, split: TriggeredSplit,
                       rho_indemnity: float, lower: bool, upper: bool) -> Decision:
    """violated_boundary_decision given the split's system and its bounds' outcome.

    p, rho and the principle are the system's, and the sufficient
    no-insurance condition is its V1(0) <= V2(0), at payout 0."""
    _check_one_bound_violated(lower, upper)
    quants, p = system.quants, system.quants.p_trigger
    if not lower:
        v1, v2 = system.v_pair(0.0)
        if v1 <= v2:
            return Decision.PREFER_NO_INSURANCE
        sides, w0 = (system.triggered, system.untriggered), system.utility.w0
        u_limit, u_none = (sum(_payout_utilities(sides, p, w0, y, quants.premium(y)))
                           for y in (split.triggered.min, 0.0))
        return (Decision.PREFER_SMALLEST_ALPHA if u_limit > u_none
                else Decision.PREFER_NO_INSURANCE)
    # upper violated: Y = sup 1_T has mean p sup and variance sup^2 p (1 - p)
    sup = split.triggered.max
    return _indemnity_decision(quants.principle, rho_indemnity / quants.rho,
                               lambda: p * sup, lambda: sup ** 2 * (p * (1.0 - p)),
                               split.mean_loss, split.var_loss)


def closed_form_exponential(split: TriggeredSplit, spec: ContractSpec, beta: float):
    """Optimal weighting under exponential utility + expected-value principle.

    x_exp is the optimal triggered payout level; the level gamma* follows by
    inverting the expectile first-order condition on the triggered empirical
    distribution, and alpha* by the exact level-to-weighting inverse.
    Independent of initial wealth by construction. Returns
    (alpha_star, gamma_star, x_exp).
    """
    if spec.principle is not PremiumPrinciple.EXPECTED_VALUE:
        raise ValueError("closed form requires the expected-value principle")
    if not beta > 0:  # NaN fails too
        raise ValueError("beta must be positive")
    p = split.p
    c = _pure_quantities(p, spec).slope(0.0)
    if c >= 1.0:
        raise PremiumDominatesError("premium dominates payout (c >= 1)")
    # The MGFs come from the rows here, never from the first-order system's
    # moment sides: this closed form is the independent check of the
    # bisection, so it must not share the sums it checks.
    with np.errstate(over="ignore", invalid="ignore"):  # checked through their ratio
        mgf_t = _wmean(split.triggered, np.exp(beta * split.triggered.values))
        mgf_u = _wmean(split.untriggered, np.exp(beta * split.untriggered.values))
    ratio = ((1.0 - p) * mgf_u) / (p * mgf_t)
    if not 0.0 < ratio < math.inf:
        raise UtilityDomainError(f"closed form: MGF ratio {ratio!r} is not finite and positive")
    x_exp = -(1.0 / beta) * (math.log(c / (1.0 - c)) + math.log(ratio))
    st = split.triggered
    if not (st.min < x_exp < st.max):
        raise DegenerateDataError("bounds violated: optimal level outside the triggered support")
    l_val = st.partial_mean(x_exp)
    f_val = st.cdf(x_exp)
    num = l_val - x_exp * f_val
    gamma_star = num / (2.0 * num + x_exp - st.mean)
    alpha_star = alpha_from_gamma(Level(gamma_star)).alpha
    return alpha_star, gamma_star, x_exp


def utility_curve(sample: LossIndexSample, spec: ContractSpec,
                  utility: UtilityContext, gamma_grid, conditioner=None) -> np.ndarray:
    """Empirical expected sub-utilities over a level grid.

    Returns an array with columns (gamma, U1, U2, U) where U1/U2 average the
    utility of terminal wealth over triggered/untriggered scenarios and
    U = U1 + U2. Pure parametric payouts by default; passing a conditioner
    switches to the index-conditional scheme. The trigger mask is built
    once, and each level reads the utility's two side sums
    (``_payout_utilities``). An index payout varies by row, so its
    triggered side sums its rows (``_RowSide``) and a level holds only the
    triggered rows' payouts; the premium counts the other rows as zeros. A
    binned conditioner solves each bin over the whole grid at once.
    """
    gammas = np.asarray(gamma_grid, dtype=np.float64)
    if not np.all((gammas > 0) & (gammas < 1)):
        raise ValueError("gamma grid must lie strictly inside (0,1)")
    w0 = utility.w0
    out = np.empty((gammas.size, 4))
    out[:, 0] = gammas
    if conditioner is None:
        split = TriggeredSplit.from_sample(sample, spec)
        levels = expectile_grid(split.triggered, gammas)
        _check_payments(levels)
        sides, quants = _sides(split, utility), _pure_quantities(split.p, spec)
        for i, y in enumerate(levels.tolist()):
            out[i, 1:3] = _payout_utilities(sides, split.p, w0, y, quants.premium(y))
    else:
        mask = _trigger_mask(sample, spec)
        n, n_t, losses = mask.size, int(np.count_nonzero(mask)), sample.losses
        sides = (_RowSide(utility, losses[mask], 1.0 / n_t),
                 utility.side(losses[~mask], 1.0 / (n - n_t)))
        # the binned conditioner gathers each level into scratch; a column
        # from any other conditioner is only read
        scratch = np.empty(n_t)
        columns = _expectile_columns(conditioner, sample.indices[mask], gammas, out=scratch)
        for i, column in enumerate(columns):
            y = np.maximum(column, 0.0, out=scratch)
            _check_payments(y)
            pi = _premium_of(y, spec, n, out=sides[0].buf)
            out[i, 1:3] = _payout_utilities(sides, n_t / n, w0, y, pi)
    out[:, 3] = out[:, 1] + out[:, 2]
    return out

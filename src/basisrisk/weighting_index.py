"""Optimal basis-risk weighting for parametric index insurance.

Separable conditional expectiles decompose as e_gamma(S|theta) =
h1(theta)*H2(gamma) + H3(theta) with h1 > 0 and H2 strictly increasing;
this module estimates the decomposition from a conditional-expectile
surface (rank-1 least squares on the centered surface), builds the moment
functionals entering the index-contract first-order system, and solves for
the optimal level under the expected-value and variance premium principles.
The standard-deviation principle does not admit the same monotone structure
and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .contracts import (
    ContractSpec,
    LossIndexSample,
    PremiumPrinciple,
    _expectile_columns,
    _trigger_mask,
)
from .expectile import DegenerateDataError, DomainError, Level
from .weighting_pure import (
    Decision,
    IndexQuantities,
    UtilityContext,
    WeightingSolution,
    _bounds_at_ends,
    _check_one_bound_violated,
    _FirstOrderSystem,
    _indemnity_decision,
    _LEVEL_RANGE,
    _solve_system,
)

__all__ = list(_EXPORTS["weighting_index"])


class SeparabilityError(DegenerateDataError):
    """Conditional expectile surface is not rank-1 after centering."""

    def __init__(self, message, residual=None, residual_map=None):
        super().__init__(message)
        self.residual = residual
        self.residual_map = residual_map


class UnsupportedPrincipleError(DomainError):
    """Premium principle not covered by the index-insurance theory."""


@dataclass
class SeparableDecomposition:
    """Fitted e_gamma(S|theta) = h1(theta)H2(gamma) + H3(theta).

    thetas are the bin centers (or analytic evaluation points); h1 is
    normalized to 1 at the reference bin. h2_eval, when present, evaluates
    H2 exactly from the underlying conditioner instead of interpolating the
    grid; h2_unbounded flags H2(1) = +inf (conditional losses with
    unbounded essential supremum).
    """

    thetas: np.ndarray
    h1: np.ndarray
    h3: np.ndarray
    gammas: np.ndarray
    h2_grid: np.ndarray
    residual: float
    ref_index: int
    h2_unbounded: bool = False
    h2_eval: object = None

    def eval_h2(self, gamma: float) -> float:
        if self.h2_eval is not None:
            return float(self.h2_eval(float(gamma)))
        g = min(max(float(gamma), self.gammas[0]), self.gammas[-1])
        return float(np.interp(g, self.gammas, self.h2_grid))

    def eval_theta(self, thetas):
        """(h1, H3) at arbitrary index values, linear between bin centers."""
        t = np.asarray(thetas, dtype=np.float64)
        return np.interp(t, self.thetas, self.h1), np.interp(t, self.thetas, self.h3)


def build_surface(conditioner, thetas, gammas) -> np.ndarray:
    """Conditional-expectile surface, shape (len(thetas), len(gammas)).

    A binned conditioner fills it from its per-bin table (one grid solve per
    bin); other conditioners are evaluated level by level.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    gammas = np.asarray(gammas, dtype=np.float64)
    out = np.empty((thetas.size, gammas.size))
    for j, column in enumerate(_expectile_columns(conditioner, thetas, gammas)):
        out[:, j] = column
    return out


def decompose(surface, gammas, thetas, *, tolerance: float = 1e-2,
              conditioner=None, h2_unbounded: bool = False) -> SeparableDecomposition:
    """Rank-1 fit of a conditional-expectile surface.

    H3 is pinned to the gamma = 1/2 column (the conditional mean, which
    makes H2(1/2) = 0 canonical); h1 and H2 come from the leading singular
    pair of the centered surface, normalized to h1 = 1 at the bin with the
    largest leverage. A max relative residual above ``tolerance`` raises
    SeparabilityError carrying the residual map. Passing the conditioner
    attaches an exact H2 evaluator (needed for tight agreement with the
    pure-parametric solver under degenerate conditioning).
    """
    surface = np.asarray(surface, dtype=np.float64)
    gammas = np.asarray(gammas, dtype=np.float64)
    thetas = np.asarray(thetas, dtype=np.float64)
    if surface.shape != (thetas.size, gammas.size):
        raise ValueError("surface shape must be (n_theta, n_gamma)")
    if gammas.size < 3 or thetas.size < 2:
        raise ValueError("need at least 3 gamma points and 2 theta bins")
    if np.any(np.diff(gammas) <= 0):
        raise ValueError("gamma grid must be strictly increasing")
    if np.any(np.diff(thetas) <= 0):  # tied index values give two bins one centre
        raise DegenerateDataError("theta grid must be strictly increasing")
    i_half = int(np.argmin(np.abs(gammas - 0.5)))
    if abs(gammas[i_half] - 0.5) > 1e-9:
        raise ValueError("gamma grid must contain 1/2 (pins H3 to the conditional mean)")
    h3 = surface[:, i_half].copy()
    centered = surface - h3[:, None]

    u_mat, s, vt = np.linalg.svd(centered, full_matrices=False)
    u0 = u_mat[:, 0]
    ref = int(np.argmax(np.abs(u0)))
    h1 = u0 / u0[ref]
    h2_grid = s[0] * vt[0, :] * u0[ref]
    if h2_grid[-1] < h2_grid[0]:
        h1, h2_grid = -h1, -h2_grid

    recon = h3[:, None] + np.outer(h1, h2_grid)
    scale = max(float(np.abs(centered).max()), 1e-300)
    residual_map = np.abs(surface - recon) / scale
    residual = float(residual_map.max())
    if residual > tolerance:
        raise SeparabilityError(
            f"separability violated: max relative residual {residual:.3e} "
            f"> {tolerance:.1e}", residual=residual, residual_map=residual_map)
    if np.any(h1 <= 0):
        raise SeparabilityError("separability violated: fitted h1 not strictly positive",
                                residual=residual, residual_map=residual_map)
    if np.any(np.diff(h2_grid) <= 0):
        raise SeparabilityError("separability violated: fitted H2 not strictly increasing",
                                residual=residual, residual_map=residual_map)

    h2_eval = None
    if conditioner is not None:
        def h2_eval(g, _c=conditioner, _t=float(thetas[ref]), _h3=float(h3[ref])):
            val = _c.conditional_expectile(np.array([_t]), Level(float(g)))
            return float(val[0]) - _h3

    return SeparableDecomposition(
        thetas=thetas, h1=h1, h3=h3, gammas=gammas, h2_grid=h2_grid,
        residual=residual, ref_index=ref, h2_unbounded=h2_unbounded,
        h2_eval=h2_eval)


def _index_moments(sample: LossIndexSample, spec: ContractSpec,
                   decomp: SeparableDecomposition):
    """The index contract's moments, the trigger mask, and h1, H3 at the triggered indices.

    h1 and H3 are evaluated once; the moments are taken over the whole
    index sample. The standard-deviation principle is rejected here: its
    premium rule in IndexQuantities holds only for a pure contract.
    """
    if spec.principle is PremiumPrinciple.STD_DEV:
        raise UnsupportedPrincipleError(
            "standard-deviation principle is not supported for index insurance")
    mask = _trigger_mask(sample, spec)
    h1, h3 = decomp.eval_theta(sample.indices[mask])
    p = float(mask.mean())
    h1_ind, h3_ind = np.zeros(mask.size), np.zeros(mask.size)
    h1_ind[mask], h3_ind[mask] = h1, h3
    int_h1, int_h3 = float(h1_ind.mean()), float(h3_ind.mean())
    quants = IndexQuantities(
        p_trigger=p, int_h1=int_h1, int_h3=int_h3, v1=float(h1_ind.var()),
        v3=float(h3_ind.var()), v13=float(np.mean(h1_ind * h3_ind) - int_h1 * int_h3),
        rho=spec.rho, principle=spec.principle)
    return quants, mask, h1, h3


def _index_system(sample: LossIndexSample, spec: ContractSpec, utility,
                  decomp: SeparableDecomposition) -> _FirstOrderSystem:
    """The index first-order system; the triggered side's shift varies by row."""
    quants, mask, h1, h3 = _index_moments(sample, spec, decomp)
    n_t = h1.size
    return _FirstOrderSystem(
        utility, quants,
        utility.side(sample.losses[mask], 1.0 / n_t, per_row=True),
        utility.side(sample.losses[~mask], 1.0 / (mask.size - n_t)), h1, h3)


def index_quantities(decomp: SeparableDecomposition, sample: LossIndexSample,
                     spec: ContractSpec) -> IndexQuantities:
    """Empirical moments of h1(tau)1_T and H3(tau)1_T over the index sample."""
    return _index_moments(sample, spec, decomp)[0]


def check_bounds_index(sample, spec, utility, decomp):
    """Boundary conditions of the index existence theorem, as the index solve decides them.

    Both are decided at k = H2 at the ends of the levels a solve brackets,
    (1e-9, 1 - 1e-9), by the rule of check_bounds; an unbounded H2(1) is
    read at the high end, as the solve's trace reads it. Returns
    (lower_holds, upper_holds, witnesses).
    """
    return _bounds_at_ends(_index_system(sample, spec, utility, decomp), decomp.eval_h2,
                           _LEVEL_RANGE)


def solve_gamma_star_index(sample: LossIndexSample, spec: ContractSpec,
                           utility: UtilityContext, decomp: SeparableDecomposition,
                           *, grid_size: int = 200,
                           rho_indemnity: float | None = None) -> WeightingSolution:
    """Bisection on the index first-order system V1(H2(gamma)) = V2(H2(gamma)).

    Supported principles: expected value and variance. Monotonicity of the
    traces is asserted on a gamma grid before solving; violated bounds defer
    to violated_boundary_decision_index.
    """
    system = _index_system(sample, spec, utility, decomp)
    gammas = np.linspace(*_LEVEL_RANGE, grid_size)
    rho_i = spec.rho if rho_indemnity is None else rho_indemnity
    return _solve_system(
        system, gammas, [decomp.eval_h2(float(g)) for g in gammas], decomp.eval_h2,
        _LEVEL_RANGE, lambda _, lower, upper: (None, _fallback_decision_index(
            sample, spec, decomp, rho_i, lower, upper)))


def violated_boundary_decision_index(sample: LossIndexSample, spec: ContractSpec,
                                     utility: UtilityContext,
                                     decomp: SeparableDecomposition,
                                     rho_indemnity: float) -> Decision:
    """Insurance choice when an index-contract boundary condition fails.

    Lower bound violated: if the per-bin essential infimum of triggered
    losses is (numerically) zero almost everywhere, no insurance strictly
    dominates; otherwise fall back to the smallest admissible weighting.
    Upper bound violated: principle-specific sufficient conditions for full
    indemnity coverage with loading rho_indemnity, using per-bin empirical
    essential suprema (an unbounded H2(1) short-circuits to indemnity).
    """
    lower, upper, _ = check_bounds_index(sample, spec, utility, decomp)
    return _fallback_decision_index(sample, spec, decomp, rho_indemnity, lower, upper)


def _fallback_decision_index(sample: LossIndexSample, spec: ContractSpec,
                             decomp: SeparableDecomposition, rho_indemnity: float,
                             lower: bool, upper: bool) -> Decision:
    """violated_boundary_decision_index given the boundary conditions' outcome."""
    _check_one_bound_violated(lower, upper)
    if lower and decomp.h2_unbounded:  # upper violated with H2(1) = +inf
        return Decision.PREFER_INDEMNITY
    # triggered losses binned by nearest decomposition center
    mask = _trigger_mask(sample, spec)
    edges = 0.5 * (decomp.thetas[:-1] + decomp.thetas[1:])
    bins = np.searchsorted(edges, sample.indices[mask], side="right")
    # each branch reads one per-bin extremum of the triggered losses
    if not lower:
        mins = np.full(decomp.thetas.size, np.inf)  # an empty bin keeps its inf
        np.minimum.at(mins, bins, sample.losses[mask])
        tol = 1e-9 * max(float(sample.losses.max()), 1.0)
        return (Decision.PREFER_NO_INSURANCE if np.all(mins[np.isfinite(mins)] <= tol)
                else Decision.PREFER_SMALLEST_ALPHA)
    # upper violated: Y = sup 1_T, with sup the largest triggered loss of the row's bin
    maxs = np.full(decomp.thetas.size, -np.inf)
    np.maximum.at(maxs, bins, sample.losses[mask])
    sup = np.zeros(mask.size)
    sup[mask] = maxs[bins]
    return _indemnity_decision(spec.principle, rho_indemnity / spec.rho,
                               sup.mean, sup.var, sample.losses.mean, sample.losses.var)

"""Expectile-based parametric insurance toolkit.

Optimal basis-risk weighting for pure parametric and index contracts,
premium principles, cat-in-a-circle hazard simulation, and dependence
analytics, with a batch CLI (`basisrisk`).
"""

from .contracts import (
    AnalyticConditioner,
    ContractSpec,
    DegenerateTriggerError,
    EmpiricalBinConditioner,
    ExponentialConditioner,
    LossIndexSample,
    PayoutVector,
    PremiumPrinciple,
    asymmetric_objective,
    basis_risk,
    fit_piecewise_linear,
    index_payout,
    premium,
    pure_parametric_payout,
    split_by_trigger,
)
from .dependence import (
    PairedObservations,
    TailEstimate,
    chatterjee_xi,
    conditional_probabilities,
    gumbel_mle,
    kendall_tau,
    plateau_k,
    sigma_u_sq,
    tail_ci,
    tail_estimate,
    tail_lambda,
)
from .expectile import (
    BasisRiskWeight,
    EmpiricalSample,
    Level,
    alpha_from_gamma,
    expectile,
    expectile_derivative,
    expectile_exponential,
    expectile_grid,
    gamma_from_alpha,
    lambert_w0,
)
from .hazard import (
    LossModelParams,
    Site,
    Track,
    TrackSet,
    bootstrap,
    incident_windspeeds,
    min_distance_km,
    simulate_losses,
    simulate_portfolio,
    storm_wind_convert,
)
from .weighting_index import (
    SeparableDecomposition,
    SeparabilityError,
    build_surface,
    decompose,
    index_quantities,
    solve_gamma_star_index,
    violated_boundary_decision_index,
)
from .weighting_pure import (
    Decision,
    TriggeredSplit,
    UtilityContext,
    WeightingSolution,
    check_bounds,
    closed_form_exponential,
    solve_gamma_star,
    utility_curve,
    v1_v2,
    violated_boundary_decision,
)

__version__ = "0.1.0"

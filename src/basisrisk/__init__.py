"""Expectile-based parametric insurance toolkit.

Optimal basis-risk weighting for pure parametric and index contracts,
premium principles, cat-in-a-circle hazard simulation, and dependence
analytics, with a batch CLI (`basisrisk`).

The names below are loaded from their submodule on first access (PEP 562),
so ``import basisrisk`` loads no numpy: the CLI can then set up the
environment numpy reads when it loads (see ``cli``).
"""

import importlib
import sys
import types

# The one list of public names: each submodule's ``__all__`` is read from here.
_EXPORTS = {
    "contracts": (
        "AnalyticConditioner",
        "ContractSpec",
        "DegenerateTriggerError",
        "EmpiricalBinConditioner",
        "ExponentialConditioner",
        "LossIndexSample",
        "PayoutVector",
        "PremiumPrinciple",
        "asymmetric_objective",
        "basis_risk",
        "fit_piecewise_linear",
        "index_payout",
        "premium",
        "pure_parametric_payout",
        "split_by_trigger",
    ),
    "dependence": (
        "PairedObservations",
        "TailEstimate",
        "chatterjee_xi",
        "conditional_probabilities",
        "gumbel_mle",
        "kendall_tau",
        "plateau_k",
        "sigma_u_sq",
        "tail_ci",
        "tail_estimate",
        "tail_lambda",
    ),
    "expectile": (
        "BasisRiskWeight",
        "EmpiricalSample",
        "Level",
        "alpha_from_gamma",
        "expectile",
        "expectile_derivative",
        "expectile_exponential",
        "expectile_grid",
        "gamma_from_alpha",
        "lambert_w0",
    ),
    "hazard": (
        "LossModelParams",
        "Site",
        "Track",
        "TrackSet",
        "bootstrap",
        "incident_windspeeds",
        "min_distance_km",
        "simulate_losses",
        "simulate_portfolio",
        "storm_wind_convert",
    ),
    "weighting_index": (
        "SeparableDecomposition",
        "SeparabilityError",
        "build_surface",
        "decompose",
        "index_quantities",
        "solve_gamma_star_index",
        "violated_boundary_decision_index",
    ),
    "weighting_pure": (
        "Decision",
        "TriggeredSplit",
        "UtilityContext",
        "WeightingSolution",
        "check_bounds",
        "closed_form_exponential",
        "solve_gamma_star",
        "utility_curve",
        "v1_v2",
        "violated_boundary_decision",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading the submodule ``expectile`` binds it here by name; the
        # exported function ``expectile`` keeps the name, as it did when the
        # exports were imported eagerly.
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

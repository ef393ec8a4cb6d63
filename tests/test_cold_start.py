"""Cold start: the CLI pins OpenBLAS to one thread, and ``import basisrisk`` loads no numpy.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads it, so every
check runs in a fresh interpreter whose environment sets it only where the
test says so.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import REPO_ROOT

# The names ``basisrisk`` exported from each submodule when it still imported
# them eagerly; each must keep resolving to the same object.
EXPORTS = {
    "contracts": [
        "AnalyticConditioner", "ContractSpec", "DegenerateTriggerError",
        "EmpiricalBinConditioner", "ExponentialConditioner", "LossIndexSample",
        "PayoutVector", "PremiumPrinciple", "asymmetric_objective", "basis_risk",
        "fit_piecewise_linear", "index_payout", "premium", "pure_parametric_payout",
        "split_by_trigger",
    ],
    "dependence": [
        "PairedObservations", "TailEstimate", "chatterjee_xi", "conditional_probabilities",
        "gumbel_mle", "kendall_tau", "plateau_k", "sigma_u_sq", "tail_ci", "tail_estimate",
        "tail_lambda",
    ],
    "expectile": [
        "BasisRiskWeight", "EmpiricalSample", "Level", "alpha_from_gamma", "expectile",
        "expectile_derivative", "expectile_exponential", "expectile_grid",
        "gamma_from_alpha", "lambert_w0",
    ],
    "hazard": [
        "LossModelParams", "Site", "Track", "TrackSet", "bootstrap", "incident_windspeeds",
        "min_distance_km", "simulate_losses", "simulate_portfolio", "storm_wind_convert",
    ],
    "weighting_index": [
        "SeparableDecomposition", "SeparabilityError", "build_surface", "decompose",
        "index_quantities", "solve_gamma_star_index", "violated_boundary_decision_index",
    ],
    "weighting_pure": [
        "Decision", "TriggeredSplit", "UtilityContext", "WeightingSolution", "check_bounds",
        "closed_form_exponential", "solve_gamma_star", "utility_curve", "v1_v2",
        "violated_boundary_decision",
    ],
}


def _fresh(code, **env_vars):
    """Run ``code`` in a new interpreter without OPENBLAS_NUM_THREADS; its stdout as JSON."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_cli_starts_one_thread():
    threads, value = _fresh(
        "import json, os, basisrisk.cli; "
        "print(json.dumps([len(os.listdir('/proc/self/task')), "
        "os.environ.get('OPENBLAS_NUM_THREADS')]))")
    assert (threads, value) == (1, "1")


def test_cli_keeps_an_explicit_thread_count():
    value = _fresh("import json, os, basisrisk.cli; "
                   "print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))",
                   OPENBLAS_NUM_THREADS="2")
    assert value == "2"


def test_package_import_loads_no_numpy_and_leaves_environ():
    numpy_loaded, environ_kept = _fresh(
        "import json, os, sys; before = dict(os.environ); import basisrisk; "
        "print(json.dumps(['numpy' in sys.modules, dict(os.environ) == before]))")
    assert (numpy_loaded, environ_kept) == (False, True)


def test_every_export_resolves_to_its_submodule_attribute():
    all_names, mismatched = _fresh(
        "import importlib, json, basisrisk; "
        f"exports = {EXPORTS!r}; "
        "print(json.dumps([basisrisk.__all__, [n for m, names in exports.items() for n in names "
        "if getattr(basisrisk, n) is not getattr(importlib.import_module('basisrisk.' + m), n)]]))")
    assert all_names == [name for names in EXPORTS.values() for name in names]
    assert mismatched == []

"""Cold start: the CLI pins OpenBLAS to one thread and freezes its import-time
heap, and ``import basisrisk`` loads no numpy.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads it, and
``gc.freeze()`` acts on the whole process, so every check runs in a fresh
interpreter whose environment sets the variable only where the test says so.
The console-script runs check that such a process still writes every file,
error line and warning that the golden table or an in-process run gives.
"""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden_outputs
from basisrisk.cli import main
from conftest import CONFIG_DIR, REPO_ROOT

GOLDEN = json.loads(golden_outputs.TABLE.read_text())["runs"]

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


def _child(code, *argv, **env_vars):
    """Run ``code`` with ``argv`` in a new interpreter without OPENBLAS_NUM_THREADS, in
    the repository root."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(env_vars)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=120)


def _fresh(code, **env_vars):
    """Run ``code`` in a new interpreter without OPENBLAS_NUM_THREADS; its stdout as JSON."""
    proc = _child(code, **env_vars)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _console(*argv):
    """Run the CLI with ``argv`` in a new interpreter, as the ``basisrisk`` console
    script runs it."""
    return _child("import sys; from basisrisk.cli import main; sys.exit(main())", *argv)


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


def test_cli_import_leaves_statistics_unloaded():
    # tail_ci imports it, so only a run that builds an interval pays for it
    assert _fresh("import json, sys, basisrisk.cli; "
                  "print(json.dumps('statistics' in sys.modules))") is False


def test_every_export_resolves_to_its_submodule_attribute():
    all_names, mismatched = _fresh(
        "import importlib, json, basisrisk; "
        f"exports = {EXPORTS!r}; "
        "print(json.dumps([basisrisk.__all__, [n for m, names in exports.items() for n in names "
        "if getattr(basisrisk, n) is not getattr(importlib.import_module('basisrisk.' + m), n)]]))")
    assert all_names == [name for names in EXPORTS.values() for name in names]
    assert mismatched == []


def test_cli_import_freezes_the_import_time_heap():
    frozen, tracked, enabled, cycle_freed = _fresh(
        "import gc, json, weakref, basisrisk.cli\n"
        "class Node: pass\n"
        "node = Node(); node.me = node; ref = weakref.ref(node); del node; gc.collect()\n"
        "print(json.dumps([gc.get_freeze_count(), len(gc.get_objects()), gc.isenabled(), "
        "ref() is None]))")
    # numpy's, yaml's and the package's objects are frozen, not left to the collector
    assert frozen > 10 * tracked > 0
    # the collector still runs, and still frees what the run makes
    assert enabled
    assert cycle_freed


@pytest.mark.parametrize("module", ["basisrisk", "basisrisk.weighting_pure",
                                    "basisrisk.hazard"])
def test_library_import_leaves_the_collector_alone(module):
    assert _fresh(f"import gc, json, {module}; print(json.dumps(gc.get_freeze_count()))") == 0


def test_console_run_writes_the_golden_files(tmp_path):
    proc = _console("fit-weighting", "--config", "configs/two_point_case1.yaml",
                    "--out", str(tmp_path / "out"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert golden_outputs.digests(tmp_path / "out") == GOLDEN[
        "configs/two_point_case1.yaml fit-weighting"]["sha256"]


def test_console_config_error_is_one_line(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text((CONFIG_DIR / "two_point_case1.yaml").read_text() + "not_a_key: 1\n")
    proc = _console("fit-weighting", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["config error: not_a_key is not a key this run reads"]
    assert not (tmp_path / "out").exists()


def test_console_run_prints_every_warning(tmp_path, caplog, monkeypatch):
    argv = ["dependence-report", "--config", "configs/dependence_toy.yaml", "--out"]
    proc = _console(*argv, str(tmp_path / "cold"))
    monkeypatch.chdir(REPO_ROOT)
    with caplog.at_level(logging.WARNING, logger="basisrisk"):
        assert main([*argv, str(tmp_path / "warm")]) == 0
    warnings = [f"WARNING {record.getMessage()}" for record in caplog.records]
    assert len(warnings) >= 2  # the pairs below min_joint and the MLE at its boundary
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == warnings
    assert golden_outputs.digests(tmp_path / "cold") == GOLDEN[
        "configs/dependence_toy.yaml dependence-report"]["sha256"]

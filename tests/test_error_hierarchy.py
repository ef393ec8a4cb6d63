"""One error hierarchy picks the CLI's exit code; anything else is a bug that exits 1.

Every exception class the package defines derives from exactly one of
``ConfigError`` (exit 2), ``DomainError`` (exit 4) and
``DegenerateDataError`` (exit 5). ``main`` catches only those,
``MemoryError`` (exit 4) and ``OSError`` (exit 3), so a builtin
``ValueError``, ``ArithmeticError`` or ``RuntimeError`` raised inside a
command ends the process with exit 1 and its traceback.
"""

import ast
import copy
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

import basisrisk
from basisrisk import cli, dependence
from basisrisk.cli import ConfigError, main
from basisrisk.contracts import ContractSpec
from basisrisk.dependence import PairedObservations, gumbel_mle, plateau_k, tail_estimate
from basisrisk.expectile import DegenerateDataError, DomainError, EmpiricalSample
from basisrisk.weighting_pure import (
    TriggeredSplit,
    UtilityDomainError,
    closed_form_exponential,
)
from conftest import CONFIG_DIR, REPO_ROOT

BASES = (ConfigError, DomainError, DegenerateDataError)


def _package_exceptions():
    for info in pkgutil.iter_modules(basisrisk.__path__):
        module = importlib.import_module(f"basisrisk.{info.name}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                yield obj


def test_every_package_error_has_exactly_one_base():
    found = sorted(_package_exceptions(), key=lambda cls: cls.__name__)
    assert len(found) >= 11  # the three bases and the eight errors built on them
    for cls in found:
        assert sum(issubclass(cls, base) for base in BASES) == 1, cls


def test_main_catches_only_the_bases_memoryerror_and_oserror():
    tree = ast.parse(inspect.getsource(main))
    handlers = [ast.unparse(h.type) for node in ast.walk(tree) if isinstance(node, ast.Try)
                for h in node.handlers]
    assert handlers == ["ConfigError", "DegenerateDataError", "DomainError", "MemoryError",
                        "OSError"]


def _cfg(tmp_path, cfg):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def _winds_cfg(tmp_path, winds, **keys):
    path = tmp_path / "winds.csv"
    np.savetxt(path, winds, delimiter=",", header="s0,s1", comments="")
    return _cfg(tmp_path, {"seed": 1, "winds_csv": str(path), **keys})


def _synthetic_fit(**keys):
    return {"seed": 7, "contract": {"t_lo": 83.0, "rho": 0.2},
            "utility": {"family": "exponential", "beta": 0.15},
            "sample": {"synthetic": {"kind": "wind_beta", "n": 2000}}, **keys}


def _fit_cfg(tmp_path):
    return _cfg(tmp_path, _synthetic_fit())


def _sim_cfg(tmp_path):
    return _cfg(tmp_path, {"seed": 1, "wind": {"synthetic": {"n": 200}}})


def _dep_cfg(tmp_path):
    winds = np.random.default_rng(2).uniform(1.0, 120.0, (40, 2))
    return _winds_cfg(tmp_path, winds)


# (subcommand, config, name the command calls, which the test replaces)
INJECTION_SITES = {
    "fit-weighting": (_fit_cfg, "solve_gamma_star"),
    "simulate": (_sim_cfg, "simulate_losses"),
    "dependence-report": (_dep_cfg, "kendall_tau"),
    "utility-curve": (_fit_cfg, "utility_curve"),
}
BUILTINS = [ValueError, ArithmeticError, RuntimeError]


def _raising(exc_type):
    def fail(*args, **kwargs):
        raise exc_type("injected fault")
    return fail


@pytest.mark.parametrize("exc_type", BUILTINS, ids=lambda e: e.__name__)
@pytest.mark.parametrize("command", sorted(INJECTION_SITES))
def test_injected_builtin_escapes_main(tmp_path, monkeypatch, command, exc_type):
    make_cfg, name = INJECTION_SITES[command]
    monkeypatch.setattr(cli, name, _raising(exc_type))
    out = tmp_path / "out"
    with pytest.raises(exc_type, match="injected fault"):
        main([command, "--config", str(make_cfg(tmp_path)), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(INJECTION_SITES))
def test_injected_memory_error_exits_4_with_one_line(tmp_path, monkeypatch, capsys, command):
    make_cfg, name = INJECTION_SITES[command]
    monkeypatch.setattr(cli, name, _raising(MemoryError))
    out = tmp_path / "out"
    code = main([command, "--config", str(make_cfg(tmp_path)), "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err == "numeric domain error: out of memory: injected fault\n"
    assert not out.exists()


_INJECT = """\
import sys
from basisrisk import cli

def fail(*args, **kwargs):
    raise {exc}("injected fault")

cli.{name} = fail
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("exc_type,command", list(zip(BUILTINS, sorted(INJECTION_SITES))),
                         ids=lambda v: getattr(v, "__name__", v))
def test_injected_builtin_exits_1_with_traceback(tmp_path, exc_type, command):
    make_cfg, name = INJECTION_SITES[command]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", _INJECT.format(exc=exc_type.__name__, name=name), command,
         "--config", str(make_cfg(tmp_path)), "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert proc.stderr.rstrip().endswith(f"{exc_type.__name__}: injected fault")
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit codes that this hierarchy moved or kept, each with the input that shows it
# ---------------------------------------------------------------------------

def _index_fit(**conditioner):
    cfg = yaml.safe_load((CONFIG_DIR / "index_fit.yaml").read_text())
    cfg["conditioner"].update(conditioner)
    return cfg


def _run(tmp_path, command, cfg, capsys):
    code = main([command, "--config", str(_cfg(tmp_path, cfg)),
                 "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_fit_weighting_index_needs_two_bins(tmp_path, capsys):
    code, err = _run(tmp_path, "fit-weighting", _index_fit(n_bins=1), capsys)
    assert code == 2
    assert err == "config error: conditioner.n_bins must be >= 2, got 1\n"
    assert not (tmp_path / "out").exists()


def test_utility_curve_index_takes_one_bin(tmp_path, capsys):
    cfg = _index_fit(n_bins=1)
    del cfg["separability_tolerance"]
    cfg["gamma_grid"] = 9
    code, _ = _run(tmp_path, "utility-curve", cfg, capsys)
    assert code == 0
    assert len((tmp_path / "out" / "utility_curve.csv").read_text().splitlines()) == 10


def test_fit_weighting_index_with_two_bins_runs(tmp_path, capsys):
    cfg = _index_fit(n_bins=2)
    cfg["sample"]["synthetic"]["n"] = 20000
    code, _ = _run(tmp_path, "fit-weighting", cfg, capsys)
    assert code == 0


@pytest.mark.parametrize("min_joint", [0, 5, 11])
def test_small_sample_tail_estimate_exits_5(tmp_path, capsys, min_joint):
    winds = np.random.default_rng(3).uniform(84.0, 130.0, (12, 2))
    code = main(["dependence-report", "--config",
                 str(_winds_cfg(tmp_path, winds, min_joint=min_joint)),
                 "--out", str(tmp_path / "out")])
    assert code == 5
    assert capsys.readouterr().err.splitlines()[-1] == (
        "degenerate data: insufficient data for plateau selection")
    assert not (tmp_path / "out").exists()


def test_small_sample_tail_errors_are_degenerate_data():
    g = np.random.default_rng(4)
    for m in (3, 29):
        with pytest.raises(DegenerateDataError, match="plateau"):
            plateau_k(PairedObservations(g.random(m), g.random(m)))
    for m in (2, 9):
        with pytest.raises(DegenerateDataError, match="m >= 10"):
            gumbel_mle(PairedObservations(g.random(m), g.random(m)))
    pairs = PairedObservations(g.random(30), g.random(30))
    assert plateau_k(pairs) >= 1 and tail_estimate(pairs).m == 30
    assert gumbel_mle(PairedObservations(g.random(10), g.random(10))) >= 1.0


def test_empty_conditioning_bin_exits_5(tmp_path, capsys):
    cfg = _index_fit(n_bins=1000, min_bin_count=0)
    cfg["sample"]["synthetic"]["n"] = 2000
    code, err = _run(tmp_path, "fit-weighting", cfg, capsys)
    assert code == 5
    assert err == "degenerate data: empty sample\n"


def test_tied_index_bins_exit_5(tmp_path, capsys):
    rows = [f"{float(i % 7)!r},{100.0 if i < 500 else 50.0!r}" for i in range(1000)]
    sample = tmp_path / "ties.csv"
    sample.write_text("loss,index\n" + "\n".join(rows) + "\n")
    cfg = _index_fit(n_bins=4, min_bin_count=10)
    cfg["sample"] = {"csv": str(sample)}
    code, err = _run(tmp_path, "fit-weighting", cfg, capsys)
    assert code == 5
    assert err == "degenerate data: theta grid must be strictly increasing\n"


def test_overflowing_synthetic_sample_exits_4(tmp_path, capsys):
    cfg = {"seed": 1, "wind": {"synthetic": {"n": 50, "lo": -1e308, "hi": 1e308}}}
    code, err = _run(tmp_path, "simulate", cfg, capsys)
    assert code == 4
    assert err == "numeric domain error: observations must be finite\n"


_UNDER_ADDRESS_LIMIT = """\
import resource
import sys

limit = 2 << 30  # bytes of address space: ample for the interpreter and numpy
_, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from basisrisk.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_allocation_past_memory_exits_4_with_one_line(tmp_path):
    # 10^12 winds pass the count bound but need 8 TB; the address-space
    # limit, set in the child only, makes the allocation fail at once
    cfg = _cfg(tmp_path, _with(_SYNTHETIC_SIM, "wind.synthetic.n", 1_000_000_000_000))
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_ADDRESS_LIMIT, "simulate", "--config", str(cfg),
         "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("numeric domain error: out of memory: Unable to allocate")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_underflowing_marginal_utility_exits_4(tmp_path, capsys):
    cfg = yaml.safe_load((CONFIG_DIR / "two_point_case1.yaml").read_text())
    cfg["utility"]["w0"] = 10000.0  # u' = exp(-0.1 * w) is 0.0 on both sides
    code, err = _run(tmp_path, "fit-weighting", cfg, capsys)
    assert code == 4
    assert err == "numeric domain error: u' underflowed: V2 = 0.0 at k = 5.000000005\n"
    assert not (tmp_path / "out").exists()


def test_overflowing_loss_curve_exits_4_without_numpy_warnings(tmp_path, capsys):
    cfg = yaml.safe_load((CONFIG_DIR / "simulate_synthetic.yaml").read_text())
    cfg["loss_model"]["rate"] = -100.0
    code, err = _run(tmp_path, "simulate", cfg, capsys)
    assert code == 4
    assert err == "numeric domain error: observations must be finite\n"


def _one_line_under_error_warnings(tmp_path, command, cfg, capsys):
    """(exit code, stderr) of an in-process run in which any warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _run(tmp_path, command, cfg, capsys)
    assert err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()
    return code, err


@pytest.mark.parametrize("key,value", [
    ("contract.rho", 1e300), ("utility.beta", 1e300), ("utility.beta", 1e308),
    ("sample.synthetic.loss_model.v", 1e300), ("sample.synthetic.loss_model.v", 1e308)])
def test_overflowing_index_solve_exits_4_with_one_line(tmp_path, capsys, key, value):
    cfg = _with(yaml.safe_load((CONFIG_DIR / "index_fit.yaml").read_text()), key, value)
    code, err = _one_line_under_error_warnings(tmp_path, "fit-weighting", cfg, capsys)
    assert code == 4
    assert err.startswith("numeric domain error: u' overflowed: ")


def test_loss_envelope_of_a_huge_wind_range_exits_5_with_one_line(tmp_path, capsys):
    cfg = yaml.safe_load((CONFIG_DIR / "simulate_synthetic.yaml").read_text())
    cfg["wind"]["synthetic"]["lo"] = -1e308  # the envelope's edges sum past the largest double
    code, err = _one_line_under_error_warnings(tmp_path, "simulate", cfg, capsys)
    assert code == 5
    assert err == "degenerate data: degenerate trigger\n"


def _overflowing_closed_form():
    cfg = yaml.safe_load((CONFIG_DIR / "two_point_case1.yaml").read_text())
    cfg["sample"]["two_point"]["triggered_values"] = [7000.0, 7200.0]
    cfg["contract"]["rho"] = 0.01
    return cfg


def test_overflowing_closed_form_exits_4(tmp_path, capsys):
    code, err = _run(tmp_path, "fit-weighting", _overflowing_closed_form(), capsys)
    assert code == 4
    assert err == ("numeric domain error: closed form: MGF ratio 0.0 is not finite "
                   "and positive\n")


def test_closed_form_mgf_ratio_out_of_range_is_a_utility_domain_error():
    tp = _overflowing_closed_form()["sample"]["two_point"]
    split = TriggeredSplit(EmpiricalSample(tp["triggered_values"]),
                           EmpiricalSample(tp["untriggered_values"]), tp["p_trigger"])
    spec = ContractSpec(t_lo=83.0, rho=0.01)
    with pytest.raises(UtilityDomainError, match="MGF ratio"):  # and no overflow warning
        closed_form_exponential(split, spec, 0.1)
    # two_point_case1's losses: its lower boundary condition fails at rho = 0.1
    case1 = TriggeredSplit(EmpiricalSample([5.0, 10.0]),
                           EmpiricalSample(tp["untriggered_values"]), tp["p_trigger"])
    with pytest.raises(DegenerateDataError, match="bounds violated"):
        closed_form_exponential(case1, ContractSpec(t_lo=83.0, rho=0.1), 0.1)


def test_dependence_report_builds_each_pair_once(tmp_path, monkeypatch):
    built = []

    class Counting(PairedObservations):
        __slots__ = ()

        def __init__(self, x, y):
            built.append(len(x))
            super().__init__(x, y)

    monkeypatch.setattr(cli, "PairedObservations", Counting)
    g = np.random.default_rng(5)
    winds = np.c_[g.uniform(1.0, 120.0, (40, 2)), np.full(40, 90.0)]
    path = tmp_path / "winds.csv"
    np.savetxt(path, winds, delimiter=",", header="s0,s1,s2", comments="")
    code = main(["dependence-report", "--config",
                 str(_cfg(tmp_path, {"seed": 1, "winds_csv": str(path)})),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    # (0,1) and its mirror for xi[1,0]; (0,2) and (1,2) stop at tau (s2 is constant)
    assert built == [40, 40, 40, 40]
    xi = np.genfromtxt(tmp_path / "out" / "xi.csv", delimiter=",", skip_header=1)[:, 1:]
    assert xi[1, 0] == dependence.chatterjee_xi(PairedObservations(winds[:, 1], winds[:, 0]),
                                                seed=1)


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_bytes(b"seed: 1\nwind: {synthetic: {n: 10}}\n# \xff\xfe\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "config error: malformed YAML: 'utf-8' codec can't decode byte 0xff")


def _with(cfg, path, value):
    """A copy of ``cfg`` with the dotted key ``path`` set to ``value``."""
    cfg = copy.deepcopy(cfg)
    *parents, name = path.split(".")
    block = cfg
    for key in parents:
        block = block[key]
    block[name] = value
    return cfg


_SYNTHETIC_SIM = {"seed": 1, "wind": {"synthetic": {"n": 200}}}

# (subcommand, config, count key): every count that sizes an array
COUNT_KEYS = [
    ("simulate", _SYNTHETIC_SIM, "wind.synthetic.n"),
    ("simulate", _SYNTHETIC_SIM, "hist_bins"),
    ("simulate", _SYNTHETIC_SIM, "envelope_bins"),
    ("simulate", {"seed": 1, "wind": {"tracks_csv": "tracks.csv",
                                      "site": {"lat_deg": 25.0, "lon_deg": -80.0}}},
     "wind.bootstrap_n"),
    ("fit-weighting", _synthetic_fit(), "sample.synthetic.n"),
    ("fit-weighting", _synthetic_fit(), "gamma_grid"),
    ("utility-curve", _synthetic_fit(), "gamma_grid"),
    ("fit-weighting", _synthetic_fit(payout_family="index", conditioner={}),
     "conditioner.n_bins"),
    ("utility-curve", _synthetic_fit(payout_family="index", conditioner={}),
     "conditioner.n_bins"),
]


@pytest.mark.parametrize("command,cfg,key", COUNT_KEYS)
@pytest.mark.parametrize("count", [2_000_000_000_000_000_000, 1e19])
def test_count_past_numpys_array_size_exits_2(tmp_path, capsys, command, cfg, key, count):
    code, err = _run(tmp_path, command, _with(cfg, key, count), capsys)
    assert code == 2
    assert err == (f"config error: {key} must be at most {cli._MAX_COUNT}, numpy's largest "
                   f"array length, got {count!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,cfg,key", COUNT_KEYS)
def test_count_bound_is_numpys_largest_float64_array(command, cfg, key):
    assert np.dtype(np.float64).itemsize * cli._MAX_COUNT <= np.iinfo(np.intp).max
    cli._TABLES[command].check(_with(cfg, key, cli._MAX_COUNT), "")
    with pytest.raises(ConfigError, match="must be at most"):
        cli._TABLES[command].check(_with(cfg, key, cli._MAX_COUNT + 1), "")

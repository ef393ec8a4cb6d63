"""Batch CLI: fit-weighting, simulate, dependence-report, utility-curve.

All randomness is seeded from the config (or the --seed override); outputs
are fully deterministic (stable JSON key order, repr-formatted floats, LF
line endings) and written atomically only after the whole run succeeds, so
failed runs leave no partial outputs.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 numeric-domain error,
5 degenerate-data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile

import numpy as np
import yaml

from . import __version__
from .contracts import (
    ContractSpec,
    DegenerateTriggerError,
    EmpiricalBinConditioner,
    InsufficientConditionalDataError,
    LossIndexSample,
    PremiumPrinciple,
    split_by_trigger,
)
from .dependence import (
    PairedObservations,
    chatterjee_xi,
    conditional_probabilities,
    kendall_tau,
    tail_estimate,
)
from .expectile import DegenerateSampleError, EmpiricalSample
from .hazard import (
    LossModelParams,
    Site,
    TrackSet,
    bootstrap,
    incident_windspeeds,
    simulate_losses,
    simulate_portfolio,
)
from .weighting_index import (
    SeparabilityError,
    build_surface,
    decompose,
    solve_gamma_star_index,
)
from .weighting_pure import (
    MonotonicityError,
    PremiumDominatesError,
    TriggeredSplit,
    UtilityContext,
    UtilityDomainError,
    closed_form_exponential,
    solve_gamma_star,
    utility_curve,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DOMAIN = 4
EXIT_DEGENERATE = 5


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _require(cfg, key, kind=None):
    if key not in cfg:
        raise ConfigError(f"missing config key: {key}")
    val = cfg[key]
    if kind is not None and not isinstance(val, kind):
        raise ConfigError(f"config key {key} has wrong type")
    return val


def _contract_from(cfg) -> ContractSpec:
    c = _require(cfg, "contract", dict)
    principles = {p.value: p for p in PremiumPrinciple}
    name = c.get("principle", "expected_value")
    if name not in principles:
        raise ConfigError(f"unknown premium principle: {name}")
    try:
        return ContractSpec(
            t_lo=float(_require(c, "t_lo")),
            t_hi=float(c.get("t_hi", np.inf)),
            principle=principles[name],
            rho=float(c.get("rho", 0.2)),
            building_value=float(c.get("building_value", 100.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid contract: {exc}") from exc


def _utility_from(cfg) -> UtilityContext:
    u = _require(cfg, "utility", dict)
    family = _require(u, "family")
    w0 = _config_float(u.get("w0", 0.0), "utility w0")
    try:
        if family == "exponential":
            return UtilityContext.exponential(
                beta=_config_float(_require(u, "beta"), "utility beta"), w0=w0)
        if family == "power":
            return UtilityContext.power(
                eta=_config_float(_require(u, "eta"), "utility eta"), w0=w0)
    except ValueError as exc:
        raise ConfigError(f"invalid utility: {exc}") from exc
    raise ConfigError(f"unknown utility family: {family}")


def _config_int(value, what: str) -> int:
    """int(value) for a config setting; a value int() rejects is a config error."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r:.40}") from exc


def _config_float(value, what: str) -> float:
    """float(value) for a config setting; a value float() rejects is a config error."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r:.40}") from exc


def _positive_float(value, what: str) -> float:
    """_config_float(value, what) that must be positive; NaN is a config error too."""
    x = _config_float(value, what)
    if not x > 0:
        raise ConfigError(f"{what} must be positive, got {x!r}")
    return x


def _seed_from(cfg, override):
    if override is not None:
        return int(override)
    if "seed" not in cfg:
        raise ConfigError("config must set a seed (no wall-clock seeding)")
    return _config_int(cfg["seed"], "seed")


def _sample_size(syn) -> int:
    n = _config_int(_require(syn, "n"), "synthetic sample size n")
    if n < 1:
        raise ConfigError("synthetic sample size must be >= 1")
    return n


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _beta_winds(syn, seed) -> np.ndarray:
    """The Beta wind stand-in: n draws of lo + (hi - lo) * Beta(a, b), in knots."""
    n = _sample_size(syn)
    lo = _config_float(syn.get("lo", 25.0), "wind_beta lo")
    hi = _config_float(syn.get("hi", 135.0), "wind_beta hi")
    a = _config_float(syn.get("a", 2.0), "wind_beta a")
    b = _config_float(syn.get("b", 2.8), "wind_beta b")
    if not (lo < hi and a > 0 and b > 0):  # NaN fails too
        raise ConfigError("wind_beta needs lo < hi and positive shapes")
    return lo + (hi - lo) * _rng(seed).beta(a, b, size=n)


def _synthetic_sample(syn, seed) -> LossIndexSample:
    kind = _require(syn, "kind")
    if kind == "wind_beta":
        theta = _beta_winds(syn, seed)
        return simulate_losses(theta, _loss_params_from(syn.get("loss_model", {})), seed)
    if kind == "gamma_regime":
        # Uniform index on (lo, hi) with a Gamma conditional loss whose shape
        # jumps at the regime switch point; the index is the Gamma scale, so
        # larger index values mean larger losses
        n = _sample_size(syn)
        lo = _config_float(syn.get("lo", 2.0), "gamma_regime lo")
        hi = _config_float(syn.get("hi", 4.0), "gamma_regime hi")
        switch = _config_float(syn.get("switch", 3.5), "gamma_regime switch")
        shape_lo = _config_float(syn.get("shape_lo", 3.0), "gamma_regime shape_lo")
        shape_hi = _config_float(syn.get("shape_hi", 3.5), "gamma_regime shape_hi")
        if not (0 <= lo < hi and shape_lo > 0 and shape_hi > 0):  # NaN fails too
            raise ConfigError("gamma_regime needs 0 <= lo < hi and positive shapes")
        rng = _rng(seed)
        theta = rng.uniform(lo, hi, size=n)
        shape = np.where(theta <= switch, shape_lo, shape_hi)
        losses = rng.gamma(shape, theta)
        return LossIndexSample(losses, theta)
    raise ConfigError(f"unknown synthetic sample kind: {kind}")


def _loss_params_from(lm) -> LossModelParams:
    try:
        return LossModelParams(
            v=float(lm.get("v", 100.0)), p=float(lm.get("p", 3.0)),
            q=float(lm.get("q", 3.0)), rate=float(lm.get("rate", 0.09)),
            offset=float(lm.get("offset", 64.0)),
            steepness=float(lm.get("steepness", 150.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid loss model: {exc}") from exc


def _read(path, what: str, parse):
    """parse(path); a missing file or a ValueError from parse is a config error."""
    if not os.path.exists(path):
        raise ConfigError(f"{what} file does not exist: {path}")
    try:
        return parse(path)
    except ValueError as exc:
        raise ConfigError(f"malformed {what} file {path}: {exc}") from exc


def _sample_from(cfg, seed) -> LossIndexSample:
    s = _require(cfg, "sample", dict)
    if "csv" in s:
        return _read(s["csv"], "sample", LossIndexSample.from_csv)
    if "synthetic" in s:
        return _synthetic_sample(s["synthetic"], seed)
    raise ConfigError("sample must provide 'csv' or 'synthetic'")


def _positive_count(value, what: str) -> int:
    """A positive count from the config: a positive integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{what} must be a positive integer, got {value!r:.40}")
    return value


def _conditioner_from(cfg, sample, spec) -> EmpiricalBinConditioner:
    """The index payout's per-bin conditioner over the triggered rows."""
    triggered, _ = split_by_trigger(sample, spec)
    c = cfg.get("conditioner", {})
    return EmpiricalBinConditioner(
        triggered, n_bins=_positive_count(c.get("n_bins", 20), "conditioner n_bins"),
        min_bin_count=_config_int(c.get("min_bin_count", 200), "conditioner min_bin_count"))


def _site_from(s) -> Site:
    try:
        return Site(lat_deg=float(_require(s, "lat_deg")),
                    lon_deg=float(_require(s, "lon_deg")),
                    radius_km=float(s.get("radius_km", 50.0)),
                    trigger_threshold_kn=float(s.get("threshold_kn", 83.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid site: {exc}") from exc


# ---------------------------------------------------------------------------
# deterministic output rendering
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating,
                                                        np.integer)) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _jsonable(x):
    if isinstance(x, (np.floating, float)):
        v = float(x)
        return v if np.isfinite(v) else repr(v)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _write_outputs(out_dir, outputs: dict[str, str]):
    """Write all rendered outputs atomically (temp file + rename each)."""
    os.makedirs(out_dir, exist_ok=True)
    for name, text in outputs.items():
        path = os.path.join(out_dir, name)
        fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=".tmp-" + name)
        try:
            with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _manifest(command, cfg, seed, outputs) -> str:
    return _json_text({
        "command": command,
        "config": _jsonable(cfg),
        "outputs": sorted(outputs),
        "seed": seed,
        "versions": {"basisrisk": __version__, "numpy": np.__version__},
    })


def _solution_record(sol) -> dict:
    return {
        "gamma_star": _jsonable(sol.gamma_star),
        "alpha_star": _jsonable(sol.alpha_star),
        "lower_bound_holds": bool(sol.lower_bound_holds),
        "upper_bound_holds": bool(sol.upper_bound_holds),
        "decision": sol.decision.value,
        "residual": _jsonable(sol.residual),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _split_from(cfg, spec, seed):
    s = _require(cfg, "sample", dict)
    if "two_point" in s:
        tp = s["two_point"]
        try:
            return TriggeredSplit(
                EmpiricalSample(tp["triggered_values"],
                                tp.get("triggered_weights")),
                EmpiricalSample(tp["untriggered_values"],
                                tp.get("untriggered_weights")),
                _config_float(tp["p_trigger"], "two_point p_trigger")), None
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid two_point sample: {exc}") from exc
    sample = _sample_from(cfg, seed)
    return TriggeredSplit.from_sample(sample, spec), sample


def cmd_fit_weighting(cfg, seed) -> dict[str, str]:
    spec = _contract_from(cfg)
    utility = _utility_from(cfg)
    family = cfg.get("payout_family", "pure")
    grid_size = _positive_count(cfg.get("gamma_grid", 200),
                                "fit-weighting gamma_grid (the trace size)")
    rho_i = cfg.get("rho_indemnity")
    rho_i = None if rho_i is None else _positive_float(rho_i, "rho_indemnity")

    if family == "pure":
        split, _ = _split_from(cfg, spec, seed)
        restrict = cfg.get("restrict")
        if restrict is not None:
            if not isinstance(restrict, list) or len(restrict) != 2:
                raise ConfigError("restrict must be a list of two levels, got "
                                  f"{restrict!r:.40}")
            restrict = tuple(_config_float(g, "restrict level") for g in restrict)
            if not 0.0 < restrict[0] < restrict[1] < 1.0:  # NaN fails too
                raise ConfigError(f"restrict must satisfy 0 < lo < hi < 1, got {restrict!r}")
        sol = solve_gamma_star(split, spec, utility, grid_size=grid_size,
                               restrict=restrict, rho_indemnity=rho_i)
        record = _solution_record(sol)
        u = cfg.get("utility", {})
        if (u.get("family") == "exponential"
                and spec.principle is PremiumPrinciple.EXPECTED_VALUE
                and sol.gamma_star is not None):
            alpha_c, gamma_c, x_exp = closed_form_exponential(
                split, spec, float(u["beta"]))
            record["closed_form"] = {
                "alpha_star": _jsonable(alpha_c), "gamma_star": _jsonable(gamma_c),
                "x_exp": _jsonable(x_exp),
                "gamma_delta": _jsonable(abs(gamma_c - sol.gamma_star)),
            }
    elif family == "index":
        sample = _sample_from(cfg, seed)
        cond = _conditioner_from(cfg, sample, spec)
        gammas = np.linspace(0.02, 0.98, 49)
        gammas[np.argmin(np.abs(gammas - 0.5))] = 0.5
        surface = build_surface(cond, cond.bin_centers, gammas)
        tolerance = _positive_float(cfg.get("separability_tolerance", 1e-2),
                                    "separability_tolerance")
        decomp = decompose(surface, gammas, cond.bin_centers, conditioner=cond,
                           tolerance=tolerance)
        sol = solve_gamma_star_index(sample, spec, utility, decomp,
                                     grid_size=grid_size, rho_indemnity=rho_i)
        record = _solution_record(sol)
        record["separability_residual"] = _jsonable(decomp.residual)
    else:
        raise ConfigError(f"unknown payout family: {family}")

    trace = sol.trace
    outputs = {
        "solution.json": _json_text(record),
        "trace.csv": _csv_text(("gamma", "v1", "v2"),
                               zip(trace["gamma"], trace["v1"], trace["v2"])),
    }
    return outputs


def _wind_values(cfg, seed) -> np.ndarray:
    w = _require(cfg, "wind", dict)
    if "tracks_csv" in w:
        tracks = _read(w["tracks_csv"], "track", TrackSet.from_csv)
        site = _site_from(_require(w, "site", dict))
        incident = incident_windspeeds(tracks, site)
        if incident.size == 0:
            raise DegenerateTriggerError("no incident tracks at the site")
        n = _positive_count(w.get("bootstrap_n", incident.size), "wind bootstrap_n")
        return bootstrap(incident, n, seed).values
    if "synthetic" in w:
        return _beta_winds(w["synthetic"], seed)
    raise ConfigError("wind must provide 'tracks_csv' or 'synthetic'")


def cmd_simulate(cfg, seed) -> dict[str, str]:
    hist_bins = _positive_count(cfg.get("hist_bins", 50), "simulate hist_bins")
    n_env = _positive_count(cfg.get("envelope_bins", 40), "simulate envelope_bins")
    theta = _wind_values(cfg, seed)
    params = _loss_params_from(cfg.get("loss_model", {}))
    sample = simulate_losses(theta, params, seed)

    hist, edges = np.histogram(sample.indices, bins=hist_bins)
    hist_rows = [(edges[i], edges[i + 1], int(hist[i])) for i in range(hist.size)]

    qedges = np.quantile(sample.indices, np.linspace(0, 1, n_env + 1))
    env_rows = []
    for i in range(n_env):
        lo, hi = qedges[i], qedges[i + 1]
        sel = ((sample.indices >= lo) & (sample.indices < hi)) if i < n_env - 1 \
            else ((sample.indices >= lo) & (sample.indices <= hi))
        if not sel.any():
            continue
        ls = sample.losses[sel]
        env_rows.append((0.5 * (lo + hi), float(ls.mean()), float(ls.min()),
                         float(ls.max())))

    sample_lines = ["loss,index"]
    for s, t in zip(sample.losses, sample.indices):
        sample_lines.append(f"{float(s)!r},{float(t)!r}")
    outputs = {
        "sample.csv": "\n".join(sample_lines) + "\n",
        "wind_hist.csv": _csv_text(("bin_lo", "bin_hi", "count"), hist_rows),
        "loss_envelope.csv": _csv_text(("theta", "mean", "min", "max"), env_rows),
    }

    sweep = cfg.get("alpha_sweep")
    if sweep:
        qs = sweep.get("qs", [1.0, 3.0, 5.0]) if isinstance(sweep, dict) else None
        if not isinstance(qs, list) or not qs or not all(
                isinstance(q, (int, float)) and not isinstance(q, bool) and q > 0
                for q in qs):
            raise ConfigError("alpha_sweep must be a mapping whose qs is a non-empty "
                              f"list of positive numbers, got {sweep!r:.60}")
        spec = _contract_from(cfg)
        utility = _utility_from(cfg)
        rows = []
        for q in qs:
            params_q = LossModelParams(v=params.v, p=params.p, q=float(q),
                                       rate=params.rate, offset=params.offset,
                                       steepness=params.steepness)
            sample_q = simulate_losses(theta, params_q, seed)
            split = TriggeredSplit.from_sample(sample_q, spec)
            sol = solve_gamma_star(split, spec, utility)
            rows.append((float(q),
                         sol.alpha_star if sol.alpha_star is not None else float("nan"),
                         sol.gamma_star if sol.gamma_star is not None else float("nan"),
                         sol.decision.value))
        outputs["alpha_sweep.csv"] = _csv_text(
            ("q", "alpha_star", "gamma_star", "decision"), rows)
    return outputs


def cmd_dependence_report(cfg, seed) -> dict[str, str]:
    threshold = _positive_float(cfg.get("threshold_kn", 83.0), "threshold_kn")
    if "winds_csv" in cfg:
        path = cfg["winds_csv"]
        winds = _read(path, "wind matrix", lambda f: np.loadtxt(
            f, delimiter=",", skiprows=1, ndmin=2))
        if not np.all(np.isfinite(winds)):
            raise ConfigError(f"wind matrix file {path} has a non-numeric or "
                              "non-finite cell")
    else:
        tracks = _read(_require(cfg, "tracks_csv"), "track", TrackSet.from_csv)
        sites = [_site_from(s) for s in _require(cfg, "sites", list)]
        params = [_loss_params_from(cfg.get("loss_model", {}))] * len(sites)
        winds, _ = simulate_portfolio(tracks, sites, params, seed)
    if winds.ndim != 2 or winds.shape[1] < 2:
        raise DegenerateSampleError("dependence report needs >= 2 sites")

    p_inc, p_trig = conditional_probabilities(winds, threshold)
    n_sites = winds.shape[1]

    def matrix_csv(mat):
        header = ["site"] + [f"s{j}" for j in range(n_sites)]
        rows = [[f"s{i}"] + [mat[i, j] for j in range(n_sites)] for i in range(n_sites)]
        return _csv_text(header, rows)

    tau = np.full((n_sites, n_sites), np.nan)
    xi = np.full((n_sites, n_sites), np.nan)
    tau_error = {}  # kendall_tau's message per unordered pair (i < j) it raised on
    outputs = {}
    min_joint = _config_int(cfg.get("min_joint", 30), "dependence-report min_joint")
    for i in range(n_sites):
        for j in range(n_sites):
            if i == j:
                continue
            joint = (winds[:, i] > 0) & (winds[:, j] > 0)
            m = int(joint.sum())
            if m < 3:
                logger.warning("pair (%d,%d): only %d joint incidents", i, j, m)
                continue
            pairs = PairedObservations(winds[joint, i], winds[joint, j])
            if i < j:  # tau is symmetric: once per unordered pair
                try:
                    tau[i, j] = tau[j, i] = kendall_tau(pairs)
                except ValueError as exc:
                    tau_error[i, j] = str(exc)
            error = tau_error.get((min(i, j), max(i, j)))
            if error is None:  # m >= 3 and y not constant, so xi cannot raise
                xi[i, j] = chatterjee_xi(pairs, seed=seed)
            else:
                logger.warning("pair (%d,%d): %s", i, j, error)
            if i < j:
                outputs[f"ranks_{i}_{j}.csv"] = _csv_text(
                    ("x", "y"), zip(pairs.x, pairs.y))
                if m >= min_joint:
                    est = tail_estimate(pairs)
                    outputs[f"tail_{i}_{j}.json"] = _json_text({
                        "m": est.m, "k": est.k,
                        "lambda_hat": _jsonable(est.lambda_hat),
                        "eta_hat": _jsonable(est.eta_hat),
                        "sigma_u_sq": _jsonable(est.sigma_u_sq),
                        "ci_low": _jsonable(est.ci_low),
                        "ci_high": _jsonable(est.ci_high)})
                else:
                    logger.warning("pair (%d,%d): %d < %d joint rows, tail "
                                   "estimate absent", i, j, m, min_joint)

    outputs["p_inc.csv"] = matrix_csv(p_inc)
    outputs["p_trig.csv"] = matrix_csv(p_trig)
    outputs["tau.csv"] = matrix_csv(tau)
    outputs["xi.csv"] = matrix_csv(xi)
    return outputs


def cmd_utility_curve(cfg, seed) -> dict[str, str]:
    spec = _contract_from(cfg)
    utility = _utility_from(cfg)
    sample = _sample_from(cfg, seed)
    grid_cfg = cfg.get("gamma_grid", 99)
    if isinstance(grid_cfg, list):
        if not grid_cfg or not all(
                isinstance(g, (int, float)) and not isinstance(g, bool) and 0.0 < g < 1.0
                for g in grid_cfg):
            raise ConfigError("utility-curve gamma_grid list must hold levels strictly "
                              f"inside (0, 1), got {grid_cfg!r:.40}")
        gammas = np.asarray([float(g) for g in grid_cfg])
    else:
        n = _positive_count(grid_cfg, "utility-curve gamma_grid (a level count or list)")
        gammas = np.linspace(1.0 / (n + 1), n / (n + 1.0), n)
    conditioner = None
    if cfg.get("payout_family", "pure") == "index":
        conditioner = _conditioner_from(cfg, sample, spec)
    curve = utility_curve(sample, spec, utility, gammas, conditioner=conditioner)
    return {"utility_curve.csv": _csv_text(("gamma", "u1", "u2", "u"), curve)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "fit-weighting": cmd_fit_weighting,
    "simulate": cmd_simulate,
    "dependence-report": cmd_dependence_report,
    "utility-curve": cmd_utility_curve,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="basisrisk",
        description="Expectile-based parametric insurance batch analyses")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        cfg = _load_config(args.config)
        seed = _seed_from(cfg, args.seed)
        outputs = _COMMANDS[args.command](cfg, seed)
        outputs["manifest.json"] = _manifest(args.command, cfg, seed,
                                             list(outputs) + ["manifest.json"])
        _write_outputs(args.out, outputs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateTriggerError, DegenerateSampleError, SeparabilityError,
            InsufficientConditionalDataError) as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (UtilityDomainError, PremiumDominatesError, MonotonicityError,
            ArithmeticError, ValueError) as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

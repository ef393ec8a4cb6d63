"""Batch CLI: fit-weighting, simulate, dependence-report, utility-curve.

All randomness is seeded from the config (or the --seed override); outputs
are fully deterministic (stable JSON key order, repr-formatted floats, LF
line endings) and written atomically only after the whole run succeeds, so
failed runs leave no partial outputs.

Exit codes: 0 success, 1 a program bug (with its traceback), 2 config error,
3 I/O error, 4 numeric-domain error (DomainError), 5 degenerate data
(DegenerateDataError).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile

# OpenBLAS reads this once, when numpy loads it, and by default starts a
# worker thread per core that spins after it starts, costing every cold run
# CPU or wall time; the package's one BLAS call (the SVD of the index
# surface) is on a small matrix, so one thread loses nothing. An explicit
# setting still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import yaml

from . import __version__
from .contracts import (
    ContractSpec,
    EmpiricalBinConditioner,
    LossIndexSample,
    PremiumPrinciple,
    _csv_text,
    _numeric_csv,
    _rng,
    split_by_trigger,
)
from .dependence import (
    PairedObservations,
    chatterjee_xi,
    conditional_probabilities,
    kendall_tau,
    tail_estimate,
)
from .expectile import DegenerateDataError, DomainError, EmpiricalSample
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
    build_surface,
    decompose,
    solve_gamma_star_index,
)
from .weighting_pure import (
    TriggeredSplit,
    UtilityContext,
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
# config tables: every key a subcommand reads, checked once before any work
# ---------------------------------------------------------------------------

def _fail(path, need, value):
    raise ConfigError(f"{path or 'config'} must be {need}, got {value!r:.60}")


class _Key:
    """One config key: its type, its range, and whether it is required or defaulted.

    ``kind`` is "number" (never a bool or a string), "integer" (an int or an
    integral float), "count" (an integer that sizes an array, so at most
    ``_MAX_COUNT``), "level" (a name in ``of``, read as its value if ``of``
    is a dict), "text", "list" (non-empty, of ``of`` items) or "either" (``of``
    checks a list by its second key, anything else by its first). ``rng`` is
    (predicate, words), written so that NaN fails. Only a setting that no
    library object defaults has a default.
    """

    def __init__(self, kind, rng=(np.isfinite, "finite"), of=None, *, required=False,
                 default=None):
        self.kind, self.rng, self.of = kind, rng, of
        self.required, self.default = required, default

    def but(self, **kw):
        """This key, made required or given a default."""
        return _Key(self.kind, self.rng, self.of, **kw)

    def check(self, value, path):
        kind, of, raw = self.kind, self.of, value
        if kind == "either":
            return of[isinstance(value, list)].check(value, path)
        if kind in ("level", "text"):
            if not isinstance(value, str) or (of is not None and value not in of):
                _fail(path, "a string" if of is None else "one of " + ", ".join(of), value)
            return of[value] if isinstance(of, dict) else value
        if kind == "list":
            if not (isinstance(value, list) and value):
                _fail(path, "a non-empty list", value)
            value = [of.check(v, f"{path}[{i}]") for i, v in enumerate(value)]
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or (
                isinstance(value, int) and abs(value) > sys.float_info.max) or (
                kind != "number" and isinstance(value, float) and not value.is_integer()):
            _fail(path, "a number" if kind == "number" else "an integer", value)
        else:
            value = float(value) if kind == "number" else int(value)
            if kind == "count" and value > _MAX_COUNT:
                _fail(path, f"at most {_MAX_COUNT}, numpy's largest array length", raw)
        if self.rng is not None and not self.rng[0](value):
            _fail(path, self.rng[1], raw)
        return value


class _Table(_Key):
    """A config mapping: its keys, plus those of the branch of ``variants`` named
    by the value of key ``by``, or else by the one branch key set (``None`` if
    none is). Any other key is one the run would not read: an error. ``rule``
    is (predicate, words) on the checked keys; ``build`` makes what they set.
    """

    def __init__(self, keys, by=None, variants=None, rule=None, build=dict, **kw):
        super().__init__("table", rule, **kw)
        self.keys, self.by, self.build = keys, by, build
        self.variants = variants or {None: {}}

    def check(self, value, path):
        if not isinstance(value, dict):
            _fail(path, "a mapping", value)
        prefix = path + "." if path else ""
        if self.by is not None:
            name = value.get(self.by, self.keys[self.by].default)
            self.keys[self.by].check(name, prefix + self.by)  # a level naming a branch
        else:
            found = [name for name in self.variants if name is not None and name in value]
            if len(found) > 1 or not (found or None in self.variants):
                _fail(path, "a mapping that sets one of "
                      + ", ".join(filter(None, self.variants)), value)
            name = found[0] if found else None
        keys = {**self.keys, **self.variants[name]}
        for name in value:
            if name not in keys:
                raise ConfigError(f"{prefix}{name} is not a key this run reads")
        out = {}
        for name, key in keys.items():
            if name in value:
                out[name] = key.check(value[name], prefix + name)
            elif key.required:
                raise ConfigError(f"missing config key: {prefix}{name}")
            elif key.default is not None:
                out[name] = key.default
        if self.rng is not None and not self.rng[0](out):
            _fail(path, self.rng[1], value)
        return self.build(**out)


_NUMBER = _Key("number")
_POSITIVE = _Key("number", (lambda x: 0 < x < np.inf, "positive and finite"))
_LEVEL = _Key("number", (lambda g: 0.0 < g < 1.0, "inside (0, 1)"))
# numpy's largest float64 array: a larger count would fail in numpy itself
_MAX_COUNT = np.iinfo(np.intp).max // 8
_COUNT = _Key("count", (lambda n: n >= 1, ">= 1"))
_NON_NEGATIVE = _Key("integer", (lambda n: n >= 0, ">= 0"))
_TEXT = _Key("text", None)
_LO_BELOW_HI = (lambda s: s["lo"] < s["hi"], "a mapping with lo < hi")

_CONTRACT = _Table({
    "t_lo": _NUMBER.but(required=True),
    "t_hi": _Key("number", (lambda x: x > -np.inf, "above -inf")),
    "principle": _Key("level", None, {p.value: p for p in PremiumPrinciple}),
    "rho": _POSITIVE, "building_value": _POSITIVE,
}, rule=(lambda c: "t_hi" not in c or c["t_lo"] < c["t_hi"], "a mapping with t_lo < t_hi"),
    build=ContractSpec, required=True)
_UTILITY = _Table({"family": _Key("level", None, {"exponential": UtilityContext.exponential,
                                                  "power": UtilityContext.power})},
                  by="family", build=lambda family, **u: family(**u), required=True,
                  variants={
    "exponential": {"beta": _POSITIVE.but(required=True), "w0": _NUMBER},
    "power": {"eta": _Key("number", (lambda x: 0 < x < np.inf and x != 1,
                                     "positive, finite and not 1"), required=True),
              "w0": _NUMBER.but(default=0.0)},
})
_LOSS_MODEL = _Table({"v": _POSITIVE, "p": _POSITIVE, "q": _POSITIVE,
                      "rate": _NUMBER, "offset": _NUMBER, "steepness": _NUMBER},
                     build=LossModelParams)
_WIND_BETA = {"n": _COUNT.but(required=True), "lo": _NUMBER.but(default=25.0),
              "hi": _NUMBER.but(default=135.0), "a": _POSITIVE.but(default=2.0),
              "b": _POSITIVE.but(default=2.8)}
_SYNTHETIC = _Table({"kind": _Key("level", None, ("wind_beta", "gamma_regime"))},
                    by="kind", rule=_LO_BELOW_HI, variants={
    "wind_beta": {**_WIND_BETA, "loss_model": _LOSS_MODEL},
    # uniform index on (lo, hi), Gamma loss whose shape jumps at switch
    "gamma_regime": {
        "n": _WIND_BETA["n"], "hi": _NUMBER.but(default=4.0),
        "lo": _Key("number", (lambda x: 0 <= x < np.inf, ">= 0 and finite"), default=2.0),
        "switch": _NUMBER.but(default=3.5), "shape_lo": _POSITIVE.but(default=3.0),
        "shape_hi": _POSITIVE.but(default=3.5)},
})
_SOURCES = {"csv": {"csv": _TEXT}, "synthetic": {"synthetic": _SYNTHETIC}}
_VALUES = _Key("list", None, _NUMBER, required=True)
_WEIGHTS = _Key("list", None, _Key("number", (lambda w: w >= 0, ">= 0")))
_TWO_POINT = _Table({"triggered_values": _VALUES, "triggered_weights": _WEIGHTS,
                     "untriggered_values": _VALUES, "untriggered_weights": _WEIGHTS,
                     "p_trigger": _LEVEL.but(required=True)})
_SITE = _Table({
    "lat_deg": _Key("number", (lambda x: abs(x) <= 90.0, "in [-90, 90]"), required=True),
    "lon_deg": _Key("number", (lambda x: abs(x) <= 180.0, "in [-180, 180]"), required=True),
    "radius_km": _POSITIVE, "threshold_kn": _POSITIVE,
}, required=True, build=lambda **s: Site(**_present(
    s, lat_deg="lat_deg", lon_deg="lon_deg", radius_km="radius_km",
    trigger_threshold_kn="threshold_kn")))
_SEED = _NON_NEGATIVE.but(required=True)
_CONDITIONER = _Table({"n_bins": _COUNT, "min_bin_count": _NON_NEGATIVE})
_FIT_CONDITIONER = _Table({**_CONDITIONER.keys,  # decompose needs two theta bins
                           "n_bins": _Key("count", (lambda n: n >= 2, ">= 2"))})
_PAYOUT_KEYS = {"seed": _SEED, "contract": _CONTRACT, "utility": _UTILITY,
        "payout_family": _Key("level", None, ("pure", "index"), default="pure")}

_TABLES = {
    "fit-weighting": _Table({
        **_PAYOUT_KEYS, "gamma_grid": _COUNT, "rho_indemnity": _POSITIVE,
    }, by="payout_family", variants={
        "pure": {"sample": _Table({}, variants={**_SOURCES, "two_point": {
                     "two_point": _TWO_POINT}}, required=True),
                 "restrict": _Key("list", (lambda r: len(r) == 2 and r[0] < r[1],
                                           "two levels lo < hi"), _LEVEL)},
        "index": {"sample": _Table({}, variants=_SOURCES, required=True),
                  "conditioner": _FIT_CONDITIONER, "separability_tolerance": _POSITIVE},
    }),
    "simulate": _Table({
        "seed": _SEED, "loss_model": _LOSS_MODEL,
        "wind": _Table({}, required=True, variants={
            "tracks_csv": {"tracks_csv": _TEXT, "site": _SITE, "bootstrap_n": _COUNT},
            "synthetic": {"synthetic": _Table(_WIND_BETA, rule=_LO_BELOW_HI)}}),
        "hist_bins": _COUNT.but(default=50), "envelope_bins": _COUNT.but(default=40),
    }, variants={None: {}, "alpha_sweep": {
        "contract": _CONTRACT, "utility": _UTILITY, "alpha_sweep": _Table({
            "qs": _Key("list", None, _POSITIVE, default=[1.0, 3.0, 5.0])})}}),
    "utility-curve": _Table({
        **_PAYOUT_KEYS, "sample": _Table({}, variants=_SOURCES, required=True),
        "gamma_grid": _Key("either", None, (_COUNT, _Key("list", None, _LEVEL)),
                           default=99),
    }, by="payout_family", variants={"pure": {}, "index": {"conditioner": _CONDITIONER}}),
    "dependence-report": _Table({
        "seed": _SEED, "threshold_kn": _POSITIVE.but(default=83.0),
        "min_joint": _NON_NEGATIVE.but(default=30),
    }, variants={"winds_csv": {"winds_csv": _TEXT}, "tracks_csv": {
        "tracks_csv": _TEXT, "loss_model": _LOSS_MODEL,
        "sites": _Key("list", (lambda s: len(s) >= 2, "a list of two sites or more"), _SITE,
                      required=True)}}),
}


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _present(block, **names):
    """{argument: block[key]} for each argument=key the config sets."""
    return {arg: block[key] for arg, key in names.items() if key in block}


def _beta_winds(syn, seed) -> np.ndarray:
    """The Beta wind stand-in: n draws of lo + (hi - lo) * Beta(a, b), in knots."""
    lo, hi = syn["lo"], syn["hi"]
    return lo + (hi - lo) * _rng(seed).beta(syn["a"], syn["b"], size=syn["n"])


def _synthetic_sample(syn, seed) -> LossIndexSample:
    if syn["kind"] == "wind_beta":
        return simulate_losses(_beta_winds(syn, seed),
                               syn.get("loss_model", LossModelParams()), seed)
    # gamma_regime: the index is the Gamma scale, so a larger index means larger losses
    rng = _rng(seed)
    theta = rng.uniform(syn["lo"], syn["hi"], size=syn["n"])
    shape = np.where(theta <= syn["switch"], syn["shape_lo"], syn["shape_hi"])
    return LossIndexSample(rng.gamma(shape, theta), theta)


def _read(path, what: str, parse):
    """parse(path); a missing file or a ValueError from parse is a config error."""
    if not os.path.exists(path):
        raise ConfigError(f"{what} file does not exist: {path}")
    try:
        return parse(path)
    except ValueError as exc:
        raise ConfigError(f"malformed {what} file {path}: {exc}") from exc


def _sample_from(cfg, seed) -> LossIndexSample:
    s = cfg["sample"]
    if "csv" in s:
        return _read(s["csv"], "sample", LossIndexSample.from_csv)
    return _synthetic_sample(s["synthetic"], seed)


def _conditioner_from(cfg, sample, spec) -> EmpiricalBinConditioner:
    """The index payout's per-bin conditioner over the triggered rows."""
    triggered, _ = split_by_trigger(sample, spec)
    return EmpiricalBinConditioner(triggered, **cfg.get("conditioner", {}))


# ---------------------------------------------------------------------------
# deterministic output rendering
# ---------------------------------------------------------------------------

def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _jsonable(x):
    if isinstance(x, (np.floating, float)):
        v = float(x)
        return v if np.isfinite(v) else repr(v)
    if isinstance(x, (np.integer, int)):
        return int(x)
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

def _split_from(cfg, spec, seed) -> TriggeredSplit:
    tp = cfg["sample"].get("two_point")
    if tp is None:
        return TriggeredSplit.from_sample(_sample_from(cfg, seed), spec)
    try:  # the sample's own checks: lengths, weights summing to 1
        return TriggeredSplit(
            EmpiricalSample(tp["triggered_values"], tp.get("triggered_weights")),
            EmpiricalSample(tp["untriggered_values"], tp.get("untriggered_weights")),
            tp["p_trigger"])
    except ValueError as exc:
        raise ConfigError(f"invalid two_point sample: {exc}") from exc


def cmd_fit_weighting(cfg, seed) -> dict[str, str]:
    spec, utility = cfg["contract"], cfg["utility"]
    options = _present(cfg, grid_size="gamma_grid", rho_indemnity="rho_indemnity")

    if cfg["payout_family"] == "pure":
        split = _split_from(cfg, spec, seed)
        sol = solve_gamma_star(split, spec, utility, **options,
                               **_present(cfg, restrict="restrict"))
        record = _solution_record(sol)
        if (utility.beta is not None
                and spec.principle is PremiumPrinciple.EXPECTED_VALUE
                and sol.gamma_star is not None):
            alpha_c, gamma_c, x_exp = closed_form_exponential(split, spec, utility.beta)
            record["closed_form"] = {
                "alpha_star": _jsonable(alpha_c), "gamma_star": _jsonable(gamma_c),
                "x_exp": _jsonable(x_exp),
                "gamma_delta": _jsonable(abs(gamma_c - sol.gamma_star)),
            }
    else:
        sample = _sample_from(cfg, seed)
        cond = _conditioner_from(cfg, sample, spec)
        gammas = np.linspace(0.02, 0.98, 49)
        gammas[np.argmin(np.abs(gammas - 0.5))] = 0.5
        surface = build_surface(cond, cond.bin_centers, gammas)
        decomp = decompose(surface, gammas, cond.bin_centers, conditioner=cond,
                           **_present(cfg, tolerance="separability_tolerance"))
        sol = solve_gamma_star_index(sample, spec, utility, decomp, **options)
        record = _solution_record(sol)
        record["separability_residual"] = _jsonable(decomp.residual)

    trace = sol.trace
    return {"solution.json": _json_text(record),
            "trace.csv": _csv_text(("gamma", "v1", "v2"),
                                   trace["gamma"], trace["v1"], trace["v2"])}


def _wind_values(w, seed) -> np.ndarray:
    if "synthetic" in w:
        return _beta_winds(w["synthetic"], seed)
    tracks = _read(w["tracks_csv"], "track", TrackSet.from_csv)
    incident = incident_windspeeds(tracks, w["site"])
    if incident.size == 0:
        raise DegenerateDataError("no incident tracks at the site")
    return bootstrap(incident, w.get("bootstrap_n", incident.size), seed).values


def _loss_envelope(sample, n_bins):
    """(centre, mean, min, max) of the losses in each of n_bins index bins.

    The bin edges are the index quantiles at 0, 1/n_bins, ..., 1; bin i holds
    the rows with edge_i <= index < edge_i+1, the last bin its upper edge too,
    and an empty bin gives no row. The edges do not decrease, so one search
    numbers every row's bin, and one stable sort by bin lists each bin's
    losses in row order, which keeps each mean's summation order.
    """
    qedges = np.quantile(sample.indices, np.linspace(0, 1, n_bins + 1))
    bins = np.searchsorted(qedges, sample.indices, side="right") - 1
    np.minimum(bins, n_bins - 1, out=bins)
    # bins of 8 or 16 bits sort by radix, much faster than a 64-bit merge sort
    bins = bins.astype(np.min_scalar_type(n_bins - 1))
    losses = sample.losses[np.argsort(bins, kind="stable")]
    ends = np.cumsum(np.bincount(bins, minlength=n_bins)).tolist()
    rows = []
    for i, (a, b) in enumerate(zip([0, *ends], ends)):
        if a < b:
            ls = losses[a:b]
            rows.append((0.5 * (qedges[i] + qedges[i + 1]), float(ls.mean()),
                         float(ls.min()), float(ls.max())))
    return rows


def cmd_simulate(cfg, seed) -> dict[str, str]:
    theta = _wind_values(cfg["wind"], seed)
    params = cfg.get("loss_model", LossModelParams())
    sample = simulate_losses(theta, params, seed)

    hist, edges = np.histogram(sample.indices, bins=cfg["hist_bins"])
    env_rows = _loss_envelope(sample, cfg["envelope_bins"])

    outputs = {
        "sample.csv": _csv_text(("loss", "index"), sample.losses, sample.indices),
        "wind_hist.csv": _csv_text(("bin_lo", "bin_hi", "count"),
                                   edges[:-1], edges[1:], hist),
        "loss_envelope.csv": _csv_text(("theta", "mean", "min", "max"), *zip(*env_rows)),
    }

    if "alpha_sweep" in cfg:
        spec, utility = cfg["contract"], cfg["utility"]
        rows = []
        for q in cfg["alpha_sweep"]["qs"]:
            params_q = LossModelParams(**{**vars(params), "q": q})
            sample_q = simulate_losses(theta, params_q, seed)
            split = TriggeredSplit.from_sample(sample_q, spec)
            sol = solve_gamma_star(split, spec, utility)
            rows.append((q,
                         sol.alpha_star if sol.alpha_star is not None else float("nan"),
                         sol.gamma_star if sol.gamma_star is not None else float("nan"),
                         sol.decision.value))
        outputs["alpha_sweep.csv"] = _csv_text(
            ("q", "alpha_star", "gamma_star", "decision"), *zip(*rows))
    return outputs


def cmd_dependence_report(cfg, seed) -> dict[str, str]:
    if "winds_csv" in cfg:
        path = cfg["winds_csv"]
        winds = _read(path, "wind matrix", _numeric_csv)
        if not np.all(np.isfinite(winds)):
            raise ConfigError(f"wind matrix file {path} has a non-numeric or non-finite cell")
    else:
        tracks = _read(cfg["tracks_csv"], "track", TrackSet.from_csv)
        sites = cfg["sites"]
        params = [cfg.get("loss_model", LossModelParams())] * len(sites)
        winds, _ = simulate_portfolio(tracks, sites, params, seed)
    if winds.ndim != 2 or winds.shape[1] < 2:
        raise DegenerateDataError("dependence report needs >= 2 sites")

    p_inc, p_trig = conditional_probabilities(winds, cfg["threshold_kn"])
    n_sites = winds.shape[1]
    names = [f"s{j}" for j in range(n_sites)]
    tau = np.full((n_sites, n_sites), np.nan)
    xi = np.full((n_sites, n_sites), np.nan)
    outputs = {}
    min_joint = cfg["min_joint"]
    later = [[] for _ in range(n_sites)]  # pair (j, i)'s warnings, logged in row j's turn
    for i in range(n_sites):
        for args in later[i]:
            logger.warning("pair (%d,%d): %s", *args)
        for j in range(i + 1, n_sites):
            joint = (winds[:, i] > 0) & (winds[:, j] > 0)
            m = int(joint.sum())
            if m < 3:
                logger.warning("pair (%d,%d): only %d joint incidents", i, j, m)
                later[j].append((j, i, f"only {m} joint incidents"))
                continue
            pairs = PairedObservations(winds[joint, i], winds[joint, j])
            try:
                tau[i, j] = tau[j, i] = kendall_tau(pairs)
            except DegenerateDataError as exc:  # x or y constant: no tau, and no xi
                logger.warning("pair (%d,%d): %s", i, j, exc)
                later[j].append((j, i, exc))
            else:
                xi[i, j] = chatterjee_xi(pairs, seed=seed)
                xi[j, i] = chatterjee_xi(PairedObservations(pairs.y, pairs.x), seed=seed)
            outputs[f"ranks_{i}_{j}.csv"] = _csv_text(("x", "y"), pairs.x, pairs.y)
            if m >= min_joint:
                outputs[f"tail_{i}_{j}.json"] = _json_text(_jsonable(vars(tail_estimate(pairs))))
            else:
                logger.warning("pair (%d,%d): %d < %d joint rows, tail estimate absent",
                               i, j, m, min_joint)
    for name, mat in (("p_inc", p_inc), ("p_trig", p_trig), ("tau", tau), ("xi", xi)):
        outputs[f"{name}.csv"] = _csv_text(["site", *names], names, *mat.T)
    return outputs


def cmd_utility_curve(cfg, seed) -> dict[str, str]:
    spec, utility = cfg["contract"], cfg["utility"]
    sample = _sample_from(cfg, seed)
    grid = cfg["gamma_grid"]  # a list of levels, or their count
    gammas = (np.asarray(grid) if isinstance(grid, list)
              else np.linspace(1.0 / (grid + 1), grid / (grid + 1.0), grid))
    conditioner = (_conditioner_from(cfg, sample, spec)
                   if cfg["payout_family"] == "index" else None)
    curve = utility_curve(sample, spec, utility, gammas, conditioner=conditioner)
    return {"utility_curve.csv": _csv_text(("gamma", "u1", "u2", "u"), *curve.T)}


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
        # --seed stands in for the config's seed and is checked by the same rule
        checked = _TABLES[args.command].check(
            cfg if args.seed is None else {**cfg, "seed": args.seed}, "")
        seed = checked["seed"]
        outputs = _COMMANDS[args.command](checked, seed)
        outputs["manifest.json"] = _manifest(args.command, cfg, seed,
                                             list(outputs) + ["manifest.json"])
        _write_outputs(args.out, outputs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateDataError as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except DomainError as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""The per-bin expectile table against the per-level solves it replaced.

The references below are the earlier implementations, kept verbatim apart
from their names: the binned conditioner's conditional expectile (every
bin solved by one scalar ``expectile`` per level), the level-by-level
surface build and the ``index_payout`` loop of the utility curve. The
table path must give bitwise-equal tables and surfaces; the utility curve,
which sums only the triggered rows, must agree with the loop within 1e-12
relative, with its infinities in the same places and, on the shipped
regime grids, the same best level. The solve counts pin the index path to
one grid solve per bin plus one single-bin solve per exact H2 evaluation.
"""

import importlib
import json
import tracemalloc

import numpy as np
import pytest
import yaml

from basisrisk import cli, weighting_pure
from basisrisk.contracts import (
    AnalyticConditioner,
    ContractSpec,
    DegenerateTriggerError,
    EmpiricalBinConditioner,
    ExponentialConditioner,
    LossIndexSample,
    PayoutVector,
    PremiumPrinciple,
    premium,
    split_by_trigger,
)
from basisrisk.expectile import Level, expectile
from basisrisk.weighting_index import SeparableDecomposition, build_surface
from basisrisk.weighting_pure import UtilityContext, utility_curve
from conftest import rel_close, rng

# the package exports the function expectile under the submodule's name
expectile_mod = importlib.import_module("basisrisk.expectile")

GAMMAS = np.array([1e-6, 0.0002, 0.01, 0.1, 0.25, 0.5, 0.5 + 1e-12, 0.75, 0.9, 0.99,
                   1.0 - 1e-9])


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def _ref_conditional_expectile(cond, thetas, gamma):
    g = gamma.gamma if isinstance(gamma, Level) else Level(gamma).gamma
    bins = cond.assign(thetas)
    per_bin = np.array([expectile(s, g) for s in cond.bin_samples])
    return per_bin[bins]


def _ref_solver(conditioner):
    """The per-level conditional expectile the earlier code ran."""
    if isinstance(conditioner, EmpiricalBinConditioner):
        return lambda thetas, gamma: _ref_conditional_expectile(conditioner, thetas, gamma)
    return conditioner.conditional_expectile


def _ref_build_surface(conditioner, thetas, gammas):
    solve = _ref_solver(conditioner)
    thetas = np.asarray(thetas, dtype=np.float64)
    gammas = np.asarray(gammas, dtype=np.float64)
    out = np.empty((thetas.size, gammas.size))
    for j, g in enumerate(gammas):
        out[:, j] = solve(thetas, Level(float(g)))
    return out


def _ref_index_payout(sample, spec, gamma, solve):
    mask = spec.in_trigger(sample.indices)
    if mask.all() or not mask.any():
        raise DegenerateTriggerError("degenerate trigger")
    payments = np.zeros(len(sample))
    payments[mask] = np.maximum(solve(sample.indices[mask], gamma), 0.0)
    return PayoutVector(payments)


def _ref_utility_curve(sample, spec, utility, gamma_grid, conditioner):
    solve = _ref_solver(conditioner)
    gammas = np.asarray(gamma_grid, dtype=np.float64)
    if np.any((gammas <= 0) | (gammas >= 1)):
        raise ValueError("gamma grid must lie strictly inside (0,1)")
    mask = spec.in_trigger(sample.indices)
    payouts = (_ref_index_payout(sample, spec, Level(float(g)), solve) for g in gammas)
    w0 = utility.w0
    out = np.empty((gammas.size, 4))
    for i, (g, payout) in enumerate(zip(gammas, payouts)):
        pi = premium(payout, spec)
        wealth = w0 - sample.losses + payout.payments - pi
        uvals = np.asarray(utility.u(wealth), dtype=np.float64)
        u1 = float(np.mean(np.where(mask, uvals, 0.0)))
        u2 = float(np.mean(np.where(mask, 0.0, uvals)))
        out[i] = (g, u1, u2, u1 + u2)
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

SPEC = ContractSpec(t_lo=2.0, rho=0.1)


def _index_sample(seed, n=1200):
    """Index on (1, 5), trigger at 2; losses constant below 2.6 on the trigger.

    With 6 equal-frequency bins over the ~900 triggered rows, the lowest
    bin holds only the constant losses (an atom at 3.0), and losses carry
    rounded ties elsewhere.
    """
    r = rng(seed)
    theta = r.uniform(1.0, 5.0, size=n)
    losses = np.round(r.gamma(2.0, theta), 1)
    losses[(theta >= 2.0) & (theta < 2.6)] = 3.0
    return LossIndexSample(losses, theta)


def _binned(seed):
    sample = _index_sample(seed)
    triggered, _ = split_by_trigger(sample, SPEC)
    return sample, EmpiricalBinConditioner(triggered, n_bins=6, min_bin_count=50)


def _probe_thetas(cond, seed):
    """Bin centres, every inner edge exactly, points beside them and outliers."""
    edges = cond.inner_edges
    r = rng(seed + 100)
    return np.concatenate([cond.bin_centers, edges, np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf), r.uniform(0.0, 6.0, size=50),
                           [-1e9, 1e9]])


def _analytic_conditioners():
    return {
        "exponential": ExponentialConditioner(lambda th: 0.5 + 0.2 * th),
        # negative where theta < 2.5 and gamma is small: the payout clips at 0
        "analytic": AnalyticConditioner(
            lambda th, g: (th - 2.5) + 0.3 * th * np.log(g / (1.0 - g))),
    }


# ---------------------------------------------------------------------------
# bitwise agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_table_holds_the_scalar_solves(seed):
    _, cond = _binned(seed)
    assert any(s.is_constant() for s in cond.bin_samples)
    table = cond.expectile_table(GAMMAS)
    assert table.shape == (cond.n_bins, GAMMAS.size)
    want = np.array([[expectile(s, float(g)) for g in GAMMAS] for s in cond.bin_samples])
    assert _same_bits(table, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conditional_expectile_matches_reference(seed):
    _, cond = _binned(seed)
    thetas = _probe_thetas(cond, seed)
    for g in GAMMAS:
        assert _same_bits(cond.conditional_expectile(thetas, g),
                          _ref_conditional_expectile(cond, thetas, g))
    # one theta, as the exact H2 evaluator asks
    for t in cond.inner_edges:
        assert _same_bits(cond.conditional_expectile(np.array([t]), Level(0.3)),
                          _ref_conditional_expectile(cond, np.array([t]), Level(0.3)))
    assert cond.conditional_expectile(np.empty(0), 0.5).shape == (0,)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_surface_binned_matches_reference(seed):
    _, cond = _binned(seed)
    for thetas in (cond.bin_centers, _probe_thetas(cond, seed)):
        assert _same_bits(build_surface(cond, thetas, GAMMAS),
                          _ref_build_surface(cond, thetas, GAMMAS))


@pytest.mark.parametrize("name", ["exponential", "analytic"])
def test_build_surface_analytic_matches_per_level_loop(name):
    cond = _analytic_conditioners()[name]
    thetas = np.linspace(1.0, 5.0, 17)
    assert _same_bits(build_surface(cond, thetas, GAMMAS),
                      _ref_build_surface(cond, thetas, GAMMAS))


UTILITIES = {
    "exponential": UtilityContext.exponential(0.1, w0=3.0),
    "power": UtilityContext.power(2.0, w0=200.0),
}


@pytest.mark.parametrize("utility", sorted(UTILITIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_utility_curve_binned_matches_reference(seed, utility):
    sample, cond = _binned(seed)
    u = UTILITIES[utility]
    assert rel_close(utility_curve(sample, SPEC, u, GAMMAS, conditioner=cond),
                     _ref_utility_curve(sample, SPEC, u, GAMMAS, cond))


@pytest.mark.parametrize("name", ["exponential", "analytic"])
def test_utility_curve_analytic_matches_reference(name):
    sample, _ = _binned(0)
    cond = _analytic_conditioners()[name]
    u = UTILITIES["exponential"]
    assert rel_close(utility_curve(sample, SPEC, u, GAMMAS, conditioner=cond),
                     _ref_utility_curve(sample, SPEC, u, GAMMAS, cond))


@pytest.mark.parametrize("t_lo", [0.5, 10.0], ids=["fires_on_all", "fires_on_none"])
@pytest.mark.parametrize("kind", ["binned", "exponential"])
def test_utility_curve_degenerate_trigger_raises(t_lo, kind):
    sample, cond = _binned(0)
    if kind != "binned":
        cond = _analytic_conditioners()[kind]
    spec = ContractSpec(t_lo=t_lo, rho=0.1)
    with pytest.raises(DegenerateTriggerError):
        utility_curve(sample, spec, UTILITIES["exponential"], GAMMAS, conditioner=cond)
    with pytest.raises(DegenerateTriggerError):
        _ref_utility_curve(sample, spec, UTILITIES["exponential"], GAMMAS, cond)


def test_utility_curve_still_validates_every_level():
    # a conditioner whose payout turns non-finite past gamma = 0.5
    sample, _ = _binned(0)
    cond = AnalyticConditioner(lambda th, g: th if g <= 0.5 else th * np.inf)
    with pytest.raises(ValueError, match="finite"):
        utility_curve(sample, SPEC, UTILITIES["exponential"], GAMMAS, conditioner=cond)


@pytest.mark.parametrize("bad", [0.0, 1.0, np.nan])
def test_nan_and_boundary_levels_rejected(bad):
    sample, cond = _binned(0)
    grid = np.array([0.3, bad])
    with pytest.raises(ValueError):
        cond.expectile_table(grid)
    with pytest.raises(ValueError):
        build_surface(cond, cond.bin_centers, grid)
    with pytest.raises(ValueError):
        utility_curve(sample, SPEC, UTILITIES["exponential"], grid, conditioner=cond)


# ---------------------------------------------------------------------------
# solve counts on shrunken shipped configs
# ---------------------------------------------------------------------------

@pytest.fixture
def solve_counter(monkeypatch):
    """Counts calls of the exact expectile kernel and of SeparableDecomposition.eval_h2."""
    counts = {"solves": 0, "eval_h2": 0}
    kernel = expectile_mod._expectile_sorted
    eval_h2 = SeparableDecomposition.eval_h2

    def counting_kernel(sample, gammas):
        counts["solves"] += 1
        return kernel(sample, gammas)

    def counting_eval_h2(self, gamma):
        counts["eval_h2"] += 1
        return eval_h2(self, gamma)

    monkeypatch.setattr(expectile_mod, "_expectile_sorted", counting_kernel)
    monkeypatch.setattr(SeparableDecomposition, "eval_h2", counting_eval_h2)
    return counts


def _shipped(config_dir, name, **sample_overrides):
    cfg = yaml.safe_load((config_dir / name).read_text())
    cfg["sample"]["synthetic"].update(sample_overrides)
    return cfg


def test_index_fit_solves_each_bin_once(config_dir, solve_counter):
    cfg = _shipped(config_dir, "index_fit.yaml", n=12000)
    cfg["conditioner"]["min_bin_count"] = 100
    cfg["gamma_grid"] = 40
    checked = cli._TABLES["fit-weighting"].check(cfg, "")
    solution = json.loads(cli.cmd_fit_weighting(checked, cfg["seed"])["solution.json"])
    assert solution["decision"] == "interior_optimum"
    # H2 is evaluated at the trace's 40 levels, at both ends of its range,
    # at 32 bisection midpoints and at gamma*; each is one single-bin solve
    assert solve_counter["eval_h2"] == 40 + 2 + 32 + 1
    assert solve_counter["solves"] == cfg["conditioner"]["n_bins"] + 75


def test_index_utility_curve_solves_each_bin_once(config_dir, solve_counter):
    cfg = _shipped(config_dir, "regime_k1.yaml", n=8000)
    cfg["conditioner"]["min_bin_count"] = 100
    cli.cmd_utility_curve(cli._TABLES["utility-curve"].check(cfg, ""), cfg["seed"])
    assert len(cfg["gamma_grid"]) == 99
    assert solve_counter == {"solves": cfg["conditioner"]["n_bins"], "eval_h2": 0}


# ---------------------------------------------------------------------------
# the index curve's triggered row list against the reference
# ---------------------------------------------------------------------------

def _layout_sample(layout):
    """Losses and index as in ``_index_sample``, the triggered rows laid out
    as one contiguous block or alternating with untriggered rows."""
    sample = _index_sample(7)
    order = np.argsort(sample.indices, kind="stable")
    if layout == "interleaved":
        below = order[sample.indices[order] < SPEC.t_lo]
        above = order[sample.indices[order] >= SPEC.t_lo]
        m = below.size
        order = np.concatenate([np.column_stack([below, above[:m]]).ravel(), above[m:]])
    return LossIndexSample(sample.losses[order], sample.indices[order])


def _curve_conditioners(sample):
    triggered, _ = split_by_trigger(sample, SPEC)
    return {"binned": EmpiricalBinConditioner(triggered, n_bins=6, min_bin_count=50),
            **_analytic_conditioners()}


@pytest.mark.parametrize("principle", list(PremiumPrinciple))
@pytest.mark.parametrize("layout", ["random", "block", "interleaved"])
@pytest.mark.parametrize("cond_name", ["binned", "exponential", "analytic"])
@pytest.mark.parametrize("utility", sorted(UTILITIES))
def test_utility_curve_rows_match_reference(principle, layout, cond_name, utility):
    sample = _index_sample(3) if layout == "random" else _layout_sample(layout)
    mask = SPEC.in_trigger(sample.indices)
    if layout == "block":
        assert np.all(np.diff(np.flatnonzero(mask)) == 1)
    if layout == "interleaved":
        assert np.all(mask[1:2 * np.count_nonzero(~mask):2])
        assert not np.any(mask[0:2 * np.count_nonzero(~mask):2])
    spec = ContractSpec(t_lo=SPEC.t_lo, rho=0.1, principle=principle)
    cond = _curve_conditioners(sample)[cond_name]
    u = UTILITIES[utility]
    assert rel_close(utility_curve(sample, spec, u, GAMMAS, conditioner=cond),
                     _ref_utility_curve(sample, spec, u, GAMMAS, cond))


def test_negative_conditional_expectiles_clip_to_zero():
    # every triggered payout is negative at the small levels, some at the others
    sample, _ = _binned(1)
    cond = AnalyticConditioner(lambda th, g: th * (g - 0.5) - 0.2)
    thetas = sample.indices[SPEC.in_trigger(sample.indices)]
    assert np.all(cond.conditional_expectile(thetas, 0.3) < 0)
    curve = utility_curve(sample, SPEC, UTILITIES["power"], GAMMAS, conditioner=cond)
    assert rel_close(curve, _ref_utility_curve(sample, SPEC, UTILITIES["power"], GAMMAS, cond))
    # with nothing paid at the small levels, the curve there is the uninsured one
    low = GAMMAS < 0.3
    assert np.unique(curve[low, 1:], axis=0).shape[0] == 1


def test_minus_infinite_utility_on_a_triggered_row():
    # exp overflows on one triggered row: u = -inf there, and U2 must stay finite
    sample, cond = _binned(2)
    losses = sample.losses.copy()
    row = np.flatnonzero(SPEC.in_trigger(sample.indices))[5]
    losses[row] = 1e5
    sample = LossIndexSample(losses, sample.indices)
    u = UtilityContext.exponential(0.1, w0=3.0)
    with np.errstate(over="ignore"):
        curve = utility_curve(sample, SPEC, u, GAMMAS, conditioner=cond)
        want = _ref_utility_curve(sample, SPEC, u, GAMMAS, cond)
    assert rel_close(curve, want)
    assert np.all(curve[:, 1] == -np.inf)
    assert np.all(np.isfinite(curve[:, 2]))


def _kept_array_conditioner(gammas):
    """An analytic conditioner whose callable returns arrays it keeps, one per level;
    some of their values are negative, so a payout written in place would show."""
    kept = {}

    def fn(thetas, g):
        if g not in kept:
            kept[g] = (thetas - 2.5) + 0.3 * thetas * np.log(g / (1.0 - g))
        return kept[g]

    return AnalyticConditioner(fn), kept


def test_analytic_arrays_are_only_read():
    sample, _ = _binned(0)
    cond, kept = _kept_array_conditioner(GAMMAS)
    curve = utility_curve(sample, SPEC, UTILITIES["exponential"], GAMMAS, conditioner=cond)
    assert len(kept) == GAMMAS.size
    thetas = sample.indices[SPEC.in_trigger(sample.indices)]
    fresh, _ = _kept_array_conditioner(GAMMAS)
    assert any(np.any(values < 0) for values in kept.values())
    for g, values in kept.items():
        assert _same_bits(values, fresh.fn(thetas, g))
    assert rel_close(curve, _ref_utility_curve(sample, SPEC, UTILITIES["exponential"],
                                               GAMMAS, fresh))


@pytest.mark.parametrize("t_lo", [0.5, 10.0], ids=["fires_on_all", "fires_on_none"])
@pytest.mark.parametrize("principle", list(PremiumPrinciple))
def test_degenerate_trigger_raises_before_any_level(t_lo, principle):
    sample, _ = _binned(0)
    cond, kept = _kept_array_conditioner(GAMMAS)
    spec = ContractSpec(t_lo=t_lo, rho=0.1, principle=principle)
    with pytest.raises(DegenerateTriggerError):
        utility_curve(sample, spec, UTILITIES["power"], GAMMAS, conditioner=cond)
    assert not kept


@pytest.mark.parametrize("cond_name", ["binned", "kept"])
@pytest.mark.parametrize("utility", sorted(UTILITIES))
def test_levels_allocate_no_sample_sized_array(monkeypatch, cond_name, utility):
    # about 3/4 of the 40000 rows are triggered, so a triggered-size array
    # (240 kB) and a full-sample one (320 kB) both exceed the bound
    r = rng(5)
    theta = r.uniform(1.0, 5.0, size=40000)
    sample = LossIndexSample(np.round(r.gamma(2.0, theta), 1), theta)
    if cond_name == "binned":
        triggered, _ = split_by_trigger(sample, SPEC)
        cond = EmpiricalBinConditioner(triggered, n_bins=8)
    else:
        cond, _ = _kept_array_conditioner(GAMMAS)
        thetas = sample.indices[SPEC.in_trigger(sample.indices)]
        for g in GAMMAS:
            cond.conditional_expectile(thetas, g)  # computed before tracing
    columns = weighting_pure._expectile_columns
    marks = []

    def marking_columns(*args, **kwargs):
        for column in columns(*args, **kwargs):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            yield column

    monkeypatch.setattr(weighting_pure, "_expectile_columns", marking_columns)
    tracemalloc.start()
    try:
        curve = utility_curve(sample, SPEC, UTILITIES[utility], GAMMAS, conditioner=cond)
        marks.append(tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(marks) == GAMMAS.size + 1
    bound = len(sample)  # bytes: an eighth of one full-sample float array
    # mark i + 1 holds the peak of level i's body, measured from mark i
    grown = [peak - before for (before, _), (_, peak) in zip(marks[1:], marks[2:])]
    assert max(grown) < bound, grown
    assert np.all(np.isfinite(curve))


# ---------------------------------------------------------------------------
# the shipped regime curves against the reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("utility", ["config", "exponential"])
@pytest.mark.parametrize("name", ["regime_k1", "regime_k2"])
def test_regime_curve_keeps_the_reference_argmax(config_dir, name, utility):
    cfg = yaml.safe_load((config_dir / f"{name}.yaml").read_text())
    if utility == "exponential":
        cfg["utility"] = {"family": "exponential", "beta": 0.05, "w0": cfg["utility"]["w0"]}
    cfg = cli._TABLES["utility-curve"].check(cfg, "")
    sample = cli._sample_from(cfg, cfg["seed"])
    spec, u, gammas = cfg["contract"], cfg["utility"], np.asarray(cfg["gamma_grid"])
    cond = cli._conditioner_from(cfg, sample, spec)
    curve = utility_curve(sample, spec, u, gammas, conditioner=cond)
    want = _ref_utility_curve(sample, spec, u, gammas, cond)
    assert rel_close(curve, want)
    assert np.argmax(curve[:, 3]) == np.argmax(want[:, 3])

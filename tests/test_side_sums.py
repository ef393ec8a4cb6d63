"""The utility families' side sums: moment form, in-place row path, oracles.

``_utility_curve_reference`` is the body of ``utility_curve`` before the
side sums, kept verbatim as the reference implementation: one full-sample
payout vector and row-by-row utilities per level.
"""

import json
import tracemalloc

import numpy as np
import pytest

from basisrisk import cli, weighting_pure
from basisrisk.contracts import (
    ContractSpec,
    EmpiricalBinConditioner,
    LossIndexSample,
    PayoutVector,
    PremiumPrinciple,
    _expectile_columns,
    _masked_payout,
    _trigger_mask,
    premium,
    split_by_trigger,
)
from basisrisk.expectile import EmpiricalSample, expectile_grid
from basisrisk.weighting_index import _index_system
from basisrisk.weighting_pure import (
    TriggeredSplit,
    UtilityContext,
    _MomentSide,
    _pure_system,
    _RowSide,
    utility_curve,
)
from conftest import rng
from test_first_order import _v_pair_at_level, separable_decomposition
from test_weighting_index import separable_sample

EV = PremiumPrinciple.EXPECTED_VALUE
SD = PremiumPrinciple.STD_DEV
VAR = PremiumPrinciple.VARIANCE


# ---------------------------------------------------------------------------
# reference implementation: utility_curve before the side sums
# ---------------------------------------------------------------------------

def _utility_curve_reference(sample, spec, utility, gamma_grid, conditioner=None):
    gammas = np.asarray(gamma_grid, dtype=np.float64)
    if not np.all((gammas > 0) & (gammas < 1)):
        raise ValueError("gamma grid must lie strictly inside (0,1)")
    mask = _trigger_mask(sample, spec)
    if conditioner is None:
        levels = expectile_grid(EmpiricalSample(sample.losses[mask]), gammas)
        payouts = (PayoutVector(np.where(mask, y, 0.0)) for y in levels)
    else:
        payouts = (_masked_payout(mask, column) for column in
                   _expectile_columns(conditioner, sample.indices[mask], gammas))
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


def assert_rel(got, want, rel=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=rel, atol=0.0)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

# levels near 0 and 1, where the payout sits at the triggered extremes
GRID = np.array([1e-9, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0 - 1e-3,
                 1.0 - 1e-6, 1.0 - 1e-9])


def index_sample(seed=3, n=30_000):
    """Index on (1, 5), trigger at 2; losses grow with the index."""
    r = rng(seed)
    theta = r.uniform(1.0, 5.0, size=n)
    return LossIndexSample(r.gamma(2.0, theta), theta)


UTILITIES = {
    "exponential": UtilityContext.exponential(0.1, w0=3.0),
    "power": UtilityContext.power(2.0, w0=200.0),
}


# ---------------------------------------------------------------------------
# utility_curve against the reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("principle,rho", [(EV, 0.1), (SD, 0.15), (VAR, 0.002)],
                         ids=["ev", "sd", "var"])
@pytest.mark.parametrize("utility", sorted(UTILITIES))
def test_pure_curve_matches_reference(utility, principle, rho):
    sample = index_sample()
    spec = ContractSpec(t_lo=2.0, rho=rho, principle=principle)
    u = UTILITIES[utility]
    assert_rel(utility_curve(sample, spec, u, GRID),
               _utility_curve_reference(sample, spec, u, GRID))


@pytest.mark.parametrize("utility", sorted(UTILITIES))
def test_binned_curve_matches_reference(utility):
    sample = index_sample()
    spec = ContractSpec(t_lo=2.0, rho=0.1)
    triggered, _ = split_by_trigger(sample, spec)
    cond = EmpiricalBinConditioner(triggered, n_bins=8, min_bin_count=200)
    u = UTILITIES[utility]
    assert_rel(utility_curve(sample, spec, u, GRID, conditioner=cond),
               _utility_curve_reference(sample, spec, u, GRID, cond))


def test_pure_curve_rejects_non_finite_levels(monkeypatch):
    # the pure branch keeps PayoutVector's payment check
    sample = index_sample()
    monkeypatch.setattr(weighting_pure, "expectile_grid",
                        lambda s, g: np.where(np.asarray(g) < 0.5, 1.0, np.inf))
    with pytest.raises(ValueError, match="finite"):
        utility_curve(sample, ContractSpec(t_lo=2.0), UTILITIES["exponential"], GRID)


# ---------------------------------------------------------------------------
# the moment form where an unshifted MGF overflows
# ---------------------------------------------------------------------------

def overflow_split():
    """beta * max S = 1.2 * 700 > 709, with w0 = 720 keeping every wealth moderate."""
    r = rng(8)
    triggered = r.uniform(300.0, 700.0, 20_000)
    untriggered = r.uniform(0.0, 650.0, 30_000)
    return TriggeredSplit(EmpiricalSample(triggered), EmpiricalSample(untriggered), 0.3)


BETA, W0 = 1.2, 720.0


def test_moment_form_does_not_overflow_in_v_pair():
    split = overflow_split()
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(np.exp(BETA * split.triggered.values)))
    spec = ContractSpec(t_lo=83.0, rho=0.2)
    utility = UtilityContext.exponential(BETA, w0=W0)
    system = _pure_system(split, spec, utility)
    assert isinstance(system.triggered, _MomentSide)
    st = split.triggered
    for k in expectile_grid(st, GRID):
        got = system.v_pair(float(k))
        want = _v_pair_at_level(split, spec, utility, float(k))
        assert_rel(got, want)


def test_moment_form_does_not_overflow_in_utility_curve():
    split = overflow_split()
    st, su = split.triggered.values, split.untriggered.values
    losses = np.concatenate([st, su])
    indices = np.concatenate([np.full(st.size, 100.0), np.full(su.size, 50.0)])
    sample = LossIndexSample(losses, indices)
    spec = ContractSpec(t_lo=83.0, rho=0.2)
    utility = UtilityContext.exponential(BETA, w0=W0)
    assert_rel(utility_curve(sample, spec, utility, GRID),
               _utility_curve_reference(sample, spec, utility, GRID))


# ---------------------------------------------------------------------------
# the row path allocates nothing sample-sized
# ---------------------------------------------------------------------------

def pure_system(utility):
    r = rng(12)
    split = TriggeredSplit(EmpiricalSample(r.gamma(4.0, 5.0, 60_000) + 5.0),
                           EmpiricalSample(r.gamma(2.0, 1.0, 60_000)), 0.3)
    st = split.triggered
    return _pure_system(split, ContractSpec(t_lo=83.0, rho=0.2), utility), \
        list(np.linspace(st.min, st.max, 50))


def index_system():
    base = separable_sample(n=120_000)
    sample = LossIndexSample(base.losses, 1.0 + 4.0 * (base.indices - 60.0) / 80.0)
    decomp = separable_decomposition()
    system = _index_system(sample, ContractSpec(t_lo=2.2, rho=0.1),
                           UtilityContext.exponential(0.05), decomp)
    return system, list(np.linspace(decomp.eval_h2(1e-9), decomp.eval_h2(0.99), 50))


SYSTEMS = {
    "pure_exponential": lambda: pure_system(UtilityContext.exponential(0.1)),
    "pure_power": lambda: pure_system(UtilityContext.power(2.0, w0=400.0)),
    "index_exponential": index_system,
}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_v_pair_allocates_nothing_sample_sized(name):
    system, ks = SYSTEMS[name]()
    sides = (system.triggered, system.untriggered)
    kinds = {"pure_exponential": (_MomentSide, _MomentSide),
             "pure_power": (_RowSide, _RowSide),
             "index_exponential": (_RowSide, _MomentSide)}[name]
    assert tuple(type(s) for s in sides) == kinds
    system.v_pair(ks[0])  # warm: anything built on first use
    tracemalloc.start()
    try:
        for k in ks:
            system.v_pair(float(k))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 1 KiB of Python objects is live at the peak; a boolean temporary
    # over the smallest side (36k rows) would exceed the bound, and one
    # float64 array over the sample (at least 0.96 MB) is 58 times larger
    assert peak < 16 * 1024


# ---------------------------------------------------------------------------
# the families' in-place arithmetic
# ---------------------------------------------------------------------------

FAMILIES = {
    "exponential": UtilityContext.exponential(0.3, w0=1.0),
    "power": UtilityContext.power(1.5, w0=1.0),
    "power_2": UtilityContext.power(2.0, w0=1.0),
    "custom": UtilityContext.custom(lambda x: -np.exp(-x), lambda x: np.exp(-x),
                                    lambda x: -np.exp(-x), w0=1.0),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_out_argument_is_bitwise(family):
    utility = FAMILIES[family]
    x = rng(5).uniform(0.1, 40.0, 10_001)
    for fn in (utility.u, utility.u_prime):
        want = fn(x)
        buf = np.empty_like(x)
        assert fn(x, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
        same = x.copy()
        fn(same, out=same)
        assert same.tobytes() == want.tobytes()


@pytest.mark.parametrize("weights", ["array", "scalar"])
def test_moment_side_equals_row_side(weights):
    # weights that do not sum to 1, so the moment form's sum of w shows
    r = rng(6)
    s = r.gamma(2.0, 3.0, 5_000)
    w = r.uniform(0.0, 2e-3, s.size) if weights == "array" else 3e-4
    utility = UtilityContext.exponential(0.2, w0=1.0)
    moment, rows = _MomentSide(0.2, s, w), _RowSide(utility, s, w)
    for shift in (-5.0, 0.0, 10.0, 40.0):
        assert_rel(moment.u_prime_sum(shift, 0.7), rows.u_prime_sum(shift, 0.7))
        assert_rel(moment.u_sum(shift), rows.u_sum(shift))


def test_power_domain_check_on_the_row_path():
    utility = UtilityContext.power(2.0, w0=1.0)
    side = utility.side(np.array([0.5, 2.0, np.nan]), 1.0 / 3.0)
    with pytest.raises(weighting_pure.UtilityDomainError):
        side.u_prime_sum(1.0)


# ---------------------------------------------------------------------------
# the closed form stays an independent check of the bisection
# ---------------------------------------------------------------------------

PURE_CONFIG = {
    "seed": 1, "payout_family": "pure",
    "contract": {"t_lo": 83.0, "principle": "expected_value", "rho": 0.2},
    "utility": {"family": "exponential", "beta": 0.15},
    "sample": {"synthetic": {"kind": "wind_beta", "n": 20000, "lo": 25.0, "hi": 135.0,
                             "a": 2.0, "b": 2.8,
                             "loss_model": {"v": 100.0, "p": 3.0, "q": 3.0}}},
}


def closed_form_record(tmp_path, name):
    cfg = tmp_path / "pure.yaml"
    cfg.write_text(json.dumps(PURE_CONFIG))
    out = tmp_path / name
    assert cli.main(["fit-weighting", "--config", str(cfg), "--out", str(out)]) == 0
    solution = json.loads((out / "solution.json").read_text())
    assert solution["decision"] == "interior_optimum"
    return solution["closed_form"]


def test_closed_form_catches_a_wrong_moment(tmp_path, monkeypatch):
    exact = closed_form_record(tmp_path, "exact")
    assert exact["gamma_delta"] <= 1e-8
    pure_system = weighting_pure._pure_system

    def skewed(split, spec, utility):
        system = pure_system(split, spec, utility)
        system.triggered.mgf *= 1.0 + 1e-6
        return system

    monkeypatch.setattr(weighting_pure, "_pure_system", skewed)
    wrong = closed_form_record(tmp_path, "wrong")
    # the closed form reads the rows, so only the bisection moved
    assert wrong["gamma_star"] == exact["gamma_star"]
    assert wrong["gamma_delta"] > 1e-8

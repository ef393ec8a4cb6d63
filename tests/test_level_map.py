"""The first-order system's one level map against per-level scalar evaluation.

``_FirstOrderSystem.k_of`` maps a whole array of levels to payout scales in
one call: the triggered sample's ``expectile_grid`` for a pure contract, and
``SeparableDecomposition.eval_h2`` for an index contract. The oracles below
are the scalar evaluations the map replaced, one level at a time: the
triggered expectile ``expectile(st, g)``, the reference bin's conditional
expectile less its H3, ``conditional_expectile([theta_ref], g)[0] - H3_ref``,
and the clipped interpolation of the fitted H2 grid. Each must agree bit for
bit. The binned conditioner solves only the bins its thetas fall in.
"""

import importlib

import numpy as np
import pytest

from basisrisk.contracts import (
    ContractSpec,
    EmpiricalBinConditioner,
    ExponentialConditioner,
    LossIndexSample,
    split_by_trigger,
)
from basisrisk.expectile import EmpiricalSample, expectile
from basisrisk import weighting_pure
from basisrisk.weighting_index import (
    SeparableDecomposition,
    _index_system,
    build_surface,
    decompose,
    solve_gamma_star_index,
)
from basisrisk.weighting_pure import (
    Decision,
    TriggeredSplit,
    UtilityContext,
    _pure_system,
    solve_gamma_star,
)
from conftest import rng

# the package exports the function expectile under the submodule's name
expectile_mod = importlib.import_module("basisrisk.expectile")

# the solve's bracket ends, a dense trace grid and levels outside the fitted H2 grid
LEVELS = np.concatenate([[1e-9, 1e-4], np.linspace(0.001, 0.999, 200), [0.9999, 1.0 - 1e-9]])
FIT_GAMMAS = np.linspace(0.02, 0.98, 49)
FIT_GAMMAS[24] = 0.5
SPEC = ContractSpec(t_lo=2.0, rho=0.1)
UTILITY = UtilityContext.exponential(beta=0.05, w0=0.0)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _index_sample(seed=3, n=6000):
    """Index on (1, 5), trigger at 2; Gamma losses scaled by the index, rounded to ties."""
    r = rng(seed)
    theta = r.uniform(1.0, 5.0, size=n)
    return LossIndexSample(np.round(r.gamma(3.0, theta), 2), theta)


# ---------------------------------------------------------------------------
# pure contracts: the triggered sample's expectile_grid
# ---------------------------------------------------------------------------

def _sample_split():
    return TriggeredSplit.from_sample(_index_sample(), SPEC)


def _weighted_two_point():
    return TriggeredSplit(EmpiricalSample([5.0, 10.0], [0.3, 0.7]),
                          EmpiricalSample([0.0, 4.0], [0.6, 0.4]), 0.5)


def _constant_triggered():
    return TriggeredSplit(EmpiricalSample([7.0, 7.0]), EmpiricalSample([0.0, 4.0]), 0.5)


@pytest.mark.parametrize("make_split", [_sample_split, _weighted_two_point,
                                        _constant_triggered],
                         ids=["sample", "weighted_two_point", "constant"])
def test_pure_level_map_is_the_scalar_expectile(make_split):
    split = make_split()
    k_of = _pure_system(split, SPEC, UTILITY).k_of
    want = np.array([expectile(split.triggered, float(g)) for g in LEVELS])
    assert _same_bits(k_of(LEVELS), want)
    assert _same_bits(k_of(np.array([0.3])), np.array([expectile(split.triggered, 0.3)]))


# ---------------------------------------------------------------------------
# index contracts: H2 from the reference bin, or interpolated
# ---------------------------------------------------------------------------

def _binned_decomposition(sample):
    triggered, _ = split_by_trigger(sample, SPEC)
    cond = EmpiricalBinConditioner(triggered, n_bins=6, min_bin_count=100)
    surface = build_surface(cond, cond.bin_centers, FIT_GAMMAS)
    return cond, decompose(surface, FIT_GAMMAS, cond.bin_centers, conditioner=cond,
                           tolerance=0.5)


def _exponential_decomposition(_sample):
    cond = ExponentialConditioner(lambda th: 3.0 * th)
    thetas = np.linspace(2.0, 5.0, 10)
    surface = build_surface(cond, thetas, FIT_GAMMAS)
    return cond, decompose(surface, FIT_GAMMAS, thetas, conditioner=cond)


@pytest.mark.parametrize("make_decomposition", [_binned_decomposition,
                                                _exponential_decomposition],
                         ids=["binned", "exponential"])
def test_exact_index_level_map_is_the_reference_bins_scalar_solve(make_decomposition):
    sample = _index_sample()
    cond, decomp = make_decomposition(sample)
    k_of = _index_system(sample, SPEC, UTILITY, decomp).k_of
    ref = decomp.ref_index
    t_ref, h3_ref = np.array([decomp.thetas[ref]]), decomp.h3[ref]
    want = np.array([cond.conditional_expectile(t_ref, float(g))[0] - h3_ref
                     for g in LEVELS])
    assert _same_bits(k_of(LEVELS), want)
    # a float level gives a float, with the same bits
    for g, w in zip(LEVELS.tolist(), want.tolist()):
        got = decomp.eval_h2(g)
        assert type(got) is float and got == w


def test_interpolated_index_level_map_is_the_clipped_scalar_interpolation():
    sample = _index_sample()
    thetas = np.linspace(2.0, 5.0, 10)
    surface = 3.0 * thetas[:, None] * (1.0 + np.log(FIT_GAMMAS / (1.0 - FIT_GAMMAS)))[None, :]
    decomp = decompose(surface, FIT_GAMMAS, thetas)
    k_of = _index_system(sample, SPEC, UTILITY, decomp).k_of
    lo, hi = decomp.gammas[0], decomp.gammas[-1]
    want = [float(np.interp(min(max(g, lo), hi), decomp.gammas, decomp.h2_grid))
            for g in LEVELS.tolist()]
    assert _same_bits(k_of(LEVELS), np.array(want))
    assert all(type(decomp.eval_h2(g)) is float and decomp.eval_h2(g) == w
               for g, w in zip(LEVELS.tolist(), want))


# ---------------------------------------------------------------------------
# the solve: one level map, called once per level array
# ---------------------------------------------------------------------------

def _recorded(monkeypatch, owner, name):
    """Wrap owner.name so that it records the number of levels of each call."""
    sizes, level_map = [], getattr(owner, name)

    def recording(*args):
        sizes.append(np.size(args[-1]))
        return level_map(*args)

    monkeypatch.setattr(owner, name, recording)
    return sizes


@pytest.mark.parametrize("contract", ["pure", "index"])
def test_solve_maps_the_trace_and_the_ends_in_one_call_each(monkeypatch, contract):
    sample, spec = _index_sample(), ContractSpec(t_lo=2.0, rho=0.2)
    utility = UtilityContext.exponential(beta=0.3, w0=0.0)
    if contract == "pure":
        sizes = _recorded(monkeypatch, weighting_pure, "expectile_grid")
        monkeypatch.setattr(weighting_pure, "expectile", None)  # no scalar solve
        sol = solve_gamma_star(TriggeredSplit.from_sample(sample, spec), spec, utility,
                               grid_size=30)
    else:
        decomp = _binned_decomposition(sample)[1]
        sizes = _recorded(monkeypatch, SeparableDecomposition, "eval_h2")
        sol = solve_gamma_star_index(sample, spec, utility, decomp, grid_size=30)
    assert sol.decision is Decision.INTERIOR_OPTIMUM
    # the trace's 30 levels, both ends of the bracket, then each midpoint and gamma*
    assert sizes[:2] == [30, 2]
    assert len(sizes) > 3 and set(sizes[2:]) == {1}


# ---------------------------------------------------------------------------
# the binned conditioner's one per-bin loop
# ---------------------------------------------------------------------------

@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    kernel = expectile_mod._expectile_sorted

    def counting_kernel(sample, gammas):
        calls.append(sample)
        return kernel(sample, gammas)

    monkeypatch.setattr(expectile_mod, "_expectile_sorted", counting_kernel)
    return calls


def test_binned_conditional_expectile_solves_only_the_bins_in_use(kernel_calls):
    triggered, _ = split_by_trigger(_index_sample(), SPEC)
    cond = EmpiricalBinConditioner(triggered, n_bins=6, min_bin_count=100)
    # thetas in bins 1, 2 and 4: centres, the edges around them and points beside them
    edges = cond.inner_edges
    thetas = np.concatenate([cond.bin_centers[[4, 1, 2, 4]], edges[[1, 3]],
                             np.nextafter(edges[[0, 3]], np.inf),
                             np.nextafter(edges[[1, 4]], -np.inf)])
    bins = cond.assign(thetas)
    assert sorted(set(bins.tolist())) == [1, 2, 4]
    for g in LEVELS:
        del kernel_calls[:]
        got = cond.conditional_expectile(thetas, g)
        want = np.array([expectile(cond.bin_samples[b], float(g)) for b in bins.tolist()])
        assert _same_bits(got, want)
        # one kernel call per bin in use, the reference solves above included
        assert {id(s) for s in kernel_calls} == {id(cond.bin_samples[b]) for b in (1, 2, 4)}
        assert len(kernel_calls) == 3 + bins.size

"""Rank kernels of basisrisk.dependence against scipy.stats.

kendall_tau, _ranks, chatterjee_xi and gumbel_mle are numpy-only. Their
oracles are scipy's kendalltau and rankdata, and the scipy-backed versions
of chatterjee_xi and gumbel_mle that they replaced, kept verbatim below apart
from their names. Every count is an integer and every rank an integer or a
half-integer, so results must be bitwise equal, dtypes included.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau, rankdata

from basisrisk.contracts import _golden_section
from basisrisk.dependence import (
    _ETA_MAX,
    PairedObservations,
    _inversions,
    _ranks,
    chatterjee_xi,
    gumbel_mle,
    kendall_tau,
)
from conftest import rng
from test_kernel_oracles import _ref_gumbel_log_density

METHODS = ("max", "min", "average")

logger = logging.getLogger("basisrisk.dependence")


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def _ref_chatterjee_xi(pairs, seed=0):
    m = pairs.m
    if m < 3:
        raise ValueError("need m >= 3")
    if np.all(pairs.y == pairs.y[0]):
        raise ValueError("constant y: xi denominator is zero")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    jitter = rng.random(m)
    order = np.lexsort((jitter, pairs.x))
    y_sorted = pairs.y[order]
    r = rankdata(y_sorted, method="max")
    l = m - rankdata(y_sorted, method="min") + 1  # #{j: y_j >= y_(i)}
    num = m * np.abs(np.diff(r)).sum()
    den = 2.0 * np.sum(l * (m - l))
    return float(1.0 - num / den)


def _ref_gumbel_mle(pairs):
    m = pairs.m
    if m < 10:
        raise ValueError("need m >= 10 for the copula MLE")
    u = rankdata(pairs.x, method="average") / (m + 1)
    v = rankdata(pairs.y, method="average") / (m + 1)

    def nll(eta):
        return -float(np.sum(_ref_gumbel_log_density(u, v, eta)))

    eta_hat = _golden_section(nll, 1.0, _ETA_MAX, 1e-8)
    if eta_hat > _ETA_MAX - 1e-3:
        logger.warning("near-degenerate dependence: MLE at the eta upper boundary")
    return float(eta_hat)


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

KINDS = ("tied", "continuous", "rounded", "reversed")


def _sample(kind, m, seed):
    """(x, y) of length m: tied small integers, correlated normals, rounded
    gamma, or near-reversed integers (many discordant pairs)."""
    g = rng(seed)
    if kind == "tied":
        return (g.integers(0, 5, m).astype(float), g.integers(0, 3, m).astype(float))
    if kind == "continuous":
        x = g.normal(size=m)
        return x, x + g.normal(size=m)
    if kind == "rounded":
        x = np.round(g.gamma(2.0, 3.0, m))
        return x, np.round(x * g.random(m) * 3.0)
    x = g.integers(0, m, m).astype(float)
    return x, -x + g.integers(0, 3, m)


def _same(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_tau(x, y):
    pairs = PairedObservations(x, y)
    if np.all(pairs.x == pairs.x[0]) or np.all(pairs.y == pairs.y[0]):
        with pytest.raises(ValueError, match="zero variance ranks"):
            kendall_tau(pairs)
        return
    got = kendall_tau(pairs)
    assert type(got) is float
    assert _same(np.float64(got), np.float64(kendalltau(pairs.x, pairs.y)[0]))


def _check_ranks(values):
    values = np.asarray(values, dtype=np.float64)
    for method in METHODS:
        assert _same(_ranks(values, method), rankdata(values, method=method)), method


values_small = st.one_of(
    st.lists(st.integers(-3, 3).map(float), min_size=2, max_size=60),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
             min_size=2, max_size=60),
    st.lists(st.floats(-50.0, 50.0, allow_nan=False).map(lambda v: round(v, 1)),
             min_size=2, max_size=60),
)


# ---------------------------------------------------------------------------
# tau and ranks
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data(), x=values_small)
def test_small_samples_match_scipy_bitwise(data, x):
    y = data.draw(st.one_of(
        st.lists(st.integers(-3, 3).map(float), min_size=len(x), max_size=len(x)),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
                 min_size=len(x), max_size=len(x)),
    ))
    _check_tau(x, y)
    _check_ranks(x)
    _check_ranks(y)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(KINDS), m=st.integers(2, 3000), seed=st.integers(0, 2**32 - 1))
def test_large_samples_match_scipy_bitwise(kind, m, seed):
    x, y = _sample(kind, m, seed)
    _check_tau(x, y)
    _check_ranks(x)
    _check_ranks(y)


@pytest.mark.parametrize("m", [2, 3, 31, 32, 33, 1023, 1024, 1025, 2048, 2049, 3000])
@pytest.mark.parametrize("kind", KINDS)
def test_block_boundaries_match_scipy_bitwise(kind, m):
    x, y = _sample(kind, m, seed=m)
    _check_tau(x, y)
    _check_ranks(x)


@pytest.mark.parametrize("m", [2, 3, 7, 8, 9, 100])
def test_perfect_orders(m):
    r = np.arange(m)
    assert _inversions(r, m) == 0
    assert _inversions(r[::-1], m) == m * (m - 1) // 2
    _check_tau(r.astype(float), r.astype(float))
    _check_tau(r.astype(float), -r.astype(float))


@settings(max_examples=200, deadline=None)
@given(ranks=st.lists(st.integers(0, 20), min_size=2, max_size=80))
def test_inversions_match_pair_count(ranks):
    r = np.asarray(ranks)
    expected = int(sum(np.sum(r[:i] > r[i]) for i in range(r.size)))
    assert _inversions(r, int(r.max()) + 1) == expected


def test_signed_zero_ties():
    x = np.array([0.0, -0.0, 1.0, -0.0, 2.0])
    y = np.array([1.0, 2.0, -0.0, 0.0, 3.0])
    _check_tau(x, y)
    _check_ranks(x)
    _check_ranks(y)


# ---------------------------------------------------------------------------
# chatterjee_xi and gumbel_mle against their scipy-backed versions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [3, 10, 57, 800, 3000])
@pytest.mark.parametrize("kind", KINDS)
def test_xi_matches_scipy_reference_bitwise(kind, m):
    x, y = _sample(kind, m, seed=7 * m)
    for pairs in (PairedObservations(x, y), PairedObservations(y, x)):
        for seed in (0, 3):
            assert _same(np.float64(chatterjee_xi(pairs, seed=seed)),
                         np.float64(_ref_chatterjee_xi(pairs, seed=seed)))


@pytest.mark.parametrize("m", [10, 57, 800, 3000])
@pytest.mark.parametrize("kind", KINDS)
def test_gumbel_mle_matches_scipy_reference_bitwise(kind, m):
    x, y = _sample(kind, m, seed=11 * m)
    pairs = PairedObservations(x, y)
    assert _same(np.float64(gumbel_mle(pairs)), np.float64(_ref_gumbel_mle(pairs)))

"""The index path's sample-sized kernels peak at least one sample array lower.

Each kernel below sets a stage's high-water mark in an index job. Each is
measured with tracemalloc, to which numpy reports its buffers, so a peak is
the same on every run. The reference of each case is the kernel as it was
written before it reused its buffers, kept here. On a seeded input of
n = 100 000 rows the kernel's result must be bitwise equal to the
reference's, except where the kernel sums only the triggered rows (the
index moments and the index utility curve): there it must agree within
1e-12 relative. Its peak above the memory live on entry must be at least
one float64 sample array (8n bytes) below the reference's, up to 2 KiB of
bookkeeping: ``np.sum``'s reduction state (about 1 KB) is live beside the
one buffer ``_MomentSide`` keeps, at its sum, while the reference peaked
before its sum.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.special import logit

from basisrisk.contracts import (
    ContractSpec,
    EmpiricalBinConditioner,
    LossIndexSample,
    PremiumPrinciple,
    _check_payments,
    _expectile_columns,
    _premium_of,
    _rng,
    _trigger_mask,
    split_by_trigger,
)
from basisrisk.hazard import LossModelParams, loss_mean, simulate_losses
from basisrisk.weighting_index import _index_moments, decompose
from basisrisk.weighting_pure import IndexQuantities, UtilityContext, _MomentSide, utility_curve
from conftest import rel_close, rng

N = 100_000
ARRAY = 8 * N  # bytes in one float64 sample array
BOOKKEEPING = 2048  # bytes

EV = PremiumPrinciple.EXPECTED_VALUE
VAR = PremiumPrinciple.VARIANCE

UTILITIES = {
    "exponential": UtilityContext.exponential(0.1, w0=3.0),
    "power": UtilityContext.power(2.0, w0=200.0),
}


# ---------------------------------------------------------------------------
# the kernels as they were before they reused their buffers
# ---------------------------------------------------------------------------

def _simulate_losses_reference(windspeeds, params, seed, site_key=0):
    th = np.asarray(windspeeds, dtype=np.float64)
    z = _rng(seed, site_key, 1).beta(params.p, params.q, size=th.size)
    scale = min((params.p + params.q) / params.p, (params.p + params.q) / params.q)
    shift = min(1.0, params.p / params.q)
    mu = loss_mean(th, params)
    sig = mu * (1.0 - mu / params.v)
    s = mu + sig * (scale * z - shift)
    s = np.clip(s, 0.0, params.v)
    return LossIndexSample(s, th)


def _index_moments_reference(sample, spec, decomp):
    mask = _trigger_mask(sample, spec)
    h1, h3 = decomp.eval_theta(sample.indices[mask])
    p = float(mask.mean())
    h1_ind, h3_ind = np.zeros(mask.size), np.zeros(mask.size)
    h1_ind[mask], h3_ind[mask] = h1, h3
    int_h1, int_h3 = float(h1_ind.mean()), float(h3_ind.mean())
    quants = IndexQuantities(
        p_trigger=p, int_h1=int_h1, int_h3=int_h3, v1=float(h1_ind.var()),
        v3=float(h3_ind.var()), v13=float(np.mean(h1_ind * h3_ind) - int_h1 * int_h3),
        rho=spec.rho, principle=spec.principle)
    return quants, mask, h1, h3


def _index_curve_reference(sample, spec, utility, gammas, conditioner):
    gammas = np.asarray(gammas, dtype=np.float64)
    out = np.empty((gammas.size, 4))
    out[:, 0] = gammas
    rows = np.flatnonzero(_trigger_mask(sample, spec))
    n = len(sample)
    payments, wealth, part = np.zeros(n), np.empty(n), np.zeros(n)
    scratch = np.empty(rows.size)
    columns = _expectile_columns(conditioner, sample.indices[rows], gammas, out=scratch)
    for i, column in enumerate(columns):
        payments[rows] = np.maximum(column, 0.0, out=scratch)
        _check_payments(payments)
        pi = _premium_of(payments, spec, n)
        np.add(np.subtract(utility.w0, sample.losses, out=wealth), payments, out=wealth)
        uvals = utility.u(np.subtract(wealth, pi, out=wealth), out=wealth)
        part[rows] = np.take(uvals, rows, out=scratch, mode="clip")
        uvals[rows] = 0.0
        out[i, 1:3] = float(np.mean(part)), float(np.mean(uvals))
    out[:, 3] = out[:, 1] + out[:, 2]
    return out


class _MomentSideReference(_MomentSide):
    def __init__(self, beta, s, w):
        self.beta, self.top = beta, float(s.max())
        self.mgf = float(np.sum(w * np.exp(beta * (s - self.top))))
        self.mass = float(np.sum(np.broadcast_to(w, s.shape)))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _peak_above_entry(call):
    """(result, bytes): call()'s result and its peak above the memory traced on entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def _compare(kernel, reference):
    """Both results and both peaks; each runs once untraced first, so nothing built on first use counts."""
    kernel(), reference()
    got, got_peak = _peak_above_entry(kernel)
    want, want_peak = _peak_above_entry(reference)
    return got, want, got_peak, want_peak


def _assert_one_array_lower(got_peak, want_peak):
    assert got_peak <= want_peak - ARRAY + BOOKKEEPING, (got_peak / ARRAY, want_peak / ARRAY)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def index_sample(seed=3):
    """Index on (1, 5), trigger at 2; losses grow with the index."""
    r = rng(seed)
    theta = r.uniform(1.0, 5.0, size=N)
    return LossIndexSample(r.gamma(2.0, theta), theta)


def separable_decomposition():
    thetas, gammas = np.linspace(1.0, 5.0, 9), np.linspace(0.05, 0.95, 9)
    surface = (2.0 * thetas)[:, None] + np.outer(1.0 + thetas ** 2, logit(gammas))
    return decompose(surface, gammas, thetas)


# ---------------------------------------------------------------------------
# the four kernels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("site_key", [0, 3])
def test_simulate_losses(site_key):
    winds = rng(11).uniform(25.0, 135.0, size=N)
    params = LossModelParams()
    got, want, got_peak, want_peak = _compare(
        lambda: simulate_losses(winds, params, 7, site_key=site_key),
        lambda: _simulate_losses_reference(winds, params, 7, site_key=site_key))
    assert _same_bits(got.losses, want.losses)
    assert _same_bits(got.indices, want.indices)
    _assert_one_array_lower(got_peak, want_peak)


@pytest.mark.parametrize("principle", [EV, VAR], ids=["ev", "var"])
def test_index_moments(principle):
    sample, decomp = index_sample(), separable_decomposition()
    spec = ContractSpec(t_lo=2.0, rho=0.1, principle=principle)
    got, want, got_peak, want_peak = _compare(
        lambda: _index_moments(sample, spec, decomp),
        lambda: _index_moments_reference(sample, spec, decomp))
    moments = ("p_trigger", "int_h1", "int_h3", "v1", "v3", "v13")
    assert rel_close([getattr(got[0], f) for f in moments],
                     [getattr(want[0], f) for f in moments])
    assert (got[0].rho, got[0].principle) == (want[0].rho, want[0].principle)
    assert all(_same_bits(a, b) for a, b in zip(got[1:], want[1:]))
    _assert_one_array_lower(got_peak, want_peak)


@pytest.mark.parametrize("utility", sorted(UTILITIES))
@pytest.mark.parametrize("principle", [EV, VAR], ids=["ev", "var"])
def test_index_utility_curve(utility, principle):
    sample = index_sample()
    spec = ContractSpec(t_lo=2.0, rho=0.1, principle=principle)
    cond = EmpiricalBinConditioner(split_by_trigger(sample, spec)[0], n_bins=8)
    gammas = [0.01, 0.3, 0.5, 0.7, 0.99]
    u = UTILITIES[utility]
    got, want, got_peak, want_peak = _compare(
        lambda: utility_curve(sample, spec, u, gammas, conditioner=cond),
        lambda: _index_curve_reference(sample, spec, u, gammas, cond))
    assert rel_close(got, want)
    _assert_one_array_lower(got_peak, want_peak)


@pytest.mark.parametrize("weights", ["scalar", "array"])
def test_moment_side(weights):
    s = index_sample().losses
    w = 1.0 / N if weights == "scalar" else rng(4).uniform(0.5, 1.5, size=N) / N
    got, want, got_peak, want_peak = _compare(
        lambda: _MomentSide(0.1, s, w), lambda: _MomentSideReference(0.1, s, w))
    assert (repr(got.top), repr(got.mgf), repr(got.mass)) == \
        (repr(want.top), repr(want.mgf), repr(want.mass))
    _assert_one_array_lower(got_peak, want_peak)

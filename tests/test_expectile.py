import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import lambertw as scipy_lambertw

from basisrisk.expectile import (
    BasisRiskWeight,
    DegenerateSampleError,
    EmpiricalSample,
    Level,
    alpha_from_gamma,
    expectile,
    expectile_derivative,
    expectile_exponential,
    expectile_grid,
    gamma_from_alpha,
    lambert_w0,
)
from conftest import rng


# ---------------------------------------------------------------------------
# EmpiricalSample
# ---------------------------------------------------------------------------

class TestEmpiricalSample:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            EmpiricalSample([])
        with pytest.raises(ValueError):
            EmpiricalSample([1.0, np.nan])
        with pytest.raises(ValueError):
            EmpiricalSample([1.0, np.inf])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            EmpiricalSample([1.0, 2.0], [0.5])
        with pytest.raises(ValueError):
            EmpiricalSample([1.0, 2.0], [-0.1, 1.1])
        with pytest.raises(ValueError):
            EmpiricalSample([1.0, 2.0], [0.6, 0.6])

    def test_moments_and_extrema(self):
        s = EmpiricalSample([3.0, 1.0, 2.0])
        assert s.mean == pytest.approx(2.0, abs=1e-15)
        assert s.min == 1.0 and s.max == 3.0
        assert not s.is_constant()
        assert EmpiricalSample([5.0, 5.0]).is_constant()

    def test_cdf_conventions(self):
        s = EmpiricalSample([1.0, 2.0, 2.0, 4.0])
        assert s.cdf(0.5) == 0.0
        assert s.cdf(2.0) == pytest.approx(0.75)
        assert s.cdf_mid(2.0) == pytest.approx(0.5)
        assert s.partial_mean(2.0) == pytest.approx((1.0 + 2.0 + 2.0) / 4.0)
        assert s.mean_abs_dev(2.0) == pytest.approx(np.mean(np.abs(s.values - 2.0)))

    def test_constant_sample_builds_without_warning(self):
        # the knot ratio is 0/0 on a constant sample; building it must stay silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for vals in ([0.0] * 5, [4.0, 4.0, 4.0], [2.5]):
                s = EmpiricalSample(vals)
                assert s.is_constant()
                assert expectile_grid(s, [0.1, 0.5, 0.9]).tolist() == [vals[0]] * 3

    @staticmethod
    def _eager_knot_ratio(xs, cw, cxw):
        # the knot ratio as the constructor built it before it became lazy
        scratch = np.empty_like(xs)
        lower = xs * cw
        lower -= cxw
        np.subtract(1.0, cw, out=scratch)
        scratch *= xs
        mad = cxw[-1] - cxw
        mad -= scratch
        mad += lower
        scratch.fill(0.0)
        np.divide(lower, mad, out=scratch, where=mad > 0.0)
        return scratch

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_knot_ratio_built_on_first_use(self, seed):
        r = rng(seed)
        values = np.round(r.gamma(2.0, 3.0, size=500), 1)
        weights = r.random(500)
        for s in (EmpiricalSample(values), EmpiricalSample(values, weights / weights.sum())):
            assert s._knot_ratio is None
            assert s.mean == float(s.cum_weighted[-1])
            ratio = s.knot_ratio
            assert ratio is s.knot_ratio
            want = self._eager_knot_ratio(s.sorted_values, s.cum_weights, s.cum_weighted)
            assert ratio.tobytes() == want.tobytes()
            assert not ratio.flags.writeable
            with pytest.raises(AttributeError):
                s.knot_ratio = want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sorted_view_built_on_first_use(self, seed):
        r = rng(seed)
        values = np.round(r.gamma(2.0, 3.0, size=500), 1)
        weights = r.random(500)
        weights /= weights.sum()
        for w in (None, weights):
            s = EmpiricalSample(values, w)
            assert s._sorted is None and len(s) == 500
            assert not (s.values.flags.writeable or s.weights.flags.writeable)
            # the eager construction the sample made before the view became lazy
            order = np.argsort(s.values, kind="stable")
            xs, cw = s.values[order], np.cumsum(s.weights[order])
            cxw = np.cumsum(s.weights[order] * xs)
            mean = s.mean
            assert s._sorted is not None
            assert mean == float(cxw[-1])
            assert s.sorted_values is s.sorted_values
            for got, want in ((s.sorted_values, xs), (s.cum_weights, cw),
                              (s.cum_weighted, cxw)):
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable

    def test_knot_ratio_of_constant_sample_is_silent_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert EmpiricalSample([4.0, 4.0, 4.0]).knot_ratio.tolist() == [0.0] * 3

    def test_grid_rejects_nan_level(self):
        with pytest.raises(ValueError):
            expectile_grid(EmpiricalSample([1.0, 2.0]), [0.5, np.nan])

    def test_weighted_matches_expanded(self):
        weighted = EmpiricalSample([1.0, 5.0], [0.25, 0.75])
        expanded = EmpiricalSample([1.0, 5.0, 5.0, 5.0])
        for g in (0.1, 0.5, 0.9):
            assert expectile(weighted, g) == pytest.approx(expectile(expanded, g),
                                                           abs=1e-14)


# ---------------------------------------------------------------------------
# alpha <-> gamma bijection
# ---------------------------------------------------------------------------

class TestAlphaGamma:
    def test_fixed_point(self):
        assert gamma_from_alpha(0.5).gamma == pytest.approx(0.5, abs=1e-15)
        assert alpha_from_gamma(0.5).alpha == 0.5

    def test_round_trip(self):
        for a in np.linspace(0.01, 0.99, 99):
            g = gamma_from_alpha(float(a))
            assert alpha_from_gamma(g).alpha == pytest.approx(a, abs=1e-12)

    def test_strictly_increasing(self):
        alphas = np.linspace(0.01, 0.99, 200)
        gammas = [gamma_from_alpha(float(a)).gamma for a in alphas]
        assert np.all(np.diff(gammas) > 0)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                gamma_from_alpha(bad)
            with pytest.raises(ValueError):
                alpha_from_gamma(bad)


# ---------------------------------------------------------------------------
# expectile solver
# ---------------------------------------------------------------------------

def _expectile_oracle(values, gamma):
    """Independent oracle: scalar minimization of the asymmetric square loss."""
    values = np.asarray(values, dtype=np.float64)

    def loss(y):
        d = values - y
        return np.mean(gamma * np.clip(d, 0, None) ** 2
                       + (1 - gamma) * np.clip(-d, 0, None) ** 2)

    res = minimize_scalar(loss, bounds=(values.min(), values.max()),
                          method="bounded", options={"xatol": 1e-12})
    return res.x


class TestExpectile:
    def test_two_point_closed_form(self):
        s = EmpiricalSample([5.0, 10.0])
        for g in np.linspace(0.01, 0.99, 99):
            assert expectile(s, float(g)) == pytest.approx(5.0 * (1.0 + g), abs=1e-12)

    def test_mean_at_half(self):
        s = EmpiricalSample(rng(0).normal(3.0, 2.0, 1001))
        assert expectile(s, 0.5) == pytest.approx(s.mean, abs=1e-12)

    def test_matches_minimization_oracle(self):
        r = rng(1)
        for _ in range(10):
            vals = r.gamma(2.0, 3.0, size=r.integers(5, 400))
            g = float(r.uniform(0.05, 0.95))
            assert expectile(EmpiricalSample(vals), g) == pytest.approx(
                _expectile_oracle(vals, g), abs=1e-7)

    def test_monotone_and_limits(self):
        s = EmpiricalSample(rng(2).exponential(1.0, 500))
        gs = np.linspace(1e-6, 1 - 1e-6, 300)
        es = expectile_grid(s, gs)
        assert np.all(np.diff(es) >= 0)
        assert es[0] == pytest.approx(s.min, abs=1e-3 * (s.max - s.min))
        assert es[-1] == pytest.approx(s.max, abs=1e-3 * (s.max - s.min))
        assert s.min <= es.min() and es.max() <= s.max

    def test_constant_sample(self):
        s = EmpiricalSample([4.0, 4.0, 4.0])
        assert expectile(s, 0.2) == 4.0
        with pytest.raises(DegenerateSampleError):
            expectile_derivative(s, 0.2)

    def test_level_validation(self):
        s = EmpiricalSample([1.0, 2.0])
        for bad in (0.0, 1.0, -1.0, 2.0):
            with pytest.raises(ValueError):
                expectile(s, bad)
        with pytest.raises(ValueError):
            expectile_grid(s, [0.5, 1.0])

    def test_foc_residual_zero(self):
        # the defining first-order condition holds exactly at the solution
        s = EmpiricalSample(rng(3).lognormal(0, 1, 257))
        for g in (0.05, 0.3, 0.7, 0.99):
            e = expectile(s, g)
            d = s.values - e
            up = np.mean(np.clip(d, 0, None))
            dn = np.mean(np.clip(-d, 0, None))
            assert g * up - (1 - g) * dn == pytest.approx(0.0, abs=1e-12 * (up + dn))


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=50),
    g=st.floats(0.01, 0.99),
    shift=st.floats(-1e5, 1e5),
    scale=st.floats(0.01, 100.0),
)
def test_expectile_affine_equivariance(vals, g, shift, scale):
    s = EmpiricalSample(vals)
    e = expectile(s, g)
    s2 = EmpiricalSample(scale * np.asarray(vals) + shift)
    e2 = expectile(s2, g)
    tol = 1e-9 * (1.0 + abs(scale * e + shift))
    assert abs(e2 - (scale * e + shift)) <= tol


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=30),
    g1=st.floats(0.02, 0.98),
    g2=st.floats(0.02, 0.98),
)
def test_expectile_monotone_in_gamma(vals, g1, g2):
    s = EmpiricalSample(vals)
    lo, hi = min(g1, g2), max(g1, g2)
    assert expectile(s, lo) <= expectile(s, hi) + 1e-9


def _knot_scan(xs, cw, cxw, gammas):
    """Reference solver: one O(n) scan of the first-order condition per level.

    The kernel this package shipped before the knot-ratio search; kept as a
    bit-for-bit oracle.
    """
    total = cxw[-1]
    upper = (total - cxw) - xs * (1.0 - cw)  # E[(X-y)+] at y = xs[i]
    lower = xs * cw - cxw                    # E[(y-X)+] at y = xs[i]
    out = np.empty(gammas.shape[0], dtype=np.float64)
    for j, g in enumerate(gammas):
        knot_vals = g * upper - (1.0 - g) * lower
        # knot_vals is non-increasing; find last index with value >= 0
        idx = np.searchsorted(-knot_vals, 0.0, side="right") - 1
        if idx < 0:
            out[j] = xs[0]
            continue
        if idx >= xs.shape[0] - 1:
            out[j] = xs[-1]
            continue
        w, c = cw[idx], cxw[idx]
        denom = g * (1.0 - w) + (1.0 - g) * w
        out[j] = (g * (total - c) + (1.0 - g) * c) / denom
    return out


_EDGE_LEVELS = [1e-300, 1e-12, 1e-9, 0.5 - 1e-15, 0.5, 0.5 + 1e-15, 1 - 1e-9, 1 - 1e-12]


@settings(max_examples=300, deadline=None)
@given(
    vals=st.one_of(
        st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0, 100.0]), min_size=2, max_size=40),
        st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=2, max_size=40)),
    gammas=st.lists(st.one_of(st.sampled_from(_EDGE_LEVELS), st.floats(1e-12, 1 - 1e-12)),
                    min_size=1, max_size=20),
    data=st.data(),
)
def test_expectile_matches_knot_scan_bitwise(vals, gammas, data):
    weights = None
    if data.draw(st.booleans(), label="weighted"):
        ints = data.draw(st.lists(st.integers(1, 9), min_size=len(vals), max_size=len(vals)),
                         label="integer weights")
        weights = np.asarray(ints, dtype=np.float64) / sum(ints)
    s = EmpiricalSample(vals, weights)
    if s.is_constant():
        return
    gs = np.asarray(gammas)
    expected = _knot_scan(s.sorted_values, s.cum_weights, s.cum_weighted, gs)
    np.testing.assert_array_equal(expectile_grid(s, gs), expected)
    assert [expectile(s, float(g)) for g in gs] == expected.tolist()


# ---------------------------------------------------------------------------
# derivative
# ---------------------------------------------------------------------------

class TestExpectileDerivative:
    def test_positive(self):
        s = EmpiricalSample(rng(4).normal(0, 1, 300))
        for g in (0.1, 0.5, 0.9):
            assert expectile_derivative(s, g) > 0.0

    def test_matches_finite_differences(self):
        s = EmpiricalSample(rng(5).gamma(3.0, 2.0, 5000))
        h = 1e-6
        for g in (0.2, 0.5, 0.8):
            num = (expectile(s, g + h) - expectile(s, g - h)) / (2 * h)
            assert expectile_derivative(s, g) == pytest.approx(num, rel=1e-4)


# ---------------------------------------------------------------------------
# Lambert W and the exponential closed form
# ---------------------------------------------------------------------------

class TestLambertW:
    def test_against_scipy(self):
        xs = np.concatenate([
            -np.exp(-1.0) + np.geomspace(1e-12, 0.3, 25),
            np.geomspace(1e-9, 1e6, 40),
            [0.0, -0.1, -0.25, 1.0, math.e],
        ])
        for x in xs:
            ref = float(np.real(scipy_lambertw(x)))
            assert lambert_w0(float(x)) == pytest.approx(ref, abs=1e-10, rel=1e-10)

    def test_branch_point(self):
        assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.5)


class TestExpectileExponential:
    def test_foc_exact(self):
        # for Exp(mean): E[(X-e)+] = mean*exp(-e/mean), E[(e-X)+] = e - mean + that
        for mean in (0.5, 1.0, 7.3):
            for g in (0.05, 0.4, 0.5, 0.9, 0.999):
                e = expectile_exponential(mean, g)
                up = mean * math.exp(-e / mean)
                dn = e - mean + up
                assert g * up - (1 - g) * dn == pytest.approx(0.0, abs=1e-12 * mean)

    def test_homogeneous_in_mean(self):
        base = expectile_exponential(1.0, 0.8)
        assert expectile_exponential(4.0, 0.8) == pytest.approx(4.0 * base, rel=1e-12)

    def test_mean_at_half(self):
        assert expectile_exponential(2.5, 0.5) == pytest.approx(2.5, abs=1e-12)

    def test_rejects_nonpositive_mean(self):
        with pytest.raises(ValueError):
            expectile_exponential(0.0, 0.5)

    def test_matches_large_sample(self):
        vals = rng(6).exponential(2.0, 400_000)
        s = EmpiricalSample(vals)
        for g in (0.2, 0.8):
            assert expectile(s, g) == pytest.approx(
                expectile_exponential(2.0, g), rel=5e-3)

"""Expectiles of empirical samples and analytic families.

The central objects are :class:`EmpiricalSample` (a weighted sample with
cached sorted views) and the exact piecewise-linear expectile solver built on
it. Also provides the bijection between the basis-risk weighting ``alpha``
and the expectile level ``gamma``, a principal-branch Lambert W, and the
closed-form expectile of the exponential distribution.

All functions are pure; samples are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS

__all__ = list(_EXPORTS["expectile"])


class DomainError(ValueError):
    """A model hypothesis fails (u' > 0 and concave, c < 1, monotone V1/V2), or a sum overflows."""


class DegenerateDataError(ValueError):
    """The data cannot carry the estimate: an empty, thin, constant or non-separable sample."""


class DegenerateSampleError(DegenerateDataError):
    """Raised when an operation requires a non-constant sample."""


@dataclass(frozen=True)
class Level:
    """Expectile level, strictly inside (0, 1)."""

    gamma: float

    def __post_init__(self):
        g = float(self.gamma)
        if not (0.0 < g < 1.0):
            raise ValueError(f"gamma must lie in (0,1), got {g}")
        object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class BasisRiskWeight:
    """Relative importance of undercompensation, strictly inside (0, 1)."""

    alpha: float

    def __post_init__(self):
        a = float(self.alpha)
        if not (0.0 < a < 1.0):
            raise ValueError(f"alpha must lie in (0,1), got {a}")
        object.__setattr__(self, "alpha", a)


class EmpiricalSample:
    """Weighted empirical sample with cached ascending view and cumulative sums.

    Weights default to uniform, must be non-negative and sum to 1 within
    1e-12. The cached arrays back the exact expectile solve and are built on
    first use, since a sample that is never solved or ranked (such as the
    untriggered side of a split) does not need them: ``sorted_values`` with
    its ``cum_weights`` and ``cum_weighted`` on the first read of any of the
    three, and ``knot_ratio``, which holds r_i = E[(x_i - X)+] / E[|X - x_i|]
    at each sorted value x_i and never decreases along the sample (0 where
    all mass sits on x_i), on its own first read.
    """

    __slots__ = ("values", "weights", "_sorted", "_knot_ratio")

    def __init__(self, values, weights=None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise DegenerateSampleError("empty sample")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values must be finite")
        if weights is None:
            weights = np.full(values.size, 1.0 / values.size)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != values.shape:
                raise ValueError("weights must match values in length")
            if np.any(weights < 0):
                raise ValueError("weights must be non-negative")
            if abs(weights.sum() - 1.0) > 1e-12:
                raise ValueError("weights must sum to 1 within 1e-12")
        self.values = values
        self.weights = weights
        self._sorted = None
        self._knot_ratio = None
        values.setflags(write=False)
        weights.setflags(write=False)

    def _sorted_view(self):
        """(sorted values, cumulative weights, cumulative weighted values)."""
        if self._sorted is None:
            order = np.argsort(self.values, kind="stable")
            xs, scratch = self.values[order], self.weights[order]
            del order
            cw = np.cumsum(scratch)
            scratch *= xs
            cxw = np.cumsum(scratch)
            del scratch
            for arr in (xs, cw, cxw):
                arr.setflags(write=False)
            self._sorted = xs, cw, cxw
        return self._sorted

    @property
    def sorted_values(self) -> np.ndarray:
        return self._sorted_view()[0]

    @property
    def cum_weights(self) -> np.ndarray:
        return self._sorted_view()[1]

    @property
    def cum_weighted(self) -> np.ndarray:
        return self._sorted_view()[2]

    @property
    def knot_ratio(self) -> np.ndarray:
        if self._knot_ratio is None:
            xs, cw, cxw = self._sorted_view()
            # built in place to bound peak memory on large samples
            lower = xs * cw
            lower -= cxw                              # E[(x_i - X)+]
            scratch = np.subtract(1.0, cw)
            scratch *= xs
            mad = cxw[-1] - cxw
            mad -= scratch                            # E[(X - x_i)+]
            mad += lower                              # E[|X - x_i|]
            scratch.fill(0.0)
            np.divide(lower, mad, out=scratch, where=mad > 0.0)
            scratch.setflags(write=False)
            self._knot_ratio = scratch
        return self._knot_ratio

    def __len__(self):
        return self.values.size

    @property
    def mean(self) -> float:
        return float(self.cum_weighted[-1])

    @property
    def min(self) -> float:
        return float(self.sorted_values[0])

    @property
    def max(self) -> float:
        return float(self.sorted_values[-1])

    def is_constant(self) -> bool:
        return self.min == self.max

    def cdf(self, x: float) -> float:
        """Right-continuous empirical cdf P(X <= x)."""
        idx = np.searchsorted(self.sorted_values, x, side="right")
        return float(self.cum_weights[idx - 1]) if idx > 0 else 0.0

    def cdf_mid(self, x: float) -> float:
        """Midpoint-convention cdf P(X < x) + 0.5*P(X = x)."""
        lo = np.searchsorted(self.sorted_values, x, side="left")
        hi = np.searchsorted(self.sorted_values, x, side="right")
        below = float(self.cum_weights[lo - 1]) if lo > 0 else 0.0
        at = (float(self.cum_weights[hi - 1]) if hi > 0 else 0.0) - below
        return below + 0.5 * at

    def partial_mean(self, x: float) -> float:
        """L(x) = E[X 1_{X <= x}]."""
        idx = np.searchsorted(self.sorted_values, x, side="right")
        return float(self.cum_weighted[idx - 1]) if idx > 0 else 0.0

    def mean_abs_dev(self, y: float) -> float:
        """E[|X - y|]."""
        f = self.cdf(y)
        l = self.partial_mean(y)
        return (y * f - l) + (self.mean - l) - y * (1.0 - f)


def gamma_from_alpha(alpha: BasisRiskWeight | float) -> Level:
    """Map the basis-risk weighting to the payout expectile level.

    gamma(alpha) = alpha^2 / ((1-alpha)^2 + alpha^2); strictly increasing,
    fixes 1/2.
    """
    a = alpha.alpha if isinstance(alpha, BasisRiskWeight) else BasisRiskWeight(alpha).alpha
    return Level(a * a / ((1.0 - a) ** 2 + a * a))


def alpha_from_gamma(gamma: Level | float) -> BasisRiskWeight:
    """Exact inverse of :func:`gamma_from_alpha`."""
    g = gamma.gamma if isinstance(gamma, Level) else Level(gamma).gamma
    if g == 0.5:
        return BasisRiskWeight(0.5)
    return BasisRiskWeight((g - math.sqrt(g - g * g)) / (2.0 * g - 1.0))


def _expectile_sorted(sample: EmpiricalSample, gammas: np.ndarray) -> np.ndarray:
    """Exact expectiles of a non-constant sample at each level in ``gammas``.

    The first-order condition gamma*E[(X-y)+] = (1-gamma)*E[(y-X)+] is
    piecewise linear in y between order statistics. It holds with ">=" at
    knot x_i exactly when knot_ratio[i] <= gamma, so one binary search per
    level finds the bracketing interval, where the root is solved in closed
    form. Levels below the first knot or past the last clamp to the sample
    min/max.
    """
    xs, cw, cxw = sample.sorted_values, sample.cum_weights, sample.cum_weighted
    idx = np.searchsorted(sample.knot_ratio, gammas, side="right") - 1
    i = np.clip(idx, 0, xs.size - 2)
    w, c, total = cw[i], cxw[i], cxw[-1]
    out = (gammas * (total - c) + (1.0 - gammas) * c) / (
        gammas * (1.0 - w) + (1.0 - gammas) * w)
    out[idx < 0] = xs[0]
    out[idx >= xs.size - 1] = xs[-1]
    return out


def expectile(sample: EmpiricalSample, gamma: Level | float) -> float:
    """Expectile of an empirical sample, solved exactly.

    Locates the bracketing order-statistics interval via the monotone
    first-order condition gamma*E[(X-y)+] = (1-gamma)*E[(y-X)+] and solves
    the piecewise-linear equation on it. Constant samples return the
    constant. At gamma=1/2 this is the sample mean; limits as gamma -> 0/1
    are the sample min/max.
    """
    g = gamma.gamma if isinstance(gamma, Level) else Level(gamma).gamma
    if sample.is_constant():
        return sample.min
    return float(_expectile_sorted(sample, np.array([g]))[0])


def expectile_grid(sample: EmpiricalSample, gammas) -> np.ndarray:
    """Vectorized :func:`expectile` over a gamma grid."""
    gs = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    if not np.all((gs > 0.0) & (gs < 1.0)):  # NaN fails too
        raise ValueError("gamma grid must lie strictly inside (0,1)")
    if sample.is_constant():
        return np.full(gs.shape, sample.min)
    return _expectile_sorted(sample, gs)


def expectile_derivative(sample: EmpiricalSample, gamma: Level | float) -> float:
    """d/dgamma of the expectile, via the closed form.

    e'_gamma = E[|X - e|] / ((1-gamma) F(e) + gamma (1-F(e))) with F in the
    midpoint convention at atoms, which makes the value the two-sided limit
    of the continuous-distribution formula. Strictly positive.
    """
    g = gamma.gamma if isinstance(gamma, Level) else Level(gamma).gamma
    if sample.is_constant():
        raise DegenerateSampleError("degenerate distribution")
    e = expectile(sample, g)
    f = sample.cdf_mid(e)
    denom = (1.0 - g) * f + g * (1.0 - f)
    return sample.mean_abs_dev(e) / denom


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function for x >= -1/e, and W(inf) = inf.

    Above e, Newton's iteration on w + ln w = ln x from w = ln x - ln ln x;
    unlike w e^w, no finite x overflows it. Elsewhere, Halley's iteration on
    w e^w = x from a rational guess near 0 or the branch-point series near
    -1/e. Both converge well inside their 20-iteration caps (to
    |W e^W - x| <= 1e-12 max(1, |x|), and w + ln w = ln x to rounding). NaN
    raises ValueError.
    """
    x = float(x)
    inv_e = math.exp(-1.0)
    if not x >= -inv_e - 1e-12:  # NaN fails too
        raise ValueError(f"lambert_w0 domain is x >= -1/e, got {x}")
    if x < -inv_e:
        x = -inv_e
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return x
    if x > math.e:
        lx = math.log(x)
        w = lx - math.log(lx)
        for _ in range(20):
            step = (w + math.log(w) - lx) * w / (w + 1.0)
            w -= step
            if abs(step) <= 1e-15 * w:
                break
        return w
    if x > -0.25 * inv_e:
        # Pade-style rational guess, good on a neighbourhood of 0
        w = x * (1.0 + 1.5 * x) / (1.0 + x * (2.5 + 0.875 * x))
    else:
        # series at the branch point x = -1/e, W = -1 + p - p^2/3 + ...
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p ** 3
    for _ in range(20):
        ew = math.exp(w)
        f = w * ew - x
        if w != -1.0:
            denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        else:
            denom = ew * (w + 1.0)
        if denom == 0.0:
            break
        step = f / denom
        w -= step
        if abs(step) <= 1e-15 * (1.0 + abs(w)):
            break
    return w


def expectile_exponential(mean: float, gamma: Level | float) -> float:
    """Expectile of an exponential with the given mean, via Lambert W.

    e_gamma = mean * (1 + W((2*gamma - 1)/(1 - gamma) * e^-1)); positively
    homogeneous in the mean.
    """
    g = gamma.gamma if isinstance(gamma, Level) else Level(gamma).gamma
    if mean <= 0.0:
        raise ValueError("mean must be positive")
    return mean * (1.0 + lambert_w0((2.0 * g - 1.0) / (1.0 - g) * math.exp(-1.0)))

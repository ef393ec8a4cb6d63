"""Central and tail dependence analytics for multi-site hazard data.

Conditional incident/trigger probabilities, tie-aware Kendall tau,
Chatterjee's rank correlation, the nonparametric upper-tail-dependence
estimator with plateau-based k selection, the Gumbel--Hougaard copula MLE,
and the closed-form asymptotic confidence interval for the tail coefficient.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .contracts import _golden_section, _rng
from .expectile import DegenerateDataError, DegenerateSampleError

logger = logging.getLogger(__name__)

_ETA_MAX = 50.0  # upper end of the Gumbel parameter search

__all__ = list(_EXPORTS["dependence"])


class PairedObservations:
    """Equal-length paired observations (x_j, y_j)."""

    __slots__ = ("x", "y", "m")

    def __init__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1 or x.size < 2:
            raise ValueError("need equal-length 1d sequences with m >= 2")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("observations must be finite")
        self.x = x
        self.y = y
        self.m = x.size
        x.setflags(write=False)
        y.setflags(write=False)


@dataclass(frozen=True)
class TailEstimate:
    lambda_hat: float
    k: int
    eta_hat: float
    sigma_u_sq: float
    ci_low: float
    ci_high: float
    m: int


def conditional_probabilities(wind_matrix, threshold: float):
    """Pairwise conditional incident and trigger probabilities.

    p_inc[i, j] = P(site i has an incident | site j has one), estimated by
    indicator ratios over the joint rows; p_trig analogous with winds at or
    above the trigger threshold. Diagonal and zero-conditioning entries are
    NaN (absent), the latter with a warning.
    """
    w = np.asarray(wind_matrix, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] < 2:
        raise ValueError("need a (rows x >=2 sites) wind matrix")
    p_inc, n_inc = _conditional((w > 0.0).astype(np.int64))
    p_trig, n_trig = _conditional((w >= threshold).astype(np.int64))
    n_sites = w.shape[1]
    empty = (n_inc == 0) | (n_trig == 0)  # conditioning sites with absent entries
    for j, i in np.argwhere(empty[:, None] & ~np.eye(n_sites, dtype=bool)):
        if n_inc[j] == 0:
            logger.warning("no incidents at conditioning site %d; p_inc[%d,%d] absent",
                           j, i, j)
        if n_trig[j] == 0:
            logger.warning("no triggers at conditioning site %d; p_trig[%d,%d] absent",
                           j, i, j)
    return p_inc, p_trig


def _conditional(hits):
    """Column-conditional joint frequencies of an int64 indicator matrix.

    Returns (p, counts): p[i, j] = #(i and j) / #j, NaN on the diagonal and
    in columns with no hits, and counts = #j per column.
    """
    joint = hits.T @ hits
    counts = np.diag(joint)
    with np.errstate(invalid="ignore"):
        p = joint / counts
    np.fill_diagonal(p, np.nan)
    return p, counts


def _tie_pairs(counts) -> int:
    """Number of tied pairs, sum c(c - 1)/2 over the distinct values' counts."""
    return int((counts * (counts - 1) // 2).sum())


def _inversions(ranks, n_ranks: int) -> int:
    """Number of pairs i < j with ranks[i] > ranks[j] (strict).

    Bottom-up merge sort on integer ranks in [0, n_ranks): at block width
    w = 2^level, each right block's elements count the greater elements of
    the sorted left block beside it. Offsetting every element by its block
    pair's index times n_ranks makes all left blocks one sorted array, so one
    searchsorted per level counts them; a sort of the same keys then merges
    each pair.
    """
    n = ranks.size
    idx = np.arange(n)
    merged = ranks.astype(np.int64)
    inversions = 0
    level = 0
    while (1 << level) < n:
        w = 1 << level
        offset = (idx >> (level + 1)) * n_ranks
        keys = merged + offset
        right = ((idx >> level) & 1).astype(bool)
        le = np.searchsorted(keys[~right], keys[right], side="right")
        # a right element of pair p has (p + 1) * w left elements up to its pair
        full, rest = divmod(n, 2 * w)
        inversions += (w * w * full * (full + 1) // 2 + max(0, rest - w) * (full + 1) * w
                       - int(le.sum()))
        merged = np.sort(keys) - offset
        level += 1
    return inversions


def kendall_tau(pairs: PairedObservations) -> float:
    """Tie-corrected Kendall tau_b, exact in O(m log m) (Knight 1966).

    Discordant pairs are the strict inversions of y's dense ranks after
    sorting by (x, y); the ties in x, in y and in (x, y) come from value
    counts. All counts are integers, so only the final division rounds.
    """
    x, y = pairs.x, pairs.y
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateSampleError("zero variance ranks")
    _, x_dense, x_counts = np.unique(x, return_inverse=True, return_counts=True)
    _, y_dense, y_counts = np.unique(y, return_inverse=True, return_counts=True)
    joint = x_dense * y_counts.size + y_dense  # (x, y) order as integers
    dis = _inversions(y_dense[np.argsort(joint)], y_counts.size)
    tot = pairs.m * (pairs.m - 1) // 2
    xtie = _tie_pairs(x_counts)
    ytie = _tie_pairs(y_counts)
    ntie = _tie_pairs(np.unique(joint, return_counts=True)[1])
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.minimum(1.0, max(-1.0, tau)))


def _ranks(values, method: str) -> np.ndarray:
    """Ranks 1..m with ties at their "max", "min" or "average" rank.

    max and min are int64, average is float64 (half-integers, exact).
    """
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts, dtype=np.int64)
    if method == "max":
        return upper[inverse]
    lower = upper - counts + 1
    if method == "min":
        return lower[inverse]
    return (lower + (counts - 1) / 2.0)[inverse]


def chatterjee_xi(pairs: PairedObservations, seed: int = 0) -> float:
    """Chatterjee's rank correlation, generalized sample version.

    Sorts by x with ties broken uniformly at random (seeded), then
    xi = 1 - m * sum |r_{i+1} - r_i| / (2 * sum l_i (m - l_i)) with
    r_i the number of y's <= y_(i) and l_i the number of y's >= y_(i).
    """
    m = pairs.m
    if m < 3:
        raise ValueError("need m >= 3")
    if np.all(pairs.y == pairs.y[0]):
        raise DegenerateSampleError("constant y: xi denominator is zero")
    rng = _rng(seed)
    jitter = rng.random(m)
    order = np.lexsort((jitter, pairs.x))
    y_sorted = pairs.y[order]
    r = _ranks(y_sorted, "max")
    l = m - _ranks(y_sorted, "min") + 1  # #{j: y_j >= y_(i)}
    num = m * np.abs(np.diff(r)).sum()
    den = 2.0 * np.sum(l * (m - l))
    return float(1.0 - num / den)


def _strict_ranks(values) -> np.ndarray:
    """1..m ranks with ties broken by original order (stable sort)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.int64)
    ranks[order] = np.arange(1, values.shape[0] + 1)
    return ranks


def _tail_counts(pairs: PairedObservations) -> np.ndarray:
    """k * lambda_hat(k) for every k = 1 .. m-1, in one pass.

    Both strict ranks exceed m - k exactly when m - min(rank_x, rank_y) < k,
    so the count at k is the cumulative histogram of that gap at k - 1.
    """
    m = pairs.m
    gap = m - np.minimum(_strict_ranks(pairs.x), _strict_ranks(pairs.y))
    return np.cumsum(np.bincount(gap, minlength=m))[:m - 1]


def tail_lambda(pairs: PairedObservations, k: int) -> float:
    """Nonparametric upper-tail-dependence estimator at tail fraction k.

    (1/k) * #{j : rank(x_j) > m - k and rank(y_j) > m - k} with strict
    integer ranks (ties resolved in input order).
    """
    return _lambda_of(_tail_counts(pairs), k)


def _lambda_of(counts, k: int) -> float:
    """tail_lambda at k from the m - 1 counts of _tail_counts."""
    if not (1 <= k <= counts.size):
        raise ValueError("k must satisfy 1 <= k < m")
    return float(counts[k - 1] / k)


def plateau_k(pairs: PairedObservations, range_factor: float = 2.0) -> int:
    """Plateau-based choice of the tail fraction k.

    Smooths k -> lambda_hat(k) with a centered moving average of bandwidth
    b = max(1, floor(0.005 m)), then returns the midpoint of the first
    window of length w = floor(sqrt(m - 2b)) whose internal range is at most
    range_factor times the standard deviation of the smoothed series. Falls
    back to floor(sqrt(m)) with a warning when no plateau exists.
    """
    return _plateau_of(_tail_counts(pairs), range_factor)


def _plateau_of(counts, range_factor: float = 2.0) -> int:
    """plateau_k from the m - 1 counts of _tail_counts."""
    m = counts.size + 1
    if m < 30:
        raise DegenerateDataError("insufficient data for plateau selection")
    b = max(1, m // 200)
    lam = counts / np.arange(1, m)
    kernel = np.ones(2 * b + 1) / (2 * b + 1)
    smooth = np.convolve(lam, kernel, mode="valid")  # indices k = b+1 .. m-1-b
    w = max(2, min(int(math.isqrt(m - 2 * b)), smooth.size))
    ranges = np.ptp(np.lib.stride_tricks.sliding_window_view(smooth, w), axis=1)
    flat = np.flatnonzero(ranges <= range_factor * float(smooth.std()))
    if flat.size:
        return int(flat[0]) + w // 2 + b + 1
    logger.warning("no plateau found; falling back to k = floor(sqrt(m))")
    return int(math.isqrt(m))


def _gumbel_nll(u, v):
    """The Gumbel copula's negative log-likelihood at (u, v), as a function of eta.

    -log u, -log v and the sum of their logs do not depend on eta, so they
    are computed once, not once per evaluation.
    """
    lu = -np.log(u)
    lv = -np.log(v)
    log_lu_lv = np.log(lu) + np.log(lv)

    def nll(eta):
        s = lu ** eta + lv ** eta
        s_pow = s ** (1.0 / eta)
        # c(u,v) = C(u,v)/(uv) * (lu*lv)^(eta-1) * s^(1/eta - 2) * (s^(1/eta) + eta - 1)
        return -float(np.sum(-s_pow + lu + lv + (eta - 1.0) * log_lu_lv
                             + (1.0 / eta - 2.0) * np.log(s) + np.log(s_pow + eta - 1.0)))
    return nll


def gumbel_mle(pairs: PairedObservations) -> float:
    """MLE of the Gumbel--Hougaard copula parameter on pseudo-observations.

    Pseudo-observations u_j = rank_j/(m+1); golden-section maximization of
    the copula log-likelihood over [1, 50]. A boundary solution at 50 logs a
    near-degenerate-dependence warning.
    """
    m = pairs.m
    if m < 10:
        raise DegenerateDataError("need m >= 10 for the copula MLE")
    u = _ranks(pairs.x, "average") / (m + 1)
    v = _ranks(pairs.y, "average") / (m + 1)
    eta_hat = _golden_section(_gumbel_nll(u, v), 1.0, _ETA_MAX, 1e-8)
    if eta_hat > _ETA_MAX - 1e-3:
        logger.warning("near-degenerate dependence: MLE at the eta upper boundary")
    return float(eta_hat)


def gumbel_lambda_u(eta: float) -> float:
    """Upper-tail-dependence coefficient of the Gumbel copula: 2 - 2^(1/eta)."""
    if eta < 1.0:
        raise ValueError("eta must be >= 1")
    return 2.0 - 2.0 ** (1.0 / eta)


def eta_from_tau(tau: float) -> float:
    """Kendall-tau inversion eta = 1/(1 - tau); cross-check diagnostic only."""
    if not (0.0 <= tau < 1.0):
        raise ValueError("tau-inversion requires tau in [0, 1)")
    return 1.0 / (1.0 - tau)


def sigma_u_sq(eta: float) -> float:
    """Asymptotic variance of the tail estimator under the Gumbel model."""
    if eta < 1.0:
        raise ValueError("eta must be >= 1")
    return (2.0 ** (1.0 / eta + 1.0) - 2.0 ** (2.0 / eta)) * (2.0 ** (1.0 / eta - 1.0) - 0.5)


def tail_ci(lambda_hat: float, k: int, eta_hat: float, level: float = 0.95):
    """Normal-approximation CI: lambda_hat +/- z * sqrt(sigma_U^2(eta)/k), where z is the
    standard library's exact normal quantile at 0.5 + level/2 (``NormalDist.inv_cdf``)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not -1.0 < level < 1.0:  # NaN too, which inv_cdf would pass through
        raise ValueError("level must lie in (-1, 1)")
    from statistics import NormalDist  # here, so a cold start that builds no interval skips it
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * math.sqrt(sigma_u_sq(eta_hat) / k)
    return lambda_hat - half, lambda_hat + half


def tail_estimate(pairs: PairedObservations, k: int | None = None) -> TailEstimate:
    """Full upper-tail summary: plateau k (unless given), MLE eta, 95% CI.

    The CI's z is the standard library's exact normal quantile at 0.975 (``tail_ci``).
    The tail counts are computed once, for both k and lambda_hat(k).
    """
    counts = _tail_counts(pairs)
    k = _plateau_of(counts) if k is None else k
    lam = _lambda_of(counts, k)
    eta = gumbel_mle(pairs)
    s2 = sigma_u_sq(eta)
    low, high = tail_ci(lam, k, eta)
    return TailEstimate(lambda_hat=lam, k=int(k), eta_hat=eta, sigma_u_sq=s2,
                        ci_low=low, ci_high=high, m=pairs.m)


def sample_gumbel(eta: float, m: int, seed: int) -> PairedObservations:
    """Simulate Gumbel-copula pairs via the positive-stable mixture.

    V positive alpha-stable with alpha = 1/eta, U_i = exp(-(E_i/V)^(1/eta));
    used by the recovery tests for the MLE and tail estimator.
    """
    if eta < 1.0:
        raise ValueError("eta must be >= 1")
    rng = _rng(seed)
    if eta == 1.0:
        return PairedObservations(rng.random(m), rng.random(m))
    alpha = 1.0 / eta
    theta = rng.uniform(0.0, math.pi, size=m)
    w = rng.exponential(1.0, size=m)
    # Chambers-Mallows-Stuck positive stable draw (beta = 1, scale per Marshall-Olkin)
    v = (np.sin(alpha * theta) / np.sin(theta) ** (1.0 / alpha)
         * (np.sin((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha))
    e1 = rng.exponential(1.0, size=m)
    e2 = rng.exponential(1.0, size=m)
    u = np.exp(-((e1 / v) ** alpha))
    y = np.exp(-((e2 / v) ** alpha))
    return PairedObservations(u, y)

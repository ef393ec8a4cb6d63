"""Hazard and tail kernels against the implementations they replaced.

Each reference below is the earlier implementation, kept verbatim apart
from its name: plateau_k with its m x m matrix branch (m <= 4000) and its
per-k loop (m > 4000), tail_lambda, the pairwise conditional_probabilities
loop, the cross-track kernel with its one-point branch, the two-branch
incident selection, the golden-section loop and the Gumbel log-density that
recomputed its eta-free logs at every eta. The current kernels must
give bitwise-equal results and the same warning records, except where a
reference is wrong: the cross-track reference takes a foot on the major arc
of a segment longer than 120 degrees as inside the segment.
"""

import logging
import math

import numpy as np
import pytest

from basisrisk import dependence
from basisrisk.contracts import _golden_section
from basisrisk.dependence import (
    PairedObservations,
    _strict_ranks,
    _tail_counts,
    conditional_probabilities,
    gumbel_mle,
    plateau_k,
    sample_gumbel,
    tail_estimate,
    tail_lambda,
)
from basisrisk.hazard import (
    EARTH_RADIUS_KM,
    LossModelParams,
    Site,
    Track,
    TrackSet,
    _ONE_TRACK,
    _distances,
    _unit_vectors,
    incident_windspeeds,
    simulate_losses,
    simulate_portfolio,
)
from conftest import incident_wind
from scipy.stats import rankdata

ref_logger = logging.getLogger("basisrisk.dependence")


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def _ref_tail_lambda(pairs, k):
    m = pairs.m
    if not (1 <= k < m):
        raise ValueError("k must satisfy 1 <= k < m")
    rx = _strict_ranks(pairs.x)
    ry = _strict_ranks(pairs.y)
    return float(np.sum((rx > m - k) & (ry > m - k)) / k)


def _ref_plateau_k(pairs, bandwidth=None, window=None, range_factor=2.0):
    m = pairs.m
    if m < 30:
        raise ValueError("insufficient data for plateau selection")
    b = max(1, m // 200) if bandwidth is None else bandwidth
    rx = _strict_ranks(pairs.x)
    ry = _strict_ranks(pairs.y)
    ks = np.arange(1, m)
    if m <= 4000:
        joint = (rx[None, :] > m - ks[:, None]) & (ry[None, :] > m - ks[:, None])
        lam = joint.sum(axis=1) / ks
    else:  # avoid the m x m intermediate on large samples
        lam = np.array([np.sum((rx > m - k) & (ry > m - k)) / k for k in ks])
    kernel = np.ones(2 * b + 1) / (2 * b + 1)
    smooth = np.convolve(lam, kernel, mode="valid")  # indices k = b+1 .. m-1-b
    w = int(math.isqrt(m - 2 * b)) if window is None else window
    w = max(2, min(w, smooth.size))
    sd = float(smooth.std())
    for start in range(0, smooth.size - w + 1):
        win = smooth[start:start + w]
        if win.max() - win.min() <= range_factor * sd:
            return start + w // 2 + b + 1
    ref_logger.warning("no plateau found; falling back to k = floor(sqrt(m))")
    return int(math.isqrt(m))


def _ref_conditional_probabilities(wind_matrix, threshold):
    w = np.asarray(wind_matrix, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] < 2:
        raise ValueError("need a (rows x >=2 sites) wind matrix")
    inc = w > 0.0
    trig = w >= threshold
    n_sites = w.shape[1]
    p_inc = np.full((n_sites, n_sites), np.nan)
    p_trig = np.full((n_sites, n_sites), np.nan)
    for j in range(n_sites):
        for i in range(n_sites):
            if i == j:
                continue
            denom_inc = inc[:, j].sum()
            if denom_inc == 0:
                ref_logger.warning("no incidents at conditioning site %d; p_inc[%d,%d] absent",
                                   j, i, j)
            else:
                p_inc[i, j] = (inc[:, i] & inc[:, j]).sum() / denom_inc
            denom_trig = trig[:, j].sum()
            if denom_trig == 0:
                ref_logger.warning("no triggers at conditioning site %d; p_trig[%d,%d] absent",
                                   j, i, j)
            else:
                p_trig[i, j] = (trig[:, i] & trig[:, j]).sum() / denom_trig
    return p_inc, p_trig


def _ref_xtrack_min_distance(px, py, pz, vx, vy, vz) -> float:
    n = vx.shape[0]
    if n == 1:
        d = np.arccos(np.clip(px * vx[0] + py * vy[0] + pz * vz[0], -1.0, 1.0))
        return float(d)
    ax, ay, az = vx[:-1], vy[:-1], vz[:-1]
    bx, by, bz = vx[1:], vy[1:], vz[1:]
    # segment great-circle normal a x b
    nx = ay * bz - az * by
    ny = az * bx - ax * bz
    nz = ax * by - ay * bx
    nn = np.sqrt(nx * nx + ny * ny + nz * nz)
    dot_pa = np.clip(px * ax + py * ay + pz * az, -1.0, 1.0)
    dot_pb = np.clip(px * bx + py * by + pz * bz, -1.0, 1.0)
    end_dist = np.minimum(np.arccos(dot_pa), np.arccos(dot_pb))
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_xt = np.clip((px * nx + py * ny + pz * nz) / nn, -1.0, 1.0)
        xtrack = np.abs(np.arcsin(sin_xt))
        # foot of perpendicular: p projected onto the great-circle plane
        fx = px - sin_xt * nx / nn
        fy = py - sin_xt * ny / nn
        fz = pz - sin_xt * nz / nn
        fn = np.sqrt(fx * fx + fy * fy + fz * fz)
        fx, fy, fz = fx / fn, fy / fn, fz / fn
        arc_ab = np.arccos(np.clip(ax * bx + ay * by + az * bz, -1.0, 1.0))
        arc_af = np.arccos(np.clip(ax * fx + ay * fy + az * fz, -1.0, 1.0))
        arc_bf = np.arccos(np.clip(bx * fx + by * fy + bz * fz, -1.0, 1.0))
    inside = (arc_af <= arc_ab + 1e-12) & (arc_bf <= arc_ab + 1e-12)
    degenerate = nn < 1e-15
    dist = np.where(inside & ~degenerate, xtrack, end_dist)
    return float(np.min(dist))


def _ref_incident_wind(track, p, limit):
    px, py, pz = p
    vx, vy, vz = _unit_vectors(track.lat_deg, track.lon_deg)
    if _ref_xtrack_min_distance(px, py, pz, vx, vy, vz) > limit:
        return None
    dots = np.clip(px * vx + py * vy + pz * vz, -1.0, 1.0)
    inside = np.arccos(dots) <= limit
    if not inside.any():
        # passes within the radius between sampled points; use the two
        # points bracketing the closest segment
        seg = int(np.argmin(np.arccos(dots)))
        sel = np.zeros(len(track), dtype=bool)
        sel[max(seg - 1, 0):min(seg + 2, len(track))] = True
    else:
        sel = inside.copy()
        idx = np.flatnonzero(inside)
        before = idx - 1
        after = idx + 1
        sel[before[before >= 0]] = True
        sel[after[after < len(track)]] = True
    return float(track.wind_kn[sel].max())


def _ref_golden(f, a, b, tol):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _ref_gumbel_log_density(u, v, eta):
    lu = -np.log(u)
    lv = -np.log(v)
    s = lu ** eta + lv ** eta
    s_pow = s ** (1.0 / eta)
    # c(u,v) = C(u,v)/(uv) * (lu*lv)^(eta-1) * s^(1/eta - 2) * (s^(1/eta) + eta - 1)
    return (-s_pow + lu + lv + (eta - 1.0) * (np.log(lu) + np.log(lv))
            + (1.0 / eta - 2.0) * np.log(s) + np.log(s_pow + eta - 1.0))


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _records(caplog):
    out = [(r.levelno, r.getMessage()) for r in caplog.records]
    caplog.clear()
    return out


# ---------------------------------------------------------------------------
# tail count and plateau choice
# ---------------------------------------------------------------------------

def _pairs(kind, m, seed):
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        return sample_gumbel(2.0, m, seed)
    if kind == "tied":  # heavy ties on both margins
        x = rng.integers(0, 12, size=m).astype(float)
        return PairedObservations(x, x + rng.integers(0, 3, size=m))
    if kind == "upper_comonotone":  # exact plateau of lambda_hat = 1 for small k
        x = rng.random(m)
        y = np.where(x > 0.5, x, rng.random(m) * 0.5)
        return PairedObservations(x, y)
    raise AssertionError(kind)


M_VALUES = [30, 999, 4000, 4001, 5172]
KINDS = ["continuous", "tied", "upper_comonotone"]


@pytest.mark.parametrize("m", M_VALUES)
@pytest.mark.parametrize("kind", KINDS)
def test_tail_counts_match_both_old_branches(kind, m):
    pairs = _pairs(kind, m, seed=m)
    ks = np.arange(1, m)
    lam = _tail_counts(pairs) / ks
    rx, ry = _strict_ranks(pairs.x), _strict_ranks(pairs.y)
    loop = np.array([np.sum((rx > m - k) & (ry > m - k)) / k for k in ks])
    assert lam.tobytes() == loop.tobytes()
    if m <= 4000:
        joint = (rx[None, :] > m - ks[:, None]) & (ry[None, :] > m - ks[:, None])
        assert lam.tobytes() == (joint.sum(axis=1) / ks).tobytes()
    for k in sorted({1, 2, m // 3, m // 2, m - 2, m - 1}):
        assert _same_bits(tail_lambda(pairs, k), _ref_tail_lambda(pairs, k))


@pytest.mark.parametrize("range_factor", [2.0, 0.0, 1e-9])
@pytest.mark.parametrize("m", M_VALUES)
@pytest.mark.parametrize("kind", KINDS)
def test_plateau_k_matches_reference(kind, m, range_factor, caplog):
    pairs = _pairs(kind, m, seed=m + 1)
    with caplog.at_level(logging.WARNING):
        expected = _ref_plateau_k(pairs, range_factor=range_factor)
        ref_records = _records(caplog)
        got = plateau_k(pairs, range_factor=range_factor)
        records = _records(caplog)
    assert type(got) is int
    assert got == expected
    assert records == ref_records


@pytest.mark.parametrize("m", [30, 999, 5172])
@pytest.mark.parametrize("kind", KINDS)
def test_tail_estimate_counts_once_and_matches_its_parts(kind, m, monkeypatch):
    pairs = _pairs(kind, m, seed=m + 2)
    k = plateau_k(pairs)
    calls = []
    counts = dependence._tail_counts

    def counted(p):
        calls.append(p.m)
        return counts(p)

    monkeypatch.setattr(dependence, "_tail_counts", counted)
    for given in (None, k, 1, m - 1):
        calls.clear()
        est = tail_estimate(pairs, given)
        assert calls == [m]
        k_used = k if given is None else given
        assert est.k == k_used
        assert _same_bits(est.lambda_hat, _ref_tail_lambda(pairs, k_used))


def test_plateau_fallback_matches_reference(caplog):
    # a wildly non-plateauing series forces the sqrt(m) fallback
    x = np.arange(60.0)
    y = np.where(np.arange(60) % 2 == 0, x, -x)
    pairs = PairedObservations(x, y)
    with caplog.at_level(logging.WARNING):
        expected = _ref_plateau_k(pairs, range_factor=1e-9)
        ref_records = _records(caplog)
        got = plateau_k(pairs, range_factor=1e-9)
        records = _records(caplog)
    assert got == expected == math.isqrt(60)
    assert records == ref_records
    assert [msg for _, msg in records] == [
        "no plateau found; falling back to k = floor(sqrt(m))"]


# ---------------------------------------------------------------------------
# conditional probabilities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("threshold", [80.0, 0.0, -1.0])
def test_conditional_probabilities_match_reference(threshold, caplog):
    rng = np.random.default_rng(3)
    rows = 500
    w = np.where(rng.random((rows, 5)) < 0.4, rng.uniform(20.0, 140.0, (rows, 5)), 0.0)
    w[:, 1] = 0.0                                  # no incidents at site 1
    w[:, 3] = np.minimum(w[:, 3], 79.0)            # incidents, no triggers
    w[7, 4] = np.nan                               # a NaN cell counts as neither
    with caplog.at_level(logging.WARNING):
        ref_inc, ref_trig = _ref_conditional_probabilities(w, threshold)
        ref_records = _records(caplog)
        p_inc, p_trig = conditional_probabilities(w, threshold)
        records = _records(caplog)
    assert np.array_equal(p_inc, ref_inc, equal_nan=True)
    assert np.array_equal(p_trig, ref_trig, equal_nan=True)
    assert records == ref_records
    if threshold > 0:
        assert len(records) == 4 + 4 + 4  # site 1: inc and trig; site 3: trig


def test_conditional_probabilities_without_zero_columns(caplog):
    rng = np.random.default_rng(4)
    w = rng.uniform(0.0, 140.0, (2000, 3))
    with caplog.at_level(logging.WARNING):
        ref = _ref_conditional_probabilities(w, 83.0)
        got = conditional_probabilities(w, 83.0)
    assert not caplog.records
    for a, b in zip(got, ref):
        assert np.array_equal(a, b, equal_nan=True)


# ---------------------------------------------------------------------------
# cross-track kernel and incident rule
# ---------------------------------------------------------------------------

SITE = Site(18.2, -66.5, radius_km=50.0)


def _random_tracks(n, seed):
    """Tracks near SITE: one-point tracks, sparse tracks that pass the circle
    between samples, and tracks with repeated (zero-length) segments."""
    rng = np.random.default_rng(seed)
    tracks = []
    for t in range(n):
        kind = t % 4
        if kind == 0:  # one point
            lat = SITE.lat_deg + rng.normal(0.0, 0.5, 1)
            lon = SITE.lon_deg + rng.normal(0.0, 0.5, 1)
        elif kind == 1:  # straight, sparsely sampled, crossing near the site
            npts = int(rng.integers(2, 5))
            off = rng.uniform(-0.6, 0.6)
            s = np.linspace(-1.5, 1.5, npts) + rng.uniform(-0.3, 0.3)
            lat = SITE.lat_deg + off + 0.2 * s
            lon = SITE.lon_deg + s
        elif kind == 2:  # random walk with repeated points
            npts = int(rng.integers(2, 12))
            steps = rng.normal(0.0, 0.3, (npts, 2))
            steps[rng.random(npts) < 0.3] = 0.0
            path = np.cumsum(steps, axis=0) + rng.normal(0.0, 0.5, 2)
            lat = SITE.lat_deg + path[:, 0]
            lon = SITE.lon_deg + path[:, 1]
        else:  # densely sampled, through the circle
            npts = int(rng.integers(5, 30))
            s = np.linspace(-1.0, 1.0, npts)
            lat = SITE.lat_deg + rng.uniform(-0.3, 0.3) + 0.5 * s
            lon = SITE.lon_deg + rng.uniform(-0.3, 0.3) + s
        wind = np.round(rng.uniform(30.0, 150.0, lat.size), 1)
        wind[rng.random(lat.size) < 0.1] = 0.0
        tracks.append(Track(f"t{t}", lat, lon, wind))
    # the same point twice, and a site exactly on a vertex
    tracks.append(Track("dup", [SITE.lat_deg + 0.1] * 2, [SITE.lon_deg] * 2, [90.0, 95.0]))
    tracks.append(Track("on_vertex", [SITE.lat_deg - 1.0, SITE.lat_deg, SITE.lat_deg + 1.0],
                        [SITE.lon_deg - 1.0, SITE.lon_deg, SITE.lon_deg + 1.0],
                        [80.0, 120.0, 90.0]))
    return TrackSet(tracks)


def test_cross_track_and_incident_match_reference():
    tracks = _random_tracks(800, seed=11)
    p = _unit_vectors(SITE.lat_deg, SITE.lon_deg)
    limit = SITE.radius_km / EARTH_RADIUS_KM
    seen = {"one_point_incident": 0, "between_samples": 0, "degenerate": 0, "miss": 0}
    for tr in tracks:
        v = _unit_vectors(tr.lat_deg, tr.lon_deg)
        point, polyline = _distances(p, v, _ONE_TRACK)
        assert _same_bits(polyline[0], _ref_xtrack_min_distance(*p, *v))
        ref = _ref_incident_wind(tr, p, limit)
        got = incident_wind(tr, p, limit)
        if ref is None:
            assert math.isnan(got)
            seen["miss"] += 1
            continue
        assert _same_bits(got, ref)
        seen["one_point_incident"] += len(tr) == 1
        seen["between_samples"] += not (point <= limit).any()
        seen["degenerate"] += bool(np.any((np.diff(tr.lat_deg) == 0)
                                          & (np.diff(tr.lon_deg) == 0)))
    assert min(seen.values()) >= 5, seen


def _equator_segment(lon_a, lon_b):
    return _unit_vectors(np.zeros(2), np.array([lon_a, lon_b], dtype=np.float64))


@pytest.mark.parametrize("site,lon_b,inside", [
    ((30.0, 60.0), 120.0, True),     # a segment longer than 90 degrees, foot inside
    ((30.0, -30.0), 120.0, False),   # ... foot beyond a
    ((-10.0, -150.0), 120.0, False),  # ... foot beyond a, on the far side
    ((30.0, 150.0), 120.0, False),   # ... foot beyond b
    ((0.0, 50.0), 30.0, False),      # on the segment's great circle, beyond b
    ((0.0, -20.0), 30.0, False),     # ... beyond a
    ((0.0, 160.0), 120.0, False),    # ... beyond b of a segment longer than 90 degrees
    ((0.0, -40.0), 120.0, False),    # ... beyond a of it
    ((1.0, 29.99), 30.0, True),      # foot just inside b
    ((1.0, 30.01), 30.0, False),     # foot just beyond b
])
def test_segment_test_matches_reference_at_its_edges(site, lon_b, inside):
    p = _unit_vectors(*site)
    v = _equator_segment(0.0, lon_b)
    point, polyline = _distances(p, v, _ONE_TRACK)
    assert _same_bits(polyline[0], _ref_xtrack_min_distance(*p, *v))
    assert (polyline[0] < point.min()) == inside
    if lon_b > 90.0:
        assert np.dot([c[0] for c in v], [c[1] for c in v]) < 0.0


@pytest.mark.parametrize("site", [(0.0, -95.0), (10.0, -95.0), (-20.0, -120.0)])
def test_foot_on_the_major_arc_of_a_long_segment_is_outside(site):
    # On a segment longer than 120 degrees, a foot on the major arc can lie
    # within arc_ab of both endpoints; the reference's arc test takes it as
    # inside and returns the cross-track distance. The sign test does not.
    p = _unit_vectors(*site)
    v = _equator_segment(0.0, 170.0)
    point, polyline = _distances(p, v, _ONE_TRACK)
    assert _same_bits(polyline[0], point.min())
    t = np.radians(np.linspace(0.0, 170.0, 170001))  # the minor arc, every 0.001 degrees
    walk = np.arccos(np.clip(np.cos(t) * p[0] + np.sin(t) * p[1], -1.0, 1.0))
    assert abs(polyline[0] - walk.min()) <= 1e-12
    assert _ref_xtrack_min_distance(*p, *v) < polyline[0] - 0.5


@pytest.mark.parametrize("pole", [1.0, -1.0])
def test_site_at_the_segments_pole_measures_a_quarter_turn(pole):
    # Every point of the great circle is a foot, so the reference's foot is
    # 0 / 0 and it falls back to the endpoint distance, pi / 2 = xtrack.
    p = (0.0, 0.0, pole)
    v = (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2))
    _, polyline = _distances(p, v, _ONE_TRACK)
    ref = _ref_xtrack_min_distance(*p, *v)
    assert abs(polyline[0] - ref) <= 1e-15
    assert abs(ref - math.pi / 2) <= 1e-15


def test_incident_windspeeds_and_portfolio_match_reference():
    tracks = _random_tracks(400, seed=12)
    sites = [SITE, Site(18.4, -66.3, radius_km=40.0), Site(30.0, 10.0)]
    params = [LossModelParams()] * len(sites)
    winds, losses = simulate_portfolio(tracks, sites, params, seed=5)
    for j, site in enumerate(sites):
        p = _unit_vectors(site.lat_deg, site.lon_deg)
        limit = site.radius_km / EARTH_RADIUS_KM
        ref = [_ref_incident_wind(tr, p, limit) for tr in tracks]
        ref_inc = np.asarray([w for w in ref if w is not None], dtype=np.float64)
        assert incident_windspeeds(tracks, site).tobytes() == ref_inc.tobytes()
        col = np.asarray([0.0 if w is None else w for w in ref])
        assert winds[:, j].tobytes() == col.tobytes()
        sample = simulate_losses(col, params[j], 5, site_key=j)
        assert losses[:, j].tobytes() == np.where(col > 0.0, sample.losses, 0.0).tobytes()
    assert not winds[:, 2].any()  # the far site sees no incident


# ---------------------------------------------------------------------------
# golden-section search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f,a,b,tol", [
    (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-10),
    (lambda x: abs(x - 7.25) + 0.01 * x, 1.0, 50.0, 1e-8),
    (lambda x: -x, 1.0, 50.0, 1e-8),          # boundary solution
    (lambda x: 1.0, 0.5, 2.0, 1e-10 * 2.0),   # flat objective
])
def test_golden_section_matches_reference(f, a, b, tol):
    assert _same_bits(_golden_section(f, a, b, tol), _ref_golden(f, a, b, tol))


@pytest.mark.parametrize("eta,seed", [(1.0, 0), (1.6, 1), (3.0, 2)])
def test_gumbel_mle_matches_reference_loop(eta, seed):
    pairs = sample_gumbel(eta, 400, seed)
    m = pairs.m
    u = rankdata(pairs.x, method="average") / (m + 1)
    v = rankdata(pairs.y, method="average") / (m + 1)

    def nll(e):
        return -float(np.sum(_ref_gumbel_log_density(u, v, e)))

    assert _same_bits(gumbel_mle(pairs), _ref_golden(nll, 1.0, 50.0, 1e-8))

"""Cat-in-a-circle hazard pipeline.

Track ingestion, great-circle trigger geometry, incident wind-speed
extraction, nonparametric bootstrap, and the S-shaped synthetic loss model
with scaled-Beta errors. Multi-site joint simulation uses counter-based RNG
substreams so results are reproducible and independent of evaluation order.

A ``TrackSet`` is flat: the points of all its tracks sit in one array per
column, grouped by track and delimited by offsets, and their unit vectors
are computed once per set. The track CSV is parsed into that layout in
bounded blocks of whole lines, each checked and parsed at once. One
cross-track kernel, ``_winds``, measures every track against a site over
fixed chunks of whole tracks; ``min_distance_km`` runs the same distance
kernel on one track. A segment ab measures its cross-track distance when
the perpendicular foot of the site p lies on the minor arc ab, that is when
p.b >= (a.b)(p.a) and p.a >= (a.b)(p.b) (Lagrange's identity applied to
(a x p).(a x b) and (p x b).(a x b)), and its nearer endpoint's otherwise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .contracts import (_CSV_BLOCK_CHARS, LossIndexSample, _csv_text, _line_blocks,
                        _parse_lines, _rng)
from .expectile import EmpiricalSample

logger = logging.getLogger(__name__)

__all__ = [
    "Track",
    "TrackSet",
    "Site",
    "LossModelParams",
    "min_distance_km",
    "incident_windspeeds",
    "storm_wind_convert",
    "bootstrap",
    "loss_mean",
    "loss_sigma",
    "simulate_losses",
    "simulate_portfolio",
    "storm_to_track_csv",
]

EARTH_RADIUS_KM = 6371.0
KNOTS_PER_MS = 1.943844
GUST_FACTOR_10MIN_TO_1MIN = 0.88


@dataclass(frozen=True)
class Track:
    track_id: str
    lat_deg: np.ndarray
    lon_deg: np.ndarray
    wind_kn: np.ndarray

    def __post_init__(self):
        lat = np.asarray(self.lat_deg, dtype=np.float64)
        lon = np.asarray(self.lon_deg, dtype=np.float64)
        wind = np.asarray(self.wind_kn, dtype=np.float64)
        if not (lat.size == lon.size == wind.size) or lat.size == 0:
            raise ValueError("track needs >= 1 aligned (lat, lon, wind) point")
        _check_points(lat, lon, wind)
        for a in (lat, lon, wind):
            a.setflags(write=False)
        object.__setattr__(self, "lat_deg", lat)
        object.__setattr__(self, "lon_deg", lon)
        object.__setattr__(self, "wind_kn", wind)

    @classmethod
    def _view(cls, track_id, lat, lon, wind):
        """A track over arrays a TrackSet has already checked; no new checks."""
        track = object.__new__(cls)
        for name, value in zip(("track_id", "lat_deg", "lon_deg", "wind_kn"),
                               (track_id, lat, lon, wind)):
            object.__setattr__(track, name, value)
        return track

    def __len__(self):
        return self.lat_deg.size


def _check_points(lat, lon, wind):
    # written so that NaN fails the range checks
    if not (np.all(np.abs(lat) <= 90.0) and np.all(np.abs(lon) <= 180.0)):
        raise ValueError("coordinates out of range")
    if not np.all(np.isfinite(wind)) or np.any(wind < 0):
        raise ValueError("winds must be finite and non-negative")


_CSV_HEADER = "track_id,step,lat_deg,lon_deg,wind_kn"
_CSV_DTYPE = np.dtype([("step", np.int64), ("lat", np.float64),
                       ("lon", np.float64), ("wind", np.float64)])
_EMPTY = np.empty(0, dtype=_CSV_DTYPE)


def _csv_block(lines, numbers, ids, codes):
    """The numeric fields of a block of track CSV lines (file lines ``numbers``).

    Each line must have 5 fields; blank and whitespace-only lines are
    dropped. Appends each row's track number (its id's rank of first
    appearance in the file, registered in ``ids``) to ``codes``. A field that
    does not parse is reported with its line.
    """
    counts = [line.count(",") for line in lines]
    if counts.count(4) < len(lines):
        for n, k, line in zip(numbers, counts, lines):
            if k != 4 and line.strip():
                raise ValueError(f"line {n} has {k + 1} fields; a track row needs 5")
        numbers = [n for n, k in zip(numbers, counts) if k == 4]
        lines = [line for line, k in zip(lines, counts) if k == 4]
        if not lines:
            return _EMPTY
    codes += [ids.setdefault(line.partition(",")[0].lstrip(), len(ids)) for line in lines]
    return _parse_lines(lines, numbers, dtype=_CSV_DTYPE, delimiter=",", comments=None,
                        usecols=(1, 2, 3, 4), ndmin=1)


def _csv_body(fh):
    """The track ids, each row's track number and the numeric fields of a
    track CSV body, read from ``fh`` in blocks of whole lines."""
    ids, codes = {}, []
    parts = [_csv_block(lines, numbers, ids, codes)
             for lines, numbers in _line_blocks(fh, _CSV_BLOCK_CHARS)]
    return ids, np.array(codes, dtype=np.int64), np.concatenate(parts or [_EMPTY])


class TrackSet:
    """Ordered collection of hurricane tracks, stored flat.

    The points of all tracks sit in one lat/lon/wind array each, grouped by
    track: track ``i`` is named ``_ids[i]`` and holds points
    ``_offsets[i]:_offsets[i + 1]``. The points' unit vectors are computed
    once here and serve every site the kernel measures. ``tracks`` and
    iteration give read-only :class:`Track` views over these arrays, built
    when asked for and not validated again. ``TrackSet([Track, ...])``
    copies the given tracks into this layout.
    """

    def __init__(self, tracks):
        tracks = list(tracks)
        lengths = [len(t) for t in tracks]

        def flat(name):
            return np.concatenate([getattr(t, name) for t in tracks] or [np.empty(0)])

        self._store([t.track_id for t in tracks], flat("lat_deg"), flat("lon_deg"),
                    flat("wind_kn"), np.cumsum([0] + lengths, dtype=np.int64))

    def _store(self, ids, lat, lon, wind, offsets):
        for a in (lat, lon, wind):
            a.setflags(write=False)
        self._ids = ids
        self._offsets = offsets
        self._lat, self._lon, self._wind = lat, lon, wind
        self._unit = _unit_vectors(lat, lon)

    def __len__(self):
        return len(self._ids)

    @property
    def tracks(self) -> list[Track]:
        bounds = self._offsets.tolist()
        return [Track._view(tid, self._lat[a:b], self._lon[a:b], self._wind[a:b])
                for tid, a, b in zip(self._ids, bounds[:-1], bounds[1:])]

    def __iter__(self):
        return iter(self.tracks)

    @classmethod
    def from_csv(cls, path):
        """Read `track_id,step,lat_deg,lon_deg,wind_kn` rows.

        Steps must strictly increase within a track; a track's rows need not
        be contiguous, and tracks keep the order of their first row. The body
        is read in blocks of whole lines (``_CSV_BLOCK_CHARS``), each checked,
        numbered and parsed by ``_csv_block``; only the parsed fields outlive
        the read.
        """
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != _CSV_HEADER:
                raise ValueError(f"unexpected track CSV header: {header!r}")
            ids, code, data = _csv_body(fh)
        if not ids:
            return cls([])
        order = np.argsort(code, kind="stable")
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(code, minlength=len(ids)), out=offsets[1:])
        step = data["step"][order]
        # compared, not differenced, so extreme int64 steps cannot wrap
        falls = step[1:] <= step[:-1]
        falls[offsets[1:-1] - 1] = False  # pairs across two tracks
        if falls.any():
            track = int(np.searchsorted(offsets, np.argmax(falls), side="right")) - 1
            raise ValueError("steps must be strictly increasing in track "
                             f"{list(ids)[track]}")
        lat, lon, wind = (data[name][order] for name in ("lat", "lon", "wind"))
        _check_points(lat, lon, wind)
        tracks = cls.__new__(cls)
        tracks._store(list(ids), lat, lon, wind, offsets)
        return tracks

    def to_csv(self, path):
        lengths = np.diff(self._offsets)
        ids = [tid for tid, n in zip(self._ids, lengths.tolist()) for _ in range(n)]
        steps = np.arange(self._lat.size) - np.repeat(self._offsets[:-1], lengths)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(_csv_text(_CSV_HEADER.split(","), ids, steps,
                               self._lat, self._lon, self._wind))


@dataclass(frozen=True)
class Site:
    """Insured location with its trigger circle and payout threshold."""

    lat_deg: float
    lon_deg: float
    radius_km: float = 50.0
    trigger_threshold_kn: float = 83.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not (abs(self.lat_deg) <= 90.0 and abs(self.lon_deg) <= 180.0):
            raise ValueError("site coordinates out of range")
        if not (self.radius_km > 0 and self.trigger_threshold_kn > 0):
            raise ValueError("radius and threshold must be positive")


@dataclass(frozen=True)
class LossModelParams:
    """Parameters of the S-curve conditional loss model.

    mu(theta) = v (1 - e^{-rate(theta-offset)}) / (1 + steepness e^{-rate(theta-offset)})
    for theta >= offset, else 0; sigma = mu (1 - mu/v); the error is a Beta(p,q)
    variable rescaled to have mean zero while keeping S inside [0, v].
    """

    v: float = 100.0
    p: float = 3.0
    q: float = 3.0
    rate: float = 0.09
    offset: float = 64.0
    steepness: float = 150.0

    def __post_init__(self):
        if not (self.v > 0 and self.p > 0 and self.q > 0):  # NaN fails too
            raise ValueError("v, p, q must be positive")
        if not np.all(np.isfinite([self.rate, self.offset, self.steepness])):
            raise ValueError("rate, offset, steepness must be finite")


def _unit_vectors(lat_deg, lon_deg):
    lat = np.radians(np.asarray(lat_deg, dtype=np.float64))
    lon = np.radians(np.asarray(lon_deg, dtype=np.float64))
    return (np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon), np.sin(lat))


# Points per chunk of whole tracks in the cross-track kernel: long enough
# that numpy's per-call cost vanishes, short enough that the kernel's few
# dozen temporaries of this length stay a few MB.
_CHUNK_POINTS = 1 << 13

_ONE_TRACK = np.zeros(1, dtype=np.int64)  # ``starts`` of a single track


def _distances(p, v, starts):
    """Angular distances from the unit vector p to each point (an array) and
    to each track's polyline (an array, one per track).

    ``v`` holds the unit vectors of tracks stored flat, track ``i`` starting
    at point ``starts[i]``. Per geodesic segment ab, the distance is the
    cross-track distance when the perpendicular foot of p lies on the minor
    arc ab, else the nearer endpoint's. The foot is on the arc exactly when
    (a x p).(a x b) >= 0 and (p x b).(a x b) >= 0; by Lagrange's identity
    these read p.b >= (a.b)(p.a) and p.a >= (a.b)(p.b), so the test needs
    only the point dot products and a.b. (The two left-hand sides are the
    weights of b and a in p's projection onto the plane of a and b, times
    |a x b|^2.) A one-point track is the segment (v_0, v_0).
    """
    px, py, pz = p
    vx, vy, vz = v
    cos_p = px * vx + py * vy + pz * vz
    point = np.arccos(np.clip(cos_p, -1.0, 1.0))
    # segment i joins points i and i + 1
    ax, ay, az = vx[:-1], vy[:-1], vz[:-1]
    bx, by, bz = vx[1:], vy[1:], vz[1:]
    cos_pa, cos_pb = cos_p[:-1], cos_p[1:]
    cos_ab = ax * bx + ay * by + az * bz
    inside = (cos_pb >= cos_ab * cos_pa) & (cos_pa >= cos_ab * cos_pb)
    # segment great-circle normal a x b
    nx = ay * bz - az * by
    ny = az * bx - ax * bz
    nz = ax * by - ay * bx
    nn = np.sqrt(nx * nx + ny * ny + nz * nz)
    end_dist = np.minimum(point[:-1], point[1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        sin_xt = np.clip((px * nx + py * ny + pz * nz) / nn, -1.0, 1.0)
        xtrack = np.abs(np.arcsin(sin_xt))
    degenerate = nn < 1e-15
    seg = np.empty_like(point)
    seg[:-1] = np.where(inside & ~degenerate, xtrack, end_dist)
    # The segment from a track's last point leads into the next track and
    # does not count, except for a one-point track: its segment (v_0, v_0)
    # has a zero normal, so it is degenerate and measures point[v_0].
    last = np.append(starts[1:], point.size) - 1
    seg[last] = np.where(last == starts, point[last], np.inf)
    return point, np.minimum.reduceat(seg, starts)


def min_distance_km(track: Track, site: Site) -> float:
    """Minimum great-circle distance from the site to the track polyline.

    Cross-track distance per geodesic segment, clamped to the nearer endpoint
    when the perpendicular foot falls outside the segment; spherical earth.
    """
    _, ang = _distances(_unit_vectors(site.lat_deg, site.lon_deg),
                        _unit_vectors(track.lat_deg, track.lon_deg), _ONE_TRACK)
    return float(ang[0]) * EARTH_RADIUS_KM


def _winds(p, limit: float, v, wind, starts) -> np.ndarray:
    """Incident wind of each track at a trigger circle, NaN where it misses.

    ``p`` is the site's unit vector, ``limit`` the circle's angular radius,
    and ``v``, ``wind`` and ``starts`` tracks stored flat as in
    ``_distances``. A track hits when its polyline comes within the radius.
    Its anchor is its in-circle points or, for a track that only passes
    within the radius between samples, its first closest point (where
    ``argmin`` would stop); the wind is the maximum over the anchor widened
    by one point on each side, within the track.
    """
    point, polyline = _distances(p, v, starts)
    hit = ~(polyline > limit)
    anchor = point <= limit
    closest_only = hit & ~np.logical_or.reduceat(anchor, starts)
    if closest_only.any():
        n = point.size
        lengths = np.diff(np.append(starts, n))
        nearest = np.repeat(np.minimum.reduceat(point, starts), lengths)
        is_min = (point == nearest) | np.isnan(point)  # argmin takes the first NaN
        first_min = np.minimum.reduceat(np.where(is_min, np.arange(n), n), starts)
        anchor[first_min[closest_only]] = True
    inner = np.ones(point.size - 1, dtype=bool)  # pairs (i, i + 1) of one track
    inner[starts[1:] - 1] = False
    sel = anchor.copy()
    sel[1:] |= anchor[:-1] & inner
    sel[:-1] |= anchor[1:] & inner
    top = np.maximum.reduceat(np.where(sel, wind, -np.inf), starts)
    return np.where(hit, top, np.nan)


def _site_winds(tracks: TrackSet, site: Site) -> np.ndarray:
    """Incident wind of every track at the site's circle, NaN where it misses.

    Runs ``_winds`` over chunks of whole tracks of about ``_CHUNK_POINTS``
    points each (a longer track is a chunk of its own).
    """
    p = _unit_vectors(site.lat_deg, site.lon_deg)
    limit = site.radius_km / EARTH_RADIUS_KM
    offsets = tracks._offsets
    out = np.empty(len(tracks))
    lo = 0
    while lo < len(tracks):
        hi = max(int(np.searchsorted(offsets, offsets[lo] + _CHUNK_POINTS,
                                     side="right")) - 1, lo + 1)
        a, b = offsets[lo], offsets[hi]
        out[lo:hi] = _winds(p, limit, tuple(c[a:b] for c in tracks._unit),
                            tracks._wind[a:b], offsets[lo:hi] - a)
        lo = hi
    return out


def incident_windspeeds(tracks: TrackSet, site: Site) -> np.ndarray:
    """Per-incident maximum wind at the site's trigger circle.

    A track is an incident when its minimum distance is within the radius;
    the recorded wind is the maximum over the in-circle points (the closest
    point, for a track that passes between samples) plus one adjacent point
    on each side of every such run.
    """
    winds = _site_winds(tracks, site)
    return winds[~np.isnan(winds)]


def storm_wind_convert(wind_10min_ms) -> np.ndarray | float:
    """10-minute sustained wind in m/s to 1-minute maximum in knots.

    Adapter configuration: divide by the 0.88 averaging-period factor, then
    convert m/s to knots.
    """
    w = np.asarray(wind_10min_ms, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("wind speeds must be non-negative")
    out = w / GUST_FACTOR_10MIN_TO_1MIN * KNOTS_PER_MS
    return float(out) if out.ndim == 0 else out


def bootstrap(values, n: int, seed: int) -> EmpiricalSample:
    """n i.i.d. draws with replacement; deterministic given the seed."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty bootstrap source")
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = _rng(seed, 0).integers(0, values.size, size=n)
    return EmpiricalSample(values[idx])


def loss_mean(thetas, params: LossModelParams) -> np.ndarray:
    """Conditional mean loss mu(theta); zero below the curve offset."""
    th = np.asarray(thetas, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # LossIndexSample checks finiteness
        e = np.exp(-params.rate * (th - params.offset))
        mu = params.v * (1.0 - e) / (1.0 + params.steepness * e)
    return np.where(th >= params.offset, mu, 0.0)


def loss_sigma(thetas, params: LossModelParams) -> np.ndarray:
    mu = loss_mean(thetas, params)
    return mu * (1.0 - mu / params.v)


def simulate_losses(windspeeds, params: LossModelParams, seed: int,
                    site_key: int = 0) -> LossIndexSample:
    """Losses S = mu(theta) + sigma(theta) * mean-zero scaled-Beta error.

    The error multiplier min{(p+q)/p, (p+q)/q} * Z - min{1, p/q} with
    Z ~ Beta(p, q) has expectation zero and keeps S inside [0, v].
    """
    th = np.asarray(windspeeds, dtype=np.float64)
    rng = _rng(seed, site_key, 1)
    z = rng.beta(params.p, params.q, size=th.size)
    scale = min((params.p + params.q) / params.p, (params.p + params.q) / params.q)
    shift = min(1.0, params.p / params.q)
    mu = loss_mean(th, params)
    sig = loss_sigma(th, params)
    s = mu + sig * (scale * z - shift)
    s = np.clip(s, 0.0, params.v)  # guards float roundoff at the edges
    return LossIndexSample(s, th)


def simulate_portfolio(tracks: TrackSet, sites, params_per_site, seed: int):
    """Joint per-track wind/loss realizations for several sites.

    Returns (wind_matrix, loss_matrix), one row per track and one column per
    site; wind is 0 when the track does not intersect the site's circle (the
    loss is then 0 too). Beta errors are drawn from independent per-site
    substreams, so adding or reordering sites never changes other columns.
    """
    sites = list(sites)
    params_per_site = list(params_per_site)
    if len(sites) < 2:
        raise ValueError("portfolio simulation needs >= 2 sites")
    if len(params_per_site) != len(sites):
        raise ValueError("one LossModelParams per site required")
    n_tracks = len(tracks)
    winds = np.zeros((n_tracks, len(sites)))
    losses = np.zeros((n_tracks, len(sites)))
    for j, (site, params) in enumerate(zip(sites, params_per_site)):
        col = np.nan_to_num(_site_winds(tracks, site), nan=0.0)
        winds[:, j] = col
        sample = simulate_losses(col, params, seed, site_key=j)
        losses[:, j] = np.where(col > 0.0, sample.losses, 0.0)
    return winds, losses


def storm_to_track_csv(storm_path, out_path):
    """Convert the public STORM text format to the track CSV.

    STORM rows are comma-separated: year, month, TC number, timestep, basin,
    lat, lon, min pressure (hPa), 10-min max sustained wind (m/s), then
    additional columns that are ignored here. Track identity is
    (year, month, TC number); winds are converted to 1-minute knots. Blank
    lines are skipped; any other line with fewer than 9 fields raises
    ValueError.
    """
    by_id: dict[str, list] = {}
    with open(storm_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = [p.strip() for p in line.strip().split(",") if p.strip() != ""]
            if len(parts) < 9:
                raise ValueError(f"{storm_path}: line {lineno} has {len(parts)} fields; "
                                 "a STORM row needs at least 9")
            year, month, tc, step = parts[0], parts[1], parts[2], parts[3]
            lat, lon, wind_ms = float(parts[5]), float(parts[6]), float(parts[8])
            tid = f"{year}-{month}-{tc}"
            by_id.setdefault(tid, []).append(
                (int(float(step)), lat, lon, storm_wind_convert(wind_ms)))
    rows = [(tid, *row) for tid, track in by_id.items() for row in sorted(track)]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_text(_CSV_HEADER.split(","), *zip(*rows)))

import math
import warnings

import numpy as np
import pytest

from basisrisk import hazard
from basisrisk.hazard import (
    EARTH_RADIUS_KM,
    LossModelParams,
    Site,
    Track,
    TrackSet,
    bootstrap,
    incident_windspeeds,
    loss_mean,
    loss_sigma,
    min_distance_km,
    simulate_losses,
    simulate_portfolio,
    storm_to_track_csv,
    storm_wind_convert,
)
from conftest import incident_wind


def equator_track(lons, winds=None, tid="t0"):
    lons = np.asarray(lons, dtype=np.float64)
    winds = np.full(lons.size, 50.0) if winds is None else np.asarray(winds, float)
    return Track(tid, np.zeros(lons.size), lons, winds)


class TestTrackValidation:
    def test_rejects_misaligned_and_bad_values(self):
        with pytest.raises(ValueError):
            Track("t", np.array([0.0]), np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Track("t", np.array([95.0]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Track("t", np.array([0.0]), np.array([0.0]), np.array([-1.0]))

    def test_csv_round_trip_exact(self, tmp_path):
        tracks = TrackSet([
            equator_track([-3.0, 0.123456789, 3.0], [10.0, 20.5, 30.0], "a"),
            Track("b", np.array([10.0, 11.3]), np.array([-60.0, -61.7]),
                  np.array([83.25, 91.0])),
        ])
        path = tmp_path / "tracks.csv"
        tracks.to_csv(path)
        back = TrackSet.from_csv(path)
        assert len(back) == 2
        for orig, rt in zip(tracks, back):
            assert rt.track_id == orig.track_id
            assert np.array_equal(rt.lat_deg, orig.lat_deg)
            assert np.array_equal(rt.lon_deg, orig.lon_deg)
            assert np.array_equal(rt.wind_kn, orig.wind_kn)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,lat,lon,wind\n")
        with pytest.raises(ValueError, match="header"):
            TrackSet.from_csv(path)

    def test_nonincreasing_steps_raise(self, tmp_path):
        path = tmp_path / "steps.csv"
        path.write_text("track_id,step,lat_deg,lon_deg,wind_kn\n"
                        "a,0,0.0,0.0,10.0\n"
                        "a,0,0.0,1.0,10.0\n")
        with pytest.raises(ValueError, match="increasing"):
            TrackSet.from_csv(path)


def _ref_from_csv(path):
    """Row-by-row track CSV parse (the layout before tracks were stored flat),
    kept as the reference for ``TrackSet.from_csv``."""
    by_id: dict[str, list] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "track_id,step,lat_deg,lon_deg,wind_kn":
            raise ValueError(f"unexpected track CSV header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            tid, step, lat, lon, wind = line.split(",")
            by_id.setdefault(tid, []).append(
                (int(step), float(lat), float(lon), float(wind)))
    tracks = []
    for tid, rows in by_id.items():
        steps = [r[0] for r in rows]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError(f"steps must be strictly increasing in track {tid}")
        tracks.append(Track(tid,
                            np.array([r[1] for r in rows]),
                            np.array([r[2] for r in rows]),
                            np.array([r[3] for r in rows])))
    return tracks


def _write_messy_tracks(path, seed, n_tracks=60):
    """A track CSV whose tracks interleave row by row, with whitespace-only
    lines, padded rows and fields, one-point tracks, long ids and mixed
    number forms."""
    rng = np.random.default_rng(seed)
    pending = []
    for t in range(n_tracks):
        tid = f"T{t}" if t % 7 else f"storm-{t}-" + "x" * int(rng.integers(50, 300))
        if t % 11 == 3:
            tid = f"two words {t}"
        n = 1 if t % 5 == 0 else int(rng.integers(2, 25))
        steps = np.cumsum(rng.integers(1, 4, n)) - int(rng.integers(0, 5))
        lat = rng.uniform(-90.0, 90.0, n)
        lon = rng.uniform(-180.0, 180.0, n)
        wind = rng.uniform(0.0, 170.0, n)
        wind[rng.random(n) < 0.1] = 0.0
        rows = []
        for i in range(n):
            form = int(rng.integers(0, 3))
            la = (repr(float(lat[i])), f"{lat[i]:.1f}", f" {lat[i]:.4f} ")[form]
            lo = (repr(float(lon[i])), f"{lon[i]:.2f}", f"{lon[i]:.6e}")[form]
            wi = (repr(float(wind[i])), f"{round(wind[i])}", f"{wind[i]:.3f}  ")[form]
            pad = ("", "", "", "  ", "\t")[int(rng.integers(0, 5))]
            rows.append(f"{pad}{tid},{steps[i]},{la},{lo},{wi}{pad}")
        pending.append(rows)
    lines = ["track_id,step,lat_deg,lon_deg,wind_kn"]
    while pending:
        k = int(rng.integers(0, len(pending)))  # the next row of a random track
        lines.append(pending[k].pop(0))
        if not pending[k]:
            pending.pop(k)
        if rng.random() < 0.05:
            lines.append(("", "   ", "\t", " \t ")[int(rng.integers(0, 4))])
    path.write_text("\n".join(lines) + "\n")


class TestTrackCsvParse:
    HEADER = "track_id,step,lat_deg,lon_deg,wind_kn\n"

    @staticmethod
    def _assert_matches_reference(got, ref):
        """Same ids, lengths and arrays, bit for bit, as ``_ref_from_csv``."""
        views = got.tracks
        assert len(got) == len(ref)
        assert [t.track_id for t in views] == [t.track_id for t in ref]
        assert [len(t) for t in views] == [len(t) for t in ref]
        for g, r in zip(views, ref):
            for name in ("lat_deg", "lon_deg", "wind_kn"):
                a, b = getattr(g, name), getattr(r, name)
                assert a.dtype == b.dtype == np.float64
                assert a.tobytes() == b.tobytes(), (g.track_id, name)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_row_by_row_reference(self, tmp_path, seed):
        path = tmp_path / "tracks.csv"
        _write_messy_tracks(path, seed)
        ref = _ref_from_csv(path)
        got = TrackSet.from_csv(path)
        assert min(len(t) for t in ref) == 1 and max(len(t.track_id) for t in ref) > 50
        self._assert_matches_reference(got, ref)

    @pytest.mark.parametrize("rows,match", [
        ("a,0,1.0,2.0\n", "line 3 has 4 fields"),
        ("a,1,1.0,2.0,3.0,4.0\n", "line 3 has 6 fields"),
        ("a,1.5,1.0,2.0,3.0\n", "1.5"),
        ("b,0,1,1,1\na,1,1,1,1\nb,0,1,1,1\n", "increasing in track b$"),
        ("a,1,1,1,1\nb,3,1,1,1\nb,2,1,1,1\n", "increasing in track b$"),
        # both fall; the track that appeared first is named, as row order had it
        ("b,0,1,1,1\nb,0,1,1,1\na,0,1,1,1\n", "increasing in track a$"),
        ("a,1,90.5,0.0,10.0\n", "coordinates"),
        ("a,1,0.0,-180.5,10.0\n", "coordinates"),
        ("a,1,0.0,0.0,-1.0\n", "winds"),
        ("a,1,0.0,0.0,inf\n", "winds"),
        ("a,1,nan,0.0,10.0\n", "coordinates"),
        ("a,1,0.0,nan,10.0\n", "coordinates"),
        ("a,1,0.0,0.0,nan\n", "winds"),
    ], ids=["four_fields", "six_fields", "fractional_step", "repeated_step",
            "falling_step", "first_track_named", "lat_range", "lon_range", "negative_wind",
            "infinite_wind", "nan_lat", "nan_lon", "nan_wind"])
    def test_malformed_rows_raise(self, tmp_path, rows, match):
        path = tmp_path / "tracks.csv"
        path.write_text(self.HEADER + "a,0,0.0,0.0,10.0\n" + rows)
        with pytest.raises(ValueError, match=match):
            TrackSet.from_csv(path)
        with pytest.raises(ValueError):
            _ref_from_csv(path)

    @staticmethod
    def _count_blocks(monkeypatch, block_chars):
        """Set the block size; the returned list collects each block's line count."""
        monkeypatch.setattr(hazard, "_CSV_BLOCK_CHARS", block_chars)
        seen, parse = [], hazard._csv_block

        def counted(lines, *args):
            seen.append(len(lines))
            return parse(lines, *args)

        monkeypatch.setattr(hazard, "_csv_block", counted)
        return seen

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("block_chars", [1, 97, 4000])
    def test_blocks_match_reference(self, tmp_path, monkeypatch, block_chars, newline):
        path = tmp_path / "tracks.csv"
        _write_messy_tracks(path, 5)
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        ref = _ref_from_csv(path)
        blocks = self._count_blocks(monkeypatch, block_chars)
        got = TrackSet.from_csv(path)
        assert len(blocks) > 3 and sum(blocks) == len(path.read_text().splitlines()) - 1
        self._assert_matches_reference(got, ref)

    def test_default_blocks_match_reference(self, tmp_path, monkeypatch):
        path = tmp_path / "tracks.csv"
        _write_messy_tracks(path, 6, n_tracks=1200)
        assert path.stat().st_size > 2 * hazard._CSV_BLOCK_CHARS
        ref = _ref_from_csv(path)
        blocks = self._count_blocks(monkeypatch, hazard._CSV_BLOCK_CHARS)
        self._assert_matches_reference(TrackSet.from_csv(path), ref)
        assert len(blocks) >= 3

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("row,match", [
        ("a,9,1.0,2.0", "line 43 has 4 fields; a track row needs 5$"),
        (" b,9,1.0,2.0,3.0,4.0 ", "line 43 has 6 fields; a track row needs 5$"),
        ("b,9,1.0,abc,3.0", "^line 43: could not convert string 'abc' to float64"),
        ("b,1.5,1.0,2.0,3.0", "^line 43: could not convert string '1.5' to int64"),
    ], ids=["four_fields", "six_fields", "bad_float", "fractional_step"])
    def test_bad_line_in_a_later_block_is_named(self, tmp_path, monkeypatch, newline, row,
                                                 match):
        # 30 rows, a whitespace-only line, 10 more rows, then the bad row at line 43
        good = [f"{'ab'[i % 2]},{i},1.0,2.0,3.0" for i in range(40)]
        lines = [self.HEADER.strip(), *good[:30], " \t ", *good[30:], row, "a,99,1,1,1"]
        path = tmp_path / "tracks.csv"
        path.write_bytes(newline.join(lines).encode() + newline.encode())
        blocks = self._count_blocks(monkeypatch, 200)
        with pytest.raises(ValueError, match=match):
            TrackSet.from_csv(path)
        assert len(blocks) > 3

    def test_blank_blocks_give_no_tracks_and_no_warning(self, tmp_path, monkeypatch):
        path = tmp_path / "tracks.csv"
        path.write_text(self.HEADER + "\n  \n\t\n" * 20)
        blocks = self._count_blocks(monkeypatch, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracks = TrackSet.from_csv(path)
        assert len(tracks) == 0 and len(blocks) > 3

    @pytest.mark.parametrize("body", ["", "\n  \n\t\n"], ids=["header_only", "blank_lines"])
    def test_header_only_gives_no_tracks_and_no_warning(self, tmp_path, body):
        path = tmp_path / "tracks.csv"
        path.write_text(self.HEADER + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracks = TrackSet.from_csv(path)
        assert len(tracks) == 0 and tracks.tracks == []
        assert incident_windspeeds(tracks, Site(0.0, 0.0)).size == 0

    def test_views_are_read_only(self, tmp_path):
        path = tmp_path / "tracks.csv"
        path.write_text(self.HEADER + "a,0,1,1,10\na,1,2,2,20\n")
        (view,) = TrackSet.from_csv(path)
        with pytest.raises(ValueError):
            view.wind_kn[0] = 1.0


class TestFlatKernel:
    def test_unit_vectors_once_per_trackset_and_site(self, tmp_path, monkeypatch):
        path = tmp_path / "tracks.csv"
        _write_messy_tracks(path, seed=4)
        calls = []
        real = hazard._unit_vectors

        def counting(lat_deg, lon_deg):
            calls.append(np.size(lat_deg))
            return real(lat_deg, lon_deg)

        monkeypatch.setattr(hazard, "_unit_vectors", counting)
        tracks = TrackSet.from_csv(path)
        assert calls == [sum(len(t) for t in tracks)]
        sites = [Site(0.0, 0.0), Site(10.0, 20.0), Site(-30.0, 40.0), Site(45.0, -60.0)]
        simulate_portfolio(tracks, sites, [LossModelParams()] * 4, seed=3)
        assert calls[1:] == [1, 1, 1, 1]

    @pytest.mark.parametrize("chunk", [1, 2, 7, 64])
    def test_chunks_match_one_track_calls(self, monkeypatch, chunk):
        # tracks near the site, some longer than a chunk, one-point ones and
        # tracks passing the circle between samples
        rng = np.random.default_rng(chunk)
        site = Site(18.2, -66.5, radius_km=60.0)
        tracks = []
        for t in range(120):
            n = 1 if t % 6 == 0 else int(rng.integers(2, 20))
            s = np.sort(rng.uniform(-2.0, 2.0, n))
            lat = site.lat_deg + rng.uniform(-0.8, 0.8) + 0.3 * s
            lon = site.lon_deg + s
            tracks.append(Track(f"t{t}", lat, lon, rng.uniform(20.0, 150.0, n)))
        tracks = TrackSet(tracks)
        p = hazard._unit_vectors(site.lat_deg, site.lon_deg)
        limit = site.radius_km / EARTH_RADIUS_KM
        one = np.array([incident_wind(t, p, limit) for t in tracks])
        monkeypatch.setattr(hazard, "_CHUNK_POINTS", chunk)
        got = hazard._site_winds(tracks, site)
        assert got.tobytes() == one.tobytes()
        assert 0 < np.isnan(got).sum() < len(tracks)


class TestMinDistance:
    def test_zero_on_track_point(self):
        tr = equator_track([-3.0, 0.0, 3.0])
        assert min_distance_km(tr, Site(0.0, 0.0)) == pytest.approx(0.0, abs=1e-9)

    def test_equator_cross_track(self):
        # site 2 degrees north of an equatorial segment
        tr = equator_track([-10.0, 10.0])
        d = min_distance_km(tr, Site(2.0, 0.0))
        assert d == pytest.approx(math.radians(2.0) * EARTH_RADIUS_KM, rel=1e-9)

    def test_endpoint_clamp(self):
        # site past the eastern end: nearest point is the endpoint itself
        tr = equator_track([0.0, 10.0])
        d = min_distance_km(tr, Site(0.0, 15.0))
        assert d == pytest.approx(math.radians(5.0) * EARTH_RADIUS_KM, rel=1e-9)

    def test_never_exceeds_pointwise_minimum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lats = np.cumsum(rng.normal(0, 0.5, 8)) + 15.0
            lons = np.linspace(-70.0, -64.0, 8)
            winds = np.full(8, 60.0)
            tr = Track("x", lats, lons, winds)
            site = Site(float(rng.uniform(13, 18)), float(rng.uniform(-71, -63)))
            pointwise = min(
                min_distance_km(Track("p", lats[i:i + 1], lons[i:i + 1],
                                      winds[:1]), site)
                for i in range(8))
            assert min_distance_km(tr, site) <= pointwise + 1e-9


class TestIncidentWindspeeds:
    def test_adjacent_point_rule(self):
        # 1 deg of longitude on the equator is ~111 km; radius 120 km covers
        # lons -1..1, and the adjacent-point rule adds lons -2 and 2
        tr = equator_track([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0],
                           [10.0, 70.0, 20.0, 30.0, 40.0, 88.0, 10.0])
        site = Site(0.0, 0.0, radius_km=120.0)
        out = incident_windspeeds(TrackSet([tr]), site)
        assert out.tolist() == [88.0]

    def test_non_incident_excluded(self):
        tr = equator_track([-3.0, 3.0])
        out = incident_windspeeds(TrackSet([tr]), Site(10.0, 0.0, radius_km=50.0))
        assert out.size == 0

    def test_between_points_uses_bracketing_pair(self):
        # closest approach falls between coarse samples; both bracketing
        # points contribute
        tr = equator_track([-5.0, 5.0], [33.0, 44.0])
        out = incident_windspeeds(TrackSet([tr]), Site(0.0, 0.0, radius_km=50.0))
        assert out.tolist() == [44.0]


    def test_closest_point_tie_takes_the_first(self):
        # the segment from lon -3 to lon 1 crosses the site, but no point is
        # in the circle; the closest point (lon 1) is sampled twice, and the
        # first copy anchors the widening: points 0..2, not 1..3
        tr = equator_track([-3.0, 1.0, 1.0, 5.0], [10.0, 20.0, 30.0, 40.0])
        out = incident_windspeeds(TrackSet([tr]), Site(0.0, 0.0, radius_km=50.0))
        assert out.tolist() == [30.0]

    def test_nan_point_is_closest_as_argmin_has_it(self):
        # Track rejects a NaN latitude, so the unchecked view feeds one to
        # the kernel: no point is in the circle but the NaN polyline
        # distance does not miss, so the closest point is the first NaN
        # one, as np.argmin picks it
        tr = Track._view("n", np.array([np.nan, 5.0, 6.0]), np.zeros(3),
                         np.array([40.0, 50.0, 60.0]))
        out = incident_windspeeds(TrackSet([tr]), Site(0.0, 0.0, radius_km=50.0))
        assert out.tolist() == [50.0]


class TestNanRejected:
    @pytest.mark.parametrize("kwargs", [
        {"lat_deg": np.nan}, {"lon_deg": np.nan}, {"radius_km": np.nan},
        {"trigger_threshold_kn": np.nan}, {"lat_deg": 90.5}, {"lon_deg": -181.0},
        {"lat_deg": np.inf}, {"radius_km": 0.0}, {"trigger_threshold_kn": -1.0},
    ], ids=["lat_nan", "lon_nan", "radius_nan", "threshold_nan", "lat_range",
            "lon_range", "lat_inf", "radius_0", "threshold_negative"])
    def test_site_rejects(self, kwargs):
        with pytest.raises(ValueError):
            Site(**{"lat_deg": 18.2, "lon_deg": -66.5, **kwargs})

    def test_site_accepts_the_boundary(self):
        Site(90.0, -180.0)
        Site(-90.0, 180.0)

    @pytest.mark.parametrize("column", ["lat", "lon"])
    def test_track_rejects_nan_coordinate(self, column):
        lat, lon = np.array([10.0, 11.0]), np.array([-60.0, -61.0])
        (lat if column == "lat" else lon)[1] = np.nan
        with pytest.raises(ValueError, match="out of range"):
            Track("t", lat, lon, np.array([80.0, 90.0]))

    @pytest.mark.parametrize("field", ["v", "p", "q", "rate", "offset", "steepness"])
    def test_loss_params_reject_nan(self, field):
        with pytest.raises(ValueError):
            LossModelParams(**{field: np.nan})


class TestWindConversion:
    def test_oracle_value(self):
        # 30 m/s ten-minute wind: 30 / 0.88 * 1.943844 knots
        assert storm_wind_convert(30.0) == pytest.approx(66.2674090909091, rel=1e-12)

    def test_vectorized(self):
        out = storm_wind_convert([0.0, 44.0])
        assert out[0] == 0.0
        assert out[1] == pytest.approx(44.0 / 0.88 * 1.943844)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            storm_wind_convert(-1.0)


class TestBootstrap:
    def test_deterministic_and_supported(self):
        vals = np.array([1.0, 2.0, 5.0, 9.0])
        a = bootstrap(vals, 1000, seed=3)
        b = bootstrap(vals, 1000, seed=3)
        assert np.array_equal(a.values, b.values)
        assert set(np.unique(a.values)) <= set(vals.tolist())
        c = bootstrap(vals, 1000, seed=4)
        assert not np.array_equal(a.values, c.values)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap([], 10, seed=0)
        with pytest.raises(ValueError):
            bootstrap([1.0], 0, seed=0)


class TestLossModel:
    def test_zero_at_and_below_offset(self):
        p = LossModelParams()
        assert loss_mean(64.0, p) == 0.0
        assert np.all(loss_mean([0.0, 30.0, 63.9], p) == 0.0)

    def test_frozen_oracle_values(self):
        p = LossModelParams()
        # independent hand evaluation of the S-curve at theta = 120
        assert float(loss_mean(120.0, p)) == pytest.approx(50.40562533320084,
                                                           rel=1e-12)
        assert float(loss_sigma(120.0, p)) == pytest.approx(24.998354680890653,
                                                            rel=1e-12)

    def test_bounded_and_increasing(self):
        p = LossModelParams()
        th = np.linspace(64.0, 250.0, 500)
        mu = loss_mean(th, p)
        assert np.all(np.diff(mu) > 0)
        assert mu[-1] < p.v
        sig = loss_sigma(th, p)
        assert np.all(sig >= 0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LossModelParams(v=-1.0)


class TestSimulateLosses:
    def test_bounds_and_determinism(self):
        p = LossModelParams()
        th = np.linspace(64.0, 150.0, 5000)
        a = simulate_losses(th, p, seed=11)
        b = simulate_losses(th, p, seed=11)
        assert np.array_equal(a.losses, b.losses)
        assert np.all((a.losses >= 0.0) & (a.losses <= p.v))
        c = simulate_losses(th, p, seed=11, site_key=1)
        assert not np.array_equal(a.losses, c.losses)

    def test_error_is_mean_zero(self):
        p = LossModelParams()
        th = np.full(200_000, 120.0)
        s = simulate_losses(th, p, seed=12)
        mu = float(loss_mean(120.0, p))
        se = float(s.losses.std()) / math.sqrt(th.size)
        assert abs(s.losses.mean() - mu) < 4 * se

    def test_asymmetric_beta_scaling(self):
        # with q > p the multiplier scale is (p+q)/q and the shift p/q
        p = LossModelParams(p=1.0, q=3.0)
        th = np.full(100_000, 120.0)
        s = simulate_losses(th, p, seed=13)
        mu = float(loss_mean(120.0, p))
        sig = float(loss_sigma(120.0, p))
        errors = (s.losses - mu) / sig
        assert errors.min() >= -1.0 / 3.0 - 1e-9
        assert errors.max() <= 4.0 / 3.0 - 1.0 / 3.0 + 1e-9


class TestSimulatePortfolio:
    def make_tracks(self):
        return TrackSet([
            equator_track([-3.0, 0.0, 3.0], [60.0, 90.0, 70.0], "a"),
            equator_track([-3.0, 3.0], [100.0, 100.0], "b"),
            Track("c", np.array([40.0, 41.0]), np.array([0.0, 1.0]),
                  np.array([120.0, 120.0])),
        ])

    def test_shapes_and_nonincident_zero(self):
        tracks = self.make_tracks()
        sites = [Site(0.0, 0.0, radius_km=120.0), Site(0.5, 1.0, radius_km=120.0)]
        params = [LossModelParams(), LossModelParams()]
        winds, losses = simulate_portfolio(tracks, sites, params, seed=9)
        assert winds.shape == losses.shape == (3, 2)
        # track "c" is far north of both sites
        assert winds[2].tolist() == [0.0, 0.0]
        assert losses[2].tolist() == [0.0, 0.0]
        assert np.all(winds[:2] > 0.0)

    def test_columns_stable_under_site_addition(self):
        tracks = self.make_tracks()
        base_sites = [Site(0.0, 0.0, radius_km=120.0), Site(0.5, 1.0, radius_km=120.0)]
        params = [LossModelParams(), LossModelParams()]
        w2, l2 = simulate_portfolio(tracks, base_sites, params, seed=9)
        w3, l3 = simulate_portfolio(tracks, base_sites + [Site(0.0, 2.0)],
                                    params + [LossModelParams()], seed=9)
        assert np.array_equal(w2, w3[:, :2])
        assert np.array_equal(l2, l3[:, :2])

    def test_requires_two_sites(self):
        with pytest.raises(ValueError):
            simulate_portfolio(self.make_tracks(), [Site(0.0, 0.0)],
                               [LossModelParams()], seed=9)

    @pytest.mark.parametrize("n_params", [1, 3])
    def test_requires_one_parameter_set_per_site(self, n_params):
        sites = [Site(0.0, 0.0), Site(0.5, 1.0)]
        with pytest.raises(ValueError, match="one LossModelParams per site"):
            simulate_portfolio(self.make_tracks(), sites, [LossModelParams()] * n_params,
                               seed=9)


class TestStormConversion:
    def test_storm_text_to_track_csv(self, tmp_path):
        storm = tmp_path / "storm.txt"
        storm.write_text(
            "1980,6,1,0,NA,18.0,-60.0,990.0,22.0,1,0\n"
            "1980,6,1,1,NA,18.5,-61.0,985.0,30.0,1,0\n"
            "1980,6,2,0,NA,20.0,-65.0,1000.0,18.0,1,0\n")
        out = tmp_path / "tracks.csv"
        storm_to_track_csv(storm, out)
        tracks = TrackSet.from_csv(out)
        assert [t.track_id for t in tracks] == ["1980-6-1", "1980-6-2"]
        first = tracks.tracks[0]
        assert len(first) == 2
        assert first.lat_deg.tolist() == [18.0, 18.5]
        assert first.wind_kn[0] == pytest.approx(storm_wind_convert(22.0))
        assert first.wind_kn[1] == pytest.approx(storm_wind_convert(30.0))

    def test_blank_lines_skipped(self, tmp_path):
        storm = tmp_path / "storm.txt"
        storm.write_text("\n1980,6,1,0,NA,18.0,-60.0,990.0,22.0,1,0\n   \n")
        out = tmp_path / "tracks.csv"
        storm_to_track_csv(storm, out)
        assert [len(t) for t in TrackSet.from_csv(out)] == [1]

    def test_short_line_raises_with_line_number(self, tmp_path, config_dir):
        # an already-converted track CSV is not STORM text: its 5-field
        # header must be rejected, not skipped into an empty output
        out = tmp_path / "tracks.csv"
        with pytest.raises(ValueError, match="line 1 "):
            storm_to_track_csv(config_dir / "fixtures" / "toy_tracks.csv", out)
        storm = tmp_path / "storm.txt"
        storm.write_text("1980,6,1,0,NA,18.0,-60.0,990.0,22.0,1,0\n1980,6,1,1,NA\n")
        with pytest.raises(ValueError, match="line 2 "):
            storm_to_track_csv(storm, out)

    def test_empty_field_keeps_the_columns_after_it(self, tmp_path):
        # an empty pressure must not shift the wind onto the next column
        storm = tmp_path / "storm.txt"
        storm.write_text("0,1,5,1,0,18.1,-60.2,,41.0,55.0,3,0,100.0\n"
                         "0,1,5,2,,18.3,-60.5,990.0,43.0,\n"
                         "0,1,5,3,0,18.6,-60.9,985.0,45.0,,,\n")
        out = tmp_path / "tracks.csv"
        storm_to_track_csv(storm, out)
        (track,) = TrackSet.from_csv(out).tracks
        assert track.track_id == "0-1-5"
        assert track.lat_deg.tolist() == [18.1, 18.3, 18.6]
        assert track.lon_deg.tolist() == [-60.2, -60.5, -60.9]
        assert track.wind_kn.tolist() == [storm_wind_convert(w) for w in (41.0, 43.0, 45.0)]
        assert round(track.wind_kn[0], 2) == 90.57

    @pytest.mark.parametrize("row,field", [
        ("1980,6,1,1,NA,18.5,-61.0,985.0,,30.0,1", 9),
        ("1980,6,1,1,NA,,-61.0,985.0,30.0,1", 6),
        ("1980,6,,1,NA,18.5,-61.0,985.0,30.0,1", 3),
    ], ids=["wind", "lat", "tc_number"])
    def test_empty_read_field_raises_with_line_number(self, tmp_path, row, field):
        storm = tmp_path / "storm.txt"
        storm.write_text("1980,6,1,0,NA,18.0,-60.0,990.0,22.0,1,0\n" + row + "\n")
        with pytest.raises(ValueError, match=f"line 2 has an empty field {field};"):
            storm_to_track_csv(storm, tmp_path / "tracks.csv")

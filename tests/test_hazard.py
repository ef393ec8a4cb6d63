import math

import numpy as np
import pytest

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

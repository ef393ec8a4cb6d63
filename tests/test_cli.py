import copy
import importlib.util
import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from basisrisk import cli, hazard
from basisrisk.cli import main
from basisrisk.dependence import kendall_tau
from conftest import CONFIG_DIR, REPO_ROOT


def run(tmp_path, command, cfg_path, out_name="out", seed=None):
    out = tmp_path / out_name
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), out


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def track_cfg(tmp_path, command, tracks):
    """A config of ``command`` over the track CSV ``tracks``."""
    site = {"lat_deg": 18.2, "lon_deg": -66.5}
    if command == "simulate":
        cfg = {"seed": 1, "wind": {"tracks_csv": str(tracks), "site": site}}
    else:
        cfg = {"seed": 1, "tracks_csv": str(tracks),
               "sites": [site, {"lat_deg": 18.4, "lon_deg": -66.3}]}
    return write_cfg(tmp_path, "c.yaml", cfg)


def interior_fit_cfg(**overrides):
    cfg = {
        "seed": 7,
        "payout_family": "pure",
        "contract": {"t_lo": 83.0, "principle": "expected_value", "rho": 0.2},
        "utility": {"family": "exponential", "beta": 0.15, "w0": 0.0},
        "sample": {"synthetic": {"kind": "wind_beta", "n": 20000}},
    }
    cfg.update(overrides)
    return cfg


class TestFitWeighting:
    @pytest.mark.parametrize("case,decision", [
        ("two_point_case1.yaml", "prefer_smallest_alpha"),
        ("two_point_case2.yaml", "prefer_no_insurance"),
        ("two_point_case3.yaml", "prefer_no_insurance"),
    ])
    def test_two_point_decisions(self, tmp_path, config_dir, case, decision):
        code, out = run(tmp_path, "fit-weighting", config_dir / case)
        assert code == 0
        sol = json.loads((out / "solution.json").read_text())
        assert sol["decision"] == decision
        assert sol["gamma_star"] is None
        assert "closed_form" not in sol
        assert (out / "trace.csv").exists()
        assert (out / "manifest.json").exists()

    def test_interior_emits_closed_form_delta(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", interior_fit_cfg())
        code, out = run(tmp_path, "fit-weighting", cfg)
        assert code == 0
        sol = json.loads((out / "solution.json").read_text())
        assert sol["decision"] == "interior_optimum"
        assert 0.0 < sol["gamma_star"] < 1.0
        assert sol["closed_form"]["gamma_delta"] <= 1e-6

    def test_restricted_endpoint_skips_the_closed_form(self, tmp_path, config_dir):
        # the closed form cross-checks an interior optimum only; run at an
        # endpoint of the restricted levels it has no optimum to check
        cfg = yaml.safe_load((config_dir / "two_point_case1.yaml").read_text())
        cfg["restrict"] = [0.2, 0.8]
        code, out = run(tmp_path, "fit-weighting", write_cfg(tmp_path, "c.yaml", cfg))
        assert code == 0
        sol = json.loads((out / "solution.json").read_text())
        assert sol["decision"] == "endpoint_low"
        assert sol["gamma_star"] == 0.2
        assert "closed_form" not in sol

    def test_index_family_reports_residual(self, tmp_path, config_dir):
        code, out = run(tmp_path, "fit-weighting", config_dir / "index_fit.yaml")
        assert code == 0
        sol = json.loads((out / "solution.json").read_text())
        assert sol["separability_residual"] >= 0.0

    def test_manifest_contents(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", interior_fit_cfg())
        code, out = run(tmp_path, "fit-weighting", cfg)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit-weighting"
        assert manifest["seed"] == 7
        assert sorted(manifest["outputs"]) == [
            "manifest.json", "solution.json", "trace.csv"]
        # no wall-clock information anywhere in the manifest
        text = (out / "manifest.json").read_text().lower()
        assert "time" not in text and "date" not in text


class TestErrorPaths:
    def test_malformed_yaml_exits_2_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("contract: [unclosed\n")
        code, out = run(tmp_path, "fit-weighting", bad)
        assert code == 2
        assert not out.exists()

    def test_missing_seed_exits_2(self, tmp_path):
        cfg_dict = interior_fit_cfg()
        del cfg_dict["seed"]
        cfg = write_cfg(tmp_path, "c.yaml", cfg_dict)
        code, out = run(tmp_path, "fit-weighting", cfg)
        assert code == 2
        assert not out.exists()

    def test_seed_flag_satisfies_missing_seed(self, tmp_path):
        cfg_dict = interior_fit_cfg()
        del cfg_dict["seed"]
        cfg = write_cfg(tmp_path, "c.yaml", cfg_dict)
        code, _ = run(tmp_path, "fit-weighting", cfg, seed=7)
        assert code == 0

    def test_unknown_principle_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", interior_fit_cfg(
            contract={"t_lo": 83.0, "principle": "exotic", "rho": 0.2}))
        code, _ = run(tmp_path, "fit-weighting", cfg)
        assert code == 2

    def test_utility_domain_exits_4(self, tmp_path):
        # power utility with tiny initial wealth: terminal wealth goes negative
        cfg = write_cfg(tmp_path, "c.yaml", {
            "seed": 3,
            "contract": {"t_lo": 83.0, "rho": 0.2},
            "utility": {"family": "power", "eta": 2.0, "w0": 1.0},
            "sample": {"synthetic": {"kind": "wind_beta", "n": 5000}},
        })
        code, out = run(tmp_path, "utility-curve", cfg)
        assert code == 4
        assert not out.exists()

    def test_degenerate_trigger_exits_5(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", interior_fit_cfg(
            contract={"t_lo": 500.0, "rho": 0.2}))
        code, out = run(tmp_path, "fit-weighting", cfg)
        assert code == 5
        assert not out.exists()

    def test_gamma_grid_list_under_fit_weighting_exits_2(self, tmp_path, config_dir):
        # regime_k1's gamma_grid is a utility-curve level list, not a trace size
        code, out = run(tmp_path, "fit-weighting", config_dir / "regime_k1.yaml")
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid", [0, -3, 2.5, "many", True])
    def test_gamma_grid_not_positive_integer_exits_2(self, tmp_path, grid):
        cfg = write_cfg(tmp_path, "c.yaml", interior_fit_cfg(gamma_grid=grid))
        code, out = run(tmp_path, "fit-weighting", cfg)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "loss,index\n1.0,90.0\nabc,50.0\n",        # non-numeric cell
        "loss\n1.0\n2.0\n3.0\n",                   # one column
        "loss,index,extra\n1.0,90.0,0\n2.0,50.0,0\n",  # three columns
        "loss,index\n1.0,90.0\n2.0\n",              # ragged row
    ], ids=["non_numeric", "one_column", "three_columns", "ragged"])
    def test_malformed_sample_csv_exits_2(self, tmp_path, text):
        csv_path = tmp_path / "sample.csv"
        csv_path.write_text(text)
        cfg = write_cfg(tmp_path, "c.yaml", interior_fit_cfg(
            sample={"csv": str(csv_path)}))
        code, out = run(tmp_path, "fit-weighting", cfg)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("body", ["", "# no rows\n\n"], ids=["header_only", "comments"])
    @pytest.mark.parametrize("command", ["fit-weighting", "dependence-report"])
    def test_csv_with_no_rows_exits_2(self, tmp_path, capsys, command, body):
        # one stderr line that names the file, and no warning before it
        csv_path = tmp_path / "data.csv"
        if command == "fit-weighting":
            csv_path.write_text("loss,index\n" + body)
            cfg = interior_fit_cfg(sample={"csv": str(csv_path)})
            what = "sample"
        else:
            csv_path.write_text("s0,s1\n" + body)
            cfg = {"seed": 1, "winds_csv": str(csv_path)}
            what = "wind matrix"
        code, out = run(tmp_path, command, write_cfg(tmp_path, "c.yaml", cfg))
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"config error: malformed {what} file {csv_path}: no data rows below the "
            "header line\n")

    @pytest.mark.parametrize("row", ["A,0,18.2,-66.5,abc", "A,0,18.2,-66.5,90,1",
                                     "A,2,nan,-66.5,90", "A,2,18.2,nan,90"],
                             ids=["non_numeric", "six_fields", "nan_lat", "nan_lon"])
    @pytest.mark.parametrize("command", ["simulate", "dependence-report"])
    def test_malformed_track_csv_exits_2(self, tmp_path, command, row):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("track_id,step,lat_deg,lon_deg,wind_kn\n"
                          "A,1,18.3,-66.4,95\n" + row + "\n")
        code, out = run(tmp_path, command, track_cfg(tmp_path, command, tracks))
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("block_chars", [1 << 20, 64], ids=["one_block", "later_block"])
    @pytest.mark.parametrize("command", ["simulate", "dependence-report"])
    def test_non_utf8_track_csv_exits_2(self, tmp_path, monkeypatch, capsys, command,
                                        block_chars):
        monkeypatch.setattr(hazard, "_CSV_BLOCK_CHARS", block_chars)
        tracks = tmp_path / "tracks.csv"
        tracks.write_bytes(b"track_id,step,lat_deg,lon_deg,wind_kn\n"
                           + b"A,1,18.3,-66.4,95\n" * 8 + b"\xff\xfeB,2,18.2,-66.5,90\n")
        code, out = run(tmp_path, command, track_cfg(tmp_path, command, tracks))
        assert code == 2
        assert not out.exists()
        assert "can't decode byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "s0,s1\n90,95\nabc,80\n85,0\n",     # non-numeric cell
        "s0,s1\n90,95\n,80\n85,0\n",        # empty cell
        "s0,s1\n90,95\ninf,80\n85,0\n",     # non-finite cell
    ], ids=["non_numeric", "empty", "inf"])
    def test_malformed_winds_csv_exits_2(self, tmp_path, text):
        winds = tmp_path / "winds.csv"
        winds.write_text(text)
        cfg = write_cfg(tmp_path, "c.yaml", {"seed": 1, "winds_csv": str(winds)})
        code, out = run(tmp_path, "dependence-report", cfg)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid", [0, -1, 2.5, True, "many", [], [0.5, 1.5],
                                      [0.0, 0.5], [0.5, 1], ["0.5"], [True]],
                             ids=["zero", "negative", "float", "bool", "string",
                                  "empty_list", "level_above_1", "level_0", "level_1",
                                  "string_level", "bool_level"])
    def test_utility_curve_bad_gamma_grid_exits_2(self, tmp_path, grid):
        cfg = write_cfg(tmp_path, "c.yaml", {
            "seed": 5,
            "contract": {"t_lo": 83.0, "rho": 0.2},
            "utility": {"family": "exponential", "beta": 0.1},
            "sample": {"synthetic": {"kind": "wind_beta", "n": 2000}},
            "gamma_grid": grid,
        })
        code, out = run(tmp_path, "utility-curve", cfg)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit-weighting", "utility-curve"])
    def test_conditioner_n_bins_zero_exits_2(self, tmp_path, command):
        cfg = write_cfg(tmp_path, "c.yaml", interior_fit_cfg(
            payout_family="index", conditioner={"n_bins": 0, "min_bin_count": 10}))
        code, out = run(tmp_path, command, cfg)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"hist_bins": 0},
        {"envelope_bins": 0},
        {"wind": {"synthetic": {"n": 200, "lo": 135.0, "hi": 25.0}}},
        {"wind": {"synthetic": {"n": 0}}},
        {"wind": {"synthetic": {"n": 200, "a": -1.0}}},
        {"wind": {"tracks_csv": "toy_tracks.csv", "bootstrap_n": 0,
                  "site": {"lat_deg": 18.2, "lon_deg": -66.5}}},
        {"contract": {"t_lo": 83.0, "rho": "abc"}},
        {"wind": {"synthetic": {"n": 2.5}}},
    ], ids=["hist_bins_0", "envelope_bins_0", "hi_below_lo", "n_0", "negative_shape",
            "bootstrap_n_0", "contract_without_alpha_sweep", "n_fractional"])
    def test_bad_simulate_setting_exits_2(self, tmp_path, config_dir, overrides):
        cfg_dict = {"seed": 7, "wind": {"synthetic": {"n": 200}}, **overrides}
        wind = cfg_dict["wind"]
        if "tracks_csv" in wind:
            wind["tracks_csv"] = str(config_dir / "fixtures" / wind["tracks_csv"])
        code, out = run(tmp_path, "simulate", write_cfg(tmp_path, "c.yaml", cfg_dict))
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,cfg_dict", [
        ("simulate", {"seed": 7, "wind": {"synthetic": {"n": "abc"}}}),
        ("simulate", {"seed": 7, "wind": {"synthetic": {"n": [200]}}}),
        ("simulate", {"seed": 7, "wind": {"synthetic": {"n": float("inf")}}}),
        ("simulate", {"seed": "abc", "wind": {"synthetic": {"n": 200}}}),
        ("utility-curve", interior_fit_cfg(payout_family="index",
                                           conditioner={"min_bin_count": "many"})),
        ("fit-weighting", interior_fit_cfg(payout_family="index",
                                           conditioner={"min_bin_count": "many"})),
        ("simulate", {"seed": "7", "wind": {"synthetic": {"n": 200}}}),
        ("simulate", {"seed": 7, "wind": {"synthetic": {"n": "300"}}}),
        ("simulate", {"seed": -1, "wind": {"synthetic": {"n": 200}}}),
        ("fit-weighting", interior_fit_cfg(payout_family="index",
                                           conditioner={"min_bin_count": -5})),
    ], ids=["n_string", "n_list", "n_inf", "seed_string", "min_bin_count_utility_curve",
            "min_bin_count_fit_weighting", "seed_numeric_string", "n_numeric_string",
            "seed_negative", "min_bin_count_negative"])
    def test_non_integer_count_exits_2(self, tmp_path, command, cfg_dict):
        code, out = run(tmp_path, command, write_cfg(tmp_path, "c.yaml", cfg_dict))
        assert code == 2
        assert not out.exists()

    def test_non_integer_min_joint_exits_2(self, tmp_path):
        winds = tmp_path / "winds.csv"
        winds.write_text("s0,s1\n90,95\n80,85\n85,90\n")
        cfg = write_cfg(tmp_path, "c.yaml", {"seed": 1, "winds_csv": str(winds),
                                             "min_joint": "many"})
        code, out = run(tmp_path, "dependence-report", cfg)
        assert code == 2
        assert not out.exists()

    def test_integer_like_counts_stay_accepted(self, tmp_path):
        code, out = run(tmp_path, "simulate", write_cfg(tmp_path, "s.yaml", {
            "seed": 7, "wind": {"synthetic": {"n": 1000.0}}}), out_name="s")
        assert code == 0
        assert len((out / "sample.csv").read_text().splitlines()) == 1001
        code, out = run(tmp_path, "utility-curve", write_cfg(tmp_path, "u.yaml", interior_fit_cfg(
            payout_family="index", conditioner={"min_bin_count": 0},
            gamma_grid=[0.3, 0.5])), out_name="u")
        assert code == 0
        assert len((out / "utility_curve.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("sweep", [[1.0, 3.0], {"qs": []}, {"qs": [True]},
                                       {"qs": "13"}, {"qs": ["1.0"]}, {"qs": 3.0},
                                       {"qs": [1.0, 0.0]}, {"qs": [-2]},
                                       {"qs": [float("nan")]}],
                             ids=["list", "empty_qs", "bool_q", "string_qs",
                                  "string_q", "scalar_qs", "zero_q", "negative_q", "nan_q"])
    def test_bad_alpha_sweep_exits_2(self, tmp_path, sweep):
        cfg = write_cfg(tmp_path, "c.yaml", {
            "seed": 7, "wind": {"synthetic": {"n": 200}},
            "contract": {"t_lo": 83.0, "rho": 0.2},
            "utility": {"family": "exponential", "beta": 0.15},
            "alpha_sweep": sweep})
        code, out = run(tmp_path, "simulate", cfg)
        assert code == 2
        assert not out.exists()

    @staticmethod
    def _float_setting_cfg(config_dir, command, setting, value):
        """A small config of ``command`` with one float setting set to ``value``."""
        if command == "dependence-report":
            cfg = yaml.safe_load((config_dir / "dependence_toy.yaml").read_text())
            cfg["tracks_csv"] = str(config_dir / "fixtures" / "toy_tracks.csv")
        elif command == "simulate":
            cfg = {"seed": 7, "wind": {"synthetic": {"n": 200}}}
        elif setting.startswith("gamma_regime"):
            cfg = yaml.safe_load((config_dir / "regime_k1.yaml").read_text())
            cfg["sample"]["synthetic"]["n"] = 8000
        elif setting in ("separability_tolerance", "index_restrict"):
            cfg = interior_fit_cfg(payout_family="index",
                                   conditioner={"min_bin_count": 50})
        elif setting == "p_trigger" or setting.startswith("two_point_"):
            cfg = yaml.safe_load((config_dir / "two_point_case1.yaml").read_text())
        else:
            cfg = interior_fit_cfg()
        keys = {
            "threshold_kn": ["threshold_kn"],
            "site_lat": ["sites", 2, "lat_deg"],
            "site_lon": ["sites", 0, "lon_deg"],
            "site_radius": ["sites", 1, "radius_km"],
            "site_threshold": ["sites", 1, "threshold_kn"],
            "wind_beta_lo": ["sample", "synthetic", "lo"],
            "wind_beta_hi": ["sample", "synthetic", "hi"],
            "wind_beta_a": ["sample", "synthetic", "a"],
            "wind_beta_b": ["sample", "synthetic", "b"],
            "wind_beta_loss_model": ["sample", "synthetic", "loss_model"],
            "simulate_wind_lo": ["wind", "synthetic", "lo"],
            "gamma_regime_lo": ["sample", "synthetic", "lo"],
            "gamma_regime_switch": ["sample", "synthetic", "switch"],
            "gamma_regime_shape_hi": ["sample", "synthetic", "shape_hi"],
            "separability_tolerance": ["separability_tolerance"],
            "rho_indemnity": ["rho_indemnity"],
            "restrict": ["restrict"],
            "w0": ["utility", "w0"],
            "beta": ["utility", "beta"],
            "p_trigger": ["sample", "two_point", "p_trigger"],
            "building_value": ["contract", "building_value"],
            "two_point_rho": ["contract", "rho"],
            "two_point_t_lo": ["contract", "t_lo"],
            "two_point_utility": ["utility"],
            "two_point_restict": ["restict"],
            "two_point_grid_size": ["grid_size"],
            "index_restrict": ["restrict"],
        }[setting]
        target = cfg
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
        return cfg

    @pytest.mark.parametrize("command,setting,value", [
        ("dependence-report", "threshold_kn", "abc"),
        ("dependence-report", "site_lat", float("nan")),
        ("dependence-report", "site_lon", float("nan")),
        ("dependence-report", "site_radius", float("nan")),
        ("dependence-report", "site_threshold", float("nan")),
        ("dependence-report", "site_lat", 91.0),
        ("fit-weighting", "wind_beta_lo", "abc"),
        ("fit-weighting", "wind_beta_hi", [135.0]),
        ("fit-weighting", "wind_beta_a", "two"),
        ("fit-weighting", "wind_beta_b", None),
        ("simulate", "simulate_wind_lo", "abc"),
        ("utility-curve", "gamma_regime_lo", "abc"),
        ("utility-curve", "gamma_regime_switch", {"at": 3.5}),
        ("utility-curve", "gamma_regime_shape_hi", "3,5"),
        ("fit-weighting", "separability_tolerance", "loose"),
        ("fit-weighting", "rho_indemnity", "abc"),
        ("fit-weighting", "restrict", ["abc", 0.9]),
        ("fit-weighting", "restrict", 0.5),
        ("fit-weighting", "restrict", [0.1, 0.5, 0.9]),
        ("fit-weighting", "w0", "abc"),
        ("fit-weighting", "beta", [0.15]),
        ("fit-weighting", "p_trigger", "half"),
        ("fit-weighting", "restrict", [0.0, 0.5]),
        ("fit-weighting", "restrict", [0.5, float("nan")]),
        ("fit-weighting", "restrict", [0.6, 0.4]),
        ("fit-weighting", "separability_tolerance", float("nan")),
        ("fit-weighting", "separability_tolerance", -1.0),
        ("dependence-report", "threshold_kn", float("nan")),
        ("dependence-report", "threshold_kn", 0.0),
        ("fit-weighting", "rho_indemnity", float("nan")),
        ("fit-weighting", "rho_indemnity", -1.0),
        ("fit-weighting", "two_point_rho", float("nan")),
        ("fit-weighting", "two_point_t_lo", float("nan")),
        ("fit-weighting", "two_point_utility",
         {"family": "exponential", "beta": float("nan"), "w0": 10.0}),
        ("fit-weighting", "two_point_utility",
         {"family": "power", "eta": float("nan"), "w0": 10.0}),
        ("fit-weighting", "building_value", float("nan")),
        ("fit-weighting", "wind_beta_lo", float("nan")),
        ("fit-weighting", "wind_beta_a", float("nan")),
        ("fit-weighting", "wind_beta_loss_model", {"rate": float("nan")}),
        ("fit-weighting", "wind_beta_loss_model", {"offset": float("inf")}),
        ("fit-weighting", "wind_beta_loss_model", {"steepness": float("nan")}),
        ("utility-curve", "gamma_regime_lo", float("nan")),
        ("utility-curve", "gamma_regime_lo", 5.0),
        ("utility-curve", "gamma_regime_lo", -1.0),
        ("utility-curve", "gamma_regime_shape_hi", -1.0),
        ("fit-weighting", "p_trigger", 1.5),
        ("fit-weighting", "two_point_restict", [0.1, 0.2]),
        ("fit-weighting", "two_point_grid_size", 5),
        ("fit-weighting", "wind_beta_lo", True),
        ("fit-weighting", "beta", True),
        ("fit-weighting", "index_restrict", [0.9, 0.1]),
        ("simulate", "simulate_wind_lo", 10 ** 400),
    ], ids=["threshold_kn", "site_lat_nan", "site_lon_nan", "site_radius_nan",
            "site_threshold_nan", "site_lat_range", "wind_beta_lo", "wind_beta_hi_list",
            "wind_beta_a", "wind_beta_b_null", "simulate_wind_lo", "gamma_regime_lo",
            "gamma_regime_switch_mapping", "gamma_regime_shape_hi", "separability_tolerance",
            "rho_indemnity", "restrict_string_level", "restrict_scalar",
            "restrict_three_levels", "w0", "beta_list", "p_trigger",
            "restrict_zero_level", "restrict_nan_level", "restrict_reversed",
            "separability_tolerance_nan", "separability_tolerance_negative",
            "threshold_kn_nan", "threshold_kn_zero", "rho_indemnity_nan",
            "rho_indemnity_negative", "two_point_rho_nan", "two_point_t_lo_nan",
            "two_point_beta_nan", "two_point_eta_nan", "building_value_nan",
            "wind_beta_lo_nan", "wind_beta_a_nan", "loss_model_rate_nan",
            "loss_model_offset_inf", "loss_model_steepness_nan", "gamma_regime_lo_nan",
            "gamma_regime_lo_above_hi", "gamma_regime_lo_negative",
            "gamma_regime_shape_negative", "p_trigger_above_1", "restrict_misspelt",
            "gamma_grid_misspelt", "wind_beta_lo_bool", "beta_bool", "restrict_under_index",
            "simulate_wind_lo_beyond_float"])
    def test_bad_float_setting_exits_2(self, tmp_path, config_dir, command, setting, value):
        cfg = self._float_setting_cfg(config_dir, command, setting, value)
        code, out = run(tmp_path, command, write_cfg(tmp_path, "c.yaml", cfg))
        assert code == 2
        assert not out.exists()

    def test_one_column_winds_csv_is_degenerate(self, tmp_path):
        # one site over three rows, not three sites over one row
        winds = tmp_path / "winds.csv"
        winds.write_text("s0\n90\n80\n85\n")
        cfg = write_cfg(tmp_path, "c.yaml", {"seed": 1, "winds_csv": str(winds)})
        code, out = run(tmp_path, "dependence-report", cfg)
        assert code == 5
        assert not out.exists()

    def test_unwritable_out_exits_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        cfg = write_cfg(tmp_path, "c.yaml", interior_fit_cfg())
        code = main(["fit-weighting", "--config", str(cfg),
                     "--out", str(blocker / "sub")])
        assert code == 3


class TestSimulate:
    def small_cfg(self, n=200, with_sweep=False):
        cfg = {
            "seed": 7,
            "wind": {"synthetic": {"n": n}},
            "loss_model": {"v": 100.0, "p": 3.0, "q": 3.0},
        }
        if with_sweep:
            cfg["contract"] = {"t_lo": 83.0, "rho": 0.2}
            cfg["utility"] = {"family": "exponential", "beta": 0.15}
            cfg["alpha_sweep"] = {"qs": [1.0, 3.0]}
        return cfg

    def test_tiny_run_smoke(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", self.small_cfg(n=10))
        code, out = run(tmp_path, "simulate", cfg)
        assert code == 0
        lines = (out / "sample.csv").read_text().splitlines()
        assert lines[0] == "loss,index"
        assert len(lines) == 11

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", self.small_cfg(with_sweep=True))
        code1, out1 = run(tmp_path, "simulate", cfg, out_name="o1")
        code2, out2 = run(tmp_path, "simulate", cfg, out_name="o2")
        assert code1 == code2 == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", self.small_cfg())
        _, out1 = run(tmp_path, "simulate", cfg, out_name="o1")
        _, out2 = run(tmp_path, "simulate", cfg, out_name="o2", seed=8)
        assert (out1 / "sample.csv").read_bytes() != (out2 / "sample.csv").read_bytes()

    def test_losses_within_bounds(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", self.small_cfg(n=2000))
        code, out = run(tmp_path, "simulate", cfg)
        assert code == 0
        rows = (out / "sample.csv").read_text().splitlines()[1:]
        losses = [float(r.split(",")[0]) for r in rows]
        assert min(losses) >= 0.0 and max(losses) <= 100.0

    @staticmethod
    def toy_tracks_cfg(tmp_path, lat_deg, lon_deg):
        """A bootstrap of 100 winds from the toy tracks at the given site."""
        return write_cfg(tmp_path, "c.yaml", {"seed": 7, "wind": {
            "tracks_csv": str(CONFIG_DIR / "fixtures" / "toy_tracks.csv"),
            "site": {"lat_deg": lat_deg, "lon_deg": lon_deg}, "bootstrap_n": 100}})

    def test_track_bootstrap_run(self, tmp_path):
        cfg = self.toy_tracks_cfg(tmp_path, 18.2, -66.5)
        code1, out1 = run(tmp_path, "simulate", cfg, out_name="o1")
        code2, out2 = run(tmp_path, "simulate", cfg, out_name="o2")
        assert code1 == code2 == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        incident = hazard.incident_windspeeds(
            hazard.TrackSet.from_csv(CONFIG_DIR / "fixtures" / "toy_tracks.csv"),
            hazard.Site(18.2, -66.5))
        rows = (out1 / "sample.csv").read_text().splitlines()[1:]
        assert len(rows) == 100
        assert {float(r.split(",")[1]) for r in rows} <= set(incident.tolist())

    def test_track_site_without_incidents_exits_5(self, tmp_path, capsys):
        code, out = run(tmp_path, "simulate", self.toy_tracks_cfg(tmp_path, -60.0, 100.0))
        assert code == 5
        assert not out.exists()
        assert "degenerate data: no incident tracks at the site" in capsys.readouterr().err


class TestUtilityCurve:
    def test_single_gamma_single_row(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", {
            "seed": 5,
            "contract": {"t_lo": 83.0, "rho": 0.2},
            "utility": {"family": "exponential", "beta": 0.1},
            "sample": {"synthetic": {"kind": "wind_beta", "n": 2000}},
            "gamma_grid": [0.5],
        })
        code, out = run(tmp_path, "utility-curve", cfg)
        assert code == 0
        lines = (out / "utility_curve.csv").read_text().splitlines()
        assert lines[0] == "gamma,u1,u2,u"
        assert len(lines) == 2
        gamma, u1, u2, u = (float(v) for v in lines[1].split(","))
        assert gamma == 0.5
        assert u == pytest.approx(u1 + u2, abs=1e-12)

    def test_regime_curve_shapes(self, tmp_path, config_dir):
        code, out = run(tmp_path, "utility-curve", config_dir / "regime_k1.yaml")
        assert code == 0
        lines = (out / "utility_curve.csv").read_text().splitlines()[1:]
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines]
        u1 = [r[1] for r in rows]
        u2 = [r[2] for r in rows]
        # triggered sub-utility increases with the level, untriggered decreases
        assert all(b >= a for a, b in zip(u1, u1[1:]))
        assert all(b <= a for a, b in zip(u2, u2[1:]))


class TestDependenceReport:
    def test_toy_tracks_report(self, tmp_path, config_dir, repo_root):
        cwd = os.getcwd()
        os.chdir(repo_root)  # config references the fixture by relative path
        try:
            code, out = run(tmp_path, "dependence-report",
                            config_dir / "dependence_toy.yaml")
        finally:
            os.chdir(cwd)
        assert code == 0
        for name in ("p_inc.csv", "p_trig.csv", "tau.csv", "xi.csv",
                     "ranks_0_1.csv", "tail_0_1.json", "manifest.json"):
            assert (out / name).exists(), name
        # the sparse northern site has no tail estimates
        assert not (out / "tail_0_2.json").exists()
        assert not (out / "tail_1_2.json").exists()
        tail = json.loads((out / "tail_0_1.json").read_text())
        assert tail["m"] >= 30
        assert tail["ci_low"] <= tail["lambda_hat"] <= tail["ci_high"]
        # co-located sites are near-comonotone
        p_trig = (out / "p_trig.csv").read_text().splitlines()
        row0 = p_trig[1].split(",")
        assert float(row0[2]) > 0.8  # P(trigger s0 | trigger s1)

    def test_loss_model_changes_no_output(self, tmp_path, config_dir, monkeypatch):
        # the report reads only the winds: a loss model whose losses would
        # overflow still gives the shipped run's files
        monkeypatch.chdir(REPO_ROOT)  # the config names the track fixture by relative path
        cfg = yaml.safe_load((config_dir / "dependence_toy.yaml").read_text())
        cfg["loss_model"]["rate"] = -100.0
        code, out = run(tmp_path, "dependence-report", write_cfg(tmp_path, "c.yaml", cfg))
        assert code == 0
        shipped_code, shipped = run(tmp_path, "dependence-report",
                                    config_dir / "dependence_toy.yaml", out_name="shipped")
        assert shipped_code == 0
        names = sorted(p.name for p in shipped.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            if name != "manifest.json":  # the manifest echoes the config
                assert (out / name).read_bytes() == (shipped / name).read_bytes(), name

    @staticmethod
    def constant_site_cfg(tmp_path):
        """4 sites over 40 rows: s2 is constant (tau raises with s2), s3 has
        only 2 incidents (too few joint rows with any site)."""
        g = np.random.default_rng(5)
        winds = np.c_[g.uniform(1.0, 120.0, (40, 2)), np.full(40, 90.0),
                      np.r_[np.zeros(38), 50.0, 60.0]]
        path = tmp_path / "winds.csv"
        np.savetxt(path, winds, delimiter=",", header="s0,s1,s2,s3", comments="")
        return write_cfg(tmp_path, "c.yaml", {"seed": 1, "winds_csv": str(path),
                                              "threshold_kn": 80.0})

    def test_tau_failure_warns_for_both_orders(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="basisrisk"):
            code, out = run(tmp_path, "dependence-report", self.constant_site_cfg(tmp_path))
        assert code == 0
        pair_lines = [r.getMessage() for r in caplog.records
                      if r.getMessage().startswith("pair")]
        assert pair_lines == [
            "pair (0,2): zero variance ranks",
            "pair (0,3): only 2 joint incidents",
            "pair (1,2): zero variance ranks",
            "pair (1,3): only 2 joint incidents",
            "pair (2,0): zero variance ranks",
            "pair (2,1): zero variance ranks",
            "pair (2,3): only 2 joint incidents",
            "pair (3,0): only 2 joint incidents",
            "pair (3,1): only 2 joint incidents",
            "pair (3,2): only 2 joint incidents",
        ]
        tau = np.genfromtxt(out / "tau.csv", delimiter=",", skip_header=1)[:, 1:]
        xi = np.genfromtxt(out / "xi.csv", delimiter=",", skip_header=1)[:, 1:]
        assert tau[0, 1] == tau[1, 0] and np.isfinite(tau[0, 1])
        assert np.isfinite(xi[0, 1]) and np.isfinite(xi[1, 0])
        off = ~np.eye(4, dtype=bool)
        off[0, 1] = off[1, 0] = False
        assert np.all(np.isnan(tau[off])) and np.all(np.isnan(xi[off]))

    def test_tau_once_per_unordered_pair(self, tmp_path, monkeypatch):
        calls = []

        def counting(pairs):
            calls.append(pairs.m)
            return kendall_tau(pairs)

        monkeypatch.setattr(cli, "kendall_tau", counting)
        code, _ = run(tmp_path, "dependence-report", self.constant_site_cfg(tmp_path))
        assert code == 0
        assert len(calls) == 3  # (0,1), (0,2), (1,2); s3 pairs have too few rows

    def test_missing_tracks_csv_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.yaml", {
            "seed": 1, "tracks_csv": str(tmp_path / "none.csv"),
            "sites": [{"lat_deg": 0.0, "lon_deg": 0.0},
                      {"lat_deg": 1.0, "lon_deg": 0.0}],
        })
        code, _ = run(tmp_path, "dependence-report", cfg)
        assert code == 2


# ---------------------------------------------------------------------------
# the config tables
# ---------------------------------------------------------------------------

TRACKS = str(CONFIG_DIR / "fixtures" / "toy_tracks.csv")
SITE = {"lat_deg": 18.2, "lon_deg": -66.5, "radius_km": 50.0, "threshold_kn": 83.0}
LOSS_MODEL = {"v": 100.0, "p": 3.0, "q": 3.0, "rate": 0.09, "offset": 64.0,
              "steepness": 150.0}
WIND_BETA = {"kind": "wind_beta", "n": 200, "lo": 25.0, "hi": 135.0, "a": 2.0, "b": 2.8,
             "loss_model": LOSS_MODEL}
GAMMA_REGIME = {"kind": "gamma_regime", "n": 200, "lo": 2.0, "hi": 4.0, "switch": 3.5,
                "shape_lo": 3.0, "shape_hi": 3.5}
CONTRACT = {"t_lo": 83.0, "t_hi": 200.0, "principle": "expected_value", "rho": 0.2,
            "building_value": 100.0}
EXPONENTIAL = {"family": "exponential", "beta": 0.15, "w0": 0.0}
POWER = {"family": "power", "eta": 2.0, "w0": 65.0}
TWO_POINT = {"triggered_values": [5.0, 10.0], "triggered_weights": [0.5, 0.5],
             "untriggered_values": [0.0, 4.0], "untriggered_weights": [0.5, 0.5],
             "p_trigger": 0.5}

# Valid configs that between them set every key of every table, in every
# branch; each key is then fed bad values one at a time.
TABLE_BASES = {
    "fit_two_point": ("fit-weighting", {
        "seed": 1, "payout_family": "pure", "contract": CONTRACT, "utility": EXPONENTIAL,
        "sample": {"two_point": TWO_POINT}, "gamma_grid": 20, "rho_indemnity": 0.2,
        "restrict": [0.1, 0.9]}),
    "fit_wind_beta": ("fit-weighting", {
        "seed": 1, "contract": CONTRACT, "utility": POWER,
        "sample": {"synthetic": WIND_BETA}}),
    "fit_csv": ("fit-weighting", {
        "seed": 1, "contract": CONTRACT, "utility": EXPONENTIAL,
        "sample": {"csv": "sample.csv"}}),
    "fit_index": ("fit-weighting", {
        "seed": 1, "payout_family": "index", "contract": CONTRACT, "utility": POWER,
        "sample": {"synthetic": GAMMA_REGIME}, "conditioner": {"n_bins": 4,
                                                               "min_bin_count": 10},
        "separability_tolerance": 0.05, "gamma_grid": 20, "rho_indemnity": 0.2}),
    "simulate_sweep": ("simulate", {
        "seed": 1, "wind": {"synthetic": {k: WIND_BETA[k] for k in "n lo hi a b".split()}},
        "loss_model": LOSS_MODEL, "hist_bins": 10, "envelope_bins": 10,
        "contract": CONTRACT, "utility": EXPONENTIAL, "alpha_sweep": {"qs": [1.0, 3.0]}}),
    "simulate_power_sweep": ("simulate", {
        "seed": 1, "wind": {"synthetic": {"n": 200}}, "contract": CONTRACT,
        "utility": POWER, "alpha_sweep": {}}),
    "simulate_tracks": ("simulate", {
        "seed": 1, "wind": {"tracks_csv": TRACKS, "site": SITE, "bootstrap_n": 100}}),
    "curve_index": ("utility-curve", {
        "seed": 1, "payout_family": "index", "contract": CONTRACT, "utility": EXPONENTIAL,
        "sample": {"synthetic": GAMMA_REGIME}, "conditioner": {"n_bins": 4},
        "gamma_grid": 9}),
    "curve_wind_beta": ("utility-curve", {
        "seed": 1, "contract": CONTRACT, "utility": EXPONENTIAL,
        "sample": {"synthetic": WIND_BETA}}),
    "curve_levels": ("utility-curve", {
        "seed": 1, "contract": CONTRACT, "utility": POWER,
        "sample": {"csv": "sample.csv"}, "gamma_grid": [0.25, 0.5]}),
    "dependence_tracks": ("dependence-report", {
        "seed": 1, "tracks_csv": TRACKS, "threshold_kn": 83.0, "min_joint": 30,
        "sites": [SITE, dict(SITE, lat_deg=18.3)], "loss_model": LOSS_MODEL}),
    "dependence_winds": ("dependence-report", {
        "seed": 1, "winds_csv": "winds.csv", "threshold_kn": 83.0, "min_joint": 30}),
}


def _branch(table, value):
    """The keys ``value`` may set under ``table``: the common ones plus its branch's."""
    if table.by is not None:
        name = value.get(table.by, table.keys[table.by].default)
    else:
        name = next((n for n in table.variants if n is not None and n in value), None)
    return {**table.keys, **table.variants[name]}


def _set_keys(table, value, path=()):
    """(path, key) for every key ``table`` reads in the branch ``value`` picks,
    through the sub-tables ``value`` sets and the first item of each list of
    tables."""
    for name, key in _branch(table, value).items():
        yield path + (name,), key
        sub = value.get(name)
        if isinstance(key, cli._Table) and sub is not None:
            yield from _set_keys(key, sub, path + (name,))
        elif key.kind == "list" and isinstance(key.of, cli._Table) and sub is not None:
            yield from _set_keys(key.of, sub[0], path + (name, 0))


def _all_keys(table, path=()):
    """Every key path of ``table`` over all its branches (list items as [])."""
    for variant in table.variants.values():
        for name, key in {**table.keys, **variant}.items():
            yield path + (name,)
            if isinstance(key, cli._Table):
                yield from _all_keys(key, path + (name,))
            elif key.kind == "list" and isinstance(key.of, cli._Table):
                yield from _all_keys(key.of, path + (name, "[]"))


WALKED = [(base, path, key) for base, (command, cfg) in TABLE_BASES.items()
          for path, key in _set_keys(cli._TABLES[command], cfg)]


def _out_of_range(key):
    """A value of the key's type outside its range, or None if it has no range."""
    if key.kind == "level":
        return "exotic"
    if key.kind == "list":
        return []
    if key.kind == "either":
        return 0
    if key.kind in ("number", "integer") and key.rng is not None:
        candidates = [-1, 0] if key.kind == "integer" else [
            -1.0, 0.0, 1.0, 1e6, -math.inf, math.inf]
        return next(x for x in candidates if not key.rng[0](x))
    return None


_DELETE = object()  # as a value in _with: remove the key


def _with(cfg, path, value):
    """A deep copy of ``cfg`` with the key at ``path`` set to ``value``."""
    cfg = copy.deepcopy(cfg)
    target = cfg
    for k in path[:-1]:
        target = target[k]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return cfg


class TestConfigTable:
    @pytest.mark.parametrize("command,cfg", TABLE_BASES.values(), ids=list(TABLE_BASES))
    def test_bases_pass_the_table(self, command, cfg):
        cli._TABLES[command].check(copy.deepcopy(cfg), "")

    def test_bases_set_every_key_of_every_table(self):
        walked = {(TABLE_BASES[base][0],) + tuple("[]" if isinstance(k, int) else k
                                                  for k in path)
                  for base, path, _ in WALKED}
        every = {(command,) + path for command, table in cli._TABLES.items()
                 for path in _all_keys(table)}
        assert every - walked == set()

    @pytest.mark.parametrize("base,path,key", WALKED,
                             ids=[f"{b}:{'.'.join(map(str, p))}" for b, p, _ in WALKED])
    def test_bad_value_of_each_key_exits_2(self, tmp_path, base, path, key):
        command, cfg = TABLE_BASES[base]
        wrong_type = [1.0] if isinstance(key, cli._Table) else {"x": 1.0}
        bad = [wrong_type, True, "1", float("nan")]
        if _out_of_range(key) is not None:
            bad.append(_out_of_range(key))
        if key.required:
            bad.append(_DELETE)
        for i, value in enumerate(bad):
            cfg_path = write_cfg(tmp_path, f"c{i}.yaml", _with(cfg, path, value))
            code, out = run(tmp_path, command, cfg_path, out_name=f"out{i}")
            assert code == 2, value
            assert not out.exists(), value

    @pytest.mark.parametrize("command,cfg", [
        ("fit-weighting", interior_fit_cfg(restrict=[0.9, 0.1], payout_family="index")),
        ("fit-weighting", interior_fit_cfg(separability_tolerance=0.05)),
        ("fit-weighting", interior_fit_cfg(conditioner={"n_bins": 4})),
        ("utility-curve", interior_fit_cfg(conditioner={"n_bins": 4})),
        ("fit-weighting", interior_fit_cfg(
            sample={"synthetic": {"kind": "wind_beta", "n": 200, "switch": 3.5}})),
        ("fit-weighting", interior_fit_cfg(
            sample={"synthetic": {"kind": "wind_beta", "n": 200, "shape_lo": 3.0}})),
        ("simulate", {"seed": 7, "wind": {"synthetic": {"n": 200}}, "contract": CONTRACT}),
        ("simulate", {"seed": 7, "wind": {"synthetic": {"n": 200}}, "utility": EXPONENTIAL}),
        ("fit-weighting", interior_fit_cfg(
            sample={"csv": "sample.csv", "synthetic": {"kind": "wind_beta", "n": 200}})),
        ("dependence-report", {"seed": 1, "winds_csv": "winds.csv", "tracks_csv": TRACKS,
                               "sites": [SITE, SITE]}),
    ], ids=["restrict_under_index", "separability_tolerance_under_pure",
            "conditioner_under_pure", "conditioner_under_pure_curve",
            "gamma_regime_switch_under_wind_beta", "gamma_regime_shape_under_wind_beta",
            "contract_without_sweep", "utility_without_sweep", "csv_and_synthetic",
            "winds_csv_and_tracks_csv"])
    def test_key_of_another_branch_exits_2(self, tmp_path, command, cfg):
        code, out = run(tmp_path, command, write_cfg(tmp_path, "c.yaml", cfg))
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,cfg", [
        ("simulate", {"seed": 7, "wind": {"tracks_csv": TRACKS, "site": SITE}, "typo": 1}),
        ("simulate", {"seed": 7, "wind": {"synthetic": {"n": 200, "typo": 1}}}),
        ("fit-weighting", interior_fit_cfg(typo=1)),
        ("dependence-report", {"seed": 7, "tracks_csv": TRACKS, "sites": [SITE, SITE],
                               "loss_model": {"typo": 1}}),
    ], ids=["simulate_tracks", "simulate_synthetic", "fit_weighting", "dependence_report"])
    def test_unknown_key_exits_2_before_any_sample(self, tmp_path, monkeypatch, command,
                                                   cfg):
        def boom(*args, **kwargs):
            raise AssertionError("a sample was built before the config was checked")

        monkeypatch.setattr(cli, "simulate_losses", boom)
        monkeypatch.setattr(cli.TrackSet, "from_csv", boom)
        code, out = run(tmp_path, command, write_cfg(tmp_path, "c.yaml", cfg))
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-3, -1])
    def test_negative_seed_flag_exits_2(self, tmp_path, seed):
        cfg = write_cfg(tmp_path, "c.yaml", {"seed": 7, "wind": {"synthetic": {"n": 200}}})
        code, out = run(tmp_path, "simulate", cfg, seed=seed)
        assert code == 2
        assert not out.exists()

    def test_manifest_echoes_the_raw_config(self, tmp_path):
        raw = {"seed": 7.0, "wind": {"synthetic": {"n": 50.0}}}
        code, out = run(tmp_path, "simulate", write_cfg(tmp_path, "c.yaml", raw))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == raw
        assert manifest["seed"] == 7

    def test_overflowing_u_prime_exits_4(self, tmp_path, capsys):
        # beta * max S ~ 880 > 709: u' overflows at the worst wealth
        cfg = write_cfg(tmp_path, "c.yaml", interior_fit_cfg(
            seed=1, utility={"family": "exponential", "beta": 10.0, "w0": 0.0}))
        code, out = run(tmp_path, "fit-weighting", cfg)
        assert code == 4
        assert not out.exists()
        assert "overflow" in capsys.readouterr().err

    def test_overflow_prints_only_the_domain_error(self, tmp_path):
        # a fresh interpreter with Python's default warning filters, as a user runs it
        cfg = write_cfg(tmp_path, "c.yaml", interior_fit_cfg(
            seed=1, utility={"family": "exponential", "beta": 10.0, "w0": 0.0}))
        env = dict(os.environ)
        env.pop("PYTHONWARNINGS", None)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        proc = subprocess.run(
            [sys.executable, "-m", "basisrisk.cli", "fit-weighting", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 4
        assert "Warning" not in proc.stderr
        assert proc.stderr.startswith("numeric domain error: u' overflowed")
        assert proc.stderr.count("\n") == 1


# (config, subcommand) pairs that README or perfbench run
SHIPPED_RUNS = [
    ("two_point_case1.yaml", "fit-weighting"), ("two_point_case2.yaml", "fit-weighting"),
    ("two_point_case3.yaml", "fit-weighting"), ("index_fit.yaml", "fit-weighting"),
    ("simulate_synthetic.yaml", "simulate"), ("regime_k1.yaml", "utility-curve"),
    ("regime_k2.yaml", "utility-curve"), ("dependence_toy.yaml", "dependence-report"),
]


@pytest.mark.parametrize("name,command", SHIPPED_RUNS)
def test_table_accepts_shipped_config(name, command):
    cli._TABLES[command].check(yaml.safe_load((CONFIG_DIR / name).read_text()), "")


def test_every_shipped_config_is_covered():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.yaml")) == sorted(
        name for name, _ in SHIPPED_RUNS)


# the subcommand each config written by perfbench/gen_inputs.py runs under
GENERATED_RUNS = {"pure_fit.yaml": "fit-weighting", "pure_curve.yaml": "utility-curve",
                  "dep_tracks.yaml": "dependence-report", "sim_tracks.yaml": "simulate",
                  "dep_winds.yaml": "dependence-report"}


@pytest.mark.parametrize("workload", ["pure", "hazard"])
def test_table_accepts_generated_configs(tmp_path, repo_root, workload):
    spec = importlib.util.spec_from_file_location(
        "gen_inputs", repo_root / "perfbench" / "gen_inputs.py")
    gen_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_inputs)
    gen_inputs.generate(tmp_path, 1, workload, "tiny")
    configs = sorted(tmp_path.glob("*.yaml"))
    assert configs
    for path in configs:
        cli._TABLES[GENERATED_RUNS[path.name]].check(yaml.safe_load(path.read_text()), "")


def _fmt_oracle(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _csv_text_oracle(header, rows) -> str:
    """The row-by-row CSV renderer that the column renderer replaced."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_oracle(v) if isinstance(v, (int, float, np.floating,
                                                               np.integer)) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


_SUBNORMAL = np.finfo(np.float64).smallest_subnormal
_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, _SUBNORMAL, -3 * _SUBNORMAL,
                     np.finfo(np.float64).tiny / 3, 1e16, 1e-5, 0.1, 1 / 3, -2.5e300,
                     123456789.0, 1e15 + 0.3, 5.0])
# in range of float16, with one of its subnormals
_NARROW = np.array([np.nan, np.inf, -np.inf, -0.0, 0.1, 1 / 3, 1e-5, 6e-8, 1e4, 5.0])


class TestColumnRenderer:
    @pytest.mark.parametrize("columns", [
        [_SPECIAL, _SPECIAL[::-1]],
        [_NARROW.astype(np.float32), _NARROW.astype(np.float16)],
        [np.array([0, -3, 2 ** 62, -2 ** 63, 7] * 3, dtype=np.int64),
         np.array([0, 1, 255, 7, 9] * 3, dtype=np.uint8),
         np.array([1, -1, 2 ** 31 - 1, 0, 5] * 3, dtype=np.int32)],
        [[1, 3.0, 2, 0.5, -0.0, np.float64(7.0), np.int64(4), True, np.float32(0.1)],
         np.linspace(0.0, 1.0, 9)],
        [["s0", "s1", "s2"], np.array([[0.5, np.nan], [1.0, 2.0], [1e-5, 1e16]]).T[0],
         np.array([1.5, -0.0, np.inf])],
        [[1.0, 3.0], [0.84, float("nan")], [0.97, float("nan")],
         ["interior_optimum", "prefer_no_insurance"]],
        [np.arange(6.0).reshape(3, 2).T[1], np.array([3, 4, 5])],
        [np.empty(0), np.empty(0, dtype=np.int64), []],
    ], ids=["special_floats", "narrow_floats", "int_arrays", "mixed_list",
            "labels_and_views", "sweep_rows", "strided", "zero_rows"])
    def test_matches_row_renderer(self, columns):
        header = [f"c{i}" for i in range(len(columns))]
        assert cli._csv_text(header, *columns) == _csv_text_oracle(header, zip(*columns))

    def test_zero_rows_is_the_header_line(self):
        assert cli._csv_text(("x", "y"), np.empty(0), np.empty(0)) == "x,y\n"


class TestRarePaths:
    """CLI branches that no other tier-1 test reaches."""

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        code, out = run(tmp_path, "simulate", tmp_path / "missing.yaml")
        assert code == 2
        assert not out.exists()
        assert "config error: cannot read config" in capsys.readouterr().err

    def test_config_root_not_a_mapping_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("- 1\n- 2\n")
        code, out = run(tmp_path, "simulate", cfg)
        assert code == 2
        assert not out.exists()
        assert "config root must be a mapping" in capsys.readouterr().err

    def test_invalid_two_point_sample_exits_2(self, tmp_path, config_dir, capsys):
        cfg = yaml.safe_load((config_dir / "two_point_case1.yaml").read_text())
        cfg["sample"]["two_point"]["triggered_weights"] = [0.5, 0.6]
        code, out = run(tmp_path, "fit-weighting", write_cfg(tmp_path, "c.yaml", cfg))
        assert code == 2
        assert not out.exists()
        assert "config error: invalid two_point sample: " in capsys.readouterr().err

    def test_tail_estimate_absent_below_min_joint(self, tmp_path, caplog):
        winds = tmp_path / "winds.csv"
        g = np.random.default_rng(2)
        winds.write_text(cli._csv_text(("s0", "s1"), *g.uniform(1.0, 120.0, (2, 40))))
        cfg = write_cfg(tmp_path, "c.yaml", {"seed": 1, "winds_csv": str(winds),
                                             "min_joint": 41})
        with caplog.at_level(logging.WARNING, logger="basisrisk"):
            code, out = run(tmp_path, "dependence-report", cfg)
        assert code == 0
        assert "pair (0,1): 40 < 41 joint rows, tail estimate absent" in caplog.messages
        assert (out / "ranks_0_1.csv").exists() and not (out / "tail_0_1.json").exists()

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        replaced, real = [], os.replace

        def second_fails(src, dst):
            if replaced:
                raise OSError("disk full")
            replaced.append(dst)
            real(src, dst)

        monkeypatch.setattr(os, "replace", second_fails)
        cfg = write_cfg(tmp_path, "c.yaml", {"seed": 7, "wind": {"synthetic": {"n": 10}}})
        code, out = run(tmp_path, "simulate", cfg)
        assert code == 3
        assert "i/o error: disk full" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [os.path.basename(replaced[0])]

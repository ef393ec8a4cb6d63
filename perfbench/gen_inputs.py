"""Seeded input generator for the end-to-end benchmark.

Writes the generated inputs of one workload into a directory and returns
their sizes, so a reader can see which branch of the program each input
exercises (for example which side of ``plateau_k``'s m = 4000 switch every
site pair falls on).

    python3 perfbench/gen_inputs.py --workload hazard --seed 1 --out DIR [--tiny]

prints the sizes as one JSON object. The same seed always gives
byte-identical files. Generated configs reference their data files by
relative path, so jobs run with the output directory as working directory.
Configs are written as JSON, which is valid YAML.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

EARTH_RADIUS_KM = 6371.0

# Four insured sites, pairwise 25-64 km apart, on the corridor the
# generated tracks cross (radius 50 km, trigger 83 kn).
SITES = [
    {"lat_deg": 18.20, "lon_deg": -66.50},
    {"lat_deg": 18.38, "lon_deg": -66.35},
    {"lat_deg": 18.05, "lon_deg": -66.80},
    {"lat_deg": 18.45, "lon_deg": -66.95},
]
SITE_RADIUS_KM = 50.0

# The pure-parametric setting of the shipped synthetic configs: trigger at
# 83 kn, expected-value premium, exponential utility, so the CLI also
# reports the closed form next to the bisection.
PURE_CONTRACT = {"t_lo": 83.0, "principle": "expected_value", "rho": 0.2}
PURE_UTILITY = {"family": "exponential", "beta": 0.15}
WIND_BETA = {"kind": "wind_beta", "lo": 25.0, "hi": 135.0, "a": 2.0, "b": 2.8,
             "loss_model": {"v": 100.0, "p": 3.0, "q": 3.0}}

# Sizes per scale. "tiny" keeps every job to a fraction of a second of
# compute, for the benchmark's own tests.
SIZES = {
    "full": {"tracks": 3000, "points": 60, "wind_rows": 30000, "pure_n": 300000,
             "bootstrap_n": 50000, "shipped_n": None},
    "tiny": {"tracks": 300, "points": 60, "wind_rows": 3000, "pure_n": 20000,
             "bootstrap_n": 2000, "shipped_n": 30000},
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))


def _write_text(path, text):
    """Write and fsync, so write-back does not overlap the timed passes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# track set (hazard)
# ---------------------------------------------------------------------------

def make_tracks(n_tracks: int, n_points: int, seed: int):
    """Westward tracks across the site corridor: (lat, lon, wind) arrays.

    Each track starts east of the sites at a random latitude, moves west
    0.18-0.22 degrees per step with a small latitude random walk, and
    carries a peak intensity with a smooth along-track profile.
    """
    rng = _rng(seed, 1)
    lat0 = 18.3 + rng.uniform(-1.2, 1.2, size=n_tracks)
    lon0 = -58.0 - rng.uniform(0.0, 2.0, size=n_tracks)
    dlon = -(0.18 + 0.04 * rng.random(n_tracks))
    walk = np.cumsum(rng.normal(0.0, 0.03, size=(n_tracks, n_points)), axis=1)
    steps = np.arange(n_points)
    lat = lat0[:, None] + walk
    lon = lon0[:, None] + dlon[:, None] * steps[None, :]
    peak = 50.0 + 100.0 * rng.beta(2.0, 2.0, size=n_tracks)
    profile = 0.6 + 0.4 * np.sin(math.pi * steps / max(n_points - 1, 1))
    wind = peak[:, None] * profile[None, :] + rng.normal(0.0, 2.0, size=(n_tracks, n_points))
    return lat, lon, np.clip(wind, 0.0, None)


def write_tracks_csv(path, lat, lon, wind):
    n_tracks, n_points = lat.shape
    width = len(str(n_tracks - 1))
    lines = ["track_id,step,lat_deg,lon_deg,wind_kn"]
    for t in range(n_tracks):
        tid = f"g{t:0{width}d}"
        for k, (a, b, w) in enumerate(zip(lat[t].tolist(), lon[t].tolist(),
                                          wind[t].tolist())):
            lines.append(f"{tid},{k},{a!r},{b!r},{w!r}")
    _write_text(path, "\n".join(lines) + "\n")


def _unit(lat_deg, lon_deg):
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    return np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon),
                     np.sin(lat)], axis=-1)


def track_site_hits(lat, lon, site) -> np.ndarray:
    """Tracks whose polyline passes within the site radius (spherical earth).

    Vectorised over all tracks: the distance to each vertex, and the
    cross-track distance to each segment whose perpendicular foot lies on
    the segment. Used only to report sizes, not to check the program.
    """
    p = _unit(np.array(site["lat_deg"]), np.array(site["lon_deg"]))
    v = _unit(lat, lon)                                   # (T, P, 3)
    dist = np.arccos(np.clip(v @ p, -1.0, 1.0)).min(axis=1)
    a, b = v[:, :-1], v[:, 1:]
    nrm = np.cross(a, b)
    nn = np.linalg.norm(nrm, axis=-1)
    s = np.clip((nrm @ p) / nn, -1.0, 1.0)
    foot = p - s[..., None] * nrm / nn[..., None]
    foot /= np.linalg.norm(foot, axis=-1, keepdims=True)
    arc_ab = np.arccos(np.clip(np.sum(a * b, axis=-1), -1.0, 1.0))
    arc_af = np.arccos(np.clip(np.sum(a * foot, axis=-1), -1.0, 1.0))
    arc_bf = np.arccos(np.clip(np.sum(b * foot, axis=-1), -1.0, 1.0))
    inside = (arc_af <= arc_ab + 1e-12) & (arc_bf <= arc_ab + 1e-12)
    xt = np.where(inside, np.abs(np.arcsin(s)), np.inf).min(axis=1)
    return np.minimum(dist, xt) <= SITE_RADIUS_KM / EARTH_RADIUS_KM


# ---------------------------------------------------------------------------
# wind matrix (dependence only)
# ---------------------------------------------------------------------------

def make_wind_matrix(rows: int, seed: int, n_sites: int = 4) -> np.ndarray:
    """Event x site winds from a Gaussian factor model; 0 = no incident.

    Each site has an incident with probability ~0.3 and pairwise latent
    correlation 0.6, so every pair has m ~ 0.18 * rows joint incidents.
    """
    rng = _rng(seed, 2)
    common = rng.normal(size=(rows, 1))
    z = math.sqrt(0.6) * common + math.sqrt(0.4) * rng.normal(size=(rows, n_sites))
    q = 0.5244005127080407  # standard normal 70% quantile
    wind = 35.0 + 30.0 * (z - q) + 3.0 * rng.exponential(size=(rows, n_sites))
    return np.where(z > q, wind, 0.0)


def write_wind_csv(path, winds):
    header = ",".join(f"s{j}" for j in range(winds.shape[1]))
    lines = [header] + [",".join(repr(v) for v in row) for row in winds.tolist()]
    _write_text(path, "\n".join(lines) + "\n")


def joint_counts(hits: np.ndarray) -> dict:
    """Joint incidents m of every site pair i < j, keyed ``"i_j"``."""
    n = hits.shape[1]
    return {f"{i}_{j}": int(np.sum(hits[:, i] & hits[:, j]))
            for i in range(n) for j in range(i + 1, n)}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def wind_beta_triggered(n: int, seed: int) -> int:
    """Triggered count of the CLI's ``wind_beta`` draw for this seed.

    Mirrors the CLI's sampling (Philox seeded with the run seed, scaled
    Beta winds) so the report states the triggered sample size.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    theta = WIND_BETA["lo"] + (WIND_BETA["hi"] - WIND_BETA["lo"]) * rng.beta(
        WIND_BETA["a"], WIND_BETA["b"], size=n)
    return int(np.sum(theta >= PURE_CONTRACT["t_lo"]))


def _shrunk_copy(root, name, out_dir, n):
    """A shipped config with its synthetic sample size set to n."""
    import yaml

    with open(os.path.join(root, "configs", name), encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    block = cfg["sample"] if "sample" in cfg else cfg["wind"]
    block["synthetic"]["n"] = n
    _write_json(os.path.join(out_dir, name), cfg)
    return name


def shipped_config(root, name, out_dir, scale):
    """Path of a shipped config, or of its shrunk copy at the tiny scale."""
    n = SIZES[scale]["shipped_n"]
    if n is None:
        return os.path.join(root, "configs", name)
    return os.path.join(out_dir, _shrunk_copy(root, name, out_dir, n))


def gen_pure(out_dir, seed, scale):
    n = SIZES[scale]["pure_n"]
    sample = {"synthetic": dict(WIND_BETA, n=n)}
    base = {"seed": seed, "payout_family": "pure", "contract": PURE_CONTRACT,
            "utility": PURE_UTILITY, "sample": sample}
    _write_json(os.path.join(out_dir, "pure_fit.yaml"), base)
    _write_json(os.path.join(out_dir, "pure_curve.yaml"), dict(base, gamma_grid=99))
    return {"pure_n": n, "pure_triggered_n": wind_beta_triggered(n, seed)}


def gen_hazard(out_dir, seed, scale):
    size = SIZES[scale]
    lat, lon, wind = make_tracks(size["tracks"], size["points"], seed)
    write_tracks_csv(os.path.join(out_dir, "tracks.csv"), lat, lon, wind)
    sites = [dict(s, radius_km=SITE_RADIUS_KM, threshold_kn=83.0) for s in SITES]
    _write_json(os.path.join(out_dir, "dep_tracks.yaml"), {
        "seed": seed, "tracks_csv": "tracks.csv", "threshold_kn": 83.0,
        "min_joint": 30, "sites": sites,
        "loss_model": WIND_BETA["loss_model"]})
    _write_json(os.path.join(out_dir, "sim_tracks.yaml"), {
        "seed": seed,
        "wind": {"tracks_csv": "tracks.csv", "site": sites[0],
                 "bootstrap_n": size["bootstrap_n"]},
        "loss_model": WIND_BETA["loss_model"]})
    winds = make_wind_matrix(size["wind_rows"], seed)
    write_wind_csv(os.path.join(out_dir, "winds.csv"), winds)
    _write_json(os.path.join(out_dir, "dep_winds.yaml"), {
        "seed": seed, "winds_csv": "winds.csv", "threshold_kn": 83.0,
        "min_joint": 30})
    hits = np.stack([track_site_hits(lat, lon, s) for s in SITES], axis=1)
    return {
        "tracks": size["tracks"], "points_per_track": size["points"],
        "track_points": int(lat.size),
        "track_incidents": [int(c) for c in hits.sum(axis=0)],
        "track_joint_m": joint_counts(hits),
        "bootstrap_n": size["bootstrap_n"],
        "wind_rows": int(winds.shape[0]),
        "wind_joint_m": joint_counts(winds > 0.0),
    }


GENERATORS = {"pure": gen_pure, "index": None, "hazard": gen_hazard}


def generate(out_dir, seed: int, workload: str, scale: str = "full") -> dict:
    """Write the generated inputs of one workload; return their sizes."""
    os.makedirs(out_dir, exist_ok=True)
    gen = GENERATORS[workload]
    sizes = {"workload": workload, "seed": seed, "scale": scale}
    if gen is not None:
        sizes.update(gen(out_dir, seed, scale))
    return sizes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    sizes = generate(args.out, args.seed, args.workload,
                     "tiny" if args.tiny else "full")
    print(json.dumps(sizes, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

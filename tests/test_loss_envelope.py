"""The simulate command's loss envelope against the per-bin loop it replaced.

``_ref_envelope`` is the earlier loop, kept verbatim apart from its name
and signature: three comparisons and one boolean select per quantile bin.
The one-pass envelope must give the same rows bit for bit, including the
bins it skips.
"""

import numpy as np
import pytest
import yaml

from basisrisk import cli
from basisrisk.contracts import LossIndexSample
from conftest import rng


def _ref_envelope(sample, n_env):
    qedges = np.quantile(sample.indices, np.linspace(0, 1, n_env + 1))
    env_rows = []
    for i in range(n_env):
        lo, hi = qedges[i], qedges[i + 1]
        sel = ((sample.indices >= lo) & (sample.indices < hi)) if i < n_env - 1 \
            else ((sample.indices >= lo) & (sample.indices <= hi))
        if not sel.any():
            continue
        ls = sample.losses[sel]
        env_rows.append((0.5 * (lo + hi), float(ls.mean()), float(ls.min()),
                         float(ls.max())))
    return env_rows


def _assert_same_rows(got, want):
    assert len(got) == len(want)
    got, want = np.array(got, dtype=np.float64), np.array(want, dtype=np.float64)
    assert got.tobytes() == want.tobytes()


def _indices(kind, n, r):
    if kind == "continuous":
        return r.uniform(25.0, 135.0, size=n)
    if kind == "few_values":  # heavily tied: many edges coincide, most bins empty
        return r.integers(0, 5, size=n).astype(np.float64)
    if kind == "atom_at_max":  # 40 % of the rows sit on the last edge
        x = r.uniform(25.0, 135.0, size=n)
        x[r.random(n) < 0.4] = 135.0
        return x
    if kind == "atom_at_min":
        x = r.uniform(25.0, 135.0, size=n)
        x[r.random(n) < 0.4] = 25.0
        return x
    if kind == "one_value":  # every edge equal: only the last bin holds rows
        return np.full(n, 90.0)
    raise ValueError(kind)


@pytest.mark.parametrize("n_env", [1, 2, 7, 40, 300])
@pytest.mark.parametrize("kind", ["continuous", "few_values", "atom_at_max", "atom_at_min",
                                  "one_value"])
@pytest.mark.parametrize("n", [1, 5, 1000, 20011])
def test_envelope_matches_per_bin_loop(n, kind, n_env):
    r = rng(n + n_env)
    sample = LossIndexSample(r.gamma(2.0, 10.0, size=n), _indices(kind, n, r))
    got = cli._loss_envelope(sample, n_env)
    want = _ref_envelope(sample, n_env)
    _assert_same_rows(got, want)


def test_duplicate_edges_skip_their_bins():
    r = rng(3)
    sample = LossIndexSample(r.random(1000), _indices("few_values", 1000, r))
    qedges = np.quantile(sample.indices, np.linspace(0, 1, 41))
    assert np.unique(qedges).size < 41
    rows = cli._loss_envelope(sample, 40)
    assert len(rows) == 5  # one row per distinct index value
    _assert_same_rows(rows, _ref_envelope(sample, 40))


def test_simulate_envelope_csv_matches_loop(config_dir):
    cfg = yaml.safe_load((config_dir / "simulate_synthetic.yaml").read_text())
    cfg["wind"]["synthetic"]["n"] = 5000
    for key in ("alpha_sweep", "contract", "utility"):
        del cfg[key]
    checked = cli._TABLES["simulate"].check(cfg, "")
    outputs = cli.cmd_simulate(checked, cfg["seed"])
    sample = LossIndexSample(*np.loadtxt(outputs["sample.csv"].splitlines(),
                                         delimiter=",", skiprows=1, unpack=True))
    rows = _ref_envelope(sample, checked["envelope_bins"])
    assert outputs["loss_envelope.csv"] == cli._csv_text(
        ("theta", "mean", "min", "max"), *zip(*rows))

from pathlib import Path

import numpy as np
import pytest

from basisrisk import hazard

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"


@pytest.fixture(scope="session")
def repo_root():
    return REPO_ROOT


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def incident_wind(track, p, limit: float) -> float:
    """The cross-track kernel ``hazard._winds`` on one track: its incident
    wind at the circle of angular radius ``limit`` around the unit vector
    ``p``, NaN if it misses."""
    v = hazard._unit_vectors(track.lat_deg, track.lon_deg)
    starts = np.zeros(1, dtype=np.int64)
    return float(hazard._winds(p, limit, v, track.wind_kn, starts)[0])


def rel_close(got, want, rel: float = 1e-12) -> bool:
    """Whether got agrees with the oracle want elementwise within rel relative,
    with the same shape and the same infinities at the same positions."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    inf = np.isinf(want)
    return bool(np.array_equal(got[inf], want[inf])
                and np.all(np.abs(got[~inf] - want[~inf]) <= rel * np.abs(want[~inf])))

"""Self-tests of the benchmark, at tiny input sizes.

    python3 -m pytest perfbench/tests -q

Each workload runs once per mode (``--seconds 1`` gives two passes), so the
suite takes a couple of minutes, almost all of it CLI cold starts.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import gen_inputs  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, timeout=300):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def e2e(request):
    proc = run_bench("--workload", request.param, "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--tiny")
    return request.param, proc.stdout, result_of(proc)


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    proc = run_bench("--workload", request.param, "--seed", "1", "--seconds", "1",
                     "--trace", "1", "--tiny")
    return request.param, proc.stdout, result_of(proc)


def _check_metrics(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_end_to_end_metrics_printed_with_units(e2e):
    workload, stdout, result = e2e
    _check_metrics(result, SPEC["end_to_end"])
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name
        assert f"\n{name} " in stdout
    assert "\nfail_frac 0 " in stdout
    assert '"numba_imports"' in stdout.splitlines()[0]


def test_per_layer_metrics_printed_with_units(traced):
    workload, stdout, result = traced
    _check_metrics(result, SPEC["per_layer"])
    for name in result["metrics"]:
        assert f"\n{name} " in stdout


def test_predicted_zeros(traced):
    workload, _, result = traced
    value = {name: m["value"] for name, m in result["metrics"].items()}
    busy = [n for n in value if n.endswith("_s") and ".micro_" not in n]
    if workload == "hazard":
        assert value["expectile.calls"] == 0
        assert value["dependence.pairs"] > 0 and value["hazard.track_points"] > 0
    if workload in ("pure", "hazard"):
        assert all(value[n] == 0 for n in busy if n.startswith("weighting_index."))
    if workload == "index":
        assert value["weighting_index.solve_s"] > 0
        assert all(value[n] == 0 for n in busy if n.startswith("dependence."))
        # index_fit draws its wind_beta sample through hazard.simulate_losses;
        # every other hazard layer stays idle
        assert all(value[n] == 0 for n in busy
                   if n.startswith("hazard.") and n != "hazard.simulate_losses_s")
    if workload == "pure":
        assert value["weighting_pure.solves"] > 0 and value["expectile.calls"] > 0


def test_corrupted_reference_counts_as_failure(tmp_path):
    ref = json.loads((BENCH / "reference" / "tiny-index.json").read_text())
    solution = ref["jobs"]["fit_index"]["solution.json"]
    solution["gamma_star"] *= 1.0 + 1e-6
    bad = tmp_path / "corrupted.json"
    bad.write_text(json.dumps(ref))
    proc = run_bench("--workload", "index", "--seconds", "1", "--tiny",
                     "--reference", str(bad))
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2  # every fit_index run
    assert "\nFAIL fit_index: reference mismatch /solution.json/gamma_star" in proc.stdout
    frac = [line for line in proc.stdout.splitlines() if line.startswith("fail_frac ")]
    assert float(frac[0].split()[1]) > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", ["pure", "hazard"])
def test_generator_is_deterministic(tmp_path, workload):
    sizes_a = gen_inputs.generate(tmp_path / "a", 3, workload, "tiny")
    sizes_b = gen_inputs.generate(tmp_path / "b", 3, workload, "tiny")
    assert sizes_a == sizes_b
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    gen_inputs.generate(tmp_path / "c", 4, workload, "tiny")
    assert any((tmp_path / "a" / n).read_bytes() != (tmp_path / "c" / n).read_bytes()
               for n in names)


def test_hazard_inputs_straddle_the_plateau_switch():
    size = gen_inputs.SIZES["full"]
    lat, lon, _ = gen_inputs.make_tracks(size["tracks"], size["points"], 1)
    hits = [gen_inputs.track_site_hits(lat, lon, s) for s in gen_inputs.SITES]
    track_m = gen_inputs.joint_counts(np.stack(hits, axis=1))
    wind_m = gen_inputs.joint_counts(gen_inputs.make_wind_matrix(size["wind_rows"], 1) > 0)
    assert all(300 < m <= 4000 for m in track_m.values())
    assert all(m > 4000 for m in wind_m.values())


def test_compare_tolerances():
    ref = {"a": 1.0, "n": 3, "d": "interior_optimum", "x": [0.5, float("nan")]}
    assert gate.compare(ref, {"a": 1.0 + 1e-12, "n": 3, "d": "interior_optimum",
                              "x": [0.5, float("nan")]}) == []
    assert gate.compare(ref, dict(ref, a=1.001))
    assert gate.compare(ref, dict(ref, n=4))
    assert gate.compare(ref, dict(ref, n=3.0))
    assert gate.compare(ref, dict(ref, d="prefer_no_insurance"))


def test_outermost_busy_time_counts_nested_calls_once():
    spans = []
    for name, start, end, parent in [("m.f", 0.0, 1.0, -1), ("m.f", 0.2, 0.5, 0),
                                     ("m.g", 0.6, 0.9, 0), ("m.f", 2.0, 2.5, -1)]:
        s = tracer.Span(name, start, parent, "job")
        s.end = end
        spans.append(s)
    assert tracer.busy(spans, ["m.f"]) == pytest.approx(1.5)
    assert tracer.busy_prefix(spans, "m.") == pytest.approx(1.5)
    assert tracer.count(spans, ["m.f"]) == 3

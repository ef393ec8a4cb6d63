"""End-to-end benchmark of the ``basisrisk`` CLI.

    python3 perfbench/run.py --workload {pure,index,hazard} --seed N \
        --seconds S --trace {0,1} [--tiny] [--reference FILE] [--record-reference]

Run from anywhere inside a source checkout; the package is imported from
``src/``. Each workload is a fixed list of CLI jobs (see ``workload_jobs``).
A *pass* runs the list once, each job a cold subprocess started after the
previous one ended (closed loop, one client).

``--trace 0`` runs passes until ``--seconds`` are spent (at least two) and
reports medians over passes of ``wall_s`` (pass wall time), ``cpu_s``
(user+sys CPU of the pass's children, from ``os.wait4``) and
``peak_rss_mb`` (largest per-job peak RSS), and ``setup_s``: the median
over every job child of the time from spawn until ``basisrisk.cli`` is
imported, i.e. the cold start of ``python -c "import basisrisk.cli"``.
The three times are speed-normalised: multiplied by ``CALIBRATION_REF_S``
over the median cold start of the third-party dependencies alone, sampled
around every pass (``calibrate``). Raw values are printed alongside.

``--trace 1`` runs one cold pass, then alternates untraced and traced
in-process passes (see ``tracer.py``) and prints the per-layer metrics,
``trace.overhead_frac`` and microbenchmarks of the hot functions.

Every job run goes through the correctness gate (``gate.py``); failures
count toward ``failed`` and are listed. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import logging
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen_inputs  # noqa: E402
from gate import Gate, summarize  # noqa: E402
from tracer import MODULES, Tracer, layer_metrics, microbenchmarks  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
JOB_TIMEOUT_S = 150
MIN_PASSES = 2
# Each job child runs the console-script entry point and first reports, on
# stderr, the system-wide monotonic clock once the CLI is imported; the
# parent took the clock before spawning, so every job gives one cold-start
# sample spread over the whole run.
IMPORTED = "perfbench-imported "
CLI_ENTRY = ("import sys, time; from basisrisk.cli import main; "
             f"print('{IMPORTED}' + repr(time.monotonic()), file=sys.stderr, flush=True); "
             "sys.exit(main())")

# Time metrics are reported at a reference machine speed: raw seconds times
# CALIBRATION_REF_S over the run's median calibration time (see calibrate).
CALIBRATION = ("import os, sys, time; import numpy, scipy.stats, yaml; "
               "print('{imported}' + repr(time.monotonic()), file=sys.stderr, flush=True); "
               "os._exit(0)")
CALIBRATION_REF_S = 1.0
CALIBRATIONS_PER_PASS = 2  # before every pass and after the last

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {"cli.import_s": "s", "cli.bytes_out": "B", "cli.warnings": "count",
                   "trace.overhead_frac": "ratio",
                   "weighting_pure.expectile_calls_per_solve": "count/solve"}


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    config: str         # absolute, or relative to the work directory
    seeded: bool        # passes --seed: outputs depend on the benchmark seed
    closed_form: bool = False  # solution.json must carry the closed form


def workload_jobs(workload, work_dir, seed, scale) -> tuple[list[Job], dict]:
    """Job list of a workload, plus the sizes of its generated inputs.

    Shipped configs run with their own seeds (the regime scenarios are
    calibrated to them); generated inputs follow the benchmark seed.
    """
    sizes = gen_inputs.generate(work_dir, seed, workload, scale)

    def shipped(name):
        return gen_inputs.shipped_config(str(ROOT), name, work_dir, scale)

    if workload == "pure":
        jobs = [Job(f"fit_{case}", "fit-weighting",
                    os.path.join(ROOT, "configs", f"two_point_{case}.yaml"), False)
                for case in ("case1", "case2", "case3")]
        jobs += [
            Job("simulate_synthetic", "simulate", shipped("simulate_synthetic.yaml"), False),
            Job("fit_pure", "fit-weighting", "pure_fit.yaml", True, closed_form=True),
            Job("curve_pure", "utility-curve", "pure_curve.yaml", True),
        ]
    elif workload == "index":
        jobs = [Job("fit_index", "fit-weighting", shipped("index_fit.yaml"), False),
                Job("curve_regime_k1", "utility-curve", shipped("regime_k1.yaml"), False)]
    else:
        jobs = [Job("dependence_tracks", "dependence-report", "dep_tracks.yaml", True),
                Job("simulate_tracks", "simulate", "sim_tracks.yaml", True),
                Job("dependence_winds", "dependence-report", "dep_winds.yaml", True)]
    return jobs, sizes


def _job_argv(job, out_dir, seed):
    argv = [job.command, "--config", job.config, "--out", out_dir]
    return argv + ["--seed", str(seed)] if job.seeded else argv


# ---------------------------------------------------------------------------
# cold subprocess runs
# ---------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, cwd, stderr_path, timeout=JOB_TIMEOUT_S):
    """Run one child to completion.

    Returns (rc, timed_out, spawn time on the monotonic clock, wall_s,
    cpu_s, rss_mb).

    CPU time and peak RSS come from ``os.wait4`` on this child alone
    (``RUSAGE_CHILDREN`` would be a running maximum over all children).
    """
    expired = threading.Event()
    with open(stderr_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(timeout, lambda: (expired.set(), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, expired.is_set(), t0, wall, cpu, usage.ru_maxrss / 1024.0


def read_stderr(stderr_path, spawned):
    """(WARNING line count, cold-start seconds or None) of one job child."""
    warnings = 0
    setup = None
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if line.startswith("WARNING"):
                warnings += 1
            elif setup is None and line.startswith(IMPORTED):
                setup = float(line[len(IMPORTED):]) - spawned
    return warnings, setup


def calibrate(work_dir) -> float:
    """Cold start of the third-party dependencies alone, as ``setup_s`` is
    measured: spawn until ``numpy``, ``scipy.stats`` and ``yaml`` are imported.

    It never imports basisrisk, so no change to the package moves it; it
    moves with the speed of the shared machine, which drifts by tens of
    percent over minutes.
    """
    err = os.path.join(work_dir, "calibration.stderr")
    argv = [sys.executable, "-c", CALIBRATION.format(imported=IMPORTED)]
    rc, _, spawned, _, _, _ = run_child(argv, work_dir, err, timeout=120)
    seconds = read_stderr(err, spawned)[1]
    if rc != 0 or seconds is None:
        with open(err, encoding="utf-8", errors="replace") as fh:
            raise RuntimeError(f"calibration import failed: {fh.read()}")
    return seconds


def warm_up(work_dir):
    """One untimed cold import, which also writes the bytecode caches."""
    err = os.path.join(work_dir, "warmup.stderr")
    rc = run_child([sys.executable, "-c", "import basisrisk.cli"], work_dir, err,
                   timeout=120)[0]
    if rc != 0:
        with open(err, encoding="utf-8", errors="replace") as fh:
            raise RuntimeError(f"import basisrisk.cli failed: {fh.read()}")


@dataclass
class PassResult:
    wall: float
    cpu: float
    rss_mb: float
    warnings: int
    bytes_out: int
    failures: list
    job_walls: list
    setups: list


def _bytes_in(out_dir):
    if not os.path.isdir(out_dir):
        return 0
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


def cold_pass(jobs, work_dir, pass_dir, seed, gate, keep=False) -> PassResult:
    os.makedirs(pass_dir)
    runs = []
    t0 = time.perf_counter()
    for job in jobs:
        out = os.path.join(pass_dir, job.name)
        err = os.path.join(pass_dir, job.name + ".stderr")
        argv = [sys.executable, "-c", CLI_ENTRY] + _job_argv(job, out, seed)
        runs.append((job, out, err) + run_child(argv, work_dir, err))
    wall = time.perf_counter() - t0
    failures = []
    cpu = rss = 0.0
    warnings = bytes_out = 0
    setups = []
    for job, out, err, rc, timed_out, spawned, _, job_cpu, job_rss in runs:
        problems = gate.check(job, rc, timed_out, out)
        job_warnings, setup = read_stderr(err, spawned)
        if setup is None:
            problems.append("no cold-start report")
        else:
            setups.append(setup)
        if problems:
            failures.append(f"{job.name}: " + "; ".join(problems))
        cpu += job_cpu
        rss = max(rss, job_rss)
        warnings += job_warnings
        bytes_out += _bytes_in(out)
    result = PassResult(wall=wall, cpu=cpu, rss_mb=rss, warnings=warnings,
                        bytes_out=bytes_out, failures=failures,
                        job_walls=[r[6] for r in runs], setups=setups)
    if not keep:
        shutil.rmtree(pass_dir)
    return result


# ---------------------------------------------------------------------------
# in-process runs (trace mode)
# ---------------------------------------------------------------------------

class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def inprocess_pass(cli, jobs, work_dir, pass_dir, seed, gate, tracer=None):
    """One pass inside this process; returns (wall_s, failures)."""
    os.makedirs(pass_dir)
    failures = []
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        t0 = time.perf_counter()
        for job in jobs:
            out = os.path.join(pass_dir, job.name)
            argv = _job_argv(job, out, seed)
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    tracer.job = job.name
                    with tracer.span("cli.main"):
                        rc = cli.main(argv)
            except Exception:  # a program bug: record it, keep benchmarking
                traceback.print_exc()
                rc = 1
            problems = gate.check(job, rc, False, out)
            if problems:
                failures.append(f"{job.name} (in-process): " + "; ".join(problems))
        wall = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    shutil.rmtree(pass_dir)
    return wall, failures


def trace_run(jobs, work_dir, seed, gate, seconds):
    """Per-layer metrics; returns (metrics, attempted, failures)."""
    t_start = time.perf_counter()
    warm_up(work_dir)
    cold = cold_pass(jobs, work_dir, os.path.join(work_dir, "cold"), seed, gate)
    failures = list(cold.failures)
    attempted = len(jobs)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    cli = importlib.import_module("basisrisk.cli")
    import_s = time.perf_counter() - t0
    modules = {m: sys.modules[f"basisrisk.{m}"] for m in MODULES + ("cli",)}

    counter = _WarningCounter()
    logging.getLogger().addHandler(counter)
    tracer = Tracer()
    plain_walls, traced_walls, per_pass = [], [], []
    k = 0
    while k < 1 or time.perf_counter() - t_start + 2.0 * max(traced_walls) < seconds:
        wall, fails = inprocess_pass(cli, jobs, work_dir,
                                     os.path.join(work_dir, f"plain{k}"), seed, gate)
        plain_walls.append(wall)
        failures += fails
        tracer.reset()
        tracer.install(modules)
        tracer.wrap_commands(cli._COMMANDS)
        try:
            wall, fails = inprocess_pass(cli, jobs, work_dir,
                                         os.path.join(work_dir, f"traced{k}"), seed,
                                         gate, tracer)
        finally:
            tracer.restore()
        traced_walls.append(wall)
        failures += fails
        per_pass.append(layer_metrics(tracer.spans))
        attempted += 2 * len(jobs)
        k += 1
    logging.getLogger().removeHandler(counter)

    metrics = {"cli.import_s": import_s}
    metrics.update({name: median([m[name] for m in per_pass]) for name in per_pass[0]})
    metrics["cli.bytes_out"] = cold.bytes_out
    metrics["cli.warnings"] = cold.warnings
    metrics["trace.overhead_frac"] = median(traced_walls) / median(plain_walls) - 1.0
    metrics.update(microbenchmarks(modules, tracer.captured))
    print(f"trace: {k} untraced/traced in-process pairs, untraced "
          f"{median(plain_walls):.3f} s, traced {median(traced_walls):.3f} s, "
          f"in-process warnings {counter.count // (2 * k)} per pass")
    return metrics, attempted, failures


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def e2e_run(jobs, work_dir, seed, gate, seconds, record_to=None):
    """End-to-end metrics; with ``record_to``, the first pass's outputs are
    summarised into that reference file instead of being checked against one."""
    warm_up(work_dir)
    passes = []
    calibrations = []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - t_start + passes[-1].wall < seconds):
        calibrations += [calibrate(work_dir) for _ in range(CALIBRATIONS_PER_PASS)]
        pass_dir = os.path.join(work_dir, f"pass{len(passes)}")
        record = record_to is not None and not passes
        p = cold_pass(jobs, work_dir, pass_dir, seed, gate, keep=record)
        if record:
            write_reference(record_to, seed, jobs, pass_dir)
            shutil.rmtree(pass_dir)
        passes.append(p)
        print(f"pass {len(passes)}: wall {p.wall:.3f} s, cpu {p.cpu:.3f} s, "
              f"peak rss {p.rss_mb:.1f} MB, warnings {p.warnings}, "
              f"failed {len(p.failures)}/{len(jobs)}; job walls "
              + " ".join(f"{w:.2f}" for w in p.job_walls)
              + "; cold starts " + " ".join(f"{s:.2f}" for s in p.setups))
    calibrations += [calibrate(work_dir) for _ in range(CALIBRATIONS_PER_PASS)]
    raw = {
        "wall_s": median([p.wall for p in passes]),
        "cpu_s": median([p.cpu for p in passes]),
        "setup_s": median([s for p in passes for s in p.setups]),
    }
    speed = CALIBRATION_REF_S / median(calibrations)
    print("calibration " + " ".join(f"{c:.3f}" for c in calibrations)
          + " s; raw " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    metrics = {
        "wall_s": raw["wall_s"] * speed,
        "cpu_s": raw["cpu_s"] * speed,
        "peak_rss_mb": median([p.rss_mb for p in passes]),
        "setup_s": raw["setup_s"] * speed,
    }
    failures = [f for p in passes for f in p.failures]
    return metrics, len(passes) * len(jobs), failures


def machine_record() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "numba_imports": numba, "platform": platform.platform()}


def reference_path(scale, workload) -> Path:
    return HERE / "reference" / f"{scale}-{workload}.json"


def write_reference(path, seed, jobs, pass_dir):
    summary = {job.name: summarize(os.path.join(pass_dir, job.name)) for job in jobs}
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"seed": seed, "jobs": summary}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="basisrisk end-to-end benchmark")
    ap.add_argument("--workload", choices=("pure", "index", "hazard"), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's own tests")
    ap.add_argument("--reference", help="reference file (default: reference/)")
    ap.add_argument("--record-reference", action="store_true",
                    help="write the reference for this scale and workload "
                         "from this run's first pass (default seed only)")
    args = ap.parse_args(argv)

    if not (SRC / "basisrisk" / "cli.py").is_file():
        print(f"error: no basisrisk sources under {SRC}", file=sys.stderr)
        return 2
    scale = "tiny" if args.tiny else "full"
    ref_file = Path(args.reference) if args.reference else reference_path(scale, args.workload)
    if args.record_reference and args.seed != DEFAULT_SEED:
        print("error: references are recorded for the default seed", file=sys.stderr)
        return 2
    reference = None
    if not args.record_reference:
        if not ref_file.is_file():
            print(f"error: missing reference {ref_file}", file=sys.stderr)
            return 2
        with open(ref_file, encoding="utf-8") as fh:
            reference = json.load(fh)

    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        jobs, sizes = workload_jobs(args.workload, work_dir, args.seed, scale)
        print("machine " + json.dumps(machine_record(), sort_keys=True))
        print("inputs " + json.dumps(sizes, sort_keys=True))
        gate = Gate(reference, args.seed)
        if args.trace:
            metrics, attempted, failures = trace_run(jobs, work_dir, args.seed, gate,
                                                     args.seconds)
            units = {name: PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")
                     for name in metrics}
        else:
            metrics, attempted, failures = e2e_run(
                jobs, work_dir, args.seed, gate, args.seconds,
                ref_file if args.record_reference else None)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for f in failures:
        print(f"FAIL {f}")
    print(f"fail_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

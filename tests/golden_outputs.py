"""The golden-output table: what every shipped and tiny generated CLI run gives.

A run is one config under one subcommand, run in process: every config in
``configs/`` under each of the four subcommands, and the ``tiny`` ``pure``
and ``hazard`` inputs that ``perfbench/gen_inputs.generate`` writes at seed 1.
Its record is the exit code and the first standard-error line that is not a
logged warning and, for a run that succeeds, the SHA-256 of every output
file. ``manifest.json`` names the numpy version, so the table records it.

Rewrite the table after a deliberate change of output or exit code:

    python tests/golden_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent
TABLE = HERE / "golden_outputs.json"
COMMANDS = ("fit-weighting", "simulate", "dependence-report", "utility-curve")
GENERATED = ("pure", "hazard")
GENERATED_SEED = 1


def runs(work) -> dict:
    """{name: (command, config, cwd)} of every run; the generated inputs go under work.

    A config path is relative to its run's cwd, as the configs' own paths are.
    """
    cases = {}
    for path in sorted((REPO_ROOT / "configs").glob("*.yaml")):
        for command in COMMANDS:
            cases[f"configs/{path.name} {command}"] = (command, f"configs/{path.name}",
                                                       REPO_ROOT)
    spec = importlib.util.spec_from_file_location(
        "gen_inputs", REPO_ROOT / "perfbench" / "gen_inputs.py")
    gen_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_inputs)
    for workload in GENERATED:
        folder = Path(work) / workload
        gen_inputs.generate(str(folder), GENERATED_SEED, workload, "tiny")
        for path in sorted(folder.glob("*.yaml")):
            for command in COMMANDS:
                cases[f"tiny-{workload}/{path.name} {command}"] = (command, path.name, folder)
    return cases


def run_one(command, config, cwd, out) -> dict:
    """The record of one in-process run that writes into the new directory ``out``."""
    from basisrisk.cli import main

    err = io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config), "--out", str(out)])
    finally:
        os.chdir(here)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("WARNING")]
    record = {"exit": code, "stderr": lines[0] if lines else ""}
    if code == 0:
        record["sha256"] = digests(out)
    return record


def digests(out) -> dict:
    """{file name: SHA-256} of every file in the directory ``out``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out).iterdir())}


def record_all(work) -> dict:
    """The whole table, from runs whose inputs and outputs go under work."""
    records = {name: run_one(*case, Path(work) / "out" / str(i))
               for i, (name, case) in enumerate(runs(work).items())}
    return {"numpy": np.__version__, "runs": records}


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        table = record_all(work)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    codes = [r["exit"] for r in table["runs"].values()]
    print(f"{len(codes)} runs: " + ", ".join(
        f"{codes.count(c)} exit {c}" for c in sorted(set(codes))))

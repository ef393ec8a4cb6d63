"""Correctness gate for benchmark jobs.

A job run passes when it exits 0, its output files are byte-identical to
the first run of the same job in this benchmark run, the pure
exponential/expected-value solution keeps its closed-form cross-check
within ``GAMMA_DELTA_MAX``, and -- where a recorded reference applies --
its outputs match the reference: strings, booleans and integers exactly,
floats within ``|a - b| <= ATOL + RTOL * |b|``.

References hold a summary of each output file, not the file itself: JSON
files in full, CSV files of up to ``FULL_ROWS`` rows in full, longer CSV
files as header, row count, first and last row, and per-column sum, min
and max.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

GAMMA_DELTA_MAX = 1e-8
RTOL = 1e-9
ATOL = 1e-9
FULL_ROWS = 100

_INT = re.compile(r"-?\d+")


def digests(out_dir) -> dict:
    """sha256 of every output file, by name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _cell(text):
    if _INT.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _csv_summary(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [[_cell(c) for c in line.split(",")] for line in lines[1:]]
    if len(rows) <= FULL_ROWS:
        return {"header": header, "rows": rows}
    summary = {"header": header, "n_rows": len(rows), "first": rows[0], "last": rows[-1],
               "sum": [], "min": [], "max": []}
    for col in zip(*rows):
        numeric = [v for v in col if not isinstance(v, str)]
        if len(numeric) != len(col):
            summary["sum"].append(None)
            summary["min"].append(None)
            summary["max"].append(None)
        elif all(isinstance(v, int) for v in numeric):
            summary["sum"].append(sum(numeric))
            summary["min"].append(min(numeric))
            summary["max"].append(max(numeric))
        else:
            summary["sum"].append(math.fsum(numeric))
            summary["min"].append(min(numeric))
            summary["max"].append(max(numeric))
    return summary


def summarize(out_dir) -> dict:
    """Reference summary of every output file in ``out_dir``."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            text = fh.read()
        out[name] = json.loads(text) if name.endswith(".json") else _csv_summary(text)
    return out


def compare(ref, got, path="") -> list[str]:
    """Differences between a reference summary and a fresh one."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(set(ref) ^ set(got))} differ"]
        return [d for k in sorted(ref) for d in compare(ref[k], got[k], f"{path}/{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: length differs"]
        return [d for i, (r, g) in enumerate(zip(ref, got)) for d in compare(r, g, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isnan(ref) and math.isnan(got):
            return []
        if abs(got - ref) <= ATOL + RTOL * abs(ref):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


class Gate:
    """Checks every run of every job; remembers first-run digests."""

    def __init__(self, reference: dict | None, seed: int):
        self.reference = reference
        self.seed = seed
        self._first: dict[str, dict] = {}
        self._ref_verdict: dict[tuple, list] = {}

    def reference_applies(self, job) -> bool:
        if self.reference is None or job.name not in self.reference["jobs"]:
            return False
        return not job.seeded or self.seed == self.reference["seed"]

    def check(self, job, rc, timed_out, out_dir) -> list[str]:
        if timed_out:
            return ["timed out"]
        if rc != 0:
            return [f"exit code {rc}"]
        if not os.path.isdir(out_dir):
            return ["no output directory"]
        got = digests(out_dir)
        first = self._first.setdefault(job.name, got)
        problems = []
        if got != first:
            changed = sorted(n for n in set(got) | set(first) if got.get(n) != first.get(n))
            problems.append(f"outputs differ from the first run: {changed}")
        if job.closed_form:
            problems += _closed_form_problems(out_dir)
        if self.reference_applies(job):
            key = (job.name, tuple(sorted(got.items())))
            if key not in self._ref_verdict:
                diffs = compare(self.reference["jobs"][job.name], summarize(out_dir))
                self._ref_verdict[key] = [f"reference mismatch {d}" for d in diffs[:5]]
            problems += self._ref_verdict[key]
        return problems


def _closed_form_problems(out_dir) -> list[str]:
    try:
        with open(os.path.join(out_dir, "solution.json"), encoding="utf-8") as fh:
            delta = json.load(fh)["closed_form"]["gamma_delta"]
    except (OSError, KeyError, ValueError) as exc:
        return [f"closed-form cross-check missing: {exc!r}"]
    if not (isinstance(delta, float) and delta <= GAMMA_DELTA_MAX):
        return [f"closed_form.gamma_delta {delta!r} > {GAMMA_DELTA_MAX}"]
    return []

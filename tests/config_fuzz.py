"""Config fuzz: the CLI's exit-code contract under out-of-range numbers and wrong shapes.

Run from the repository root:

    PYTHONPATH=src python tests/config_fuzz.py

Each shipped config in ``configs/``, with its lists cut to their first 3
entries, has each numeric leaf set in turn to each of the 13 values in
``VALUES``, and then each of its nodes (a mapping, list, string or number
below the top) set in turn to each of the 9 values in ``SHAPES``. Each
mutated config runs in process under all 4 subcommands, one run at a time,
in one child process that this script starts. The child sets an
address-space limit on itself only, and an alarm for each run. The script
asserts four things:

- every run exits 0, 2, 3, 4 or 5, and no run outlives its alarm;
- a run that exits non-zero prints exactly one line to stderr;
- a run that exits non-zero leaves no ``--out`` behind;
- a seeded sample of the exit-0 runs repeats byte-identically.

Python prints a warning once per code location in a process, so each run
starts with a fresh warning registry, as a fresh ``basisrisk`` process
would. The script prints the count of each exit code and every broken rule,
and it exits 1 if any rule broke.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import math
import multiprocessing
import os
import random
import resource
import shutil
import signal
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parent.parent
VALUES = (0, -1, 0.0, -0.0, 1e-300, 1e300, 1e308, -1e308, 0.5, 1.0, 2 ** 63, math.nan,
          math.inf)
SHAPES = (None, True, False, "x", "", [], {}, [1.0], {"a": 1})
COMMANDS = ("fit-weighting", "simulate", "dependence-report", "utility-curve")
LIST_CUT = 3
ADDRESS_SPACE = 3 << 30  # bytes, the child's limit
ALARM_S = 60  # per run
REPEAT_SHARE = 0.05  # of the exit-0 runs, chosen by a seeded draw
EXIT_CODES = {0, 2, 3, 4, 5}


def _cut(node):
    """node with every list cut to its first LIST_CUT entries."""
    if isinstance(node, dict):
        return {k: _cut(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_cut(v) for v in node[:LIST_CUT]]
    return node


def _nodes(node, path=()):
    """(path, value) of every node below node, in document order."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield path + (key,), value
            yield from _nodes(value, path + (key,))


def _with(node, path, value):
    """A copy of node with what sits at path replaced by value."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _with(node[path[0]], path[1:], value)
    return copy


def mutations():
    """(config name, node path, value, mutated config), in a fixed order."""
    for config in sorted((REPO / "configs").glob("*.yaml")):
        base = _cut(yaml.safe_load(config.read_text()))
        nodes = list(_nodes(base))
        for path, node in nodes:
            if isinstance(node, (int, float)) and not isinstance(node, bool):
                for value in VALUES:
                    yield config.stem, path, value, _with(base, path, value)
        for path, _ in nodes:
            for value in SHAPES:
                yield config.stem, path, value, _with(base, path, value)


# ---------------------------------------------------------------------------
# the child: every run, in process
# ---------------------------------------------------------------------------

class _Timeout(BaseException):
    """A run outlived its alarm; BaseException, so that no handler of the CLI catches it."""


def _on_alarm(signum, frame):
    raise _Timeout


class _CurrentStderr:
    """A stream that writes to whatever sys.stderr is when a record is logged."""

    def write(self, text):
        return sys.stderr.write(text)

    def flush(self):
        sys.stderr.flush()


def _run(main, command, config, out):
    """(exit code or "timeout", stderr text) of one in-process run."""
    err = io.StringIO()
    signal.alarm(ALARM_S)
    try:
        # catch_warnings clears the once-per-location registry, as a fresh process would
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            try:
                code = main([command, "--config", config, "--out", out])
            except SystemExit as exc:  # argparse
                code = exc.code
            except _Timeout:
                code = "timeout"
            except Exception:  # main lets it escape: exit 1 with a traceback
                code = 1
                err.write(traceback.format_exc())
    finally:
        signal.alarm(0)
    return code, err.getvalue()


def _digest(out):
    return {name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out))}


def child(results):
    """Every run, one at a time, each recorded as one JSON line in the file results."""
    os.chdir(REPO)  # the shipped configs name their inputs from the repository root
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    signal.signal(signal.SIGALRM, _on_alarm)
    # main's own basicConfig is then a no-op, and its records reach each run's stderr
    logging.basicConfig(stream=_CurrentStderr(), level=logging.WARNING,
                        format="%(levelname)s %(message)s")
    from basisrisk.cli import main

    draw = random.Random(0)
    with tempfile.TemporaryDirectory(prefix="config-fuzz-") as tmp, \
            open(results, "w", encoding="utf-8") as log:
        config, out = os.path.join(tmp, "config.yaml"), os.path.join(tmp, "out")
        for name, path, value, cfg in mutations():
            with open(config, "w", encoding="utf-8") as fh:
                yaml.safe_dump(cfg, fh)
            for command in COMMANDS:
                code, err = _run(main, command, config, out)
                record = {"config": name, "node": list(path), "value": repr(value),
                          "command": command, "code": code, "stderr": err,
                          "out_left": code != 0 and os.path.exists(out)}
                if code == 0 and draw.random() < REPEAT_SHARE:
                    first = _digest(out)
                    shutil.rmtree(out)
                    record["repeat"] = [_run(main, command, config, out)[0],
                                        os.path.exists(out) and _digest(out) == first]
                shutil.rmtree(out, ignore_errors=True)
                log.write(json.dumps(record) + "\n")
                log.flush()


# ---------------------------------------------------------------------------
# the parent: start the child, then check every run
# ---------------------------------------------------------------------------

def _problems(record):
    """The rules this run broke."""
    code, where = record["code"], "{command} {config} {node}={value}".format(**record)
    if code not in EXIT_CODES:
        yield f"{where}: exit {code}: {record['stderr'].strip()[-300:]!r}"
        return
    if code != 0:
        lines = record["stderr"].splitlines()
        if len(lines) != 1:
            yield f"{where}: exit {code} printed {len(lines)} stderr lines: {lines[:4]!r}"
        if record["out_left"]:
            yield f"{where}: exit {code} left --out behind"
    elif "repeat" in record and record["repeat"] != [0, True]:
        yield f"{where}: a repeat run gave {record['repeat']!r}, not the same files"


def main():
    with tempfile.TemporaryDirectory(prefix="config-fuzz-results-") as tmp:
        results = os.path.join(tmp, "runs.jsonl")
        open(results, "w").close()  # read below even if the child dies at once
        runner = multiprocessing.get_context("spawn").Process(target=child, args=(results,))
        runner.start()
        runner.join()
        with open(results, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
    problems = [p for record in records for p in _problems(record)]
    expected = sum(1 for _ in mutations()) * len(COMMANDS)
    if runner.exitcode != 0 or len(records) != expected:
        problems.append(f"the child exited {runner.exitcode} after {len(records)} of "
                        f"{expected} runs")
    codes = Counter(str(r["code"]) for r in records)
    repeats = sum("repeat" in r for r in records)
    for problem in problems[:50]:
        print(problem)
    print(f"config fuzz: {len(records)} runs; "
          + ", ".join(f"exit {c} {n}" for c, n in sorted(codes.items()))
          + f"; {repeats} exit-0 runs repeated; {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

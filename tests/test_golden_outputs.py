"""Every shipped and tiny generated CLI run gives what the golden table records.

The table (``tests/golden_outputs.json``) holds each run's exit code, its
first standard-error line that is not a logged warning and, for a run that
succeeds, the SHA-256 of every output file. ``tests/golden_outputs.py``
lists the runs and rewrites the table.
"""

import json

import numpy as np
import pytest

import golden_outputs

TABLE = json.loads(golden_outputs.TABLE.read_text())


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    return golden_outputs.runs(tmp_path_factory.mktemp("golden"))


def _under_numpy():
    if np.__version__ == TABLE["numpy"]:
        return ""
    return (f" (the table was recorded under numpy {TABLE['numpy']}; this is numpy "
            f"{np.__version__}, and manifest.json names it)")


def test_table_lists_every_run(cases):
    assert sorted(cases) == sorted(TABLE["runs"])


@pytest.mark.parametrize("name", sorted(TABLE["runs"]))
def test_run_matches_the_table(cases, tmp_path, name):
    want = TABLE["runs"][name]
    got = golden_outputs.run_one(*cases[name], tmp_path / "out")
    assert got["exit"] == want["exit"], (
        f"{name} exits {got['exit']}, the table says {want['exit']}{_under_numpy()}")
    assert got["stderr"] == want["stderr"], f"{name}: first stderr line moved"
    want_files, got_files = want.get("sha256", {}), got.get("sha256", {})
    assert sorted(got_files) == sorted(want_files), f"{name} writes other files"
    for file, digest in want_files.items():
        assert got_files[file] == digest, (
            f"{name}: {file} differs from the table{_under_numpy()}")

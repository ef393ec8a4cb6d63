"""The CSV dialect lives in one module.

Under src/basisrisk only ``contracts`` calls ``np.loadtxt``, ``np.genfromtxt``
or ``np.savetxt``: every other module reads through its block reader and
locator. No module passes an f-string to a ``.write`` call: rows are
rendered by column through ``contracts._csv_text``.
"""

import ast

import pytest

from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "basisrisk").glob("*.py"))
NUMPY_CSV = {"loadtxt", "genfromtxt", "savetxt"}


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _violations(name, tree):
    """(line, what) of each numpy CSV call outside contracts.py and each
    ``.write`` call with an f-string in its arguments."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _callee(node)
        if callee in NUMPY_CSV and name != "contracts.py":
            found.append((node.lineno, callee))
        if callee == "write" and isinstance(node.func, ast.Attribute) and any(
                isinstance(part, ast.JoinedStr) for arg in node.args for part in ast.walk(arg)):
            found.append((node.lineno, "f-string write"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_csv_is_read_and_written_through_contracts(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not _violations(path.name, tree), f"{path.name}: {_violations(path.name, tree)}"


def test_finds_each_kind_of_violation():
    source = ("import numpy as np\nfrom numpy import genfromtxt\n"
              "np.loadtxt('a')\ngenfromtxt('b')\nfh.write(f'{x},{y}\\n')\n"
              "fh.write('a' + f'{x}')\nfh.write(text)\nnp.savetxt('c', x)\n")
    tree = ast.parse(source)
    assert _violations("hazard.py", tree) == [
        (3, "loadtxt"), (4, "genfromtxt"), (5, "f-string write"), (6, "f-string write"),
        (8, "savetxt")]
    assert _violations("contracts.py", tree) == [(5, "f-string write"), (6, "f-string write")]

"""Every private module-level function or class under src/basisrisk has a caller there.

A private helper that only tests call is test code and belongs in the
tests. A name counts as referenced when any module under src/basisrisk
loads it by name or as an attribute; its own definition does not count.
"""

import ast

from conftest import REPO_ROOT

SOURCES = sorted((REPO_ROOT / "src" / "basisrisk").glob("*.py"))


def _private_defs(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _caller_less(sources):
    """Private helpers (module.name) of ``sources`` (module -> text) that no module uses."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in _private_defs(tree) if name not in used)


def test_every_private_helper_has_a_caller_in_src():
    unused = _caller_less({p.stem: p.read_text() for p in SOURCES})
    assert not unused, f"private helpers with no caller under src/basisrisk: {unused}"


def test_finds_a_caller_less_helper():
    sources = {
        "a": "def _used():\n    pass\n\n\ndef _orphan():\n    pass\n\n\nclass _Kept:\n    pass\n",
        "b": "from a import _Kept, _orphan, _used\n\n_used()\nx = _Kept\n",
    }
    assert _caller_less(sources) == ["a._orphan"]

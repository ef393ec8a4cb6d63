"""One evaluator of V1 and V2.

Under src/basisrisk only ``_FirstOrderSystem.v_pair`` calls ``u_prime_sum``:
the trace, the bound step, the bisection and the fallback's V1(0) <= V2(0)
test all read the first-order system through it, so no caller sums u' over
a side a second way.
"""

import ast

import pytest

from conftest import REPO_ROOT

MODULES = sorted((REPO_ROOT / "src" / "basisrisk").glob("*.py"))
EVALUATOR = "_FirstOrderSystem.v_pair"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _callers(tree):
    """(line, dotted name of the enclosing definitions) of each ``u_prime_sum`` call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, DEFINITIONS) else scope
            if isinstance(child, ast.Call) and _callee(child) == "u_prime_sum":
                found.append((child.lineno, ".".join(scope) or "<module>"))
            visit(child, inner)

    visit(tree, ())
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_v_pair_sums_u_prime(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    stray = [c for c in _callers(tree) if c[1] != EVALUATOR]
    assert not stray, f"{path.name}: u_prime_sum called outside {EVALUATOR}: {stray}"


def test_v_pair_is_the_evaluator():
    # the rule holds of a caller that exists: v_pair sums both sides
    path = REPO_ROOT / "src" / "basisrisk" / "weighting_pure.py"
    assert [name for _, name in _callers(ast.parse(path.read_text()))] == [EVALUATOR] * 2


def test_finds_a_planted_caller():
    source = ("class _FirstOrderSystem:\n"
              "    def v_pair(self, k):\n"
              "        return self.triggered.u_prime_sum(k)\n"
              "\n"
              "def _fallback_decision(system):\n"
              "    t, u = system.triggered, system.untriggered\n"
              "    return t.u_prime_sum(0.0) / float(u.u_prime_sum(0.0))\n"
              "\n"
              "x = [side.u_prime_sum(1.0) for side in sides]\n"
              "y = u_prime_sum(2.0)\n")
    assert _callers(ast.parse(source)) == [
        (3, EVALUATOR), (7, "_fallback_decision"), (7, "_fallback_decision"),
        (9, "<module>"), (10, "<module>")]

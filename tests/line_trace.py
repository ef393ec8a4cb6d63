"""A pytest plugin that traces ``src/basisrisk`` line by line and fails the run
when a statement inside a function never runs, unless ``ALLOWED`` names it.

Run it over the whole suite, from the repository root:

    PYTHONPATH=src:tests python -m pytest -q -p line_trace

It needs only the standard library (``sys.settrace``) and roughly doubles the
suite's run time, so the tier-1 command leaves it out. Module-level statements
run at import, which can come before the trace starts, so only statements
inside functions are checked; code that runs only in a child process is not
traced. The run also fails when an ``ALLOWED`` entry ran or names no
statement, so the list stays exact.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "basisrisk"

# (module, enclosing function, first line of the statement) -> why it never runs
ALLOWED = {
    ("__init__.py", "__getattr__",
     'return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)'):
        "tests/test_cold_start.py reads the exported names in child interpreters",
    ("__init__.py", "__dir__", "return sorted(set(globals()) | set(__all__))"):
        "tests/test_cold_start.py lists the package in child interpreters",
}


def _statements(tree):
    """(qualified function name, statement, lines that show it ran) for every
    statement inside a function of the module ``tree``."""
    out = []

    def visit(body, scope, in_function):
        for stmt in body:
            if in_function and not _no_code(stmt, body):
                out.append((scope, stmt, _own_lines(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{stmt.name}" if scope else stmt.name
                visit(stmt.body, inner, in_function or not isinstance(stmt, ast.ClassDef))
            else:
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(stmt, field, []), scope, in_function)
                for handler in getattr(stmt, "handlers", []):
                    visit(handler.body, scope, in_function)
                for case in getattr(stmt, "cases", []):
                    visit(case.body, scope, in_function)

    visit(tree.body, "", False)
    return out


def _no_code(stmt, body):
    docstring = (stmt is body[0] and isinstance(stmt, ast.Expr)
                 and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str))
    return docstring or isinstance(stmt, (ast.Global, ast.Nonlocal, ast.Try))


def _own_lines(stmt):
    """The lines of a statement that are not in a nested block: its header for
    a compound statement, all of it for a simple one."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    nested = [getattr(s, "pattern", s).lineno  # a match case starts at its pattern
              for field in ("body", "orelse", "finalbody", "handlers", "cases")
              for s in getattr(stmt, field, [])[:1]]
    last = min(nested) - 1 if nested else stmt.end_lineno
    return range(first, max(first, last) + 1)


class LineTrace:
    def __init__(self, root):
        self.root = str(root) + os.sep
        self.hits = {}  # file path -> set of line numbers run
        self.files = {}  # co_filename -> its local trace function, None outside
        self.report = []

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        line = self.files.get(name, False)
        if line is False:
            line = self.files[name] = self._tracer(os.path.abspath(name))
        return line

    def _tracer(self, path):
        """The local trace function for the frames of ``path``: one per file, so
        tracing a call allocates nothing once its lines have run."""
        if not path.startswith(self.root):
            return None
        hits = self.hits.setdefault(path, set())

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line
        return line

    def start(self):
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(None)

    def check(self):
        """Record every unrun statement not in ``ALLOWED`` and every entry of
        ``ALLOWED`` that ran or names no statement; True when there is none."""
        unrun, seen = [], set()
        for path in sorted(Path(self.root).glob("*.py")):
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines()
            hits = self.hits.get(str(path), set())
            for scope, stmt, own in _statements(ast.parse(source)):
                key = (path.name, scope, lines[stmt.lineno - 1].strip())
                ran = not hits.isdisjoint(own)
                if key in ALLOWED:
                    seen.add(key)
                    if ran:
                        self.report.append(f"allowed but ran: {path.name}:{stmt.lineno} {key}")
                elif not ran:
                    unrun.append(f"unrun: {path.name}:{stmt.lineno} ({scope}) {key[2]}")
        self.report += unrun + [f"allowed but not found: {key}" for key in ALLOWED
                                if key not in seen]
        return not self.report


_KEY = pytest.StashKey[LineTrace]()


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config):
    # before the conftest files import the package
    trace = LineTrace(PACKAGE)
    early_config.stash[_KEY] = trace
    trace.start()


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session, exitstatus):
    trace = session.config.stash[_KEY]
    trace.stop()
    if not trace.check() and exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    trace = config.stash[_KEY]
    terminalreporter.section("line trace of src/basisrisk")
    for line in trace.report:
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"{len(trace.report)} problem(s); "
                                f"{len(ALLOWED)} statements allowed unrun")

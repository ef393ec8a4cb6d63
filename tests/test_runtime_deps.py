"""The package runs on its declared runtime dependencies alone.

scipy is a test-only dependency (an oracle for the kernels): importing the
CLI must not load it, and every subcommand must run with it unimportable.
The imports of every module under src/basisrisk must match
[project].dependencies of pyproject.toml exactly.
"""

import ast
import os
import re
import subprocess
import sys

import pytest

# distribution name -> top-level import name, where they differ
IMPORT_NAMES = {"pyyaml": "yaml"}

BLOCK_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, _NoScipy())
from basisrisk.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _python(repo_root, args, cwd):
    env = dict(os.environ)
    src = str(repo_root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_cli_import_leaves_scipy_unloaded(repo_root, tmp_path):
    code = ("import sys, basisrisk.cli; "
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))")
    proc = _python(repo_root, ["-c", code], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command,config", [
    ("fit-weighting", "two_point_case1"),
    ("simulate", "simulate_synthetic"),
    ("utility-curve", "regime_k2"),
    ("dependence-report", "dependence_toy"),
])
def test_subcommand_runs_with_scipy_blocked(repo_root, config_dir, tmp_path, command, config):
    out = tmp_path / "out"
    proc = _python(repo_root, ["-c", BLOCK_SCIPY, command,
                               "--config", str(config_dir / f"{config}.yaml"),
                               "--out", str(out)], cwd=repo_root)
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").is_file()


def _declared_imports(repo_root):
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(repo_root / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = (re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps)
    return {IMPORT_NAMES.get(n, n) for n in names}


def _third_party_imports(repo_root):
    found = {}
    for path in sorted((repo_root / "src" / "basisrisk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "basisrisk":
                    found.setdefault(top, []).append(path.name)
    return found


def test_imports_match_declared_dependencies(repo_root):
    found = _third_party_imports(repo_root)
    assert set(found) == _declared_imports(repo_root), found
    assert "scipy" not in found

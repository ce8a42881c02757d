"""Library hygiene: exact arithmetic only, no sampling, no runtime dependencies.

The library decides every verdict exactly, so it uses no floating point and
draws no random numbers.  Only the command-line front end reads the clock.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "toricfan").glob("*.py"))
EXACT_MATH = {"gcd", "lcm", "factorial", "floor", "ceil"}


def _violations(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: use of float")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name.split(".")[0]
                if module in ("random", "math") or (module == "time" and path.name != "cli.py"):
                    found.append(f"{where}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = (node.module or "").split(".")[0]
            if module == "random" or (module == "time" and path.name != "cli.py"):
                found.append(f"{where}: from {node.module} import ...")
            elif module == "math":
                for alias in node.names:
                    if alias.name not in EXACT_MATH:
                        found.append(f"{where}: from math import {alias.name}")
    return found


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_exact_and_deterministic(path):
    assert _violations(path) == []


def test_guard_catches_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import random\nimport time\nfrom math import sqrt, gcd\nx = 0.5\ny = float(1)\n"
    )
    found = _violations(bad)
    assert len(found) == 5, found


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []

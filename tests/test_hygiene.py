"""Source hygiene: every module of the package uses each name it imports,
and every name the benchmark's tracer patches still exists.

Package ``__init__`` files are left out: they import names to re-export
them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "psimlab"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nfrom os import path, sep\n"
              "x = np.pi + len(sep)\n")
    assert unused_imports(source) == [(2, "math"), (4, "path")]


def test_package_modules_are_found():
    names = {p.relative_to(PACKAGE).as_posix() for p in MODULES}
    assert {"cli.py", "reconstruct.py", "nn/ops.py", "gan/data.py"} <= names


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_benchmark_tracer_installs(monkeypatch):
    """Installing fails with AttributeError if a patched name is gone."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    with tracer.Tracer().installed():
        pass

"""Every package module uses each name it imports.

No linter ships with the test environment, so this ``ast`` pass stands
in for pyflakes' F401 check.  An import marked ``# noqa: F401`` is kept
on purpose: ``bench/tracing.py`` wraps some functions by module and
name, so those modules must hold the name even when they never call it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cfrenewal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Imported names that no expression reads; quoted annotations are not parsed."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_the_check_finds_an_unused_import():
    source = (
        "import math\n"
        "from typing import Optional, Sequence\n"
        "from .gauss import sample_mu2  # noqa: F401\n"
        "def f(x: Sequence[int]) -> float:\n"
        "    return math.pi\n"
    )
    assert unused_imports(source) == ["Optional"]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text()) == []

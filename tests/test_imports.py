"""Every package module uses each name it imports, every public name has a
user, and only streams builds a generator.

No linter ships with the test environment, so this ``ast`` pass stands
in for pyflakes' F401 check.  An import marked ``# noqa: F401`` is kept
on purpose: ``bench/tracing.py`` wraps some functions by module and
name, so those modules must hold the name even when they never call it.
Each such import must name a function the tracer wraps on that module,
so that a wrap the tracer drops leaves a failing test, not a dead import.

A public name, one defined at the top of a package module without a
leading underscore, must be read by something other than its own
definition, the package's ``__init__`` and the tests: a package module,
a demo, or a benchmark file, where a string counts too, since the
tracer wraps functions by name.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cfrenewal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TRACING = ROOT / "bench" / "tracing.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
# every numpy bit generator, and the two calls that build one implicitly
GENERATOR_NAMES = {
    name for name in dir(np.random)
    if isinstance(getattr(np.random, name), type)
    and issubclass(getattr(np.random, name), np.random.BitGenerator)
} | {"default_rng", "RandomState"}


def imports(source: str) -> list[tuple[str, bool]]:
    """(name, kept) for every imported name; kept marks ``# noqa: F401``."""
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out.append((name, "noqa: F401" in lines[alias.lineno - 1]))
    return out


def unused_imports(source: str) -> list[str]:
    """Imported names that no expression reads; quoted annotations are not parsed."""
    imported = {name for name, kept in imports(source) if not kept}
    used = {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def wrapped_functions(source: str) -> set[tuple[str, str]]:
    """(module, name) pairs wrapped by the ``_patch_function`` calls in source."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_patch_function"
        ):
            modules, name = node.args[:2]
            out.update((module.id, name.value) for module in modules.elts)
    return out


def test_the_check_finds_an_unused_import():
    source = (
        "import math\n"
        "from typing import Optional, Sequence\n"
        "from .gauss import sample_mu2  # noqa: F401\n"
        "def f(x: Sequence[int]) -> float:\n"
        "    return math.pi\n"
    )
    assert unused_imports(source) == ["Optional"]


def test_the_scan_finds_wrapped_functions():
    source = (
        "self._patch_function((cli,), 'main', 'cli')\n"
        "self._patch_function((limitlaw, gauss), 'f', 'gauss.f', observe)\n"
        "self._patch_method(table, 'to_csv', 'limitlaw.csv_write')\n"
    )
    assert wrapped_functions(source) == {
        ("cli", "main"),
        ("limitlaw", "f"),
        ("gauss", "f"),
    }
    assert wrapped_functions(TRACING.read_text())


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text()) == []


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_kept_imports_are_wrapped_by_the_tracer(module):
    wrapped = wrapped_functions(TRACING.read_text())
    kept = [name for name, kept in imports(module.read_text()) if kept]
    assert [name for name in kept if (module.stem, name) not in wrapped] == []


def defined_names(statement: ast.stmt) -> set[str]:
    """Names a top-level statement defines: a function, a class or an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return {statement.target.id}
    return set()


def read_names(node: ast.AST, strings: bool = False) -> set[str]:
    """Names and attribute names that node reads, and with strings its string constants."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def unused_public_names(modules: dict[str, str], outside: set[str]) -> list[str]:
    """``module.name`` for each public name of modules that nothing reads.

    modules maps a module's name to its source; outside holds the names
    read outside the package.  A top-level statement's reads count for
    every name but the ones it defines itself.
    """
    statements = [
        (module, statement)
        for module, source in modules.items()
        for statement in ast.parse(source).body
    ]
    reads = [read_names(statement) for _, statement in statements]
    unused = []
    for (module, statement), own in zip(statements, reads):
        for name in sorted(defined_names(statement)):
            if name.startswith("_") or name in outside:
                continue
            if not any(name in names for names in reads if names is not own):
                unused.append(f"{module}.{name}")
    return unused


def test_the_check_finds_an_unused_name():
    modules = {
        "a": (
            "LIMIT = 3\n"
            "_CACHE = {}\n"
            "def used():\n"
            "    return helper()\n"
            "def helper():\n"
            "    return LIMIT\n"
            "def lonely(n):\n"
            "    return lonely(n - 1) if n else 0\n"
        ),
        "b": "from .a import used\nprint(used())\n",
    }
    # a name read only by its own definition, like the recursive lonely, has no user
    assert unused_public_names(modules, outside=set()) == ["a.lonely"]
    assert unused_public_names(modules, outside={"lonely"}) == []
    # a benchmark file's strings count, for the tracer's wrap lists
    wrap = ast.parse("tracer.wrap((a,), 'lonely')")
    assert "lonely" in read_names(wrap, strings=True)
    assert "lonely" not in read_names(wrap)


def test_every_public_name_has_a_user():
    outside = set()
    for path in DEMOS:
        outside |= read_names(ast.parse(path.read_text()))
    for path in BENCH:
        outside |= read_names(ast.parse(path.read_text()), strings=True)
    modules = {path.stem: path.read_text() for path in MODULES}
    assert unused_public_names(modules, outside) == []


def generator_names(source: str) -> list[str]:
    """Names of numpy bit generators or default_rng that source reads or imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.Name):
            found.append(node.id)
        elif isinstance(node, ast.ImportFrom):
            found += [alias.name for alias in node.names]
    return sorted(set(found) & GENERATOR_NAMES)


def test_the_scan_finds_bit_generators():
    assert {"Philox", "SFC64", "PCG64", "MT19937"} <= GENERATOR_NAMES
    source = (
        "import numpy as np\n"
        "from numpy.random import PCG64\n"
        "rng = np.random.default_rng(1)\n"
        "gen = np.random.Generator(np.random.Philox(7))\n"
    )
    assert generator_names(source) == ["PCG64", "Philox", "default_rng"]
    assert generator_names("rng.random(3)\n") == []


def test_only_streams_builds_a_bit_generator():
    # one module keys every stream, so a change of generator is one line
    sources = sorted(SRC.glob("*.py"))
    builders = [p.name for p in sources if generator_names(p.read_text())]
    assert builders == ["streams.py"]

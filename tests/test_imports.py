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
tracer wraps functions by name.  Likewise every public method,
property and classmethod of a package class must be read as an
attribute somewhere outside its own definition and the tests.

A parameter with a default must be set by some call outside the tests,
or it is a constant in disguise.  And ``import cfrenewal`` must not load
``fixedreal``, which only the benchmark's tracer reads.
"""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cfrenewal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TRACING = ROOT / "bench" / "tracing.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
README = ROOT / "README.md"
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


def attribute_reads(node: ast.AST) -> Counter:
    """How often node reads each attribute name, as in ``x.name``."""
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def unused_public_members(modules: dict[str, str], outside: set[str]) -> list[str]:
    """``module.Class.member`` for each public member that nothing reads.

    A member is a method, property or classmethod, defined without a
    leading underscore in a class at the top of a module.  It has a user
    when some package module reads its name as an attribute outside the
    member's own definition, or when outside holds the name.  Names are
    matched, not types, so a member shares its users with every member
    of that name; a local variable of the same name is no user.
    """
    trees = {module: ast.parse(source) for module, source in modules.items()}
    reads = sum((attribute_reads(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = member.name
                if name.startswith("_") or name in outside:
                    continue
                if reads[name] == attribute_reads(member)[name]:
                    unused.append(f"{module}.{cls.name}.{name}")
    return unused


# members that only the tests read, kept on purpose: ROADMAP item 6
# deletes FixedReal, which nothing in the package builds, with its tests
MEMBERS_UNUSED_ON_PURPOSE = {
    "fixedreal.FixedReal.from_sqrt",
    "fixedreal.FixedReal.contains",
    "fixedreal.FixedReal.sub_int",
    "fixedreal.FixedReal.recip_shift",
}


def test_the_check_finds_an_unused_member():
    modules = {
        "a": (
            "class Point:\n"
            "    def step(self):\n"
            "        return self._private()\n"
            "    def shift(self, k):\n"
            "        return self.shift(k - 1) if k else self\n"
            "    @property\n"
            "    def digit(self):\n"
            "        return 1\n"
            "    @classmethod\n"
            "    def origin(cls):\n"
            "        return cls()\n"
            "    def _private(self):\n"
            "        return 0\n"
            "def walk(p):\n"
            "    digit = 3\n"
            "    return p.step(), digit\n"
        ),
        "b": "from .a import Point\nPoint.origin()\n",
    }
    # shift reads only itself, and digit is only a local variable elsewhere
    assert unused_public_members(modules, outside=set()) == ["a.Point.shift", "a.Point.digit"]
    assert unused_public_members(modules, outside={"shift", "digit"}) == []


def test_every_public_member_has_a_user():
    outside = set()
    for path in DEMOS:
        outside |= set(attribute_reads(ast.parse(path.read_text())))
    for path in BENCH:
        tree = ast.parse(path.read_text())
        outside |= set(attribute_reads(tree)) | {
            n.value
            for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        }
    modules = {path.stem: path.read_text() for path in MODULES}
    unused = set(unused_public_members(modules, outside))
    # an entry whose member gains a user, or goes, leaves the list
    assert sorted(MEMBERS_UNUSED_ON_PURPOSE - unused) == []
    assert sorted(unused - MEMBERS_UNUSED_ON_PURPOSE) == []


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


def test_importing_the_package_leaves_fixedreal_unloaded():
    code = "import sys, cfrenewal; print('cfrenewal.fixedreal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT / "src", capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def defaulted_parameters(source: str) -> list[tuple[str, str, object]]:
    """(call name, parameter, position) for each parameter with a default.

    position counts a call's positional arguments, so a method's self or
    cls takes none; it is None for a keyword-only parameter.  A class's
    ``__init__`` goes by the class's name, as its calls do.
    """
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, cls)
                continue
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in child.decorator_list
            )
            shift = 1 if cls is not None and not static else 0
            name = cls.name if cls is not None and child.name == "__init__" else child.name
            args = child.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first):
                out.append((name, arg.arg, index - shift))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.append((name, arg.arg, None))
            visit(child, None)

    visit(ast.parse(source), None)
    return out


def unset_parameters(definitions: list[str], callers: list[str]) -> list[str]:
    """``name.parameter`` for each defaulted parameter no call in callers passes.

    A call passes a parameter by keyword, by position, or through a
    ``*`` or ``**`` argument.  Calls match by the name they call.
    """
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passes(call, parameter, position):
        keywords = {k.arg for k in call.keywords}
        if parameter in keywords or None in keywords:
            return True
        if position is None:
            return False
        return len(call.args) > position or any(
            isinstance(a, ast.Starred) for a in call.args
        )

    return [
        f"{name}.{parameter}"
        for source in definitions
        for name, parameter, position in defaulted_parameters(source)
        if not any(passes(c, parameter, position) for c in calls.get(name, []))
    ]


def quick_tour() -> str:
    return re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)


# defaults that only the tests set, kept on purpose
UNSET_ON_PURPOSE = {
    # a table at R=10, N=3, which ROADMAP item 1 checks against the exact
    # law, rejects far more than the default 0.1 % of its samples
    "empirical_pn.max_rejected_fraction",
    # acceptance criterion 5 draws its 100,000 digit rows through the vector form
    "sample_mu2_window.size",
}


def test_the_check_finds_a_parameter_nothing_sets():
    definitions = [
        "def f(x, n=1, *, tol=0.5, mode='a'):\n"
        "    return x\n"
        "class Box:\n"
        "    def __init__(self, lo, hi=1.0):\n"
        "        pass\n"
        "    def scale(self, k=2):\n"
        "        return k\n"
        "    @staticmethod\n"
        "    def unit(side=1):\n"
        "        return side\n"
    ]
    callers = [
        "f(1, 2, tol=0.1)\n"
        "Box(0.0)\n"
        "b.scale(3)\n"
        "Box.unit()\n"
    ]
    # Box(0.0) leaves hi unset; b.scale(3) sets k, one past self
    assert unset_parameters(definitions, callers) == ["f.mode", "Box.hi", "unit.side"]
    more = "f(*xs)\nBox(0, 1)\nBox.unit(**sides)\n"
    assert unset_parameters(definitions, callers + [more]) == ["f.mode"]


def test_every_parameter_has_a_setter():
    skip = {"fixedreal.py", "quadrature.py"}  # kept only for the benchmark's tracer
    definitions = [p.read_text() for p in MODULES if p.name not in skip]
    callers = [p.read_text() for p in [*MODULES, *DEMOS, *BENCH]] + [quick_tour()]
    unset = unset_parameters(definitions, callers)
    # an entry whose parameter gains a setter, or goes, leaves the list
    assert sorted(UNSET_ON_PURPOSE - set(unset)) == []
    assert sorted(set(unset) - UNSET_ON_PURPOSE) == []

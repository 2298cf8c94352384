"""Every demo script, and the README's quick tour, runs against the package in src/."""

import ast
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"

# sha256 of each demo's stdout; every figure a demo prints is seeded, so
# a change of these bytes is a change of some table, curve or point
DEMO_DIGESTS = {
    "01_expansion_basics.py": "0f3105ed1a167a90fa6f073b5825995f9e5ca44ca17fbd79ecc22e1cae70b482",
    "02_invariant_measures.py": "9bda3648e55c485475933981d2c4db1dfb08cd88fe2835213d0f27097c5652a1",
    "03_special_flow.py": "a134252c9405738c46ae7418b61d3be934b03839bcdec951c79f195038126c1c",
    "04_renewal_law.py": "4d33fb0dc1092bc5a7554693cfa75cc8aabee92fcc5275bcecc1f2cab6491dd6",
    "05_mixing.py": "03b43818dc1560d4e259cdf08d9e65c96ddee1db48a040cbee6418e54d097a4c",
}


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[script.name]


def test_readme_quick_tour_runs_and_shows_what_it_prints():
    # the first python block of the README, one statement at a time; an
    # expression whose comment is a Python expression must repr to it
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        code = compile(ast.Module([node], []), "README.md", "exec")
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        try:
            ast.parse(comment, mode="eval")
        except SyntaxError:  # a prose comment
            continue
        assert repr(value) == comment
        checked += 1
    assert checked >= 3

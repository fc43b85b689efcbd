"""The README's library example runs against the package as documented, the
documented configs stay in sync with the field table, and the constants and
calls it names exist in the package."""

import ast
import builtins
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fiberdim.config import DEFAULTS, load_config

ROOT = Path(__file__).resolve().parents[1]


def readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def library_block() -> str:
    section = readme().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    proc = subprocess.run([sys.executable, "-c", library_block()],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3


def test_config_block_is_the_defaults():
    block = re.search(r"```jsonc\n(.*?)```", readme(), re.S).group(1)
    assert json.loads(re.sub(r"//[^\n]*", "", block)) == DEFAULTS


@pytest.mark.parametrize("path", sorted((ROOT / "run_configs").glob("*.json")),
                         ids=lambda path: path.name)
def test_run_config_loads(path):
    load_config(json.loads(path.read_text(encoding="utf-8")))


def inline_code() -> list:
    """Backticked spans of the README outside fenced blocks; a span may wrap."""
    return re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", readme(), flags=re.S))


def package_names() -> tuple:
    """(module-level assigned names, function and class names, class names)
    of src/fiberdim."""
    constants, callables, classes = set(), set(), set()
    for path in (ROOT / "src" / "fiberdim").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants.update(t.id for t in targets if isinstance(t, ast.Name))
        callables.update(node.name for node in ast.walk(tree)
                         if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        classes.update(node.name for node in ast.walk(tree)
                       if isinstance(node, ast.ClassDef))
    return constants, callables, classes


def test_readme_names_resolve():
    # numpy (np.), a Generator (rng.), builtins and the JSON literals
    # Infinity and NaN are not package names
    constants, callables, classes = package_names()
    missing = []
    for span in inline_code():
        if re.fullmatch(r"[A-Z][A-Z0-9_]+", span) and span not in constants:
            missing.append(span)
        if (re.fullmatch(r"[A-Z][a-z]\w*", span) and span not in classes
                and not hasattr(builtins, span) and span not in ("Infinity", "NaN")):
            missing.append(span)
        for name in re.findall(r"(?<![\w.])([A-Za-z_][\w.]*)\(", span):
            parts = name.split(".")
            if parts[0] in ("np", "rng") or hasattr(builtins, name):
                continue
            if parts[-1] not in callables:
                missing.append(name + "(")
    assert not missing, f"README names not defined in src/fiberdim: {missing}"

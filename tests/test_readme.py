"""The README's library example runs against the package as documented, and
the documented configs stay in sync with the field table."""

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

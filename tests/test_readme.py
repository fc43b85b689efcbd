"""The README's library example runs against the package as documented."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    proc = subprocess.run([sys.executable, "-c", library_block()],
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3

"""The README's Quick start block runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import lvkernel

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_block_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(Path(lvkernel.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1.762127 vs exact 1.758795\n"

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.slow
def test_perfbench_smoke():
    # The benchmark wraps package attributes and callables (handle tables,
    # oracle entry points, the CLI); its self-check fails when a refactor
    # renames or removes one of them.
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    last = json.loads(lines[-1])
    assert last["smoke_ok"], proc.stdout[-4000:]
    assert proc.returncode == 0

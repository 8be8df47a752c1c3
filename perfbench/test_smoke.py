"""Smoke test of the benchmark harness, so it cannot rot.

Runs one cycle of every workload, traced, plus one CLI run and one fresh
import each, with every output check and no timing bound. From the
repository root:

    python -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_passes_every_check():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(", 0 failed") == 3, proc.stdout

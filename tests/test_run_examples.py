"""The showcase script, run as a subprocess."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHOWCASES = ["rank-one-cone", "split-favorable", "regularity-favorable", "cubic-convexity:"]


def test_every_showcase_runs():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / "run_examples.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    headers = [line for line in proc.stdout.splitlines() if line.startswith("== ")]
    assert [h.split()[1] for h in headers] == SHOWCASES
    assert "decide: proved by regularity" in proc.stdout
    assert "verdict: proved by split" in proc.stdout

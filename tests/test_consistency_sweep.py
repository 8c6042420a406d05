"""The oracle sweep script, run as a subprocess at a small size."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_small_sweep_agrees_on_all_goals():
    # The script's default seed gives 6 weak Unknowns.  Each costs the
    # witness search all 20 restarts, which run in lockstep batches, so
    # the run takes about 1.2 s.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "consistency_sweep.py"),
         "--count", "15", "--max-n", "3", "--max-k", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout
    assert "15 instances, 60 decisions" in out
    for goal in ("strong_psd", "strong_pd", "weak_psd", "weak_pd"):
        assert f"  {goal} " in out
    assert "proved    by witness" in out and "disproved by necessary" in out
    assert "missed witness" in out
    assert "hertz_min_eig re-checked against LAPACK on 15 relaxations" in out
    assert "no disagreements" in out

"""The oracle sweep script, run as a subprocess at a small size."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_small_sweep_agrees_on_all_goals():
    # The script's default seed gives 6 weak Unknowns, and 4 more on the
    # wide-box families.  Each costs the witness search all 20 restarts,
    # which run in lockstep batches, so the run takes about 1.4 s.  The
    # pinned-shortfall and near-threshold families draw from their own
    # streams, whatever --count.
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
    assert "strong_pd  by split alone:" in out and "strong_pd  by regularity alone:" in out
    assert "by regularity alone on 40 near-singular families: 0 proved, 40 unknown" in out
    assert "all goals  on 40 wide-box families: 98 proved, 58 disproved, 4 unknown" in out
    assert "all goals  on 40 pinned-shortfall families: 107 proved, 53 disproved, 0 unknown" in out
    assert "all goals  on 40 near-threshold families: 122 proved, 38 disproved, 0 unknown" in out
    assert "hertz_min_eig re-checked against LAPACK on 15 relaxations" in out
    assert "no disagreements" in out

"""The oracle sweep script, run as a subprocess at a small size."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_small_sweep_agrees_on_all_goals():
    # The script's default seed gives 6 weak Unknowns on the random row and
    # 4 each on the wide-box and cubic rows.  Each costs the witness search
    # all 20 restarts, which run in lockstep batches; the whole run takes
    # about 3 s.  Every row but the random one draws 40 families from its
    # own stream, whatever --count.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / "consistency_sweep.py"),
         "--count", "15", "--max-n", "3", "--max-k", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = proc.stdout
    # Each row's lines start with its label; runs of spaces from the column padding count as one.
    lines = {" ".join(line.split()) for line in out.splitlines()}
    assert "255 families, 1020 decisions" in out
    assert "random all goals on 15 families: 20 proved, 34 disproved, 6 unknown" in lines
    for goal in ("strong_psd", "strong_pd", "weak_psd", "weak_pd"):
        assert any(line.startswith(f"random {goal} ") for line in lines)
    assert "proved    by witness" in out and "disproved by necessary" in out
    assert "missed witness" in out
    assert "random strong_pd by split alone: 3 proved and checked, 12 unknown" in lines
    assert "random strong_pd by regularity alone: 3 proved and checked, 12 unknown" in lines
    assert "near-singular strong_pd by regularity alone: 0 proved and checked, 40 unknown" in lines
    assert "near-singular strong_pd disproved by vertex : 40" in lines
    assert "wide-box all goals on 40 families: 98 proved, 58 disproved, 4 unknown" in lines
    assert "wide-box strong_pd by regularity alone: 4 proved and checked, 36 unknown" in lines
    assert "pinned-shortfall all goals on 40 families: 107 proved, 53 disproved, 0 unknown" in lines
    assert "near-threshold all goals on 40 families: 122 proved, 38 disproved, 0 unknown" in lines
    assert "cubic all goals on 40 families: 40 proved, 116 disproved, 4 unknown" in lines
    assert "block-diagonal all goals on 40 families: 124 proved, 36 disproved, 0 unknown" in lines
    assert "block-diagonal strong_pd by regularity alone: 18 proved and checked, 22 unknown" in lines
    assert "near-threshold vertex proofs: 35 screened, 7 eigen-solved, 0 mixed, 0 over the exact set" in lines
    assert "block-diagonal vertex proofs: 6 screened, 0 eigen-solved, 0 mixed, 0 over the exact set" in lines
    assert "random hertz_min_eig re-checked against LAPACK on 15 relaxations" in lines
    for label in ("near-singular", "wide-box", "pinned-shortfall", "near-threshold", "cubic", "block-diagonal"):
        assert f"{label} hertz_min_eig re-checked against LAPACK on 40 relaxations" in lines
    assert "no disagreements" in out

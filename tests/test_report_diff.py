"""The report-diff script, run as a subprocess on the workloads' smoke instances."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "report_diff.py"

# A checkout whose CLI answers "unknown by none" to everything.
STUB_CLI = '''
import json

def main(argv):
    print(json.dumps({"status": "unknown", "method": "none", "certificate": None}))
    return 2
'''


def run_diff(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--smoke", str(old), str(new)],
        capture_output=True, text=True, timeout=120,
    )


def test_repo_against_itself_is_bit_identical():
    proc = run_diff(ROOT, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # Smoke slots: 3 strong-vertex, 3 weak and 2 convex instances, for seeds 1 and 12.
    assert "16 reports, 16 bit-identical" in proc.stdout
    assert "certificate.min_eig" in proc.stdout
    assert "no exit-code, status, method or certificate-type mismatches" in proc.stdout


def test_changed_answers_exit_nonzero(tmp_path):
    package = tmp_path / "src" / "psdparam"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_CLI)
    proc = run_diff(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "16 reports, 0 bit-identical" in proc.stdout
    assert "16 exit-code, status, method or certificate-type mismatches" in proc.stdout

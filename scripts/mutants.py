#!/usr/bin/env python3
"""The mutation table: small faults in ``src/`` that Tier-1 or the consistency sweep must catch.

    python scripts/mutants.py              # every mutant
    python scripts/mutants.py ID [ID ...]  # the named ones

Each row of ``MUTANTS`` holds an id, a file under ``src/psdparam/``, a snippet
that must occur in it exactly once, the snippet's replacement, and the
CHANGES.md line (or ROADMAP item) that recorded the mutant.  For each one
the runner copies the checkout's ``src``, ``tests``, ``scripts``,
``perfbench`` and ``pyproject.toml`` into a temporary directory, applies the
replacement there, and runs Tier-1 with ``-x``, less ``tests/test_mutants.py``,
which checks the snippets themselves; only when Tier-1 passes does
it run the consistency sweep at ``--count 100``.  A mutant that passes both
survives.  The checkout itself is never written.

Exits 1 when a snippet is missing or occurs more than once (a refactor must
update the table) or when any mutant survives; 0 when every mutant is
killed.  One mutant runs at a time.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    id: str
    file: str  # relative to src/psdparam/
    snippet: str
    replacement: str
    source: str


MUTANTS = (
    # ROADMAP item 15's list.
    Mutant("passes-pd-ge", "symlinalg.py",
           'return values > tol if kind == "pd"', 'return values >= tol if kind == "pd"', "ROADMAP item 15"),
    Mutant("screen-margin-zero", "definiteness.py",
           "margin = 2.0 * (gamma_k * reach", "margin = 0.0 * (gamma_k * reach", "ROADMAP item 15"),
    Mutant("screen-shortfall-dropped", "definiteness.py",
           't = (tol if kind == "pd" else -tol) + shortfall', 't = tol if kind == "pd" else -tol', "ROADMAP item 15"),
    Mutant("split-at-midpoint", "definiteness.py",
           "_split_combination(p, p.box.inf(), p.box.sup())", "_split_combination(p, p.box.mid(), p.box.mid())",
           "ROADMAP item 15"),
    Mutant("necessary-at-midpoint", "definiteness.py",
           "_split_combination(p, p.box.sup(), p.box.inf())", "_split_combination(p, p.box.mid(), p.box.mid())",
           "ROADMAP item 15"),
    Mutant("vertex-rescan-skipped", "definiteness.py",
           "verdict = _scan_vertices(p, enum.exact(), kind, tol, budget)", "pass", "ROADMAP item 15"),
    Mutant("beeck-shift-term-zero", "definiteness.py", "g += shift * abs_c", "g += 0.0 * abs_c", "ROADMAP item 15"),
    Mutant("beeck-rounding-term-zero", "definiteness.py",
           "g += (n + 1) * u * (abs_c @", "g += 0.0 * u * (abs_c @", "ROADMAP item 15"),
    Mutant("hertz-last-block-dropped", "definiteness.py",
           "for z in blocks)", "for z in list(blocks)[:-1])", "CHANGES.md line 445"),
    Mutant("witness-pretest-removed", "definiteness.py",
           "ok = passes(values, kind, tol)\n    if ok.any():", "ok = passes(values, kind, tol)\n    if False:",
           "ROADMAP item 15"),
    Mutant("first-minimum-last", "definiteness.py",
           "i = int(np.argmin(values))", "i = len(values) - 1 - int(np.argmin(values[::-1]))",
           "CHANGES.md line 487"),
    Mutant("rho-margin-sign", "definiteness.py", "cert.rho < 1.0 - RHO_MARGIN", "cert.rho < 1.0 + RHO_MARGIN",
           "CHANGES.md line 488"),
    # Recorded one at a time by earlier changes.
    Mutant("witness-ternary-tie", "definiteness.py", "left = f[0::2] < f[1::2]", "left = f[0::2] <= f[1::2]",
           "CHANGES.md line 18"),
    Mutant("decide-no-early-stop", "definiteness.py",
           "if not verdict.unknown:\n            break", "if False:\n            break", "CHANGES.md line 30"),
    Mutant("rescan-ends-a-block-early", "definiteness.py", "cleared = stop", "cleared = start", "CHANGES.md line 392"),
    Mutant("tail-any-whitespace", "cubic.py", "text[pos:].lstrip(_BLANKS)", "text[pos:].lstrip()",
           "CHANGES.md line 490"),
    Mutant("token-any-whitespace", "cubic.py", 'rf"""[{_BLANKS}]*(?:', 'rf"""\\s*(?:', "CHANGES.md line 490"),
    Mutant("token-unicode-digits", "cubic.py", "(?P<var>x[0-9]+|", "(?P<var>x\\d+|", "CHANGES.md line 433"),
    # The stack Jacobi kernel, its caller and the parser's dangling '*'.
    Mutant("jacobi-no-convergence-mask", "symlinalg.py", "act &= alive", "pass", "CHANGES.md line 497"),
    Mutant("jacobi-no-skip-mask", "symlinalg.py",
           "np.greater(np.abs(w[:, p, r], out=x), skip, out=act)", "act.fill(True)", "CHANGES.md line 497"),
    Mutant("jacobi-sqrt-for-hypot", "symlinalg.py",
           "np.hypot(1.0, tau, out=t)", "np.sqrt(1.0 + tau * tau, out=t)", "CHANGES.md line 497"),
    Mutant("hertz-min-for-sorted-first", "definiteness.py",
           "[:, 0].tolist()", ".min(axis=1).tolist()", "CHANGES.md line 497"),
    Mutant("dangling-star-accepted", "cubic.py",
           'if tokens[t + 1][0] != "var":', 'if False:', "CHANGES.md line 497"),
)


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the mutant's snippet in ``root``'s copy of its file; ValueError unless it occurs exactly once."""
    path = root / "src" / "psdparam" / mutant.file
    text = path.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"{mutant.id}: snippet occurs {count} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def run(mutant: Mutant) -> str:
    """'killed by tier-1', 'killed by sweep' or 'survived', from a temporary copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.id}-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, root / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy2(source, root / name)
        apply(root, mutant)
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        # test_mutants.py checks the table's snippets, which the mutant has just replaced.
        tier1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"]
        if subprocess.run(tier1, cwd=root, env=env, capture_output=True).returncode:
            return "killed by tier-1"
        sweep = [sys.executable, "-W", "error::RuntimeWarning", "scripts/consistency_sweep.py", "--count", "100"]
        if subprocess.run(sweep, cwd=root, env=env, capture_output=True).returncode:
            return "killed by sweep"
        return "survived"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ids", nargs="*", help="mutant ids to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.id: m for m in MUTANTS}
    unknown = [i for i in args.ids if i not in known]
    if unknown:
        parser.error(f"unknown mutant ids: {', '.join(unknown)}")
    chosen = [known[i] for i in args.ids] if args.ids else list(MUTANTS)
    failed = 0
    for m in chosen:
        t0 = time.perf_counter()
        try:
            outcome = run(m)
        except ValueError as exc:
            outcome = f"not applied: {exc}"
        failed += not outcome.startswith("killed")
        print(f"{m.id:28} {outcome} ({time.perf_counter() - t0:.1f} s)", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

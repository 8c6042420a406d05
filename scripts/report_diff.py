#!/usr/bin/env python3
"""Compare the CLI reports of two psdparam checkouts on the benchmark's instances.

Builds the instances of every benchmark workload for seeds 1 and 12 with
``perfbench/workloads.build`` from this checkout, then runs each
checkout's ``psdparam.cli.main`` over all of them, one subprocess per
checkout with BLAS threads pinned to one.  Reports are compared without
``timings_ms`` and ``input``.  Prints how many reports are bit-identical
and, per JSON field, the largest relative difference between numbers.
Exits 1 on any exit-code, status, method or certificate-type mismatch:

    python scripts/report_diff.py OLD_ROOT NEW_ROOT
    python scripts/report_diff.py --smoke . .    # the workloads' small smoke instances
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Pin BLAS before numpy loads, here and in the subprocesses that inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, build  # noqa: E402

SEEDS = (1, 12)
IGNORED = ("timings_ms", "input")

# Runs in the subprocess: argv lists on stdin, one {"exit", "stdout"} per list on stdout.
CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
from psdparam import cli
runs = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:
        code = f"{type(exc).__name__}: {exc}"
    runs.append({"exit": code, "stdout": out.getvalue()})
json.dump({"module": cli.__file__, "runs": runs}, sys.stdout)
"""


def run_checkout(root: Path, argvs: list) -> list:
    """Each argv's exit code and report (None when stdout is not one JSON line) under ``root``'s CLI."""
    src = (root / "src").resolve()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(src)], input=json.dumps(argvs), capture_output=True, text=True, check=True
    )
    doc = json.loads(proc.stdout)
    if not Path(doc["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"error: {root} ran psdparam from {doc['module']}, not from {src}")
    results = []
    for run in doc["runs"]:
        try:
            report = json.loads(run["stdout"])
        except json.JSONDecodeError:
            report = None
        if isinstance(report, dict):
            for key in IGNORED:
                report.pop(key, None)
        results.append((run["exit"], report))
    return results


def leaves(doc, path=""):
    """(field, value) for every scalar in ``doc``; list items share their list's field name plus ``[]``."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from leaves(doc[key], f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for item in doc:
            yield from leaves(item, path + "[]")
    else:
        yield path, doc


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def key_fields(exit_code, report) -> tuple:
    cert = (report or {}).get("certificate") or {}
    return exit_code, (report or {}).get("status"), (report or {}).get("method"), cert.get("type")


def compare(labels: list, old: list, new: list) -> int:
    identical = 0
    largest: dict = {}
    differing: set = set()
    mismatches = []
    for label, (old_exit, a), (new_exit, b) in zip(labels, old, new):
        if old_exit == new_exit and json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True):
            identical += 1
        if key_fields(old_exit, a) != key_fields(new_exit, b):
            mismatches.append(f"{label}: {key_fields(old_exit, a)} -> {key_fields(new_exit, b)}")
            continue
        la, lb = list(leaves(a)), list(leaves(b))
        if [f for f, _ in la] != [f for f, _ in lb]:
            differing.add(f"{label} (fields)")
            continue
        for (field, x), (_, y) in zip(la, lb):
            if is_number(x) and is_number(y):
                scale = max(abs(x), abs(y))
                rel = abs(x - y) / scale if scale and x != y else 0.0
                largest[field] = max(largest.get(field, 0.0), rel)
            elif x != y:
                differing.add(field)

    print(f"{len(labels)} reports, {identical} bit-identical")
    print("largest relative difference per numeric field:")
    for field in sorted(largest):
        print(f"  {field:<36} {largest[field]:.3g}")
    if differing:
        print(f"non-numeric differences in: {', '.join(sorted(differing))}")
    if mismatches:
        print(f"{len(mismatches)} exit-code, status, method or certificate-type mismatches:")
        for line in mismatches:
            print(f"  {line}")
        return 1
    print("no exit-code, status, method or certificate-type mismatches")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path, help="checkout whose src/ gives the reference reports")
    parser.add_argument("new_root", type=Path, help="checkout compared against it")
    parser.add_argument("--smoke", action="store_true", help="the workloads' small smoke instances")
    args = parser.parse_args(argv)
    for root in (args.old_root, args.new_root):
        if not (root / "src" / "psdparam" / "cli.py").is_file():
            parser.error(f"no psdparam sources under {root / 'src'}")

    with tempfile.TemporaryDirectory() as tmp:
        labels, argvs = [], []
        for workload in WORKLOADS:
            for seed in SEEDS:
                workdir = Path(tmp) / f"{workload}-{seed}"
                workdir.mkdir()
                for slot, inst in enumerate(build(workload, seed, workdir, smoke=args.smoke)):
                    labels.append(f"{workload} seed {seed} slot {slot} ({inst.label})")
                    argvs.append(inst.argv)
        old = run_checkout(args.old_root, argvs)
        new = run_checkout(args.new_root, argvs)
    return compare(labels, old, new)


if __name__ == "__main__":
    sys.exit(main())

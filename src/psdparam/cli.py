"""Command-line front end.

Two subcommands: ``check`` decides a definiteness goal for a parametric
matrix problem given as JSON, and ``convex`` certifies convexity of a
cubic polynomial on a box.  The machine-readable report goes to stdout as
one compact JSON line (schema shipped in ``schemas/run_report.schema.json``);
a one-line human summary goes to stderr.  Exit codes: 0 proved,
1 disproved, 2 unknown, 64 input error or LAPACK failure, 70 any other
exception, a defect, whose traceback goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import re
import sys
import time
from importlib import resources
from typing import Optional, get_args

from . import definiteness as df
from .cubic import certify_convexity, parse as parse_poly, variable_index
from .intervals import _check_bounds
from .parametric import FamilyOverflowError, ParameterBox, problem_from_json
from .symlinalg import ConvergenceError, SymMatrix

EXIT_PROVED = 0
EXIT_DISPROVED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 64  # sysexits' EX_USAGE
EXIT_INTERNAL_ERROR = 70  # sysexits' EX_SOFTWARE: never 1, which a caller would read as disproved

_STATUS_EXIT = {
    df.Status.PROVED: EXIT_PROVED,
    df.Status.DISPROVED: EXIT_DISPROVED,
    df.Status.UNKNOWN: EXIT_UNKNOWN,
}
_CERTIFICATE_TYPES = get_args(df.Certificate)  # resolved once, not per report


class InputError(ValueError):
    """Anything wrong with the invocation or its input files."""


def report_schema() -> dict:
    """The published JSON schema for the report documents."""
    text = resources.files("psdparam").joinpath("schemas/run_report.schema.json").read_text()
    return json.loads(text)


def certificate_to_jsonable(cert) -> Optional[dict]:
    """``{"type": cert.json_type, <field>: <value>, ...}``, a SymMatrix as nested lists, a tuple as a list.

    An optional field (one that defaults to None) is left out while it is None; any other None is null.
    """
    if cert is None:
        return None
    if not isinstance(cert, _CERTIFICATE_TYPES):
        raise TypeError(f"unknown certificate type {type(cert).__name__}")
    doc = {"type": cert.json_type}
    for field in dataclasses.fields(cert):
        value = getattr(cert, field.name)
        if value is None and field.default is None:
            continue
        if isinstance(value, SymMatrix):
            value = value.array.tolist()
        doc[field.name] = list(value) if isinstance(value, tuple) else value
    return doc


def cmd_check(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from exc
    try:
        problem = problem_from_json(text)
    except ValueError as exc:
        raise InputError(f"malformed problem file: {exc}") from exc

    goal = args.goal.replace("-", "_")
    t0 = time.perf_counter()
    try:
        verdict = df.decide(problem, goal, tol=args.tol, vertex_budget=args.vertex_budget, method=args.method)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    total = (time.perf_counter() - t0) * 1e3

    extra = {"goal": args.goal, "input": args.file}
    return _emit(verdict, total, extra, f"{args.goal}: ")


# ASCII only, as float() reads any Unicode digit: low is [^:] and high is . (no newline), each cut to ASCII.
_BOX_RE = re.compile(r"^([A-Za-z]\w*)=([\x00-9;-\x7f]+):([\x00-\t\x0b-\x7f]+)$", re.ASCII)


def _parse_box_flags(flags, n: int) -> ParameterBox:
    assigned: dict[int, tuple[float, float]] = {}
    for flag in flags:
        m = _BOX_RE.match(flag)
        if m is None:
            raise InputError(f"--box expects name=low:high, got {flag!r}")
        name, lo_s, hi_s = m.groups()
        try:
            idx = variable_index(name)
        except ValueError as exc:
            raise InputError(f"--box: {exc}") from exc
        if idx > n:
            raise InputError(f"--box variable {name!r} is outside x1..x{n}")
        if idx in assigned:
            raise InputError(f"duplicate --box for variable x{idx}")
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError as exc:
            raise InputError(f"--box bounds must be numbers, got {flag!r}") from exc
        try:
            _check_bounds(lo, hi)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        assigned[idx] = (lo, hi)
    # Stop at the fourth missing variable: n may be far too large to scan.
    missing = list(itertools.islice((f"x{i}" for i in range(1, n + 1) if i not in assigned), 4))
    if missing:
        names = ", ".join(missing[:3]) + (", ..." if len(missing) > 3 else "")
        raise InputError(f"missing --box for {names}")
    return ParameterBox.from_bounds(assigned[i] for i in range(1, n + 1))


def cmd_convex(args) -> int:
    try:
        poly = parse_poly(args.expression)
    except ValueError as exc:
        raise InputError(f"cannot parse polynomial: {exc}") from exc
    if poly.n < 1:
        raise InputError("polynomial has no variables; nothing to certify")
    box = _parse_box_flags(args.box or [], poly.n)

    t0 = time.perf_counter()
    try:
        result = certify_convexity(poly, box, tol=args.tol, vertex_budget=args.vertex_budget)
    except FamilyOverflowError as exc:
        raise InputError(str(exc)) from exc
    total = (time.perf_counter() - t0) * 1e3

    extra = {
        "expression": args.expression,
        "box": {f"x{i}": [lo, hi] for i, (lo, hi) in enumerate(zip(box.inf().tolist(), box.sup().tolist()), 1)},
        "diagnostics": {
            "relaxation_strongly_psd": result.relaxation_strongly_psd,
            "hertz_min_eig": result.relaxation_min_eig,
        },
    }
    return _emit(result.verdict, total, extra, "convexity: ")


def _emit(verdict: df.Verdict, total_ms: float, extra: dict, label: str) -> int:
    """Print the report (``timings_ms`` is ``verdict.stage_ms`` plus ``total``) and the summary; return the exit code."""
    report = {
        "status": verdict.status.value,
        "method": verdict.method,
        "certificate": certificate_to_jsonable(verdict.certificate),
        "timings_ms": {**dict(verdict.stage_ms), "total": total_ms},
        "tolerances": {"definiteness": verdict.tol, "rho_margin": df.RHO_MARGIN},
        "detail": verdict.detail,
        **extra,
    }
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    print(f"{label}{verdict.status.value} by {verdict.method}", file=sys.stderr)
    return _STATUS_EXIT[verdict.status]


def _tolerance(text: str) -> float:
    try:
        return df.check_tol(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _vertex_budget(text: str) -> int:
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"vertex budget must be a nonnegative integer, got {text}")
    return value


_vertex_budget.__name__ = "vertex budget"  # argparse names the type in "invalid <name> value"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdparam",
        description="Definiteness certificates for symmetric linear parametric interval matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=None, help="definiteness tolerance (default: family-derived)")
    common.add_argument("--vertex-budget", type=_vertex_budget, default=df.DEFAULT_VERTEX_BUDGET, help="max vertices before the vertex route gives up")

    check = sub.add_parser("check", parents=[common], help="decide a definiteness goal for a parametric matrix problem")
    check.add_argument("file", help="problem JSON file")
    check.add_argument(
        "--goal",
        required=True,
        choices=[goal.replace("_", "-") for goal in df.GOALS],
    )
    check.add_argument(
        "--method",
        default="auto",
        choices=["auto", *(s.name for s in df.STAGES)],
        help="force a single decision procedure instead of the cascade",
    )

    convex = sub.add_parser("convex", parents=[common], help="certify convexity of a cubic polynomial on a box")
    convex.add_argument("expression", help="cubic polynomial, e.g. 'x1^2 + 2 x1 x2'")
    convex.add_argument("--box", action="append", metavar="VAR=LO:HI", help="variable domain; repeat per variable")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold into the input-error code.
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    # Look the command up by name on each call, so a wrapper installed on
    # the module (a tracer, a test spy) is the one that runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (InputError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception:
        import traceback  # only a crash needs it; every run pays for a top-level import

        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

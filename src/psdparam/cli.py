"""Command-line front end.

Two subcommands: ``check`` decides a definiteness goal for a parametric
matrix problem given as JSON, and ``convex`` certifies convexity of a
cubic polynomial on a box.  The machine-readable report goes to stdout as
one compact JSON line (schema shipped in ``schemas/run_report.schema.json``);
a one-line human summary goes to stderr.  Exit codes: 0 proved,
1 disproved, 2 unknown, 64 input error.
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
from .cubic import ALIASES, certify_convexity, hessian, parse as parse_poly
from .intervals import Interval
from .parametric import ParameterBox, family_tol, problem_from_json
from .symlinalg import SymMatrix

EXIT_PROVED = 0
EXIT_DISPROVED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 64

_STATUS_EXIT = {
    df.Status.PROVED: EXIT_PROVED,
    df.Status.DISPROVED: EXIT_DISPROVED,
    df.Status.UNKNOWN: EXIT_UNKNOWN,
}


class InputError(ValueError):
    """Anything wrong with the invocation or its input files."""


def report_schema() -> dict:
    """The published JSON schema for the report documents."""
    text = resources.files("psdparam").joinpath("schemas/run_report.schema.json").read_text()
    return json.loads(text)


def certificate_to_jsonable(cert) -> Optional[dict]:
    """``{"type": cert.json_type, <field>: <value>, ...}``, a SymMatrix as nested lists, a tuple as a list."""
    if cert is None:
        return None
    if not isinstance(cert, get_args(df.Certificate)):
        raise TypeError(f"unknown certificate type {type(cert).__name__}")
    doc = {"type": cert.json_type}
    for field in dataclasses.fields(cert):
        value = getattr(cert, field.name)
        if isinstance(value, SymMatrix):
            value = value.array.tolist()
        doc[field.name] = list(value) if isinstance(value, tuple) else value
    return doc


def _finite_family_tol(family) -> float:
    """The family's default tolerance; InputError when its members overflow over the box."""
    try:
        return family_tol(family)
    except ValueError as exc:
        raise InputError("member matrices overflow double precision over the parameter box") from exc


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
    default_tol = _finite_family_tol(problem)

    goal = args.goal.replace("-", "_")
    timings: dict = {}
    t0 = time.perf_counter()
    try:
        verdict = df.decide(
            problem,
            goal,
            tol=args.tol,
            vertex_budget=args.vertex_budget,
            seed=args.seed,
            timings=timings,
            method=args.method,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    timings["total"] = (time.perf_counter() - t0) * 1e3

    extra = {"goal": args.goal, "input": args.file}
    return _emit(verdict, timings, args.tol if args.tol is not None else default_tol, extra, f"{args.goal}: ")


_BOX_RE = re.compile(r"^([A-Za-z]\w*)=([^:]+):(.+)$")


def _parse_box_flags(flags, n: int) -> ParameterBox:
    assigned: dict[int, Interval] = {}
    for flag in flags:
        m = _BOX_RE.match(flag)
        if m is None:
            raise InputError(f"--box expects name=low:high, got {flag!r}")
        name, lo_s, hi_s = m.groups()
        if re.fullmatch(r"x\d+", name):
            idx = int(name[1:])
        elif name in ALIASES:
            idx = ALIASES[name]
        else:
            raise InputError(f"unknown variable {name!r} in --box")
        if not 1 <= idx <= n:
            raise InputError(f"--box variable {name!r} is outside x1..x{n}")
        if idx in assigned:
            raise InputError(f"duplicate --box for variable x{idx}")
        try:
            lo, hi = float(lo_s), float(hi_s)
        except ValueError as exc:
            raise InputError(f"--box bounds must be numbers, got {flag!r}") from exc
        try:
            assigned[idx] = Interval(lo, hi)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    # Stop at the fourth missing variable: n may be far too large to scan.
    missing = list(itertools.islice((f"x{i}" for i in range(1, n + 1) if i not in assigned), 4))
    if missing:
        names = ", ".join(missing[:3]) + (", ..." if len(missing) > 3 else "")
        raise InputError(f"missing --box for {names}")
    return ParameterBox(assigned[i] for i in range(1, n + 1))


def cmd_convex(args) -> int:
    try:
        poly = parse_poly(args.expression)
    except ValueError as exc:
        raise InputError(f"cannot parse polynomial: {exc}") from exc
    if poly.n < 1:
        raise InputError("polynomial has no variables; nothing to certify")
    box = _parse_box_flags(args.box or [], poly.n)
    try:
        family = hessian(poly, box)
    except ValueError as exc:
        raise InputError(f"cannot form the Hessian: {exc}") from exc
    default_tol = _finite_family_tol(family)

    timings: dict = {}
    t0 = time.perf_counter()
    result = certify_convexity(poly, box, tol=args.tol, vertex_budget=args.vertex_budget, timings=timings)
    timings["total"] = (time.perf_counter() - t0) * 1e3

    extra = {
        "expression": args.expression,
        "box": {f"x{i + 1}": [iv.inf, iv.sup] for i, iv in enumerate(box.intervals)},
        "diagnostics": {
            "relaxation_strongly_psd": result.relaxation_strongly_psd,
            "hertz_min_eig": result.relaxation_min_eig,
        },
    }
    return _emit(result.verdict, timings, args.tol if args.tol is not None else default_tol, extra, "convexity: ")


def _emit(verdict: df.Verdict, timings: dict, tol: float, extra: dict, label: str) -> int:
    """Print the report as one JSON line and the summary to stderr; return the exit code."""
    report = {
        "status": verdict.status.value,
        "method": verdict.method,
        "certificate": certificate_to_jsonable(verdict.certificate),
        "timings_ms": timings,
        "tolerances": {"definiteness": tol, "rho_margin": df.RHO_MARGIN},
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


def _nonnegative_int(what: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} must be a nonnegative integer, got {text}")
        return value
    parse.__name__ = what  # argparse names the type in "invalid <name> value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdparam",
        description="Definiteness certificates for symmetric linear parametric interval matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=None, help="definiteness tolerance (default: family-derived)")
    common.add_argument("--vertex-budget", type=_nonnegative_int("vertex budget"), default=df.DEFAULT_VERTEX_BUDGET, help="max vertices before the vertex route gives up")
    common.add_argument("--seed", type=_nonnegative_int("seed"), default=df.DEFAULT_SEED, help="seed for the witness search")

    check = sub.add_parser("check", parents=[common], help="decide a definiteness goal for a parametric matrix problem")
    check.add_argument("file", help="problem JSON file")
    check.add_argument(
        "--goal",
        required=True,
        choices=["strong-psd", "strong-pd", "weak-psd", "weak-pd"],
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

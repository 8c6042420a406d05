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
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from . import definiteness as df
from .cubic import ALIASES, certify_convexity, hessian, parse as parse_poly
from .intervals import Interval
from .parametric import ParameterBox, family_tol, problem_from_json

EXIT_PROVED = 0
EXIT_DISPROVED = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 64

TOL_ENV_VAR = "PSDPARAM_TOL"

_STATUS_EXIT = {
    df.Status.PROVED: EXIT_PROVED,
    df.Status.DISPROVED: EXIT_DISPROVED,
    df.Status.UNKNOWN: EXIT_UNKNOWN,
}


class InputError(ValueError):
    """Anything wrong with the invocation or its input files."""


@dataclass
class RunReport:
    """Everything a solver pipeline needs to consume one invocation."""

    status: str
    method: str
    certificate: Optional[dict]
    timings_ms: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {
            "status": self.status,
            "method": self.method,
            "certificate": self.certificate,
            "timings_ms": self.timings_ms,
            "tolerances": self.tolerances,
        }
        doc.update(self.extra)
        return doc


def report_schema() -> dict:
    """The published JSON schema for RunReport documents."""
    text = resources.files("psdparam").joinpath("schemas/run_report.schema.json").read_text()
    return json.loads(text)


def certificate_to_jsonable(cert) -> Optional[dict]:
    if cert is None:
        return None
    if isinstance(cert, df.VertexList):
        return {
            "type": "vertex_list",
            "checked": cert.checked,
            "worst_vertex": list(cert.worst_vertex),
            "worst_min_eig": cert.worst_min_eig,
        }
    if isinstance(cert, df.CounterexampleVertex):
        return {"type": "counterexample_vertex", "p": list(cert.p), "min_eig": cert.min_eig}
    if isinstance(cert, df.SplitWitness):
        return {"type": "split_witness", "matrix": cert.matrix.array.tolist(), "min_eig": cert.min_eig}
    if isinstance(cert, df.BeeckWitness):
        return {"type": "beeck", "rho": cert.rho, "converged": cert.converged}
    if isinstance(cert, df.NecessaryFailure):
        return {"type": "necessary_failure", "matrix": cert.matrix.array.tolist(), "min_eig": cert.min_eig}
    if isinstance(cert, df.WitnessPoint):
        return {"type": "witness_point", "p": list(cert.p), "min_eig": cert.min_eig}
    raise TypeError(f"unknown certificate type {type(cert).__name__}")


def _resolve_tol(arg_tol: Optional[float]) -> Optional[float]:
    if arg_tol is not None:
        return arg_tol
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise InputError(f"environment variable {TOL_ENV_VAR}={raw!r} is not a number") from exc


def _finite_family_tol(family) -> float:
    """The family's default tolerance; InputError when its members overflow over the box."""
    t = family_tol(family)
    if not math.isfinite(t):
        raise InputError("member matrices overflow double precision over the parameter box")
    return t


def _forced_method(problem, goal: str, method: str, tol, budget):
    strong = goal.startswith("strong")
    pd = goal.endswith("pd")
    if method == "split":
        if not strong:
            raise InputError("--method split applies to strong goals only")
        return (df.strong_pd_split if pd else df.strong_psd_split)(problem, tol=tol)
    if method == "regularity":
        if goal != "strong_pd":
            raise InputError("--method regularity applies to --goal strong-pd only")
        return df.strong_pd_regularity(problem, tol=tol)
    if method == "vertex":
        if not strong:
            raise InputError("--method vertex applies to strong goals only")
        return (df.strong_pd if pd else df.strong_psd)(problem, tol=tol, budget=budget)
    if method == "necessary":
        if strong:
            raise InputError("--method necessary applies to weak goals only")
        return (df.weak_pd_necessary if pd else df.weak_psd_necessary)(problem, tol=tol)
    raise InputError(f"unknown method {method!r}")


def cmd_check(args) -> int:
    try:
        text = open(args.file, "r", encoding="utf-8").read()
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc}") from exc
    try:
        problem = problem_from_json(text)
    except (ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed problem file: {exc}") from exc
    default_tol = _finite_family_tol(problem)

    goal = args.goal.replace("-", "_")
    tol = _resolve_tol(args.tol)
    timings: dict = {}
    t0 = time.perf_counter()
    if args.method == "auto":
        verdict = df.decide(
            problem,
            goal,
            tol=tol,
            vertex_budget=args.vertex_budget,
            seed=args.seed,
            timings=timings,
        )
    else:
        verdict = _forced_method(problem, goal, args.method, tol, args.vertex_budget)
    timings["total"] = (time.perf_counter() - t0) * 1e3

    report = RunReport(
        status=verdict.status.value,
        method=verdict.method,
        certificate=certificate_to_jsonable(verdict.certificate),
        timings_ms=timings,
        tolerances={
            "definiteness": tol if tol is not None else default_tol,
            "rho_margin": df.RHO_MARGIN,
        },
        extra={"goal": args.goal, "input": args.file, "detail": verdict.detail},
    )
    return _emit(report, f"{args.goal}: {verdict.status.value} by {verdict.method}")


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
    missing = [f"x{i}" for i in range(1, n + 1) if i not in assigned]
    if missing:
        raise InputError(f"missing --box for {', '.join(missing)}")
    return ParameterBox(assigned[i] for i in range(1, n + 1))


def cmd_convex(args) -> int:
    try:
        poly = parse_poly(args.expression)
    except ValueError as exc:
        raise InputError(f"cannot parse polynomial: {exc}") from exc
    if poly.n < 1:
        raise InputError("polynomial has no variables; nothing to certify")
    box = _parse_box_flags(args.box or [], poly.n)
    default_tol = _finite_family_tol(hessian(poly, box))

    tol = _resolve_tol(args.tol)
    timings: dict = {}
    t0 = time.perf_counter()
    result = certify_convexity(poly, box, tol=tol, vertex_budget=args.vertex_budget, timings=timings)
    timings["total"] = (time.perf_counter() - t0) * 1e3

    verdict = result.verdict
    applied_tol = tol if tol is not None else default_tol
    report = RunReport(
        status=verdict.status.value,
        method=verdict.method,
        certificate=certificate_to_jsonable(verdict.certificate),
        timings_ms=timings,
        tolerances={"definiteness": applied_tol, "rho_margin": df.RHO_MARGIN},
        extra={
            "expression": args.expression,
            "box": {f"x{i + 1}": [iv.inf, iv.sup] for i, iv in enumerate(box.intervals)},
            "detail": verdict.detail,
            "diagnostics": {
                "relaxation_strongly_psd": result.relaxation_strongly_psd,
                "hertz_min_eig": result.relaxation_min_eig,
            },
        },
    )
    summary = f"convexity: {verdict.status.value} by {verdict.method}"
    return _emit(report, summary)


def _emit(report: RunReport, summary: str) -> int:
    print(json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":")))
    print(summary, file=sys.stderr)
    return _STATUS_EXIT[df.Status(report.status)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdparam",
        description="Definiteness certificates for symmetric linear parametric interval matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help=f"definiteness tolerance (default: family-derived; env {TOL_ENV_VAR})")
    common.add_argument("--vertex-budget", type=int, default=df.DEFAULT_VERTEX_BUDGET, help="max vertices before the vertex route gives up")
    common.add_argument("--seed", type=int, default=df.DEFAULT_SEED, help="seed for the witness search")

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
        choices=["auto", "split", "regularity", "vertex", "necessary"],
        help="force a single decision procedure instead of the cascade",
    )
    check.set_defaults(func=cmd_check)

    convex = sub.add_parser("convex", parents=[common], help="certify convexity of a cubic polynomial on a box")
    convex.add_argument("expression", help="cubic polynomial, e.g. 'x1^2 + 2 x1 x2'")
    convex.add_argument("--box", action="append", metavar="VAR=LO:HI", help="variable domain; repeat per variable")
    convex.set_defaults(func=cmd_convex)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold into the input-error code.
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

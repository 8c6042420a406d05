#!/usr/bin/env python3
"""Randomized cross-validation of the decision cascade against brute force.

Draws random parametric families and runs the full cascade for all four
goals.  Every strong verdict that is not Unknown is checked against the
unreduced vertex enumeration, and every vertex certificate is re-checked
too: a counterexample's smallest eigenvalue, recomputed with LAPACK at
its point, must match the reported one within the family tolerance, and
a vertex list must count every reduced vertex.

Weak verdicts are re-checked with LAPACK alone.  A witness point must lie
in the box, pass the goal, and match its reported smallest eigenvalue
within the family tolerance.  A weak Disproved is contradicted by any
point of a grid with GRID_POINTS points per axis that passes the goal;
each axis includes both endpoints, so the grid holds all 2^K vertices.
Unknown weak verdicts with a passing grid point are counted as missed
witnesses and reported without failing the sweep.

For every family with at most HERTZ_MAX_N rows, the interval-Hessian
diagnostic ``hertz_min_eig(relax(family))``, which solves each sign
matrix with the package's Jacobi kernel, is re-checked against the
smallest LAPACK eigenvalue over all 2^(n-1) sign matrices
Mid - diag(z) Rad diag(z), z_0 = +1, within the interval tolerance.

Reports which stage decided how often.  Exits nonzero on any
disagreement, so this doubles as a long-running soak test:

    python scripts/consistency_sweep.py --count 2000 --seed 7
"""

import argparse
import collections
import itertools
import sys
import time

import numpy as np

import psdparam as pp
from psdparam.definiteness import interval_tol
from psdparam.oracle import full_vertex_check

GRID_POINTS = 5
# Member matrices formed at once while scanning the grid.
GRID_CHUNK = 4096
# Largest n whose 2^(n-1) sign matrices the Hertz re-check forms at once.
HERTZ_MAX_N = 12


def random_family(rng: np.random.Generator, max_n: int, max_k: int) -> pp.ParametricSymMatrix:
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    coeffs = [pp.SymMatrix(rng.uniform(-2.0, 2.0, (n, n))) for _ in range(k)]
    ivs = []
    for _ in range(k):
        a, b = np.sort(rng.uniform(-1.0, 2.0, 2))
        ivs.append(pp.Interval(float(a), float(b)))
    return pp.ParametricSymMatrix(coeffs, pp.ParameterBox(ivs))


def member_min_eigs(p: pp.ParametricSymMatrix, points: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of A(q) for each row q of ``points``, by LAPACK."""
    return np.linalg.eigvalsh(np.einsum("vk,kij->vij", points, p.coefficient_stack()))[:, 0]


def certificate_problem(p: pp.ParametricSymMatrix, verdict: pp.Verdict) -> str | None:
    """Why the verdict's vertex certificate fails its re-check, or None."""
    tol = pp.family_tol(p)
    cert = verdict.certificate
    if isinstance(cert, pp.CounterexampleVertex):
        if not p.box.contains(cert.p):
            return "counterexample outside the box"
        m = float(member_min_eigs(p, np.array([cert.p]))[0])
        if abs(m - cert.min_eig) > tol:
            return f"counterexample min_eig {cert.min_eig:.12g}, LAPACK says {m:.12g}"
    if isinstance(cert, pp.VertexList):
        expected = len(pp.vertices(p, tol=tol))
        if cert.checked != expected:
            return f"vertex list checked {cert.checked} of {expected} vertices"
    return None


def passes(goal: str, m, tol: float):
    """Whether smallest eigenvalue(s) ``m`` pass the goal's PD or PSD test."""
    return m > tol if goal.endswith("_pd") else m >= -tol


def grid_passes(p: pp.ParametricSymMatrix, goal: str, tol: float) -> bool:
    """Whether some point of the grid (vertices included) passes the goal."""
    axes = [np.unique(np.linspace(iv.inf, iv.sup, GRID_POINTS)) for iv in p.box.intervals]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    for start in range(0, len(points), GRID_CHUNK):
        if passes(goal, member_min_eigs(p, points[start : start + GRID_CHUNK]), tol).any():
            return True
    return False


def weak_problem(p: pp.ParametricSymMatrix, goal: str, verdict: pp.Verdict) -> str | None:
    """Why a weak verdict fails its LAPACK re-check, or None."""
    tol = pp.family_tol(p)
    cert = verdict.certificate
    if verdict.proved:
        if not isinstance(cert, pp.WitnessPoint):
            return f"proved by {verdict.method} without a witness point"
        if not p.box.contains(cert.p):
            return "witness point outside the box"
        m = float(member_min_eigs(p, np.array([cert.p]))[0])
        if not passes(goal, m, tol):
            return f"witness point fails the goal: LAPACK min_eig {m:.12g}"
        if abs(m - cert.min_eig) > tol:
            return f"witness min_eig {cert.min_eig:.12g}, LAPACK says {m:.12g}"
    if verdict.disproved and grid_passes(p, goal, tol):
        return "disproved, but a grid point passes the goal"
    return None


def hertz_problem(p: pp.ParametricSymMatrix) -> str | None:
    """Why ``hertz_min_eig(relax(p))`` disagrees with LAPACK over all sign matrices, or None."""
    relaxed = pp.relax(p)
    mid, rad = relaxed.symmetric_parts()
    signs = np.array([(1.0, *z) for z in itertools.product((1.0, -1.0), repeat=p.n - 1)])
    ref = float(np.linalg.eigvalsh(mid - signs[:, :, None] * signs[:, None, :] * rad)[:, 0].min())
    h = pp.hertz_min_eig(relaxed)
    if abs(h - ref) > interval_tol(relaxed):
        return f"hertz_min_eig {h:.12g}, LAPACK over all sign matrices says {ref:.12g}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0x5EED)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--max-k", type=int, default=4)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    tally = collections.Counter()
    disagreements = []
    missed = collections.Counter()
    hertz_checked = 0
    t0 = time.perf_counter()
    for i in range(args.count):
        p = random_family(rng, args.max_n, args.max_k)
        if p.n <= HERTZ_MAX_N:
            hertz_checked += 1
            problem = hertz_problem(p)
            if problem is not None:
                disagreements.append((i, "hertz_min_eig", problem))
        for goal in ("strong_psd", "strong_pd"):
            verdict = pp.decide(p, goal)
            tally[(goal, verdict.status.value, verdict.method)] += 1
            if verdict.unknown:
                continue
            problem = certificate_problem(p, verdict)
            if problem is not None:
                disagreements.append((i, goal, problem))
            truth = full_vertex_check(p, "pd" if goal.endswith("_pd") else "psd")
            if truth != verdict.proved:
                disagreements.append((i, goal, verdict.status.value, truth))
        for goal in ("weak_psd", "weak_pd"):
            verdict = pp.decide(p, goal)
            tally[(goal, verdict.status.value, verdict.method)] += 1
            if verdict.unknown:
                missed[goal] += grid_passes(p, goal, pp.family_tol(p))
                continue
            problem = weak_problem(p, goal, verdict)
            if problem is not None:
                disagreements.append((i, goal, problem))
    elapsed = time.perf_counter() - t0

    print(f"{args.count} instances, {4 * args.count} decisions in {elapsed:.1f}s")
    for (goal, status, method), count in sorted(tally.items()):
        print(f"  {goal:10s} {status:9s} by {method:10s}: {count}")
    for goal in ("weak_psd", "weak_pd"):
        unknown = sum(c for (g, status, _), c in tally.items() if g == goal and status == "unknown")
        print(f"  {goal:10s} unknown with a passing grid point (missed witness): {missed[goal]} of {unknown}")
    print(f"  hertz_min_eig re-checked against LAPACK on {hertz_checked} relaxations")
    if disagreements:
        print(f"DISAGREEMENTS: {disagreements}")
        return 1
    print("no disagreements with the brute-force oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())

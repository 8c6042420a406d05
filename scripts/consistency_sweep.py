#!/usr/bin/env python3
"""Randomized cross-validation of the decision cascade against brute force.

Draws random parametric families, runs the full cascade for both strong
goals, and checks every non-Unknown verdict against the unreduced vertex
enumeration.  Every vertex certificate is re-checked too: a
counterexample's smallest eigenvalue, recomputed with LAPACK at its
point, must match the reported one within the family tolerance, and a
vertex list must count every reduced vertex.  Reports which stage
decided how often.  Exits nonzero on any disagreement, so this doubles
as a long-running soak test:

    python scripts/consistency_sweep.py --count 2000 --seed 7
"""

import argparse
import collections
import sys
import time

import numpy as np

import psdparam as pp
from psdparam.oracle import full_vertex_check


def random_family(rng: np.random.Generator, max_n: int, max_k: int) -> pp.ParametricSymMatrix:
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    coeffs = [pp.SymMatrix(rng.uniform(-2.0, 2.0, (n, n))) for _ in range(k)]
    ivs = []
    for _ in range(k):
        a, b = np.sort(rng.uniform(-1.0, 2.0, 2))
        ivs.append(pp.Interval(float(a), float(b)))
    return pp.ParametricSymMatrix(coeffs, pp.ParameterBox(ivs))


def certificate_problem(p: pp.ParametricSymMatrix, verdict: pp.Verdict) -> str | None:
    """Why the verdict's vertex certificate fails its re-check, or None."""
    tol = pp.family_tol(p)
    cert = verdict.certificate
    if isinstance(cert, pp.CounterexampleVertex):
        if not p.box.contains(cert.p):
            return "counterexample outside the box"
        m = float(np.linalg.eigvalsh(np.tensordot(cert.p, p.coefficient_stack(), axes=1))[0])
        if abs(m - cert.min_eig) > tol:
            return f"counterexample min_eig {cert.min_eig:.12g}, LAPACK says {m:.12g}"
    if isinstance(cert, pp.VertexList):
        expected = len(pp.vertices(p, tol=tol))
        if cert.checked != expected:
            return f"vertex list checked {cert.checked} of {expected} vertices"
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
    t0 = time.perf_counter()
    for i in range(args.count):
        p = random_family(rng, args.max_n, args.max_k)
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
    elapsed = time.perf_counter() - t0

    print(f"{args.count} instances, {2 * args.count} decisions in {elapsed:.1f}s")
    for (goal, status, method), count in sorted(tally.items()):
        print(f"  {goal:10s} {status:9s} by {method:10s}: {count}")
    if disagreements:
        print(f"DISAGREEMENTS: {disagreements}")
        return 1
    print("no disagreements with the brute-force oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())

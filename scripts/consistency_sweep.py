#!/usr/bin/env python3
"""Randomized cross-validation of the decision cascade against brute force.

The sweep is one table of family kinds.  Each row is (label, count,
generator, stream): random, near-singular, wide-box, pinned-shortfall,
near-threshold, cubic and block-diagonal.  A row draws its families from
its own random stream, so each row's families stay the same for a seed,
and ``--count`` sizes the random row only.  Every family of every row gets
the same checks:

- the Hertz re-check, when the family has at most HERTZ_MAX_N rows: the
  interval-Hessian diagnostic ``hertz_min_eig(relax(family))``, which
  solves each sign matrix with the package's Jacobi kernel, against the
  smallest LAPACK eigenvalue over all 2^(n-1) sign matrices
  Mid - diag(z) Rad diag(z), z_0 = +1, within the interval tolerance;
- the cascade on all four goals.  Every strong verdict that is not
  Unknown is checked against ``oracle.full_vertex_check``, the unreduced
  enumeration of all 2^K vertices, and its certificate is re-checked.
  Every weak verdict is re-checked with LAPACK;
- the sufficient stages alone (ALONE): ``method="split"`` for both strong
  goals and ``method="regularity"`` for strong PD.  Each ``proved`` they
  return is checked against the same enumeration, so the split bound
  matrix, the preconditioned enclosure and the Perron bracket are
  cross-checked even when another stage decides first in the cascade.

The sweep keeps no reference of its own: members and their smallest
LAPACK eigenvalues come from ``oracle._member_min_eigs``, and grid points
from ``oracle._sample_points``.  A counterexample must lie in the box, the
public ``min_eig(evaluate(p, point))`` must give its reported smallest
eigenvalue bit for bit, and the oracle's member must match that within the
family tolerance.  A vertex list must count every reduced vertex, or every
vertex of the set the stage rescans when the pinned shortfall could
matter.  A vertex list that carries the Cholesky screen's ``shift`` is
re-checked without a Cholesky: the shift must reach the goal's threshold
plus that set's pinned shortfall, and every vertex of the set must pass
the goal by its LAPACK smallest eigenvalue.

A witness point must lie in the box, give its reported smallest eigenvalue
bit for bit through ``min_eig(evaluate(p, point))``, and, by the oracle's
member, pass the goal and match that value within the family tolerance.  A
weak Disproved is contradicted by any point of a grid with GRID_POINTS
points per axis that passes the goal; each axis includes both endpoints,
so the grid holds all 2^K vertices.  Unknown weak verdicts with a passing
grid point are counted as missed witnesses and reported without failing
the sweep.

The generators:

- random (``random_family``): n and K up to --max-n and --max-k, entries
  in [-2, 2] and box endpoints in [-1, 2].
- near-singular (``near_singular_family``): each has a member that is
  singular, so a regularity ``proved`` means the Beeck bound missed
  rounding in the preconditioned products.
- wide-box (``wide_box_family``): each has a coefficient whose smallest
  eigenvalue falls short of zero by less than the family tolerance, on a
  parameter of width about 1e6, so pinning that parameter at one endpoint
  misses members by far more than the tolerance.
- pinned-shortfall (``pinned_shortfall_family``): each has several
  coefficients that are semidefinite within the family tolerance and
  pinned at one endpoint, whose shortfalls add up past that tolerance
  along one shared direction.
- near-threshold (``near_threshold_family``): each is c I on [1, 1] plus 2
  to 5 indefinite coefficients on [-1, 1], n from 2 to 4, with c placing
  the vertex minimum (``oracle.sample_min_eig`` over the vertices) at one
  goal's threshold plus -8, -2, -0.5, 0.5, 2 or 8 of the vertex stage's
  Cholesky screen margins, or plus -2, -0.5, 0.5 or 2 tolerances.  A
  margin too small to cover the screen's roundings shows up as a proof
  the unreduced enumeration contradicts.
- cubic (``cubic_family``): the family ``hessian(f, box)`` of a random
  cubic f in n = 1 to 4 variables, with one to six terms of degree 1 to 3
  and integer coefficients in [-3, 3], on a box with lower ends in [-2, 2]
  and widths up to 2.  A variable that occurs only in quadratic or linear
  terms has an all-zero coefficient matrix, which the family keeps.
- block-diagonal (``block_diagonal_family``): c I on [1, 1], c in [1, 6],
  plus 2 to 5 coefficients on [-1, 1], n from 2 to 6, each with entries in
  [-2, 2] on one of two diagonal blocks.  A(mid) = c I, so the Beeck matrix
  G of the regularity stage is block diagonal up to its rounding terms:
  nearly reducible, which a Perron bracket must still bound.

Reports, row by row, which stage decided how often.  Exits nonzero on any
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
from psdparam.definiteness import STRONG_GOALS, WEAK_GOALS, _screen_shift, interval_tol
from psdparam.oracle import _member_min_eigs, _sample_points, full_vertex_check, sample_min_eig

# The sufficient stages run alone on every family, with the goals they apply to.
ALONE = (("strong_psd", "split"), ("strong_pd", "split"), ("strong_pd", "regularity"))
GRID_POINTS = 5
# Member matrices formed at once while scanning the grid.
GRID_CHUNK = 4096
# Largest n whose 2^(n-1) sign matrices the Hertz re-check forms at once.
HERTZ_MAX_N = 12
# Families per sweep in each row but the random one, which --count sizes.
FAMILIES = 40
# Where a near-threshold family's vertex minimum sits above the threshold: in screen margins, or in tolerances.
MARGIN_OFFSETS = (-8.0, -2.0, -0.5, 0.5, 2.0, 8.0)
TOL_OFFSETS = (-2.0, -0.5, 0.5, 2.0)


def random_family(rng: np.random.Generator, max_n: int, max_k: int) -> pp.ParametricSymMatrix:
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    coeffs = [pp.SymMatrix(rng.uniform(-2.0, 2.0, (n, n))) for _ in range(k)]
    ivs = []
    for _ in range(k):
        a, b = np.sort(rng.uniform(-1.0, 2.0, 2))
        ivs.append(pp.Interval(float(a), float(b)))
    return pp.ParametricSymMatrix(coeffs, pp.ParameterBox(ivs))


def near_singular_family(rng: np.random.Generator, i: int) -> pp.ParametricSymMatrix:
    """Q diag(eps, 1, 2) Q^T on [1, 1] plus -eps u u^T on [-1, 1], u = Q[:, 0]: singular at the upper corner.

    eps is 1e-6 for the row's even families and 1e-9 for its odd ones.
    """
    eps = (1e-6, 1e-9)[i % 2]
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    centre = q @ np.diag([eps, 1.0, 2.0]) @ q.T
    return pp.ParametricSymMatrix([centre, -eps * np.outer(q[:, 0], q[:, 0])], pp.ParameterBox.from_bounds([(1, 1), (-1, 1)]))


def wide_box_family(rng: np.random.Generator) -> pp.ParametricSymMatrix:
    """Q diag(1, ..., -s) Q^T on [0, w] plus Q diag(c, d, ..., b s w) Q^T on [1, 1], n = 2 or 3.

    w is about 1e6 and s at most 1e-5, below the family tolerance of about
    1e-4, but s w lies between 0.5 and 20.  The members are
    Q diag(p + c, d, ..., s (b w - p)) Q^T: with c in [-w/2, w/2] and b in
    [0, 2], a member fails at p = w when b < 1 though p = 0 may pass, and
    some member passes when c > -min(b, 1) w though p = w may fail.
    """
    n = int(rng.integers(2, 4))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    w = float(rng.uniform(0.5e6, 2e6))
    s = float(10.0 ** rng.uniform(-6.0, -5.0))
    coeff = np.ones(n)
    coeff[-1] = -s
    constant = rng.uniform(0.1, 1.0, n)
    constant[0] = rng.uniform(-0.5, 0.5) * w
    constant[-1] = rng.uniform(0.0, 2.0) * s * w
    return pp.ParametricSymMatrix(
        [q @ np.diag(coeff) @ q.T, q @ np.diag(constant) @ q.T], pp.ParameterBox.from_bounds([(0.0, w), (1.0, 1.0)])
    )


def pinned_shortfall_family(rng: np.random.Generator) -> pp.ParametricSymMatrix:
    """B_k - s_k u u^T, k < K, times a sign on [0, 1] or [-1, 0], plus d (I - u u^T) + c u u^T on [1, 1].

    Each B_k is PSD with u in its null space, so every coefficient is semidefinite
    within the family tolerance tol (s_k = f_k tol, f_k in [0.5, 0.9]) and pinned at
    t_k = 0, yet the s_k add up past tol (K = 3 to 5).  With t_k = |q_k| in [0, 1],
    u is an eigenvector of every member, with eigenvalue c - sum_k s_k t_k.  So with
    c = g tol, g in [0, sum_k f_k + 2], strong PSD holds when g - sum_k f_k >= -1
    and strong PD when g - sum_k f_k > 1; the member at t = 0 is always PSD, and PD
    when g > 1.  The pinned vertex t = 0 alone decides none of these.
    """
    n = int(rng.integers(2, 4))
    k = int(rng.integers(3, 6))
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    rest = np.eye(n) - np.outer(u, u)
    signs = rng.choice([-1.0, 1.0], k)
    coeffs = []
    for sign in signs:
        g = rng.standard_normal((n, n))
        coeffs.append(sign * (rest @ (g @ g.T + 0.1 * np.eye(n)) @ rest))
    coeffs.append(rng.uniform(0.5, 1.0) * rest)
    bounds = [(0.0, 1.0) if sign > 0 else (-1.0, 0.0) for sign in signs] + [(1.0, 1.0)]
    tol = pp.family_tol(pp.ParametricSymMatrix(coeffs, pp.ParameterBox.from_bounds(bounds)))
    f = rng.uniform(0.5, 0.9, k)
    for i, sign in enumerate(signs):
        coeffs[i] = coeffs[i] - sign * f[i] * tol * np.outer(u, u)
    coeffs[-1] = coeffs[-1] + rng.uniform(0.0, f.sum() + 2.0) * tol * np.outer(u, u)
    return pp.ParametricSymMatrix(coeffs, pp.ParameterBox.from_bounds(bounds))


def near_threshold_family(rng: np.random.Generator) -> pp.ParametricSymMatrix:
    """c I on [1, 1] plus B_k on [-1, 1], k < K, with c placing the vertex minimum next to a goal's threshold.

    Each B_k = Q diag(w) Q^T has a negative and a positive eigenvalue of size 0.2 to 1 (K = 2 to 5, n = 2
    to 4), so no coordinate is pinned and the shortfall is 0.  The members at the vertices v are
    c I + sum_k B_k v_k, so c = threshold + offset - mu, with mu the smallest vertex eigenvalue of the
    B_k alone, puts their minimum at threshold + offset.  The threshold is tol (PD) or -tol (PSD), drawn
    with the offset; tol and the screen's margin are those of the family with c = -mu, and the final c
    moves them by under 1e-8 of themselves, far less than the smallest offset.
    """
    n = int(rng.integers(2, 5))
    k = int(rng.integers(2, 6))
    coeffs = []
    for _ in range(k):
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        w = rng.uniform(-1.0, 1.0, n)
        w[0], w[-1] = -rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
        coeffs.append(q @ np.diag(w) @ q.T)
    bounds = [(-1.0, 1.0)] * k + [(1.0, 1.0)]
    rest = pp.ParametricSymMatrix(coeffs + [np.zeros((n, n))], pp.ParameterBox.from_bounds(bounds))
    mu = sample_min_eig(rest, "vertices")[0]
    draft = pp.ParametricSymMatrix(coeffs + [-mu * np.eye(n)], pp.ParameterBox.from_bounds(bounds))
    tol = pp.family_tol(draft)
    kind = ("psd", "pd")[int(rng.integers(2))]
    threshold = tol if kind == "pd" else -tol
    # The offsets are in units of the screen's own margin, the part of its shift above the threshold.
    margin = _screen_shift(draft, kind, tol, 0.0) - threshold
    offsets = [f * margin for f in MARGIN_OFFSETS] + [f * tol for f in TOL_OFFSETS]
    c = threshold + offsets[int(rng.integers(len(offsets)))] - mu
    return pp.ParametricSymMatrix(coeffs + [c * np.eye(n)], pp.ParameterBox.from_bounds(bounds))


def cubic_family(rng: np.random.Generator) -> pp.ParametricSymMatrix:
    """The Hessian family of a random cubic in n = 1 to 4 variables on a box of widths up to 2.

    One to six terms, each of degree 1 to 3 with an integer coefficient in [-3, 3], so a variable
    may occur only in quadratic or linear terms and have an all-zero coefficient matrix.
    """
    n = int(rng.integers(1, 5))
    terms = []
    for _ in range(int(rng.integers(1, 7))):
        deg = int(rng.integers(1, 4))
        terms.append((float(rng.integers(-3, 4)), sorted([0] * (3 - deg) + rng.integers(1, n + 1, deg).tolist())))
    lo = rng.uniform(-2.0, 2.0, n)
    box = pp.ParameterBox.from_bounds(zip(lo, lo + rng.uniform(0.0, 2.0, n)))
    return pp.hessian(pp.CubicPolynomial.from_terms(n, terms), box)


def block_diagonal_family(rng: np.random.Generator) -> pp.ParametricSymMatrix:
    """c I on [1, 1] plus 2 to 5 symmetric coefficients on [-1, 1], each on one of two diagonal blocks.

    n is 2 to 6 and the blocks split it at a random row; a coefficient's block has entries in [-2, 2].
    """
    n = int(rng.integers(2, 7))
    cut = int(rng.integers(1, n))
    coeffs = []
    for _ in range(int(rng.integers(2, 6))):
        lo, hi = ((0, cut), (cut, n))[int(rng.integers(2))]
        half = rng.uniform(-1.0, 1.0, (hi - lo, hi - lo))
        coeff = np.zeros((n, n))
        coeff[lo:hi, lo:hi] = half + half.T
        coeffs.append(coeff)
    bounds = [(-1.0, 1.0)] * len(coeffs) + [(1.0, 1.0)]
    return pp.ParametricSymMatrix(coeffs + [rng.uniform(1.0, 6.0) * np.eye(n)], pp.ParameterBox.from_bounds(bounds))


def certificate_problem(p: pp.ParametricSymMatrix, goal: str, verdict: pp.Verdict) -> str | None:
    """Why the verdict's vertex certificate fails its re-check, or None."""
    tol = pp.family_tol(p)
    cert = verdict.certificate
    if isinstance(cert, pp.CounterexampleVertex):
        if not p.box.contains(cert.p):
            return "counterexample outside the box"
        if (replayed := pp.min_eig(pp.evaluate(p, cert.p))) != cert.min_eig:
            return f"counterexample min_eig {cert.min_eig!r}, min_eig(evaluate) gives {replayed!r}"
        m = float(_member_min_eigs(p, np.array([cert.p]))[0])
        if abs(m - cert.min_eig) > tol:
            return f"counterexample min_eig {cert.min_eig:.12g}, LAPACK says {m:.12g}"
    if isinstance(cert, pp.VertexList):
        enum = pp.vertices(p, tol=tol)
        expected = (len(enum), len(enum.exact()))
        if cert.checked not in expected:
            return f"vertex list checked {cert.checked} of {' or '.join(map(str, expected))} vertices"
        if cert.shift is not None:
            scanned = enum if cert.checked == len(enum) else enum.exact()
            threshold = tol if goal.endswith("_pd") else -tol
            if not cert.shift >= threshold + scanned.shortfall:
                return f"shift {cert.shift:.12g} below the threshold plus shortfall {threshold + scanned.shortfall:.12g}"
            mins = _member_min_eigs(p, scanned.points(0, len(scanned)))
            if not passes(goal, mins, tol).all():
                return f"screened vertex list, but a vertex fails the goal: LAPACK min_eig {mins.min():.12g}"
    return None


def passes(goal: str, m, tol: float):
    """Whether smallest eigenvalue(s) ``m`` pass the goal's PD or PSD test."""
    return m > tol if goal.endswith("_pd") else m >= -tol


def grid_passes(p: pp.ParametricSymMatrix, goal: str, tol: float) -> bool:
    """Whether some point of the grid (vertices included) passes the goal."""
    points = _sample_points(p, "grid", GRID_POINTS, 0, 0)
    for start in range(0, len(points), GRID_CHUNK):
        if passes(goal, _member_min_eigs(p, points[start : start + GRID_CHUNK]), tol).any():
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
        if (replayed := pp.min_eig(pp.evaluate(p, cert.p))) != cert.min_eig:
            return f"witness min_eig {cert.min_eig!r}, min_eig(evaluate) gives {replayed!r}"
        m = float(_member_min_eigs(p, np.array([cert.p]))[0])
        if not passes(goal, m, tol):
            return f"witness point fails the goal: LAPACK min_eig {m:.12g}"
        if abs(m - cert.min_eig) > tol:
            return f"witness min_eig {cert.min_eig:.12g}, LAPACK says {m:.12g}"
    if verdict.disproved and grid_passes(p, goal, tol):
        return "disproved, but a grid point passes the goal"
    return None


def check_goal(p: pp.ParametricSymMatrix, goal: str, truth: dict) -> tuple[pp.Verdict, list]:
    """The cascade's verdict on ``goal`` and why it fails its re-checks, if it does.

    ``truth`` maps each strong goal to the unreduced vertex enumeration's answer.
    """
    verdict = pp.decide(p, goal)
    if verdict.unknown:
        return verdict, []
    strong = goal in STRONG_GOALS
    problem = certificate_problem(p, goal, verdict) if strong else weak_problem(p, goal, verdict)
    problems = [] if problem is None else [problem]
    if strong and truth[goal] != verdict.proved:
        problems.append((verdict.status.value, truth[goal]))
    return verdict, problems


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

    # One row per family kind: label, count, generator of (rng, index in the row), and random stream.
    rows = (
        ("random", args.count, lambda rng, i: random_family(rng, args.max_n, args.max_k), args.seed),
        ("near-singular", FAMILIES, near_singular_family, [args.seed, 1]),
        ("wide-box", FAMILIES, lambda rng, i: wide_box_family(rng), [args.seed, 2]),
        ("pinned-shortfall", FAMILIES, lambda rng, i: pinned_shortfall_family(rng), [args.seed, 3]),
        ("near-threshold", FAMILIES, lambda rng, i: near_threshold_family(rng), [args.seed, 4]),
        ("cubic", FAMILIES, lambda rng, i: cubic_family(rng), [args.seed, 5]),
        ("block-diagonal", FAMILIES, lambda rng, i: block_diagonal_family(rng), [args.seed, 6]),
    )
    counts = collections.Counter()
    disagreements = []
    t0 = time.perf_counter()
    for label, count, family, stream in rows:
        rng = np.random.default_rng(stream)
        for i in range(count):
            p = family(rng, i)
            where = f"{label} {i}"
            if p.n <= HERTZ_MAX_N:
                counts[label, "hertz"] += 1
                if (problem := hertz_problem(p)) is not None:
                    disagreements.append((where, "hertz_min_eig", problem))
            truth = {goal: full_vertex_check(p, goal.rsplit("_", 1)[1]) for goal in STRONG_GOALS}
            for goal in STRONG_GOALS + WEAK_GOALS:
                verdict, problems = check_goal(p, goal, truth)
                counts[label, "decide", goal, verdict.status.value, verdict.method] += 1
                counts[label, verdict.status.value] += 1
                disagreements += [(where, goal, problem) for problem in problems]
                if verdict.unknown and goal in WEAK_GOALS:
                    counts[label, "unknown", goal] += 1
                    counts[label, "missed", goal] += grid_passes(p, goal, pp.family_tol(p))
            for goal, method in ALONE:
                verdict = pp.decide(p, goal, method=method)
                counts[label, "alone", goal, method, verdict.status.value] += 1
                if verdict.proved and not truth[goal]:
                    disagreements.append((where, f"{goal} by {method} alone", "proved", truth[goal]))
    elapsed = time.perf_counter() - t0

    total = sum(count for _, count, _, _ in rows)
    print(f"{total} families, {4 * total} decisions in {elapsed:.1f}s")
    for label, count, _, _ in rows:
        decided = sorted((key[2:], c) for key, c in counts.items() if key[:2] == (label, "decide"))
        for (goal, status, method), c in decided:
            print(f"  {label:16s} {goal:10s} {status:9s} by {method:10s}: {c}")
        for goal, method in ALONE:
            proved, unknown = (counts[label, "alone", goal, method, status] for status in ("proved", "unknown"))
            print(f"  {label:16s} {goal:10s} by {method} alone: {proved} proved and checked, {unknown} unknown")
        proved, disproved, unknown = (counts[label, status] for status in ("proved", "disproved", "unknown"))
        print(f"  {label:16s} all goals  on {count} families: {proved} proved, {disproved} disproved, {unknown} unknown")
        for goal in WEAK_GOALS:
            missed, unknown = counts[label, "missed", goal], counts[label, "unknown", goal]
            print(f"  {label:16s} {goal:10s} unknown with a passing grid point (missed witness): {missed} of {unknown}")
        print(f"  {label:16s} hertz_min_eig re-checked against LAPACK on {counts[label, 'hertz']} relaxations")
    if disagreements:
        print(f"DISAGREEMENTS: {disagreements}")
        return 1
    print("no disagreements with the brute-force oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Randomized cross-validation of the decision cascade against brute force.

Draws random parametric families and runs the full cascade for all four
goals.  Every strong verdict that is not Unknown is checked against the
unreduced vertex enumeration, and every vertex certificate is re-checked
too.  A counterexample must lie in the box, the public
``min_eig(evaluate(p, point))`` must give its reported smallest eigenvalue
bit for bit, and the sweep's own LAPACK value, from members it forms
itself, must match that within the family tolerance.  A vertex list must
count every reduced vertex, or every vertex of the set the stage rescans
when the pinned shortfall could matter.  A vertex
list that carries the Cholesky screen's ``shift`` is re-checked without a
Cholesky: the shift must reach the goal's threshold plus that set's
pinned shortfall, and every vertex of the set must pass the goal by its
LAPACK smallest eigenvalue.

The sufficient stages also run alone on every family: ``method="split"``
for both strong goals and ``method="regularity"`` for strong PD.  Each
``proved`` they return is checked against the unreduced vertex
enumeration too, so the split bound matrix, the preconditioned
enclosure and the Perron bracket are cross-checked even when another
stage decides first in the cascade.

Weak verdicts are re-checked with LAPACK.  A witness point must lie in the
box, give its reported smallest eigenvalue bit for bit through the public
``min_eig(evaluate(p, point))``, and, by the sweep's own members, pass the
goal and match that value within the family tolerance.  A weak Disproved
is contradicted by any point of a grid with GRID_POINTS points per axis
that passes the goal; each axis includes both endpoints, so the grid
holds all 2^K vertices.  Unknown weak verdicts with a passing grid point
are counted as missed witnesses and reported without failing the sweep.

For every family with at most HERTZ_MAX_N rows, the interval-Hessian
diagnostic ``hertz_min_eig(relax(family))``, which solves each sign
matrix with the package's Jacobi kernel, is re-checked against the
smallest LAPACK eigenvalue over all 2^(n-1) sign matrices
Mid - diag(z) Rad diag(z), z_0 = +1, within the interval tolerance.

NEAR_SINGULAR_FAMILIES near-singular-midpoint families (``near_singular_family``) come from a
separate random stream, so the random families stay the same for a
seed.  Each has a member that is singular, and ``method="regularity"``
runs on it against the unreduced vertex enumeration: a ``proved`` there
means the Beeck bound missed rounding in the preconditioned products.

WIDE_BOX_FAMILIES wide-box families (``wide_box_family``) come from a third
stream.  Each has a coefficient whose smallest eigenvalue falls short of
zero by less than the family tolerance, on a parameter of width about
1e6, so pinning that parameter at one endpoint misses members by far
more than the tolerance.  All four goals run on each, with the strong
verdicts checked against the unreduced vertex enumeration and the weak
ones re-checked as above.

PINNED_SHORTFALL_FAMILIES pinned-shortfall families (``pinned_shortfall_family``)
come from a fourth stream.  Each has several coefficients that are semidefinite
within the family tolerance and pinned at one endpoint, whose shortfalls add up
past that tolerance along one shared direction.  All four goals run on each and
are checked as the wide-box ones are.

NEAR_THRESHOLD_FAMILIES near-threshold families (``near_threshold_family``) come
from a fifth stream.  Each is c I on [1, 1] plus 2 to 5 indefinite coefficients
on [-1, 1], n from 2 to 4, with c placing the vertex minimum at one goal's
threshold plus -8, -2, -0.5, 0.5, 2 or 8 of the vertex stage's Cholesky screen
margins, or plus -2, -0.5, 0.5 or 2 tolerances.  All four goals run on each and
are checked as the wide-box ones are, so a margin too small to cover the
screen's roundings shows up as a proof the unreduced enumeration contradicts.

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
from psdparam.definiteness import STRONG_GOALS, WEAK_GOALS, _screen_shift, interval_tol
from psdparam.oracle import full_vertex_check

# The sufficient stages run alone on every family, with the goals they apply to.
ALONE = (("strong_psd", "split"), ("strong_pd", "split"), ("strong_pd", "regularity"))
GRID_POINTS = 5
# Member matrices formed at once while scanning the grid.
GRID_CHUNK = 4096
# Largest n whose 2^(n-1) sign matrices the Hertz re-check forms at once.
HERTZ_MAX_N = 12
# Near-singular-midpoint families per sweep, eps 1e-6 and 1e-9 in turn.
NEAR_SINGULAR_FAMILIES = 40
# Wide-box families per sweep, each checked on all four goals.
WIDE_BOX_FAMILIES = 40
# Pinned-shortfall families per sweep, each checked on all four goals.
PINNED_SHORTFALL_FAMILIES = 40
# Near-threshold families per sweep, each checked on all four goals.
NEAR_THRESHOLD_FAMILIES = 40
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


def near_singular_family(rng: np.random.Generator, eps: float) -> pp.ParametricSymMatrix:
    """Q diag(eps, 1, 2) Q^T on [1, 1] plus -eps u u^T on [-1, 1], u = Q[:, 0]: singular at the upper corner."""
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
    mu = float(full_vertex_min(rest))
    draft = pp.ParametricSymMatrix(coeffs + [-mu * np.eye(n)], pp.ParameterBox.from_bounds(bounds))
    tol = pp.family_tol(draft)
    kind = ("psd", "pd")[int(rng.integers(2))]
    threshold = tol if kind == "pd" else -tol
    # The offsets are in units of the screen's own margin, the part of its shift above the threshold.
    margin = _screen_shift(draft, kind, tol, 0.0) - threshold
    offsets = [f * margin for f in MARGIN_OFFSETS] + [f * tol for f in TOL_OFFSETS]
    c = threshold + offsets[int(rng.integers(len(offsets)))] - mu
    return pp.ParametricSymMatrix(coeffs + [c * np.eye(n)], pp.ParameterBox.from_bounds(bounds))


def full_vertex_min(p: pp.ParametricSymMatrix) -> float:
    """Smallest LAPACK eigenvalue over all 2^K vertex members."""
    points = np.array(list(itertools.product(*zip(p.box.inf().tolist(), p.box.sup().tolist()))))
    return member_min_eigs(p, points).min()


def member_min_eigs(p: pp.ParametricSymMatrix, points: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of A(q) for each row q of ``points``, by LAPACK."""
    return np.linalg.eigvalsh(np.einsum("vk,kij->vij", points, p.coefficient_stack()))[:, 0]


def certificate_problem(p: pp.ParametricSymMatrix, goal: str, verdict: pp.Verdict) -> str | None:
    """Why the verdict's vertex certificate fails its re-check, or None."""
    tol = pp.family_tol(p)
    cert = verdict.certificate
    if isinstance(cert, pp.CounterexampleVertex):
        if not p.box.contains(cert.p):
            return "counterexample outside the box"
        if (replayed := pp.min_eig(pp.evaluate(p, cert.p))) != cert.min_eig:
            return f"counterexample min_eig {cert.min_eig!r}, min_eig(evaluate) gives {replayed!r}"
        m = float(member_min_eigs(p, np.array([cert.p]))[0])
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
            mins = member_min_eigs(p, scanned.points(0, len(scanned)))
            if not passes(goal, mins, tol).all():
                return f"screened vertex list, but a vertex fails the goal: LAPACK min_eig {mins.min():.12g}"
    return None


def passes(goal: str, m, tol: float):
    """Whether smallest eigenvalue(s) ``m`` pass the goal's PD or PSD test."""
    return m > tol if goal.endswith("_pd") else m >= -tol


def grid_passes(p: pp.ParametricSymMatrix, goal: str, tol: float) -> bool:
    """Whether some point of the grid (vertices included) passes the goal."""
    axes = [np.unique(np.linspace(lo, hi, GRID_POINTS)) for lo, hi in zip(p.box.inf().tolist(), p.box.sup().tolist())]
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
        if (replayed := pp.min_eig(pp.evaluate(p, cert.p))) != cert.min_eig:
            return f"witness min_eig {cert.min_eig!r}, min_eig(evaluate) gives {replayed!r}"
        m = float(member_min_eigs(p, np.array([cert.p]))[0])
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

    rng = np.random.default_rng(args.seed)
    tally = collections.Counter()
    alone = collections.Counter()
    disagreements = []
    missed = collections.Counter()
    near_singular = collections.Counter()
    hertz_checked = 0
    t0 = time.perf_counter()
    for i in range(args.count):
        p = random_family(rng, args.max_n, args.max_k)
        if p.n <= HERTZ_MAX_N:
            hertz_checked += 1
            problem = hertz_problem(p)
            if problem is not None:
                disagreements.append((i, "hertz_min_eig", problem))
        truth = {goal: full_vertex_check(p, goal.rsplit("_", 1)[1]) for goal in STRONG_GOALS}
        for goal in STRONG_GOALS + WEAK_GOALS:
            verdict, problems = check_goal(p, goal, truth)
            tally[(goal, verdict.status.value, verdict.method)] += 1
            disagreements += [(i, goal, problem) for problem in problems]
            if verdict.unknown and goal in WEAK_GOALS:
                missed[goal] += grid_passes(p, goal, pp.family_tol(p))
        for goal, method in ALONE:
            verdict = pp.decide(p, goal, method=method)
            alone[(goal, method, verdict.status.value)] += 1
            if verdict.proved and not truth[goal]:
                disagreements.append((i, f"{goal} by {method} alone", "proved", truth[goal]))
    near_rng = np.random.default_rng([args.seed, 1])
    for i in range(NEAR_SINGULAR_FAMILIES):
        p = near_singular_family(near_rng, (1e-6, 1e-9)[i % 2])
        verdict = pp.decide(p, "strong_pd", method="regularity")
        near_singular[verdict.status.value] += 1
        if verdict.proved and not full_vertex_check(p, "pd"):
            disagreements.append((f"near-singular {i}", "strong_pd by regularity alone", "proved", False))
    # The hard families checked on all four goals: label, count, generator and stream.
    hard = []
    for label, count, family, stream in (
        ("wide-box", WIDE_BOX_FAMILIES, wide_box_family, 2),
        ("pinned-shortfall", PINNED_SHORTFALL_FAMILIES, pinned_shortfall_family, 3),
        ("near-threshold", NEAR_THRESHOLD_FAMILIES, near_threshold_family, 4),
    ):
        hard_rng = np.random.default_rng([args.seed, stream])
        statuses = collections.Counter()
        hard.append((label, count, statuses))
        for i in range(count):
            p = family(hard_rng)
            truth = {goal: full_vertex_check(p, goal.rsplit("_", 1)[1]) for goal in STRONG_GOALS}
            for goal in STRONG_GOALS + WEAK_GOALS:
                verdict, problems = check_goal(p, goal, truth)
                statuses[verdict.status.value] += 1
                disagreements += [(f"{label} {i}", goal, problem) for problem in problems]
    elapsed = time.perf_counter() - t0

    print(f"{args.count} instances, {4 * args.count} decisions in {elapsed:.1f}s")
    for (goal, status, method), count in sorted(tally.items()):
        print(f"  {goal:10s} {status:9s} by {method:10s}: {count}")
    for goal, method in ALONE:
        proved, unknown = (alone[(goal, method, status)] for status in ("proved", "unknown"))
        print(f"  {goal:10s} by {method} alone: {proved} proved and checked, {unknown} unknown")
    print(
        f"  strong_pd  by regularity alone on {NEAR_SINGULAR_FAMILIES} near-singular families: "
        f"{near_singular['proved']} proved, {near_singular['unknown']} unknown"
    )
    for label, count, statuses in hard:
        print(
            f"  all goals  on {count} {label} families: "
            f"{statuses['proved']} proved, {statuses['disproved']} disproved, {statuses['unknown']} unknown"
        )
    for goal in WEAK_GOALS:
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

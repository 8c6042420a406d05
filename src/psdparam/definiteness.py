"""Decision procedures for strong and weak definiteness of parametric families.

Strong questions (does every member matrix satisfy the property?) are
decided exactly by reduced vertex enumeration and approximated cheaply by
a PSD-splitting sufficient condition and, for definiteness, a regularity
argument with the Beeck spectral-radius criterion.  Weak questions (does
some member satisfy it?) get a splitting-based necessary condition and a
heuristic witness search; a full weak decision is out of scope, so those
routes may report Unknown.

All verdicts follow one tolerance rule, ``passes``: a matrix counts as
PSD when its smallest eigenvalue is >= -tol and as PD when it is > +tol,
so "disproved PD" includes matrices whose smallest eigenvalue sits inside
the tolerance band.  Every Proved/Disproved verdict carries a certificate that
can be re-checked independently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, NamedTuple, Optional, Union

import numpy as np

from .intervals import IntervalMatrix
from .parametric import (
    ParametricSymMatrix,
    evaluate,
    family_tol,
    precondition_relax,
    vertices,
)
from .symlinalg import (
    SingularMatrixError,
    SymMatrix,
    _jacobi_eigvals,
    check_tol,
    min_eig,
    min_eigs,
    passes,
    scaled_tol,
    spectral_radius_nonneg,
)

DEFAULT_VERTEX_BUDGET = 1 << 20
# Largest block of member matrices the vertex route forms at once.
VERTEX_CHUNK_BYTES = 1 << 20
DEFAULT_SEED = 0x5EED
RHO_MARGIN = 1e-9

STRONG_GOALS = ("strong_psd", "strong_pd")
WEAK_GOALS = ("weak_psd", "weak_pd")
GOALS = STRONG_GOALS + WEAK_GOALS


class Status(Enum):
    PROVED = "proved"
    DISPROVED = "disproved"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class VertexList:
    """All reduced vertices checked; the worst one is recorded."""

    json_type: ClassVar[str] = "vertex_list"
    checked: int
    worst_vertex: tuple[float, ...]
    worst_min_eig: float


@dataclass(frozen=True)
class CounterexampleVertex:
    json_type: ClassVar[str] = "counterexample_vertex"
    p: tuple[float, ...]
    min_eig: float


@dataclass(frozen=True)
class SplitWitness:
    """The splitting-condition bound matrix and its smallest eigenvalue."""

    json_type: ClassVar[str] = "split_witness"
    matrix: SymMatrix
    min_eig: float


@dataclass(frozen=True)
class BeeckWitness:
    json_type: ClassVar[str] = "beeck"
    rho: float
    converged: bool


@dataclass(frozen=True)
class NecessaryFailure:
    """The necessary-condition bound matrix and its smallest eigenvalue."""

    json_type: ClassVar[str] = "necessary_failure"
    matrix: SymMatrix
    min_eig: float


@dataclass(frozen=True)
class WitnessPoint:
    json_type: ClassVar[str] = "witness_point"
    p: tuple[float, ...]
    min_eig: float


Certificate = Union[
    VertexList, CounterexampleVertex, SplitWitness, BeeckWitness, NecessaryFailure, WitnessPoint
]


@dataclass(frozen=True)
class Verdict:
    status: Status
    method: str
    certificate: Optional[Certificate] = None
    detail: str = ""

    @property
    def proved(self) -> bool:
        return self.status is Status.PROVED

    @property
    def disproved(self) -> bool:
        return self.status is Status.DISPROVED

    @property
    def unknown(self) -> bool:
        return self.status is Status.UNKNOWN


def check_budget(budget: int) -> None:
    """Raise ValueError when the vertex budget is negative."""
    if budget < 0:
        raise ValueError(f"vertex budget must be a nonnegative integer, got {budget!r}")


def _resolve_tol(p: ParametricSymMatrix, tol: float | None) -> float:
    return family_tol(p) if tol is None else check_tol(tol)


def _member_min_eigs(p: ParametricSymMatrix, points: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of A(q) for each row q of ``points``, by one batched call."""
    return min_eigs(np.einsum("vk,kij->vij", points, p.coefficient_stack()))


# ---------------------------------------------------------------------------
# vertex characterizations


def _strong_by_vertices(p, goal: str, tol, budget) -> Verdict:
    """Scan the reduced vertices in Gray order, in chunks of 1, 2, 4, ... rows.

    Each chunk forms its member matrices at once and takes their smallest
    eigenvalues in one batched call; the scan stops at the first chunk
    with a failing vertex.  The certificate names the first failing
    vertex, or the first vertex attaining the minimum, in Gray order.
    """
    check_budget(budget)
    tol = _resolve_tol(p, tol)
    enum = vertices(p, tol=tol)
    total = len(enum)
    if total > budget:
        return Verdict(
            Status.UNKNOWN,
            "vertex",
            detail=f"2^{enum.free_count} vertices exceed budget {budget}",
        )
    cap = max(1, VERTEX_CHUNK_BYTES // p.coefficient_stack()[0].nbytes)
    worst = np.inf
    worst_vertex: tuple[float, ...] = ()
    start, size = 0, 1
    while start < total:
        stop = min(start + size, total)
        points = enum.points(start, stop)
        mins = _member_min_eigs(p, points)
        failed = ~passes(mins, goal, tol)
        if failed.any():
            i = int(np.argmax(failed))
            return Verdict(Status.DISPROVED, "vertex", CounterexampleVertex(tuple(points[i].tolist()), float(mins[i])))
        i = int(np.argmin(mins))
        if mins[i] < worst:
            worst, worst_vertex = float(mins[i]), tuple(points[i].tolist())
        start, size = stop, min(2 * size, cap)
    return Verdict(Status.PROVED, "vertex", VertexList(total, worst_vertex, worst))


def strong_psd(
    p: ParametricSymMatrix, tol: float | None = None, budget: int = DEFAULT_VERTEX_BUDGET
) -> Verdict:
    """Exact decision of strong positive semidefiniteness over the reduced vertex set."""
    return _strong_by_vertices(p, "psd", tol, budget)


def strong_pd(
    p: ParametricSymMatrix, tol: float | None = None, budget: int = DEFAULT_VERTEX_BUDGET
) -> Verdict:
    """Exact decision of strong positive definiteness over the reduced vertex set."""
    return _strong_by_vertices(p, "pd", tol, budget)


# ---------------------------------------------------------------------------
# splitting-based one-shot conditions


def _split_parts(a: np.ndarray, w: np.ndarray, q: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """PSD parts (plus, minus) with a = plus - minus, from a's spectrum a = q diag(w) q^T.

    A semidefinite matrix (within ``tol``) is its own part; otherwise
    nonnegative eigenvalues go to ``plus`` and magnitudes of negative
    ones to ``minus``.
    """
    if passes(w[0], "psd", tol):
        return a, np.zeros_like(a)
    if passes(-w[-1], "psd", tol):
        return np.zeros_like(a), -a
    return (q * np.maximum(w, 0.0)) @ q.T, (q * np.maximum(-w, 0.0)) @ q.T


def _split_combination(p: ParametricSymMatrix, proving: bool, tol: float) -> SymMatrix:
    """Bound matrix built from per-coefficient PSD splits.

    ``proving=True`` pairs the PSD part with the lower endpoint and the
    NSD part with the upper (underestimates every member); ``False``
    swaps the endpoints (overestimates every member).  The splits come
    from the coefficient spectra the family computed when it was built.
    """
    acc = np.zeros((p.n, p.n))
    eigvals, eigvecs = p.coefficient_spectra()
    for coeff, iv, w, q in zip(p.coeffs, p.box.intervals, eigvals, eigvecs):
        plus, minus = _split_parts(coeff.array, w, q, tol)
        lo, hi = (iv.inf, iv.sup) if proving else (iv.sup, iv.inf)
        acc += plus * lo - minus * hi
    return SymMatrix(acc)


def _strong_by_split(p, goal: str, tol) -> Verdict:
    tol = _resolve_tol(p, tol)
    s = _split_combination(p, proving=True, tol=tol)
    m = min_eig(s)
    status = Status.PROVED if passes(m, goal, tol) else Status.UNKNOWN
    return Verdict(status, "split", SplitWitness(s, m))


def strong_psd_split(p: ParametricSymMatrix, tol: float | None = None) -> Verdict:
    """Sufficient splitting condition for strong PSD; never disproves."""
    return _strong_by_split(p, "psd", tol)


def strong_pd_split(p: ParametricSymMatrix, tol: float | None = None) -> Verdict:
    """Sufficient splitting condition for strong PD; never disproves."""
    return _strong_by_split(p, "pd", tol)


def _weak_by_necessary(p, goal: str, tol) -> Verdict:
    tol = _resolve_tol(p, tol)
    n = _split_combination(p, proving=False, tol=tol)
    m = min_eig(n)
    status = Status.UNKNOWN if passes(m, goal, tol) else Status.DISPROVED
    return Verdict(status, "necessary", NecessaryFailure(n, m))


def weak_psd_necessary(p: ParametricSymMatrix, tol: float | None = None) -> Verdict:
    """Necessary condition for weak PSD; Disproved means no member is PSD."""
    return _weak_by_necessary(p, "psd", tol)


def weak_pd_necessary(p: ParametricSymMatrix, tol: float | None = None) -> Verdict:
    """Necessary condition for weak PD; Disproved means no member is PD."""
    return _weak_by_necessary(p, "pd", tol)


# ---------------------------------------------------------------------------
# regularity route


def strong_pd_regularity(p: ParametricSymMatrix, tol: float | None = None) -> Verdict:
    """Strong PD via definiteness at the midpoint plus the Beeck regularity bound.

    Proves when A(mid) is PD and rho(Rad M) < 1 for the midpoint-
    preconditioned relaxation M; sufficient only, so the alternative is
    always Unknown.
    """
    tol = _resolve_tol(p, tol)
    mid_min = min_eig(evaluate(p, p.box.mid(), check=False))
    try:
        _, m = precondition_relax(p)
    except SingularMatrixError as exc:
        return Verdict(Status.UNKNOWN, "regularity", detail=f"singular midpoint: {exc}")
    bracket = spectral_radius_nonneg(m.rad())
    cert = BeeckWitness(bracket.upper, bracket.converged)
    mid_pd = passes(mid_min, "pd", tol)
    if mid_pd and bracket.upper < 1.0 - RHO_MARGIN:
        return Verdict(Status.PROVED, "regularity", cert)
    why = "spectral radius not below one" if mid_pd else "midpoint not positive definite"
    return Verdict(Status.UNKNOWN, "regularity", cert, detail=why)


# ---------------------------------------------------------------------------
# classical interval-matrix checks and the Hertz minimum eigenvalue


def interval_tol(a: IntervalMatrix) -> float:
    """Uniform tolerance ``scaled_tol(n * max|entry|)`` of the interval-matrix checks."""
    return scaled_tol(a.rows * a.max_abs())


def hertz_min_eig(a: IntervalMatrix) -> float:
    """Exact smallest eigenvalue over a symmetric interval matrix.

    Minimum of the smallest eigenvalues of the 2^(n-1) sign-vertex
    matrices Mid - diag(z) Rad diag(z) (Hertz, IEEE Trans. Automat.
    Control 37, 1992); exponential in n.  z and -z give the same matrix,
    so z_0 stays +1 and the other signs are the bits of 0 .. 2^(n-1) - 1.
    The value is exact, so it is never below Rohn's cheap bound
    lambda_min(Mid) - rho(Rad) (Rohn, SIAM J. Matrix Anal. Appl. 15, 1994).

    Each sign matrix goes through the Jacobi kernel, one call per matrix;
    this is the kernel's only caller.  Batching them through LAPACK makes
    the benchmark's ``convex`` workload over ten times faster, and its
    harness, which keeps every verdict's report, then exceeds the
    ``peak_rss_mb`` bound.  The move waits for that fix (ROADMAP item 1).
    """
    mid, rad = a.symmetric_parts()
    i = np.arange(1 << (a.rows - 1))
    signs = np.ones((len(i), a.rows))
    signs[:, 1:] -= 2 * ((i[:, None] >> np.arange(a.rows - 1)) & 1)
    return min(float(_jacobi_eigvals(SymMatrix(mid - np.outer(z, z) * rad))[0]) for z in signs)


def strong_psd_interval(a: IntervalMatrix, tol: float | None = None) -> bool:
    """Strong PSD of a symmetric interval matrix: ``hertz_min_eig(a)`` passes as PSD.

    ``tol`` defaults to ``interval_tol(a)``; ValueError for a NaN,
    infinite or negative ``tol``, or when the default overflows.
    """
    tol = interval_tol(a) if tol is None else check_tol(tol)
    return passes(hertz_min_eig(a), "psd", tol)


# ---------------------------------------------------------------------------
# heuristic witness search for weak definiteness


def _coordinate_ascent(p: ParametricSymMatrix, starts: np.ndarray, sweeps: int = 30, steps: int = 48):
    """Maximize min_eig(A(q)) over the box from each row of ``starts``.

    Each row runs per-coordinate ternary search, and the objective is
    concave in q, so each line search is unimodal.  The rows run in
    lockstep: every ternary step forms the two probe members of every
    active row and takes their smallest eigenvalues in one batched
    LAPACK call.  Each row keeps its own bracket, in Python floats, and
    leaves the batch once a sweep no longer improves it.  Returns the
    final points and their values.
    """
    lows = p.box.inf().tolist()
    highs = p.box.sup().tolist()
    q = starts.copy()
    best = _member_min_eigs(p, q)
    active = np.arange(len(q))
    for _ in range(sweeps):
        improved = best[active]
        for k in range(p.K):
            if lows[k] == highs[k]:
                continue
            rows = len(active)
            lo, hi = [lows[k]] * rows, [highs[k]] * rows
            probes = np.repeat(q[active], 2, axis=0)
            ab = [0.0] * (2 * rows)
            for _ in range(steps):
                for i in range(rows):
                    third = (hi[i] - lo[i]) / 3.0
                    ab[2 * i], ab[2 * i + 1] = lo[i] + third, hi[i] - third
                probes[:, k] = ab
                f = _member_min_eigs(p, probes).tolist()
                for i in range(rows):
                    if f[2 * i] < f[2 * i + 1]:
                        lo[i] = ab[2 * i]
                    else:
                        hi[i] = ab[2 * i + 1]
            q[active, k] = [0.5 * (lo[i] + hi[i]) for i in range(rows)]
            best[active] = _member_min_eigs(p, q[active])
        now = best[active]
        active = active[~(now - improved <= 1e-13 * (1.0 + np.abs(now)))]
        if not len(active):
            break
    return q, best


def weak_pd_witness(
    p: ParametricSymMatrix,
    restarts: int = 20,
    goal: str = "pd",
    seed: int = DEFAULT_SEED,
    tol: float | None = None,
) -> Optional[np.ndarray]:
    """Multi-start search for a parameter point whose matrix passes the goal.

    Returns a constructive witness or None; absence of a witness proves
    nothing.  ``goal="psd"`` relaxes the acceptance threshold to the PSD
    tolerance.  The first start is the box midpoint and runs alone; the
    other ``restarts - 1`` run in lockstep batches whose probe members
    fit ``VERTEX_CHUNK_BYTES``, and the lowest-index accepted start wins.
    """
    if goal not in ("pd", "psd"):
        raise ValueError(f"goal must be 'pd' or 'psd', got {goal!r}")
    tol = _resolve_tol(p, tol)
    q, best = _coordinate_ascent(p, p.box.mid()[None])
    if passes(best[0], goal, tol):
        return q[0]
    rng = np.random.default_rng(seed)
    starts = rng.uniform(p.box.inf(), p.box.sup(), size=(max(restarts, 1) - 1, p.K))
    rows = max(1, VERTEX_CHUNK_BYTES // (2 * p.coefficient_stack()[0].nbytes))
    for first in range(0, len(starts), rows):
        q, best = _coordinate_ascent(p, starts[first : first + rows])
        ok = passes(best, goal, tol)
        if ok.any():
            return q[int(np.argmax(ok))]
    return None


def _weak_by_witness(p, goal: str, tol, restarts: int, seed: int) -> Verdict:
    witness = weak_pd_witness(p, restarts=restarts, goal=goal, seed=seed, tol=tol)
    if witness is None:
        return Verdict(Status.UNKNOWN, "witness", detail="no witness found; weak decision incomplete")
    m = float(_member_min_eigs(p, witness[None])[0])
    return Verdict(Status.PROVED, "witness", WitnessPoint(tuple(float(v) for v in witness), m))


# ---------------------------------------------------------------------------
# orchestration


class Stage(NamedTuple):
    """A decision stage, the goals it applies to, and the function that runs it.

    ``run(p, kind, tol, vertex_budget, restarts, seed)`` returns a Verdict;
    ``kind`` is "psd" or "pd", the property the goal asks about.
    """

    name: str
    goals: tuple[str, ...]
    run: Callable[..., Verdict]


# The cascade, cheap to expensive.  Strong goals get the sufficient
# splitting condition, then (PD only) the regularity route, then the exact
# vertex enumeration; weak goals get the necessary condition, then the
# witness search, and otherwise stay Unknown.
STAGES = (
    Stage("split", STRONG_GOALS, lambda p, kind, tol, *_: _strong_by_split(p, kind, tol)),
    Stage("regularity", ("strong_pd",), lambda p, kind, tol, *_: strong_pd_regularity(p, tol)),
    Stage("vertex", STRONG_GOALS, lambda p, kind, tol, budget, *_: _strong_by_vertices(p, kind, tol, budget)),
    Stage("necessary", WEAK_GOALS, lambda p, kind, tol, *_: _weak_by_necessary(p, kind, tol)),
    Stage("witness", WEAK_GOALS, lambda p, kind, tol, _, restarts, seed: _weak_by_witness(p, kind, tol, restarts, seed)),
)


def decide(
    p: ParametricSymMatrix,
    goal: str,
    tol: float | None = None,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    restarts: int = 20,
    seed: int = DEFAULT_SEED,
    timings: dict | None = None,
    method: str = "auto",
) -> Verdict:
    """Run the stages of ``STAGES`` that apply to ``goal`` until one decides.

    ``method="auto"`` walks the whole cascade; a stage name runs that
    stage alone.  The returned verdict's ``method`` names the stage that
    decided (or the last one run, when none did); stage wall times in
    milliseconds are added to ``timings`` when a dict is supplied.
    Raises ValueError when the goal or the stage is unknown, when the
    stage does not apply to the goal, or for a negative vertex budget.
    """
    if goal not in GOALS:
        raise ValueError(f"goal must be one of {GOALS}, got {goal!r}")
    check_budget(vertex_budget)
    kind = goal.rsplit("_", 1)[1]  # the property the goal asks about
    stages = [s for s in STAGES if goal in s.goals]
    if method != "auto":
        entry = next((s for s in STAGES if s.name == method), None)
        if entry is None:
            raise ValueError(f"unknown stage {method!r}; stages are {', '.join(s.name for s in STAGES)}")
        if goal not in entry.goals:
            raise ValueError(f"stage {method!r} applies to {', '.join(entry.goals)} only, not {goal}")
        stages = [entry]
    verdict = Verdict(Status.UNKNOWN, "none")
    for stage in stages:
        t0 = time.perf_counter()
        verdict = stage.run(p, kind, tol, vertex_budget, restarts, seed)
        if timings is not None:
            timings[stage.name] = timings.get(stage.name, 0.0) + (time.perf_counter() - t0) * 1e3
        if not verdict.unknown:
            break
    return verdict

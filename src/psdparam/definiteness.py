"""Decision procedures for strong and weak definiteness of parametric families.

Strong questions (does every member matrix satisfy the property?) are
decided exactly by reduced vertex enumeration and approximated cheaply by
a PSD-splitting sufficient condition and, for definiteness, a regularity
argument with the Beeck spectral-radius criterion.  Weak questions (does
some member satisfy it?) get a splitting-based necessary condition and a
heuristic witness search; a full weak decision is out of scope, so those
routes may report Unknown.

All verdicts follow one tolerance convention: a matrix counts as PSD when
its smallest eigenvalue is >= -tol and as PD when it is > +tol, so
"disproved PD" includes matrices whose smallest eigenvalue sits inside the
tolerance band.  Every Proved/Disproved verdict carries a certificate that
can be re-checked independently.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Union

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
    default_tol,
    min_eig,
    min_eigs,
    spectral_radius_nonneg,
)

DEFAULT_VERTEX_BUDGET = 1 << 20
# Largest block of member matrices the vertex route forms at once.
VERTEX_CHUNK_BYTES = 1 << 20
DEFAULT_SEED = 0x5EED
RHO_MARGIN = 1e-9

GOALS = ("strong_psd", "strong_pd", "weak_psd", "weak_pd")


class Status(Enum):
    PROVED = "proved"
    DISPROVED = "disproved"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class VertexList:
    """All reduced vertices checked; the worst one is recorded."""

    checked: int
    worst_vertex: tuple[float, ...]
    worst_min_eig: float


@dataclass(frozen=True)
class CounterexampleVertex:
    p: tuple[float, ...]
    min_eig: float


@dataclass(frozen=True)
class SplitWitness:
    """The splitting-condition bound matrix and its smallest eigenvalue."""

    matrix: SymMatrix
    min_eig: float


@dataclass(frozen=True)
class BeeckWitness:
    rho: float
    converged: bool


@dataclass(frozen=True)
class NecessaryFailure:
    """The necessary-condition bound matrix and its smallest eigenvalue."""

    matrix: SymMatrix
    min_eig: float


@dataclass(frozen=True)
class WitnessPoint:
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


@dataclass(frozen=True)
class SignVector:
    """Sign pattern z in {-1, +1}^n."""

    z: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (-1, 1) for v in self.z):
            raise ValueError("sign vector entries must be -1 or +1")


def sign_vectors(n: int) -> Iterator[SignVector]:
    """All sign vectors with the first entry pinned to +1.

    z and -z generate the same vertex matrix, so this halves the 2^n
    enumeration.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    for rest in itertools.product((1, -1), repeat=n - 1):
        yield SignVector((1, *rest))


def _resolve_tol(p: ParametricSymMatrix, tol: float | None) -> float:
    return family_tol(p) if tol is None else float(tol)


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
    tol = _resolve_tol(p, tol)
    enum = vertices(p, goal, tol=tol)
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
        failed = mins <= tol if goal == "pd" else mins < -tol
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
    if w[0] >= -tol:
        return a, np.zeros_like(a)
    if w[-1] <= tol:
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
    ok = m > tol if goal == "pd" else m >= -tol
    status = Status.PROVED if ok else Status.UNKNOWN
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
    fails = m <= tol if goal == "pd" else m < -tol
    status = Status.DISPROVED if fails else Status.UNKNOWN
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
    if mid_min > tol and bracket.upper < 1.0 - RHO_MARGIN:
        return Verdict(Status.PROVED, "regularity", cert)
    why = "midpoint not positive definite" if mid_min <= tol else "spectral radius not below one"
    return Verdict(Status.UNKNOWN, "regularity", cert, detail=why)


# ---------------------------------------------------------------------------
# classical interval-matrix checks and the Hertz minimum eigenvalue


def _sign_vertex_matrices(a: IntervalMatrix) -> Iterator[SymMatrix]:
    mid, rad = a.symmetric_parts()
    for sv in sign_vectors(a.rows):
        z = np.array(sv.z, dtype=float)
        yield SymMatrix(mid - np.outer(z, z) * rad)


def strong_psd_interval(a: IntervalMatrix, tol: float | None = None) -> bool:
    """Strong PSD of a symmetric interval matrix via sign-vertex enumeration."""
    for m in _sign_vertex_matrices(a):
        t = default_tol(m) if tol is None else tol
        if min_eig(m) < -t:
            return False
    return True


def strong_pd_interval(a: IntervalMatrix, tol: float | None = None) -> bool:
    """Strong PD of a symmetric interval matrix via sign-vertex enumeration."""
    for m in _sign_vertex_matrices(a):
        t = default_tol(m) if tol is None else tol
        if min_eig(m) <= t:
            return False
    return True


def hertz_min_eig(a: IntervalMatrix) -> float:
    """Exact smallest eigenvalue over a symmetric interval matrix.

    Minimum of the smallest eigenvalues of the 2^(n-1) sign-vertex
    matrices Mid - diag(z) Rad diag(z) (Hertz, IEEE Trans. Automat.
    Control 37, 1992); exponential in n.  The value is exact, so it is
    never below Rohn's cheap bound lambda_min(Mid) - rho(Rad) (Rohn,
    SIAM J. Matrix Anal. Appl. 15, 1994).
    """
    return min(min_eig(m) for m in _sign_vertex_matrices(a))


# ---------------------------------------------------------------------------
# heuristic witness search for weak definiteness


def _coordinate_ascent(p: ParametricSymMatrix, start: np.ndarray, sweeps: int = 30, steps: int = 48):
    """Maximize min_eig(A(q)) over the box by per-coordinate ternary search.

    The objective is concave in q, so each line search is unimodal.  The
    two probes of a ternary step differ from q only in coordinate k; both
    members are formed and their smallest eigenvalues taken in one
    batched LAPACK call.
    """
    lows = p.box.inf()
    highs = p.box.sup()
    q = start.copy()
    best = float(_member_min_eigs(p, q[None])[0])
    probes = np.empty((2, p.K))
    for _ in range(sweeps):
        improved = best
        for k in range(p.K):
            if lows[k] == highs[k]:
                continue
            lo, hi = lows[k], highs[k]
            probes[:] = q
            for _ in range(steps):
                third = (hi - lo) / 3.0
                a, b = lo + third, hi - third
                probes[0, k], probes[1, k] = a, b
                fa, fb = _member_min_eigs(p, probes)
                if fa < fb:
                    lo = a
                else:
                    hi = b
            q[k] = 0.5 * (lo + hi)
            best = float(_member_min_eigs(p, q[None])[0])
        if best - improved <= 1e-13 * (1.0 + abs(best)):
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
    tolerance.
    """
    if goal not in ("pd", "psd"):
        raise ValueError(f"goal must be 'pd' or 'psd', got {goal!r}")
    tol = _resolve_tol(p, tol)
    rng = np.random.default_rng(seed)
    lows = p.box.inf()
    highs = p.box.sup()

    def accepted(value: float) -> bool:
        return value > tol if goal == "pd" else value >= -tol

    for trial in range(max(restarts, 1)):
        start = p.box.mid() if trial == 0 else rng.uniform(lows, highs)
        q, best = _coordinate_ascent(p, start)
        if accepted(best):
            return q
    return None


# ---------------------------------------------------------------------------
# orchestration


def decide(
    p: ParametricSymMatrix,
    goal: str,
    tol: float | None = None,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    restarts: int = 20,
    seed: int = DEFAULT_SEED,
    timings: dict | None = None,
) -> Verdict:
    """Cheap-to-expensive cascade over the applicable decision procedures.

    Strong goals try the splitting condition, then (PD only) the
    regularity route, then reduced vertex enumeration within the budget.
    Weak goals try the necessary condition, then the witness search, and
    otherwise stay Unknown since the complete weak decision is not
    implemented.  The returned verdict's ``method`` names the stage that
    decided; stage wall times in milliseconds are appended to ``timings``
    when a dict is supplied.
    """
    if goal not in GOALS:
        raise ValueError(f"goal must be one of {GOALS}, got {goal!r}")

    def run(name, fn):
        t0 = time.perf_counter()
        verdict = fn()
        if timings is not None:
            timings[name] = timings.get(name, 0.0) + (time.perf_counter() - t0) * 1e3
        return verdict

    last = Verdict(Status.UNKNOWN, "none")
    if goal in ("strong_psd", "strong_pd"):
        pd = goal == "strong_pd"
        last = run("split", lambda: _strong_by_split(p, "pd" if pd else "psd", tol))
        if not last.unknown:
            return last
        if pd:
            last = run("regularity", lambda: strong_pd_regularity(p, tol))
            if not last.unknown:
                return last
        last = run("vertex", lambda: _strong_by_vertices(p, "pd" if pd else "psd", tol, vertex_budget))
        return last

    kind = "pd" if goal == "weak_pd" else "psd"
    last = run("necessary", lambda: _weak_by_necessary(p, kind, tol))
    if not last.unknown:
        return last

    def search():
        witness = weak_pd_witness(p, restarts=restarts, goal=kind, seed=seed, tol=tol)
        if witness is None:
            return Verdict(Status.UNKNOWN, "witness", detail="no witness found; weak decision incomplete")
        m = float(_member_min_eigs(p, witness[None])[0])
        return Verdict(Status.PROVED, "witness", WitnessPoint(tuple(float(v) for v in witness), m))

    return run("witness", search)

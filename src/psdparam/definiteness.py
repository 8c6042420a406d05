"""Decision procedures for strong and weak definiteness of parametric families.

Strong questions (does every member matrix satisfy the property?) are
decided exactly by reduced vertex enumeration within a vertex budget,
and approximated cheaply by a PSD-splitting sufficient condition and,
for definiteness, a regularity argument with the Beeck spectral-radius
criterion.  Weak questions (does some member satisfy it?) get a
splitting-based necessary condition and a heuristic witness search,
which tests every start member at once before it climbs from any; a full
weak decision is out of scope, so those routes may report Unknown.  The
splitting bounds use each coefficient's PSD parts alone; only the vertex
stage pins coefficients, and only it accounts for what pinning may miss.

The stages form one table, ``STAGES``, run only by ``decide``; each
public per-stage function is one ``decide(..., method=...)`` call.

All verdicts follow one tolerance rule, ``passes``: a matrix counts as
PSD when its smallest eigenvalue is >= -tol and as PD when it is > +tol,
so "disproved PD" includes matrices whose smallest eigenvalue sits inside
the tolerance band.  A vertex passes when the vertex stage's Cholesky
screen clears it, which bounds its exact smallest eigenvalue past the
threshold, or when its computed smallest eigenvalue passes.  Every
Proved/Disproved verdict carries a certificate that can be re-checked
independently.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, ClassVar, Iterator, NamedTuple, Optional, Union

import numpy as np

from .intervals import IntervalMatrix, _clamped_mid
from .parametric import ParametricSymMatrix, VertexEnumeration, _members, evaluate, family_tol, vertices
from .symlinalg import (
    SingularMatrixError,
    SymMatrix,
    _jacobi_eigvals,
    check_tol,
    eig_sym,
    invert,
    min_eig,
    min_eigs,
    passes,
    scaled_tol,
    shifted_cholesky_pivots,
    spectral_radius_nonneg,
    symmetrize,
)

DEFAULT_VERTEX_BUDGET = 1 << 20
# The first of ``_blocks`` (at least one row), which every blocked scan shares;
# blocks double up to the second.
FIRST_VERTEX_BLOCK_BYTES = 1 << 12
VERTEX_CHUNK_BYTES = 1 << 20
WITNESS_RESTARTS = 20
WITNESS_SEED = 0x5EED
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
    """All ``checked`` reduced vertices pass; the worst one is recorded.

    When the Cholesky screen cleared every vertex, ``shift`` is its shift s: every vertex member less
    s I factored, so every one's exact smallest eigenvalue exceeds the goal's threshold plus the pinned
    shortfall.  ``worst_min_eig`` is then None, and ``worst_vertex`` the first vertex with the smallest
    Cholesky pivot.  Otherwise ``shift`` is None and the worst vertex is the first attaining the
    smallest computed eigenvalue, ``worst_min_eig``.
    """

    json_type: ClassVar[str] = "vertex_list"
    checked: int
    worst_vertex: tuple[float, ...]
    worst_min_eig: Optional[float]
    shift: Optional[float] = None


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
    """A status and its certificate, stamped by ``decide`` with how it was reached.

    ``method`` names the stage that decided (or ran last), ``tol`` the tolerance every stage compared with, and
    ``stage_ms`` each stage run, in order, with its wall time in ms; times vary, so it takes no part in equality.
    """

    status: Status
    method: str = ""
    certificate: Optional[Certificate] = None
    detail: str = ""
    tol: Optional[float] = None
    stage_ms: tuple[tuple[str, float], ...] = field(default=(), compare=False)

    @property
    def proved(self) -> bool:
        return self.status is Status.PROVED

    @property
    def disproved(self) -> bool:
        return self.status is Status.DISPROVED

    @property
    def unknown(self) -> bool:
        return self.status is Status.UNKNOWN


# ---------------------------------------------------------------------------
# vertex characterizations


def _blocks(total: int, row_bytes: int) -> Iterator[tuple[int, int]]:
    """(start, stop) pairs covering range(total): FIRST_VERTEX_BLOCK_BYTES of rows, doubling to VERTEX_CHUNK_BYTES.

    Every block holds at least one row.  The vertex scan, the witness climbs
    and ``hertz_min_eig``'s sign rows take their blocks from here.
    """
    first, cap = (max(1, b // row_bytes) for b in (FIRST_VERTEX_BLOCK_BYTES, VERTEX_CHUNK_BYTES))
    start, size = 0, min(first, cap)
    while start < total:
        stop = min(start + size, total)
        yield start, stop
        start, size = stop, min(2 * size, cap)


def _screen_shift(p: ParametricSymMatrix, kind: str, tol: float, shortfall: float) -> Optional[float]:
    """The Cholesky screen's shift s = t + m for one vertex scan, or None when it would not stay finite.

    t is the goal's threshold (tol for PD, -tol for PSD) plus the enumeration's pinned ``shortfall``.  The
    margin m covers three roundings, bounded in the 2-norm with R = ``p.norm_bound`` >= ||sum_k |A_k| |q_k| ||
    over the box, u = 2^-53, Higham's gamma_j = j u / (1 - j u) and g' = gamma_{n+1} / (1 - gamma_{n+1}):
    - forming A(v) = sum_k A_k v_k, whose error E has |E| <= gamma_K sum_k |A_k| |v_k|, so ||E|| <= gamma_K R;
    - subtracting s from the diagonal, a diagonal D with ||D|| <= u (R + |s|);
    - the Cholesky factorization of the computed M = A(v) + E - s I + D: when it runs to completion,
      L L^T = M + F with |F| <= gamma_{n+1} |L| |L^T| (Higham, *Accuracy and Stability of Numerical
      Algorithms*, Thm 10.3), so |F| <= g' d d^T with d_i = sqrt(M_ii) (Rump, BIT 46, 2006), and
      ||F|| <= g' tr(M) <= g' n (R + |s|).
    L L^T is PD, so lambda_min(A(v)) > s - ||E|| - ||D|| - ||F||.  m is twice the sum of the three bounds, with
    |t| for |s|, plus an underflow floor of 4 (n + K + 2)^2 2^-1074 (1 + R + |t|), since gradual underflow adds
    an absolute error up to 2^-1074 to each of the O(n + K) products behind an entry.  The factor 2 covers
    |s| <= |t| + m and the roundings of R, m and s themselves.  So every member the screen clears has its exact
    smallest eigenvalue above t.  With the default tolerance, 1e-10 (1 + R), m is about 2.2e-6 (n^2 + n + K + 1)
    tolerances when R >> 1: under 1e-3 of it at n = 10 for K up to 300.
    """
    n, k, u = p.n, p.K, 2.0**-53
    gamma_k, gamma_n = (j * u / (1.0 - j * u) for j in (k, n + 1))
    reach = p.norm_bound
    t = (tol if kind == "pd" else -tol) + shortfall
    size = reach + abs(t)
    margin = 2.0 * (gamma_k * reach + u * size + gamma_n / (1.0 - gamma_n) * n * size)
    shift = t + (margin + 4 * (n + k + 2) ** 2 * 2.0**-1074 * (1.0 + size))
    # Bounds the members' diagonals less the shift away from overflow, so every screened entry is finite.
    return shift if math.isfinite(2.0 * (reach + abs(shift))) else None


def _scan_vertices(p: ParametricSymMatrix, enum: VertexEnumeration, kind: str, tol: float, budget: int) -> Verdict:
    """Scan ``enum`` in Gray order, in the ``_blocks`` of one member matrix per row; proved when every vertex passes.

    A vertex passes when the Cholesky screen clears it or when its computed smallest eigenvalue passes.
    The screen factors each block's members less ``_screen_shift``'s s times I in one batched Cholesky;
    a cleared block has every member's exact smallest eigenvalue above the goal's threshold plus the
    enumeration's shortfall, and skips the eigen-solve.  From the first block the screen does not clear,
    each block takes its members' smallest eigenvalues in one batched call, as an unscreened scan would,
    and the scan stops at the first block with a failing vertex; the certificate names its first failing
    vertex in Gray order.  A proof whose every block the screen cleared is ``VertexList`` with ``shift``
    s, no ``worst_min_eig``, and as ``worst_vertex`` the first vertex with the smallest Cholesky pivot,
    the one the screen found nearest to failing.  Any other proof takes the cleared blocks' eigenvalues
    too, and names the first vertex attaining the minimum with its value.  Neither depends on the block sizes.
    """
    total = 1 << enum.free_count  # not len(enum): len() refuses counts past sys.maxsize
    if total > budget:
        return Verdict(Status.UNKNOWN, detail=f"2^{enum.free_count} vertices exceed budget {budget}")
    shift = _screen_shift(p, kind, tol, enum.shortfall)
    row_bytes, cleared = p.coefficient_stack()[0].nbytes, 0  # cleared: where the blocks the screen cleared end
    pivots, minima = [], []  # per block: (smallest pivot or eigenvalue, block start, first vertex attaining it)
    for start, stop in _blocks(total, row_bytes):
        points = enum.points(start, stop)
        members = _members(p, points)
        screened = shifted_cholesky_pivots(members, shift) if shift is not None and not minima else None
        if screened is not None:
            pivots.append(_first_minimum(screened, start, points))
            cleared = stop
            continue
        mins = min_eigs(members)
        failed = ~passes(mins, kind, tol)
        if failed.any():
            i = int(np.argmax(failed))
            return Verdict(Status.DISPROVED, certificate=CounterexampleVertex(tuple(points[i].tolist()), float(mins[i])))
        minima.append(_first_minimum(mins, start, points))
    if not minima:
        return Verdict(Status.PROVED, certificate=VertexList(total, min(pivots)[2], None, shift))
    for start, stop in _blocks(cleared, row_bytes):  # the cleared blocks again: block sizes do not depend on the total
        points = enum.points(start, stop)
        minima.append(_first_minimum(min_eigs(_members(p, points)), start, points))
    worst, _, worst_vertex = min(minima)
    return Verdict(Status.PROVED, certificate=VertexList(total, worst_vertex, worst))


def _first_minimum(values: np.ndarray, start: int, points: np.ndarray) -> tuple[float, int, tuple[float, ...]]:
    """(smallest of ``values``, ``start``, the first row of ``points`` attaining it) for one block.

    The starts differ, so ``min`` over blocks picks the smallest value and, on a tie, the earliest block.
    """
    i = int(np.argmin(values))
    return float(values[i]), start, tuple(points[i].tolist())


def _strong_by_vertices(p: ParametricSymMatrix, kind: str, tol: float, budget: int) -> Verdict:
    """``_scan_vertices`` over ``vertices(p, tol)``, rescanned once over its ``exact()`` set when pinning could matter.

    A failing vertex is a member, so it always disproves.  A proof stands when the Cholesky screen
    cleared every vertex, since its shift covers the enumeration's pinned shortfall, or when the
    smallest vertex value less that shortfall passes.  Otherwise the rescan frees every pinned
    coordinate with a nonzero shortfall, which leaves none, so its verdict is exact; past the budget
    it is Unknown.
    """
    enum = vertices(p, tol=tol)
    verdict = _scan_vertices(p, enum, kind, tol, budget)
    cert = verdict.certificate
    if verdict.proved and cert.shift is None and not passes(cert.worst_min_eig - enum.shortfall, kind, tol):
        verdict = _scan_vertices(p, enum.exact(), kind, tol, budget)
    return verdict


def strong_psd(
    p: ParametricSymMatrix, tol: float | None = None, budget: int = DEFAULT_VERTEX_BUDGET
) -> Verdict:
    """Exact decision of strong positive semidefiniteness over the reduced vertex set."""
    return decide(p, "strong_psd", tol, budget, method="vertex")


def strong_pd(
    p: ParametricSymMatrix, tol: float | None = None, budget: int = DEFAULT_VERTEX_BUDGET
) -> Verdict:
    """Exact decision of strong positive definiteness over the reduced vertex set."""
    return decide(p, "strong_pd", tol, budget, method="vertex")


# ---------------------------------------------------------------------------
# splitting-based one-shot conditions


def _split_combination(p: ParametricSymMatrix, plus_at: np.ndarray, minus_at: np.ndarray) -> SymMatrix:
    """sum_k plus_k * plus_at[k] - minus_k * minus_at[k] over the family's PSD parts A_k = plus_k - minus_k.

    For q_k in [lo_k, hi_k], plus_k lo_k - minus_k hi_k <= A_k q_k <= plus_k
    hi_k - minus_k lo_k in the Loewner order, so with the box's (inf, sup)
    this underestimates every member, and with (sup, inf) it overestimates
    every member.  The terms are summed in k order from zero.
    """
    plus, minus = p.coefficient_parts()
    # accumulate adds in k order (reduce may pair terms up); + 0.0 turns its -0.0 into the 0.0 a sum from zero gives.
    return SymMatrix(np.add.accumulate(plus * plus_at[:, None, None] - minus * minus_at[:, None, None])[-1] + 0.0)


def _strong_by_split(p: ParametricSymMatrix, kind: str, tol: float, budget: int) -> Verdict:
    """Proved when the lower bound matrix passes; never disproves."""
    s = _split_combination(p, p.box.inf(), p.box.sup())
    m = min_eig(s)
    return Verdict(Status.PROVED if passes(m, kind, tol) else Status.UNKNOWN, certificate=SplitWitness(s, m))


def strong_psd_split(p: ParametricSymMatrix, tol: float | None = None) -> Verdict:
    """Sufficient splitting condition for strong PSD; never disproves."""
    return decide(p, "strong_psd", tol, method="split")


def strong_pd_split(p: ParametricSymMatrix, tol: float | None = None) -> Verdict:
    """Sufficient splitting condition for strong PD; never disproves."""
    return decide(p, "strong_pd", tol, method="split")


def _weak_by_necessary(p: ParametricSymMatrix, kind: str, tol: float, budget: int) -> Verdict:
    """Disproved when the upper bound matrix fails; never proves."""
    n = _split_combination(p, p.box.sup(), p.box.inf())
    m = min_eig(n)
    return Verdict(Status.UNKNOWN if passes(m, kind, tol) else Status.DISPROVED, certificate=NecessaryFailure(n, m))


def weak_pd_necessary(p: ParametricSymMatrix, tol: float | None = None) -> Verdict:
    """Necessary condition for weak PD; Disproved means no member is PD."""
    return decide(p, "weak_pd", tol, method="necessary")


# ---------------------------------------------------------------------------
# regularity route


def strong_pd_regularity(p: ParametricSymMatrix, tol: float | None = None) -> Verdict:
    """Strong PD via definiteness at the midpoint plus the Beeck regularity bound.

    Proves when A(mid) is PD and rho(G) < 1 for a bound G >= |I - C A(q)|
    over the box, C = A(mid)^-1; sufficient only, so the alternative is
    always Unknown.
    """
    return decide(p, "strong_pd", tol, method="regularity")


def _beeck_bound(p: ParametricSymMatrix, c: np.ndarray, shift: float) -> np.ndarray:
    """G >= |I - C (A(q) - s I)| entrywise for q in the box and 0 <= s <= shift, for any float C: mid-rad, after Rump (BIT 39, 1999).

    With P = C @ stack, m the box midpoint and r = nextafter(max(m - lo, hi - m)), G is |I - sum_k P_k m_k|
    + sum_k |P_k| r_k + gamma_n |C| sum_k |A_k| (|m_k| + r_k) + gamma_{K+1} (I + sum_k |P_k| |m_k|) + an underflow
    term (tiny factor first, so it stays finite) + shift |C|, times 1 + gamma_{n+K+8} for its own n + K + 8 roundings.
    Higham's gamma_j = j u / (1 - j u) is taken as (j + 1) u, exact in floats, and the last factor as
    1 + (n + K + 10) u, rounded.
    """
    stack, n, k, u, m = p.coefficient_stack(), p.n, p.K, 2.0**-53, p.box.mid()
    r = np.nextafter(np.maximum(m - p.box.inf(), p.box.sup() - m), np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        prod, abs_c, reach = (c @ stack).reshape(k, n * n), np.abs(c), np.abs(m) + r
        spread, drift = (np.array([r, np.abs(m)]) @ np.abs(prod)).reshape(2, n, n)
        g = np.abs(np.eye(n) - (m @ prod).reshape(n, n)) + spread + (k + 2) * u * (np.eye(n) + drift)
        g += (n + 1) * u * (abs_c @ (reach @ np.abs(stack).reshape(k, n * n)).reshape(n, n))
        g += ((n + 2 * k + 5) * 2.0**-1074) * (1.0 + reach.sum()) * (1.0 + n * abs_c.max())
        g += shift * abs_c
        return g * (1.0 + (n + k + 10) * u)


def _strong_pd_by_regularity(p: ParametricSymMatrix, kind: str, tol: float, budget: int) -> Verdict:
    """A(mid) PD and rho(``_beeck_bound``) < 1, with one ``eig_sym`` of A(mid) for the PD test and for C.

    The bound covers every A(q) - s I with s in [0, tol], so none is singular; A(mid) - tol I is PD, and
    the box is connected, so every member's smallest eigenvalue exceeds tol, as the PD rule asks.
    For G >= 0, min row sum <= rho(G) <= max row sum, so when the smallest row sum is at least 1 the
    Perron bracket is skipped and the certificate carries the largest row sum, unconverged.
    """
    a_mid = evaluate(p, p.box.mid(), check=False)
    spectrum = eig_sym(a_mid)
    try:
        g = _beeck_bound(p, invert(a_mid, spectrum), tol)
    except SingularMatrixError as exc:
        return Verdict(Status.UNKNOWN, detail=f"singular midpoint: {exc}")
    if not np.isfinite(g).all():
        return Verdict(Status.UNKNOWN, detail="Beeck bound matrix overflows double precision")
    row_sums = g.sum(axis=1)
    if row_sums.min() >= 1.0:
        cert = BeeckWitness(float(row_sums.max()), False)
    else:
        bracket = spectral_radius_nonneg(g)
        cert = BeeckWitness(bracket.upper, bracket.converged)
    mid_pd = passes(spectrum[0][0], "pd", tol)
    if mid_pd and cert.rho < 1.0 - RHO_MARGIN:
        return Verdict(Status.PROVED, certificate=cert)
    why = "spectral radius not below one" if mid_pd else "midpoint not positive definite"
    return Verdict(Status.UNKNOWN, certificate=cert, detail=why)


# ---------------------------------------------------------------------------
# classical interval-matrix checks and the Hertz minimum eigenvalue


def interval_tol(a: IntervalMatrix) -> float:
    """Uniform tolerance ``scaled_tol(n * max|entry|)`` of the interval-matrix checks."""
    return scaled_tol(a.rows * a.max_abs())


def hertz_min_eig(a: IntervalMatrix) -> float:
    """Exact smallest eigenvalue over a symmetric interval matrix.

    Minimum of the smallest eigenvalues of the 2^(n-1) sign-vertex
    matrices Mid - diag(z) Rad diag(z) (Hertz, IEEE Trans. Automat.
    Control 37, 1992); exponential in n, so past ``DEFAULT_VERTEX_BUDGET``
    of them it raises ValueError before it allocates anything.  z and -z
    give the same matrix, so the signs are a ``VertexEnumeration``, z_0
    pinned at +1 and the rest free on [-1, 1].  The value is exact, so it
    is never below Rohn's cheap bound lambda_min(Mid) - rho(Rad) (Rohn,
    SIAM J. Matrix Anal. Appl. 15, 1994).

    The sign rows stream in the vertex scan's ``_blocks``, a few blocks of
    memory at any n.  Each block is symmetrized once and solved by one call
    of the stack Jacobi kernel, its only caller; ROADMAP item 2 swaps in one
    LAPACK ``min_eigs`` per block.  Python's ``min`` over each sorted
    spectrum's first entry, in enumeration order, resolves a -0.0/0.0 tie
    to the first.  An empty matrix has no eigenvalues: ValueError.
    """
    if a.rows == 0:
        raise ValueError(f"the empty {a.rows}x{a.cols} interval matrix has no eigenvalues")
    if 1 << (a.rows - 1) > DEFAULT_VERTEX_BUDGET:
        raise ValueError(f"{a.rows} rows give 2^{a.rows - 1} sign matrices, past the budget {DEFAULT_VERTEX_BUDGET}")
    mid, rad = a.symmetric_parts()
    ones = np.ones(a.rows)
    signs = VertexEnumeration(ones, np.arange(a.rows) > 0, -ones, ones, np.zeros(a.rows))
    blocks = (signs.points(start, stop) for start, stop in _blocks(1 << (a.rows - 1), mid.nbytes))
    smallest = (_jacobi_eigvals(symmetrize(mid - np.einsum("vi,vj->vij", z, z) * rad)[0])[:, 0].tolist() for z in blocks)
    return min(x for block in smallest for x in block)


def strong_psd_interval(a: IntervalMatrix, tol: float | None = None) -> bool:
    """Strong PSD of a symmetric interval matrix: ``hertz_min_eig(a)`` passes as PSD.

    ``tol`` defaults to ``interval_tol(a)``; ValueError for a NaN,
    infinite or negative ``tol``, when the default overflows, or past
    ``hertz_min_eig``'s budget.
    """
    tol = interval_tol(a) if tol is None else check_tol(tol)
    return passes(hertz_min_eig(a), "psd", tol)


# ---------------------------------------------------------------------------
# heuristic witness search for weak definiteness


def _coordinate_ascent(p: ParametricSymMatrix, starts: np.ndarray, values: np.ndarray):
    """Maximize min_eig(A(q)) over the box from each row of ``starts``, whose smallest eigenvalues are ``values``.

    Each row runs up to 30 sweeps of per-coordinate ternary search, 48 steps per coordinate; the objective is
    concave in q, so each line search is unimodal.  Thirds are formed from halves of the bracket, finite on any
    box, and each midpoint is ``_clamped_mid``'s, in the box.  The rows run in lockstep, with their brackets in
    two arrays: every ternary step takes the smallest eigenvalues of all active rows' probe members in one
    batched LAPACK call and moves every bracket by one mask.  A row leaves the batch once a sweep no longer
    improves it.  Returns the final points and their values, each from the call that formed it.
    """
    lows, highs = p.box.inf(), p.box.sup()
    q = starts.copy()
    best = values.copy()
    active = np.arange(len(q))
    for _ in range(30):
        improved = best[active]
        for k in np.flatnonzero(lows < highs):
            lo, hi = np.full(len(active), lows[k]), np.full(len(active), highs[k])
            probes = np.repeat(q[active], 2, axis=0)
            a, b = probes[0::2, k], probes[1::2, k]  # views: each step writes its probes in place
            for _ in range(48):
                third = (0.5 * hi - 0.5 * lo) / 1.5
                np.add(lo, third, out=a)
                np.subtract(hi, third, out=b)
                f = min_eigs(_members(p, probes))
                left = f[0::2] < f[1::2]
                lo, hi = np.where(left, a, lo), np.where(left, hi, b)
            q[active, k] = _clamped_mid(lo, hi)
            best[active] = min_eigs(_members(p, q[active]))
        now = best[active]
        active = active[~(now - improved <= 1e-13 * (1.0 + np.abs(now)))]
        if not len(active):
            break
    return q, best


def _weak_by_witness(p: ParametricSymMatrix, kind: str, tol: float, budget: int) -> Verdict:
    """Multi-start search for a parameter point whose member passes ``kind``: proved by it, else Unknown.

    The starts are the box midpoint and ``WITNESS_RESTARTS - 1`` points drawn with ``WITNESS_SEED`` (from
    halves of the bounds, capped at the upper one, so in any box).  All are tested first, in one batched
    call, and the lowest-index start that passes is the witness, with its value from that call.  When none
    passes, the starts climb in lockstep from those values, in the ``_blocks`` of two probe members per row,
    and the first block with an accepted climb gives its lowest-index one, with the value its climb ended
    on.  Finding none proves nothing.
    """
    lows, highs = p.box.inf(), p.box.sup()
    unit = np.random.default_rng(WITNESS_SEED).random((WITNESS_RESTARTS - 1, p.K))
    with np.errstate(over="ignore"):
        starts = np.vstack([p.box.mid(), np.minimum(lows + (0.5 * highs - 0.5 * lows) * (2.0 * unit), highs)])
    values = min_eigs(_members(p, starts))
    ok = passes(values, kind, tol)
    if ok.any():
        i = int(np.argmax(ok))
        return Verdict(Status.PROVED, certificate=WitnessPoint(tuple(starts[i].tolist()), float(values[i])))
    for start, stop in _blocks(len(starts), 2 * p.coefficient_stack()[0].nbytes):
        q, best = _coordinate_ascent(p, starts[start:stop], values[start:stop])
        ok = passes(best, kind, tol)
        if ok.any():
            i = int(np.argmax(ok))
            return Verdict(Status.PROVED, certificate=WitnessPoint(tuple(q[i].tolist()), float(best[i])))
    return Verdict(Status.UNKNOWN, detail="no witness found; weak decision incomplete")


# ---------------------------------------------------------------------------
# orchestration


class Stage(NamedTuple):
    """A decision stage, the goals it applies to, and the function that runs it.

    ``run(p, kind, tol, vertex_budget)`` returns a Verdict; ``kind``
    is "psd" or "pd", the property the goal asks about, and ``decide`` has
    already resolved ``tol`` and checked ``vertex_budget``.
    """

    name: str
    goals: tuple[str, ...]
    run: Callable[..., Verdict]


# The cascade, cheap to expensive.  Strong goals get the sufficient
# splitting condition, then (PD only) the regularity route, then the exact
# vertex enumeration; weak goals get the necessary condition, then the
# witness search, and otherwise stay Unknown.
STAGES = (
    Stage("split", STRONG_GOALS, _strong_by_split),
    Stage("regularity", ("strong_pd",), _strong_pd_by_regularity),
    Stage("vertex", STRONG_GOALS, _strong_by_vertices),
    Stage("necessary", WEAK_GOALS, _weak_by_necessary),
    Stage("witness", WEAK_GOALS, _weak_by_witness),
)


def decide(
    p: ParametricSymMatrix,
    goal: str,
    tol: float | None = None,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    method: str = "auto",
) -> Verdict:
    """Run the stages of ``STAGES`` that apply to ``goal`` until one decides; the same call gives the same verdict.

    ``method="auto"`` walks the whole cascade; a stage name runs that
    stage alone.  The returned verdict's ``method`` names the stage that
    decided (or the last one run, when none did), its ``stage_ms`` lists
    each stage run with its wall time in milliseconds, and its ``tol`` is
    ``tol`` as given or else ``family_tol(p)``, resolved here.  Raises
    ValueError when the goal or the stage is unknown, when the stage does
    not apply to the goal, for a negative vertex budget, or for a bad or
    overflowing ``tol``.
    """
    if goal not in GOALS:
        raise ValueError(f"goal must be one of {GOALS}, got {goal!r}")
    if vertex_budget < 0:
        raise ValueError(f"vertex budget must be a nonnegative integer, got {vertex_budget!r}")
    kind = goal.rsplit("_", 1)[1]  # the property the goal asks about
    stages = [s for s in STAGES if goal in s.goals]
    if method != "auto":
        entry = next((s for s in STAGES if s.name == method), None)
        if entry is None:
            raise ValueError(f"unknown stage {method!r}; stages are {', '.join(s.name for s in STAGES)}")
        if goal not in entry.goals:
            raise ValueError(f"stage {method!r} applies to {', '.join(entry.goals)} only, not {goal}")
        stages = [entry]
    tol = family_tol(p) if tol is None else check_tol(tol)
    stage_ms = []
    for stage in stages:
        t0 = time.perf_counter()
        verdict = stage.run(p, kind, tol, vertex_budget)
        stage_ms.append((stage.name, (time.perf_counter() - t0) * 1e3))
        if not verdict.unknown:
            break
    return Verdict(verdict.status, method=stage.name, certificate=verdict.certificate, detail=verdict.detail, tol=tol, stage_ms=tuple(stage_ms))

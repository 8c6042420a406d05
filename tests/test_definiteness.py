"""Decision procedures: vertex checks, splitting conditions, regularity, Hertz, witness search."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    diag_sign_family,
    planted_pd_family,
    random_family,
    random_semidefinite_family,
    rank_one_cone,
    regularity_favorable,
    split_favorable,
    swap_copies_doc,
)
from psdparam import (
    AsymmetricMatrixError,
    BeeckWitness,
    CounterexampleVertex,
    Interval,
    IntervalMatrix,
    NecessaryFailure,
    ParameterBox,
    ParametricSymMatrix,
    SplitWitness,
    Status,
    SymMatrix,
    VertexList,
    WitnessPoint,
    certify_convexity,
    decide,
    evaluate,
    family_tol,
    hertz_min_eig,
    min_eig,
    parse,
    problem_from_json,
    relax,
    spectral_radius_nonneg,
    strong_pd,
    strong_pd_regularity,
    strong_pd_split,
    strong_psd,
    strong_psd_interval,
    strong_psd_split,
    vertices,
    weak_pd_necessary,
)
from psdparam import definiteness
from psdparam.oracle import DEFAULT_SEED, _member_min_eigs, _sample_points, sample_min_eig
from psdparam.parametric import VertexEnumeration, _members
from psdparam.symlinalg import _jacobi_eigvals, invert, min_eigs, psd_parts

_MAX = np.finfo(float).max
PLANTED_FREE = 5  # 32 vertices; the chunks start at rows 0, 1, 3, 7, 15 and 31


def planted_vertex_family(rng, j: int, shift: float, free: int = PLANTED_FREE, n: int = 3) -> ParametricSymMatrix:
    """shift * I on a degenerate parameter plus ``free`` indefinite n x n coefficients on [-1, 1].

    Gray vertex ``j`` alone puts -free on the (0, 0) entry; every other
    vertex puts at least 2 more there, and the rest stays within +-0.6
    (n = 3; about +-0.1 n for larger n).  So with the default five free
    coefficients and shift 4 only vertex ``j`` fails, with shift 2.5 it
    and its Gray neighbours fail, and with shift 6 every vertex passes
    and ``j`` is the worst.
    """
    gray = j ^ (j >> 1)
    e = np.eye(n)
    twist = 0.1 * (np.outer(e[1], e[1]) - np.outer(e[2], e[2]))
    coeffs = [e]
    for bit in range(free):
        sign = 1.0 if (gray >> bit) & 1 else -1.0
        noise = rng.uniform(-0.01, 0.01, (n, n))
        coeffs.append(-sign * np.outer(e[0], e[0]) + twist + noise + noise.T)
    box = ParameterBox([Interval(shift, shift)] + [Interval(-1.0, 1.0)] * free)
    return ParametricSymMatrix(coeffs, box)


def sequential_vertex_scan(p: ParametricSymMatrix, goal: str, tol: float | None = None):
    """The one-vertex-at-a-time scalar scan the batched route must agree with."""
    tol = family_tol(p) if tol is None else tol
    enum = vertices(p, tol=tol)
    worst, worst_vertex = np.inf, None
    for i in range(len(enum)):
        v = enum[i].values
        m = min_eig(evaluate(p, v))
        if m < worst:
            worst, worst_vertex = m, v
        if m <= tol if goal == "pd" else m < -tol:
            return Status.DISPROVED, v, m
    return Status.PROVED, worst_vertex, worst


def tightest_vertex(p: ParametricSymMatrix, enum, shift: float) -> tuple[float, ...]:
    """The first vertex of ``enum`` with the smallest Cholesky pivot of A(v) - shift I, one vertex at a time."""
    members = np.einsum("vk,kij->vij", enum.points(0, len(enum)), p.coefficient_stack())
    pivots = [np.diag(np.linalg.cholesky(m - shift * np.eye(p.n))).min() for m in members]
    return enum[int(np.argmin(pivots))].values


def unscreened(monkeypatch):
    """Turn the vertex scan's Cholesky screen off, which leaves the eigenvalue-only scan."""
    monkeypatch.setattr(definiteness, "shifted_cholesky_pivots", lambda stack, shift: None)


def assert_matches_sequential(p: ParametricSymMatrix, goal: str, tol: float | None = None):
    """The vertex stage's verdict on ``p``, checked against ``sequential_vertex_scan``."""
    tol = family_tol(p) if tol is None else tol
    v = decide(p, f"strong_{goal}", tol, method="vertex")
    status, vertex, value = sequential_vertex_scan(p, goal, tol)
    assert v.status is status
    cert = v.certificate
    if status is Status.DISPROVED:
        assert isinstance(cert, CounterexampleVertex)
        assert (cert.p, cert.min_eig) == (vertex, pytest.approx(value, abs=1e-9))
    else:
        enum = vertices(p, tol=tol)
        assert isinstance(cert, VertexList) and cert.checked == len(enum)
        if cert.shift is not None:
            # The shift clears the goal's threshold plus the shortfall.
            assert cert.shift > (tol if goal == "pd" else -tol) + enum.shortfall
        if cert.worst_min_eig is None:
            # Screened throughout: the vertex named is the first with the smallest pivot.
            assert cert.shift is not None and value >= cert.shift - 1e-9
            assert cert.worst_vertex == tightest_vertex(p, enum, cert.shift)
        elif cert.shift is None or value < cert.shift - 1e-9:
            # Eigen-solved throughout, or mixed with the worst vertex in an eigen-solved block.
            assert (cert.worst_vertex, cert.worst_min_eig) == (vertex, pytest.approx(value, abs=1e-9))
        else:
            # Mixed, with the worst vertex in a cleared block: the eigen-solved blocks' worst is no lower.
            assert min_eig(evaluate(p, cert.worst_vertex)) == cert.worst_min_eig >= value
    return v


class TestStrongVertex:
    def test_rank_one_cone_psd_proved(self):
        v = strong_psd(rank_one_cone())
        assert v.proved and v.method == "vertex"
        assert isinstance(v.certificate, VertexList) and v.certificate.checked >= 1

    def test_diag_sign_disproved_with_counterexample(self):
        v = strong_psd(diag_sign_family())
        assert v.disproved
        cert = v.certificate
        assert isinstance(cert, CounterexampleVertex)
        assert cert.p[0] in (1.0, 2.0)
        # Certificate re-check: the vertex matrix really fails PSD.
        m = min_eig(evaluate(diag_sign_family(), cert.p))
        assert m == pytest.approx(cert.min_eig, abs=1e-9)
        assert m < 0

    def test_proved_instances_agree_with_grid_oracle(self, rng):
        found = 0
        while found < 5:
            p = random_family(rng)
            v = strong_psd(p)
            if v.proved:
                found += 1
                value, _ = sample_min_eig(p, "grid", d=4)
                assert value >= -10 * family_tol(p)

    def test_split_favorable_pd_proved(self):
        assert strong_pd(split_favorable()).proved

    def test_rank_one_cone_pd_disproved(self):
        v = strong_pd(rank_one_cone())
        assert v.disproved

    def test_regularity_favorable_pd_proved(self):
        assert strong_pd(regularity_favorable()).proved

    def test_budget_exhaustion_returns_unknown(self, rng):
        p = random_family(rng, max_n=3, max_k=4)
        while True:
            from psdparam import vertices

            if vertices(p).free_count >= 2:
                break
            p = random_family(rng, max_n=3, max_k=4)
        v = strong_psd(p, budget=1)
        assert v.unknown and "budget" in v.detail

    @pytest.mark.parametrize("goal", ["strong_psd", "strong_pd"])
    @pytest.mark.parametrize("copies", [63, 64])
    def test_vertex_count_past_sys_maxsize_is_unknown(self, goal, copies):
        # len() of a 2^63-vertex enumeration raises OverflowError; the budget test must not take it.
        v = decide(problem_from_json(swap_copies_doc(copies)), goal)
        assert v.unknown and v.method == "vertex"
        assert v.detail == f"2^{copies} vertices exceed budget {definiteness.DEFAULT_VERTEX_BUDGET}"


class TestBatchedVertexRoute:
    @pytest.fixture(autouse=True)
    def one_row_first_block(self, monkeypatch):
        # Blocks of 1, 2, 4, ... rows, so the planted vertices sit at block boundaries.
        monkeypatch.setattr(definiteness, "FIRST_VERTEX_BLOCK_BYTES", 1)

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 6, 7, 14, 15, 30, 31])
    @pytest.mark.parametrize("goal", ["psd", "pd"])
    def test_planted_first_failure(self, rng, j, goal):
        p = planted_vertex_family(rng, j, shift=4.0)
        v = assert_matches_sequential(p, goal)
        assert v.disproved and v.certificate.p == vertices(p)[j].values

    @pytest.mark.parametrize("j", [0, 3, 15, 31])
    @pytest.mark.parametrize("shift", [2.5, 0.5])
    @pytest.mark.parametrize("goal", ["psd", "pd"])
    def test_planted_several_failures(self, rng, j, shift, goal):
        v = assert_matches_sequential(planted_vertex_family(rng, j, shift), goal)
        assert v.disproved

    def test_tied_minimum_names_first_vertex(self):
        # A(p) = diag(p1, 10 - 0.001 p1 + p2, 10 - p2): the minimum ``low`` is
        # attained exactly at Gray vertices 0 and 3, in different chunks, and so
        # is the smallest Cholesky pivot.  1e-14 above tol lies inside the screen's
        # margin, so the blocks of vertices 0 and 3 take their eigenvalues while the
        # screen clears vertices 1 and 2 between them: a mixed proof.
        for low, tol in ((1.0, None), (1e-9 + 1e-14, 1e-9)):
            p = ParametricSymMatrix(
                [np.diag([1.0, -0.001, 0.0]), np.diag([0.0, 1.0, -1.0]), np.diag([0.0, 10.0, 10.0])],
                ParameterBox([Interval(low, low + 1.0), Interval(0.0, 1.0), Interval(1.0, 1.0)]),
            )
            cert = assert_matches_sequential(p, "pd", tol).certificate
            assert cert.worst_vertex == vertices(p)[0].values
            assert cert.shift is not None and cert.worst_min_eig == (None if tol is None else low)

    @pytest.mark.parametrize("j", [0, 7, 31])
    def test_planted_proved_names_worst_vertex(self, rng, j):
        # Screened: vertex j, the one worst by far, also has the smallest pivot.
        p = planted_vertex_family(rng, j, shift=6.0)
        v = assert_matches_sequential(p, "pd")
        assert v.proved and v.certificate.shift is not None and v.certificate.worst_vertex == vertices(p)[j].values

    def test_random_families(self, rng):
        decided = 0
        for _ in range(40):
            p = random_family(rng, max_n=4, max_k=6)
            for goal in ("psd", "pd"):
                decided += not assert_matches_sequential(p, goal).unknown
        assert decided == 80

    def test_one_row_chunks(self, rng, monkeypatch):
        monkeypatch.setattr(definiteness, "VERTEX_CHUNK_BYTES", 1)
        for j, shift in ((15, 4.0), (31, 2.5), (7, 6.0)):
            assert_matches_sequential(planted_vertex_family(rng, j, shift), "psd")


class TestCholeskyScreen:
    def test_proof_with_margin_skips_the_eigen_solve(self, rng, monkeypatch):
        calls = []
        solve = definiteness.min_eigs
        monkeypatch.setattr(definiteness, "min_eigs", lambda stack: calls.append(len(stack)) or solve(stack))
        for goal in ("strong_psd", "strong_pd"):
            v = decide(planted_vertex_family(rng, 7, shift=6.0), goal, method="vertex")
            assert v.proved and v.certificate.shift is not None and v.certificate.worst_min_eig is None
        assert calls == []

    @pytest.mark.parametrize("j", [0, 7, 31])
    def test_minimum_inside_the_margin_names_the_exact_worst_vertex(self, j):
        # The same noise at two shifts moves every member by the same multiple of I,
        # so the second family's minimum sits 2e-14 above tol, inside the margin.
        tol = 1e-6
        _, _, value = sequential_vertex_scan(planted_vertex_family(np.random.default_rng(j), j, 6.0), "pd", tol)
        p = planted_vertex_family(np.random.default_rng(j), j, 6.0 - (value - tol - 2e-14))
        assert definiteness._screen_shift(p, "pd", tol, 0.0) - tol > 4e-14
        v = assert_matches_sequential(p, "pd", tol)
        assert v.proved and v.certificate.shift is None and v.certificate.worst_vertex == vertices(p)[j].values
        assert 0.0 < v.certificate.worst_min_eig - tol < 1e-13

    @pytest.mark.parametrize(
        "failing_call, j",
        [pytest.param(1, 0, id="1"), pytest.param(3, 0, id="3"), pytest.param(5, 0, id="5"),
         pytest.param(3, 2, id="3-last-cleared-row"), pytest.param(5, 14, id="5-last-cleared-row")],
    )
    def test_cleared_blocks_join_the_exact_worst_vertex(self, rng, monkeypatch, failing_call, j):
        # Blocks of 1, 2, 4, 8, 16 and 1 rows; the screen fails only at ``failing_call``,
        # so that block alone is eigen-solved.  Cleared blocks are not replayed: the
        # mixed proof names the worst vertex of the eigen-solved block with its value,
        # which is vertex j, the worst overall, only when j lies in that block.
        monkeypatch.setattr(definiteness, "FIRST_VERTEX_BLOCK_BYTES", 1)
        screen, calls, solved = definiteness.shifted_cholesky_pivots, [], []

        def failing(stack, shift):
            calls.append(len(stack))
            return None if len(calls) == failing_call else screen(stack, shift)

        solve = definiteness.min_eigs
        monkeypatch.setattr(definiteness, "shifted_cholesky_pivots", failing)
        monkeypatch.setattr(definiteness, "min_eigs", lambda stack: solved.append(len(stack)) or solve(stack))
        p = planted_vertex_family(rng, j, shift=6.0)
        v = assert_matches_sequential(p, "pd")
        assert calls == [1, 2, 4, 8, 16, 1] and solved == [calls[failing_call - 1]]
        enum = vertices(p)
        start = sum(calls[: failing_call - 1])
        values = [min_eig(evaluate(p, enum[i].values)) for i in range(start, start + solved[0])]
        worst = start + int(np.argmin(values))
        cert = v.certificate
        assert cert.shift is not None and (cert.worst_vertex, cert.worst_min_eig) == (enum[worst].values, min(values))
        assert (worst == j) == (failing_call == 1)

    @pytest.mark.parametrize("j", [0, 1000, 4095])
    def test_mixed_proof_names_the_worst_eigen_solved_vertex(self, monkeypatch, j):
        # n = 6 and 2^12 vertices in the default blocks.  Vertex j's minimum sits 2e-14 above tol, inside the
        # screen's margin, and every other vertex's at least 2 above it: the screen clears every block but j's.
        tol, free = 1e-6, 12
        _, _, value = sequential_vertex_scan(planted_vertex_family(np.random.default_rng(j), j, 13.0, free, 6), "pd", tol)
        p = planted_vertex_family(np.random.default_rng(j), j, 13.0 - (value - tol - 2e-14), free, 6)
        enum = vertices(p, tol=tol)
        blocks = list(definiteness._blocks(len(enum), p.coefficient_stack()[0].nbytes))
        start, stop = next((a, b) for a, b in blocks if a <= j < b)
        assert len(blocks) > 2
        solved = []
        solve = definiteness.min_eigs
        monkeypatch.setattr(definiteness, "min_eigs", lambda stack: solved.append(stack.copy()) or solve(stack))
        v = decide(p, "strong_pd", tol, method="vertex")
        cert = v.certificate
        assert v.proved and cert.checked == len(enum) == 1 << free
        assert cert.shift is not None and cert.worst_min_eig is not None
        assert cert.worst_vertex == enum[j].values
        assert min_eig(evaluate(p, cert.worst_vertex)) == cert.worst_min_eig
        assert 0.0 < cert.worst_min_eig - tol < 1e-13
        assert len(solved) == 1 and np.array_equal(solved[0], _members(p, enum.points(start, stop)))

    def test_shortfall_mark_in_a_later_block_rescans_the_exact_set(self, monkeypatch):
        # The planted family plus two coefficients -0.9 tol e1 e1^T on [0, 1], pinned at 0 with a shortfall of
        # 1.8 tol along e1 in all.  Vertex 20, in the fifth of the blocks of 1, 2, 4, 8, 16 and 1 rows, has its
        # minimum 0.2 tol: it passes as PSD but not less the shortfall, so the screen fails its block and that
        # member marks the scan; the exact set's rescan has no shortfall, and its screen clears every vertex.
        monkeypatch.setattr(definiteness, "FIRST_VERTEX_BLOCK_BYTES", 1)
        tol, j = 1e-6, 20
        _, _, value = sequential_vertex_scan(planted_vertex_family(np.random.default_rng(5), j, 6.0), "psd", tol)
        planted = planted_vertex_family(np.random.default_rng(5), j, 6.0 - (value - 0.2 * tol))
        pinned = -0.9 * tol * np.outer(np.eye(3)[1], np.eye(3)[1])
        box = ParameterBox.from_bounds(list(zip(planted.box.inf(), planted.box.sup())) + [(0.0, 1.0)] * 2)
        p = ParametricSymMatrix(list(planted.coefficient_stack()) + [pinned, pinned], box)
        enum = vertices(p, tol=tol)
        assert len(enum) == 32 and enum.shortfall == pytest.approx(1.8 * tol) and len(enum.exact()) == 128
        solved = []
        solve = definiteness.min_eigs
        monkeypatch.setattr(definiteness, "min_eigs", lambda stack: solved.append(len(stack)) or solve(stack))
        v = decide(p, "strong_psd", tol, method="vertex")
        assert solved == [16]
        assert v.proved and v.certificate.checked == len(enum.exact())
        assert v.certificate.shift is not None and v.certificate.worst_min_eig is None

    def test_singular_integer_members_at_tol_zero(self, monkeypatch):
        # Exactly PSD and singular, so no shift clears them; what the eigenvalues
        # then say is the answer an unscreened scan gives.
        rng = np.random.default_rng(20)
        members = [np.array([[13.0, 2.0, -10.0], [2.0, 8.0, 0.0], [-10.0, 0.0, 8.0]])]
        members += [b @ b.T for b in rng.integers(-3, 4, (200, 3, 2)).astype(float)]
        families = [ParametricSymMatrix([a], ParameterBox([Interval(1.0, 1.0)])) for a in members]
        screened = [decide(p, goal, 0.0, method="vertex") for p in families for goal in ("strong_psd", "strong_pd")]
        assert not any(v.proved and v.certificate.shift is not None for v in screened)
        unscreened(monkeypatch)
        assert screened == [decide(p, goal, 0.0, method="vertex") for p in families for goal in ("strong_psd", "strong_pd")]
        assert screened[0].disproved and screened[1].disproved

    def test_disproofs_equal_the_eigenvalue_only_scan(self, rng, monkeypatch):
        families = [random_family(rng, max_n=4, max_k=6) for _ in range(200)]
        goals = ("strong_psd", "strong_pd")
        screened = [decide(p, goal, method="vertex") for p in families for goal in goals]
        unscreened(monkeypatch)
        reference = [decide(p, goal, method="vertex") for p in families for goal in goals]
        assert [v.status for v in screened] == [v.status for v in reference]
        disproofs = [(v.certificate, r.certificate) for v, r in zip(screened, reference) if v.disproved]
        assert len(disproofs) > 100 and all(a == b for a, b in disproofs)
        assert any(v.proved and v.certificate.shift is not None for v in screened)

    def test_overflowing_shift_turns_the_screen_off(self):
        p = planted_vertex_family(np.random.default_rng(0), 7, shift=6.0)
        assert definiteness._screen_shift(p, "psd", 1e308, 0.0) is None
        assert decide(p, "strong_psd", 1e308, method="vertex").certificate.shift is None


class TestVertexBlockSchedule:
    @pytest.mark.parametrize(
        "j, shift", [(0, 9.0), (3, 7.0), (200, 7.0)], ids=["proved", "early-disproved", "late-disproved"]
    )
    def test_verdict_does_not_depend_on_the_blocks(self, rng, monkeypatch, j, shift):
        # n = 10 and 2^8 vertices: the default blocks hold 5, 10, 20, ... rows.
        p = planted_vertex_family(rng, j, shift, free=8, n=10)
        first, cap = definiteness.FIRST_VERTEX_BLOCK_BYTES, definiteness.VERTEX_CHUNK_BYTES
        verdicts = []
        for first_bytes, cap_bytes in ((1, cap), (first, cap), (1 << 40, 1 << 40)):
            monkeypatch.setattr(definiteness, "FIRST_VERTEX_BLOCK_BYTES", first_bytes)
            monkeypatch.setattr(definiteness, "VERTEX_CHUNK_BYTES", cap_bytes)
            verdicts.append(decide(p, "strong_pd", method="vertex"))
        assert verdicts[0] == verdicts[1] == verdicts[2]
        v = verdicts[0]
        if j == 0:
            assert v.proved and v.certificate.worst_vertex == vertices(p)[0].values
        else:
            assert v.disproved and v.certificate.p == vertices(p)[j].values

    @pytest.mark.parametrize("tol", [None, 0.0], ids=["screened", "eigenvalues"])
    def test_tie_in_one_block_names_its_first_vertex(self, tol):
        # diag(2, 1, 10, 10) + q1 diag(1, -1, 0, 0) + q2 diag(0, 0, 1, -1) on [-1, 1]^2: the two vertices with q1 = 1,
        # Gray indices 1 and 2 of the first block, tie exactly at the smallest eigenvalue 0 and at the smallest
        # Cholesky pivot.  The default tolerance lets the screen clear all four; at tol 0 it clears none.
        p = ParametricSymMatrix(
            [np.diag([1.0, -1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0, -1.0]), np.diag([2.0, 1.0, 10.0, 10.0])],
            ParameterBox.from_bounds([(-1.0, 1.0), (-1.0, 1.0), (1.0, 1.0)]),
        )
        assert [v.values for v in vertices(p)][1:3] == [(1.0, -1.0, 1.0), (1.0, 1.0, 1.0)]
        cert = decide(p, "strong_psd", tol=tol, method="vertex").certificate
        assert cert.worst_vertex == (1.0, -1.0, 1.0)
        assert (cert.shift is None) == (tol == 0.0) and cert.worst_min_eig == (None if tol is None else 0.0)



# The 28th draw of ``near_threshold_family`` (scripts/consistency_sweep.py) from default_rng(1):
# n = 2, K = 5, four indefinite coefficients on [-1, 1] and c I on [1, 1].  Written out bit for
# bit, so a change to the generator cannot move the case.
NEAR_THRESHOLD_FALSE_PROOF = [
    [["-0x1.4e72a728338f5p-1", "0x1.a89ff93e28d0bp-2"], ["0x1.a89ff93e28d0bp-2", "0x1.693b96f699e23p-2"]],
    [["0x1.4911b90959afdp-2", "0x1.8d8cac839837ap-14"], ["0x1.8d8cac839837ap-14", "-0x1.154da2b9f6351p-1"]],
    [["-0x1.2ac7f7717c30ap-3", "0x1.9bf7006fb2c2cp-1"], ["0x1.9bf7006fb2c2cp-1", "0x1.49a69338b978ep-2"]],
    [["-0x1.2193336b0fd3dp-2", "-0x1.c1c3c2c1ad09cp-3"], ["-0x1.c1c3c2c1ad09cp-3", "0x1.1531e70f43414p-1"]],
    [["0x1.060cd217aa28bp+1", "0x0.0p+0"], ["0x0.0p+0", "0x1.060cd217aa28bp+1"]],
]


class TestExactVertexTruth:
    """A strong PSD verdict against exact rational arithmetic at a vertex member."""

    @staticmethod
    def family() -> ParametricSymMatrix:
        coeffs = [[[float.fromhex(x) for x in row] for row in c] for c in NEAR_THRESHOLD_FALSE_PROOF]
        return ParametricSymMatrix(coeffs, ParameterBox.from_bounds([(-1.0, 1.0)] * 4 + [(1.0, 1.0)]))

    def test_vertex_member_is_exactly_indefinite(self):
        # A(v) + tol I at v = (-1, 1, -1, -1, 1), in Fractions: a negative determinant, so its
        # smallest eigenvalue is below -tol and the family is not strongly PSD.
        p = self.family()
        v = (-1.0, 1.0, -1.0, -1.0, 1.0)
        tol = Fraction(family_tol(p))
        assert family_tol(p) == float.fromhex("0x1.17b8c096d1a74p-30")
        a = [[sum(Fraction(x) * Fraction(c[i][j]) for x, c in zip(v, p.coefficient_stack().tolist())) for j in range(2)] for i in range(2)]
        assert a[0][0] + tol > 0 and a[1][1] + tol > 0
        assert (a[0][0] + tol) * (a[1][1] + tol) - a[0][1] * a[1][0] < 0

    @pytest.mark.xfail(
        strict=True,
        reason="known false proof: the vertex stage's eigenvalue fallback passes a computed min_eig that rounding lifted to -tol + 8.8e-17",
    )
    def test_strong_psd_is_not_proved(self):
        assert not decide(self.family(), "strong_psd").proved


class TestExactlySingularMember:
    """B B^T with B = [[2, 3], [-2, -1], [3, -1]] on [1, 1]: rank 2 in three dimensions, so not PD."""

    @staticmethod
    def family() -> ParametricSymMatrix:
        return ParametricSymMatrix([[[13.0, -7.0, 3.0], [-7.0, 5.0, -5.0], [3.0, -5.0, 10.0]]], ParameterBox.from_bounds([(1.0, 1.0)]))

    def test_member_is_exactly_singular(self):
        a = [[Fraction(x) for x in row] for row in self.family().coefficient_stack()[0].tolist()]
        det = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
        assert det == 0

    @pytest.mark.xfail(
        strict=True,
        reason="known false proof: the split stage passes a computed min_eig of 2.9e-15 for an exactly singular member (ROADMAP item 5)",
    )
    def test_strong_pd_is_not_proved_at_zero_tolerance(self):
        assert not decide(self.family(), "strong_pd", tol=0.0).proved


class TestSplitConditions:
    def test_split_favorable_sum_and_proof(self):
        v = strong_pd_split(split_favorable())
        assert v.proved and v.method == "split"
        cert = v.certificate
        assert isinstance(cert, SplitWitness)
        assert np.abs(cert.matrix.array - [[0.2929, 0.5], [0.5, 0.8929]]).max() < 5e-4
        assert cert.min_eig > 0

    def test_regularity_favorable_split_unknown(self):
        assert strong_pd_split(regularity_favorable()).unknown

    def test_nonnegative_combination_of_psd_trivially_proved(self, rng):
        coeffs = []
        for _ in range(3):
            g = rng.uniform(-1, 1, (3, 2))
            coeffs.append(SymMatrix(g @ g.T))
        box = ParameterBox([Interval(0.5, 2.0), Interval(0.0, 1.0), Interval(1.0, 3.0)])
        assert strong_psd_split(ParametricSymMatrix(coeffs, box)).proved

    def test_split_proved_implies_vertex_proved(self, rng):
        for _ in range(40):
            p = random_family(rng)
            if strong_psd_split(p).proved:
                assert strong_psd(p).proved
            if strong_pd_split(p).proved:
                assert strong_pd(p).proved


def sequential_split_combination(p: ParametricSymMatrix, plus_at, minus_at) -> np.ndarray:
    """Reference split bound matrix: each coefficient split alone by ``psd_parts``, added in k order from zero, symmetrized."""
    acc = np.zeros((p.n, p.n))
    for x_plus, x_minus, w, q in zip(plus_at, minus_at, *p.coefficient_spectra()):
        plus, minus = psd_parts(w, q)
        acc += plus * x_plus - minus * x_minus
    return SymMatrix(acc).array


class TestSplitCombinationBits:
    @pytest.mark.parametrize("make", [random_family, random_semidefinite_family], ids=["indefinite", "semidefinite"])
    def test_matches_per_coefficient_parts(self, rng, make):
        for _ in range(120):
            p = make(rng, max_n=6, max_k=6)
            for plus_at, minus_at in ((p.box.inf(), p.box.sup()), (p.box.sup(), p.box.inf())):
                got = definiteness._split_combination(p, plus_at, minus_at).array
                ref = sequential_split_combination(p, plus_at, minus_at)
                assert got.tobytes() == ref.tobytes()

    def test_one_by_one_and_negative_zero_terms(self, rng):
        # A 1x1 stack reduces along its contiguous axis, where numpy sums pairwise; zero coefficients on a box
        # around 0 give -0.0 lower-bound terms, which a sum from zero turns into 0.0.
        for _ in range(200):
            k = int(rng.integers(8, 24))
            coeffs = rng.standard_normal((k, 1, 1)) * 10.0 ** rng.integers(-8, 8, (k, 1, 1))
            p = ParametricSymMatrix(coeffs, ParameterBox.from_bounds(zip(-rng.random(k), rng.random(k))))
            for plus_at, minus_at in ((p.box.inf(), p.box.sup()), (p.box.sup(), p.box.inf())):
                got = definiteness._split_combination(p, plus_at, minus_at).array
                assert got.tobytes() == sequential_split_combination(p, plus_at, minus_at).tobytes()
        zeros = ParametricSymMatrix(np.zeros((3, 2, 2)), ParameterBox.from_bounds([(-1.0, 1.0)] * 3))
        got = definiteness._split_combination(zeros, zeros.box.inf(), zeros.box.sup()).array
        assert got.tobytes() == np.zeros((2, 2)).tobytes()

    def test_family_parts_are_the_stacked_psd_parts(self, rng):
        p = random_family(rng, max_n=5, max_k=5)
        plus, minus = p.coefficient_parts()
        for k, (w, q) in enumerate(zip(*p.coefficient_spectra())):
            ref_plus, ref_minus = psd_parts(w, q)
            assert plus[k].tobytes() == ref_plus.tobytes() and minus[k].tobytes() == ref_minus.tobytes()
        with pytest.raises(ValueError):
            plus[0, 0, 0] = 1.0


class TestWeakNecessary:
    def test_diag_sign_never_psd(self):
        v = decide(diag_sign_family(), "weak_psd", method="necessary")
        assert v.disproved and v.method == "necessary"
        cert = v.certificate
        assert isinstance(cert, NecessaryFailure)
        assert np.allclose(cert.matrix.array, np.diag([2.0, -1.0]))

    def test_rank_one_cone_inconclusive(self):
        v = decide(rank_one_cone(), "weak_psd", method="necessary")
        assert v.unknown
        assert isinstance(v.certificate, NecessaryFailure)

    def test_disproved_confirmed_by_oracle_sweep(self, rng):
        # The bound matrix dominates every member, so every sampled member fails the goal,
        # with a smallest eigenvalue at most the bound's (plus the family tolerance for rounding).
        found = 0
        while found < 5:
            p = random_family(rng)
            v = decide(p, "weak_psd", method="necessary")
            if v.disproved:
                found += 1
                tol = family_tol(p)
                worst = _member_min_eigs(p, _sample_points(p, "random", 0, 10_000, DEFAULT_SEED)).max()
                assert worst < -tol
                assert worst <= v.certificate.min_eig + tol

    def test_weak_pd_necessary_variants(self):
        assert weak_pd_necessary(diag_sign_family()).disproved
        assert weak_pd_necessary(split_favorable()).unknown


class TestRegularityRoute:
    def test_regularity_favorable_proved(self):
        v = strong_pd_regularity(regularity_favorable())
        assert v.proved and v.method == "regularity"
        assert isinstance(v.certificate, BeeckWitness)
        assert v.certificate.rho == pytest.approx(0.9678, abs=5e-4)

    def test_split_favorable_unknown_with_rho(self):
        v = strong_pd_regularity(split_favorable())
        assert v.unknown
        assert v.certificate.rho == pytest.approx(1.0419, abs=5e-4)

    def test_point_box_pd_proved_with_tiny_rho(self):
        p = ParametricSymMatrix(
            [np.array([[2.0, 0.5], [0.5, 1.0]])], ParameterBox([Interval(1.0, 1.0)])
        )
        # G is the rounding terms plus tol |C|, which keeps members above the tolerance.
        v = strong_pd_regularity(p)
        c_norm = np.abs(np.linalg.inv(p.coefficient_stack()[0])).sum(axis=1).max()
        assert v.proved
        assert v.certificate.rho < 1e-12 + family_tol(p) * c_norm
        assert decide(p, "strong_pd", tol=0.0, method="regularity").certificate.rho < 1e-12

    @pytest.mark.parametrize(
        "r, truth", [(1.0, Status.DISPROVED), (1.0 - 1e-9, Status.PROVED)], ids=["singular-corners", "perron"]
    )
    def test_rho_within_the_margin_of_one_proves_nothing(self, r, truth):
        # I + q [[0, 1], [1, 0]] on [-r, r]: A(mid) = I, so G is about r |B| + tol I and rho(G) lies within
        # RHO_MARGIN of 1: above it through the row-sum shortcut at r = 1, where the corners are singular and a proof
        # would be false, and below it through the Perron bracket at r = 1 - 1e-9.
        p = ParametricSymMatrix(
            [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])], ParameterBox([Interval(1.0, 1.0), Interval(-r, r)])
        )
        v = strong_pd_regularity(p)
        assert 0.0 < abs(v.certificate.rho - 1.0) < definiteness.RHO_MARGIN
        assert v.certificate.converged == (r < 1.0)
        assert v.unknown and v.detail == "spectral radius not below one"
        assert decide(p, "strong_pd").status is truth

    def test_row_sums_at_least_one_skip_the_perron_bracket(self, monkeypatch):
        # I + q [[0, 1], [1, 0]] on [-2, 2]: A(mid) = I, so G is about
        # [[tol, 2], [2, tol]], and rho(G) is at least its smallest row sum,
        # about 2 + tol, which is also the largest.
        calls = []
        bracket = definiteness.spectral_radius_nonneg

        def spy(g):
            calls.append(g)
            return bracket(g)

        monkeypatch.setattr(definiteness, "spectral_radius_nonneg", spy)
        p = ParametricSymMatrix(
            [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])], ParameterBox([Interval(1.0, 1.0), Interval(-2.0, 2.0)])
        )
        v = strong_pd_regularity(p)
        assert v.unknown and v.detail == "spectral radius not below one" and calls == []
        assert v.certificate == BeeckWitness(v.certificate.rho, False)
        assert v.certificate.rho == pytest.approx(2.0 + family_tol(p), abs=1e-12)
        # A family whose rows do not all reach one still gets its Perron rho.
        v = strong_pd_regularity(regularity_favorable())
        assert v.proved and len(calls) == 1
        assert v.certificate.rho == bracket(calls[0]).upper == pytest.approx(0.9678, abs=5e-4)

    def test_block_diagonal_family_proved_by_two_perron_vectors(self, monkeypatch):
        # 3 I on [1, 1] plus coefficients on [-1, 1] that each sit in one of two 2x2 diagonal blocks:
        # A(mid) = 3 I, so G is block diagonal up to its underflow term, with row sums below one.  A
        # power iteration never closes the bracket on such G; the closed form takes at most two vectors.
        calls = []
        bracket = definiteness.spectral_radius_nonneg
        monkeypatch.setattr(definiteness, "spectral_radius_nonneg", lambda g: calls.append(g) or bracket(g))
        blocks = [
            (slice(0, 2), [[0.0, 1.0], [1.0, 0.0]]),
            (slice(2, 4), [[0.5, 0.2], [0.2, -0.3]]),
            (slice(0, 2), [[0.4, 0.0], [0.0, -0.4]]),
        ]
        coeffs = [3.0 * np.eye(4)]
        for rows, block in blocks:
            coeffs.append(np.zeros((4, 4)))
            coeffs[-1][rows, rows] = block
        p = ParametricSymMatrix(coeffs, ParameterBox.from_bounds([(1.0, 1.0)] + [(-1.0, 1.0)] * len(blocks)))
        v = decide(p, "strong_pd", method="regularity")
        assert v.proved and len(calls) == 1
        g = calls[0]
        assert g.sum(axis=1).min() < 1.0
        b = spectral_radius_nonneg(g)
        assert b.iterations <= 2 and v.certificate.rho == b.upper
        assert b.upper == pytest.approx(float(np.abs(np.linalg.eigvals(g)).max()), rel=1e-12)

    def test_singular_midpoint_unknown(self):
        p = ParametricSymMatrix([np.diag([1.0, -1.0])], ParameterBox([Interval(-1.0, 1.0)]))
        v = strong_pd_regularity(p)
        assert v.unknown and "singular" in v.detail

    def test_overflowing_preconditioned_relaxation_unknown(self):
        # A(mid) = 1e-10 I, so C A_1 = 1e310 I: once a RuntimeWarning and a ValueError.
        p = ParametricSymMatrix([1e300 * np.eye(2), 1e-10 * np.eye(2)], ParameterBox([Interval(-1.0, 1.0), Interval(1.0, 1.0)]))
        v = strong_pd_regularity(p)
        assert v.unknown and v.certificate is None and "overflow" in v.detail
        assert decide(p, "strong_pd").disproved

    @pytest.mark.parametrize("seed", range(40))
    def test_singular_member_not_proved(self, seed):
        # Q diag(1e-9, 1, 2) Q^T on [1, 1] plus -1e-9 u u^T on [-1, 1] is
        # singular at p = (1, 1).  Taking C A(mid) = I once proved 20 of
        # these 40 seeds, seed 5 with rho 0.99999988.
        p = near_singular_family(np.random.default_rng(seed), 1e-9)
        v = strong_pd_regularity(p)
        assert v.unknown
        cascade = decide(p, "strong_pd")
        assert cascade.disproved and cascade.method == "vertex"
        if seed == 5:
            assert cascade.certificate.p == (1.0, 1.0) and abs(cascade.certificate.min_eig) < 1e-15

    def test_regularity_proved_implies_vertex_proved(self, rng):
        for _ in range(40):
            p = random_family(rng)
            if strong_pd_regularity(p).proved:
                assert strong_pd(p).proved


def near_singular_family(rng, eps: float) -> ParametricSymMatrix:
    """Q diag(eps, 1, 2) Q^T on [1, 1] plus -eps u u^T on [-1, 1], u = Q[:, 0]: singular at the upper corner."""
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    centre = q @ np.diag([eps, 1.0, 2.0]) @ q.T
    return ParametricSymMatrix([centre, -eps * np.outer(q[:, 0], q[:, 0])], ParameterBox.from_bounds([(1, 1), (-1, 1)]))


def exact_residual(p: ParametricSymMatrix, c: np.ndarray, q, shift: float = 0.0) -> np.ndarray:
    """|I - C (A(q) - shift I)| entrywise in exact rational arithmetic, for the float matrix C."""
    n = p.n
    a = [
        [sum(Fraction(x) * Fraction(ak[i, j]) for x, ak in zip(q, p.coefficient_stack())) - (i == j) * Fraction(shift) for j in range(n)]
        for i in range(n)
    ]
    return np.array(
        [[abs((i == j) - sum(Fraction(c[i, l]) * a[l][j] for l in range(n))) for j in range(n)] for i in range(n)]
    )


class TestBeeckBound:
    """``_beeck_bound`` against |I - C (A(q) - s I)| in exact arithmetic at every vertex and both ends of s, where it peaks."""

    def families(self, rng):
        for _ in range(25):
            yield random_family(rng, max_n=3, max_k=3)
        for eps in (1e-6, 1e-9, 1e-12):
            yield near_singular_family(rng, eps)
        for _ in range(10):
            # A constant term on [1, 1] puts A(mid)'s smallest eigenvalue at 1e-10 of its spectrum's spread.
            p = random_family(rng, max_n=3, max_k=2)
            w = np.linalg.eigvalsh(evaluate(p, p.box.mid()).array)
            shift = -(w[0] - 1e-10 * (1.0 + w[-1] - w[0])) * np.eye(p.n)
            yield ParametricSymMatrix([*p.coefficient_stack(), shift], ParameterBox.from_bounds([*zip(p.box.inf(), p.box.sup()), (1.0, 1.0)]))
        for _ in range(10):
            # A point box: G is then |I - C A(mid)| and the rounding terms alone.
            p = random_family(rng, max_n=3, max_k=3)
            yield ParametricSymMatrix(p.coefficient_stack(), ParameterBox.from_bounds(zip(p.box.inf(), p.box.inf())))
        for _ in range(5):
            # Coefficients near 1e-305 on boxes near 1e305: some products underflow.
            p = random_family(rng, max_n=3, max_k=3)
            box = ParameterBox.from_bounds(zip(1e305 * p.box.inf(), 1e305 * p.box.sup()))
            yield ParametricSymMatrix(1e-305 * p.coefficient_stack(), box)

    def test_dominates_the_exact_residual_at_every_vertex(self, rng):
        checked = 0
        for p in self.families(rng):
            try:
                c = invert(evaluate(p, p.box.mid(), check=False))
            except definiteness.SingularMatrixError:
                continue
            # The bound holds for any float C, so a perturbed one is checked as well, with
            # no shift and with the family tolerance, which the regularity stage passes.
            for cc, shift in itertools.product((c, c * (1.0 + 1e-3 * rng.standard_normal(c.shape))), (0.0, family_tol(p))):
                g = definiteness._beeck_bound(p, cc, shift)
                assert np.isfinite(g).all()
                for q, s in itertools.product(itertools.product(*zip(p.box.inf().tolist(), p.box.sup().tolist())), {0.0, shift}):
                    residual = exact_residual(p, cc, q, s)
                    assert all(Fraction(x) >= r for x, r in zip(g.ravel().tolist(), residual.ravel())), (p, q, s)
                checked += 1
        assert checked >= 100

    def test_tiny_coefficients_on_a_huge_box_with_an_ill_conditioned_midpoint(self, rng):
        # A(mid) near Q diag(1e-3, 1, 2) Q^T from 1e-305 coefficients on a 1e305 box: the
        # underflow term's large factors, about 2e305 and 3e3, overflow as a product
        # although the term is about 1e-15, and the family is proved by regularity.
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        stack = 1e-305 * np.array([q @ np.diag([1e-3, 1.0, 2.0]) @ q.T, -1e-6 * np.outer(q[:, 0], q[:, 0])])
        p = ParametricSymMatrix(stack, ParameterBox.from_bounds([(1e305, 1e305), (-1e305, 1e305)]))
        c = invert(evaluate(p, p.box.mid(), check=False))
        g = definiteness._beeck_bound(p, c, family_tol(p))
        assert np.isfinite(g).all()
        for q in itertools.product(*zip(p.box.inf().tolist(), p.box.sup().tolist())):
            assert all(Fraction(x) >= r for x, r in zip(g.ravel().tolist(), exact_residual(p, c, q).ravel()))
        assert strong_pd_regularity(p).proved


class TestIntervalChecks:
    def test_rank_one_relaxation_not_strongly_psd(self):
        assert not strong_psd_interval(relax(rank_one_cone()))

    def test_degenerate_pd_point_matrix(self):
        a = [[2.0, 0.3], [0.3, 1.5]]
        m = IntervalMatrix(a, a)
        assert strong_psd_interval(m) and hertz_min_eig(m) > definiteness.interval_tol(m)

    def test_asymmetric_input_rejected(self):
        bad = IntervalMatrix([[0.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [3.0, 1.0]])
        with pytest.raises(AsymmetricMatrixError):
            strong_psd_interval(bad)
        with pytest.raises(AsymmetricMatrixError):
            hertz_min_eig(bad)

    def test_default_tolerance_is_uniform(self):
        # interval_tol = 1e-10 * (1 + n * max|entry|) = 3e-10 here.
        t = definiteness.interval_tol(IntervalMatrix(np.eye(2), np.eye(2)))
        assert t == pytest.approx(3e-10)
        inside, outside = (IntervalMatrix(m, m) for m in (np.diag([1.0, -0.5 * t]), np.diag([1.0, -2.0 * t])))
        assert strong_psd_interval(inside) and not strong_psd_interval(outside)
        assert strong_psd_interval(outside, tol=3.0 * t)
        assert not strong_psd_interval(inside, tol=0.0)

    def test_overflowing_default_tolerance_rejected(self):
        # n * max|entry| overflows; the inf default once passed this
        # indefinite point matrix as strongly PSD.
        m = IntervalMatrix(np.diag([1e308, -1e308]), np.diag([1e308, -1e308]))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            strong_psd_interval(m)
        assert not strong_psd_interval(m, tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_invalid_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            strong_psd_interval(IntervalMatrix(np.eye(2), np.eye(2)), tol=tol)

    def test_sign_enumeration_consistent_with_hertz(self, rng):
        for _ in range(20):
            lo = rng.uniform(-2, 2, (3, 3))
            lo = (lo + lo.T) / 2
            width = rng.uniform(0, 1.5, (3, 3))
            width = (width + width.T) / 2
            a = IntervalMatrix(lo, lo + width)
            h = hertz_min_eig(a)
            tol = 1e-10 * (1.0 + 3 * a.max_abs())
            if h > tol:
                assert strong_psd_interval(a)
            elif h < -tol:
                assert not strong_psd_interval(a)


class TestHertz:
    def test_degenerate_matrix_reduces_to_min_eig(self):
        m = np.array([[1.0, 0.25], [0.25, 3.0]])
        assert hertz_min_eig(IntervalMatrix(m, m)) == pytest.approx(min_eig(SymMatrix(m)), abs=1e-12)

    def test_bounds_all_sampled_members(self, rng):
        lo = rng.uniform(-2, 2, (3, 3))
        lo = (lo + lo.T) / 2
        a = IntervalMatrix(lo, lo + 1.0)
        h = hertz_min_eig(a)
        sampled = np.inf
        for _ in range(2000):
            t = rng.random((3, 3))
            t = (t + t.T) / 2
            m = a.inf + t * (a.sup - a.inf)
            sampled = min(sampled, float(np.linalg.eigvalsh(m)[0]))
        assert h <= sampled + 1e-12

    def test_matches_vertex_pattern_sampling(self, rng):
        # Sampling that includes all sign-vertex matrices must attain the
        # Hertz value.
        lo = rng.uniform(-2, 2, (3, 3))
        lo = (lo + lo.T) / 2
        a = IntervalMatrix(lo, lo + rng.uniform(0.1, 1.0))
        mid, rad = a.symmetric_parts()
        sampled = np.inf
        for z in itertools.product((1.0, -1.0), repeat=3):
            sampled = min(sampled, float(np.linalg.eigvalsh(mid - np.outer(z, z) * rad)[0]))
        assert hertz_min_eig(a) == pytest.approx(sampled, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_every_sign_pattern_counts(self, rng, n):
        # With Rad all ones the sign-vertex matrix of y is Mid - y y^T, and
        # Mid = 4n I - z z^T puts the minimum 2n on the pattern +-z alone,
        # so a skipped pattern shows in the value.
        for z in itertools.product((1.0, -1.0), repeat=n):
            mid = 4.0 * n * np.eye(n) - np.outer(z, z)
            a = IntervalMatrix(mid - 1.0, mid + 1.0)
            mids, rads = a.symmetric_parts()
            ref = min(
                float(np.linalg.eigvalsh(mids - np.outer(y, y) * rads)[0])
                for y in itertools.product((1.0, -1.0), repeat=n)
            )
            assert ref == pytest.approx(2.0 * n, abs=1e-9)
            assert hertz_min_eig(a) == pytest.approx(ref, abs=1e-9)

    def test_sign_matrices_past_the_default_budget_are_refused(self, monkeypatch):
        # With the cap lowered to 4 sign matrices, n = 3 (4 of them) still runs and
        # n = 4 (8) raises before any kernel call.  certify_convexity keeps its
        # verdict, under its own default budget of 2^20, and drops the diagnostics.
        from psdparam import cubic

        for module in (definiteness, cubic):
            monkeypatch.setattr(module, "DEFAULT_VERTEX_BUDGET", 4)
        rows = []

        def count(stack):
            rows.append(len(stack))
            return _jacobi_eigvals(stack)

        monkeypatch.setattr(definiteness, "_jacobi_eigvals", count)
        wide = IntervalMatrix(-np.ones((4, 4)), np.ones((4, 4)))
        for check in (hertz_min_eig, strong_psd_interval):
            with pytest.raises(ValueError, match=r"2\^3 sign matrices, past the budget 4"):
                check(wide)
        assert not rows
        assert hertz_min_eig(IntervalMatrix(-np.ones((3, 3)), np.ones((3, 3)))) < 0 and sum(rows) == 4
        for n, diagnosed in [(3, True), (4, False)]:
            f = parse(" + ".join(f"x{i}^2" for i in range(1, n + 1)))
            result = certify_convexity(f, ParameterBox.from_bounds([(-1.0, 1.0)] * n))
            assert result.verdict.proved
            assert (result.relaxation_min_eig is not None) == (result.relaxation_strongly_psd is not None) == diagnosed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_every_entrywise_endpoint_member(self, n):
        # Shares nothing with the sign reduction: lambda_min is concave, so its minimum over the box sits at a
        # member whose n(n+1)/2 upper entries each take an endpoint, all of them formed here (at most 2^10).
        rng = np.random.default_rng(4000 + n)
        upper = np.triu_indices(n)
        for _ in range(10):
            mid = rng.uniform(-2.0, 2.0, (n, n))
            rad = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < 0.7)  # some radii zero
            lo, hi = (np.triu(m) + np.triu(m, 1).T for m in (mid - rad, mid + rad))
            a = IntervalMatrix(lo, hi)
            members = np.empty((1 << len(upper[0]), n, n))
            for v, ends in enumerate(itertools.product((0, 1), repeat=len(upper[0]))):
                m = np.zeros((n, n))
                m[upper] = np.where(ends, hi[upper], lo[upper])
                members[v] = m + np.triu(m, 1).T
            reference = float(np.linalg.eigvalsh(members)[:, 0].min())
            assert abs(hertz_min_eig(a) - reference) <= definiteness.interval_tol(a)

    def test_signed_zero_tie_keeps_the_first_sorted_eigenvalue(self):
        # diag(0.0, -0.0) has the eigenvalues 0.0 and -0.0, equal under ==.  The value is the first entry of the
        # sorted diagonal, 0.0, as when each sign matrix went through the kernel alone; ndarray.min gives -0.0.
        m = np.diag([0.0, -0.0])
        assert math.copysign(1.0, hertz_min_eig(IntervalMatrix(m, m))) == 1.0

    def test_empty_matrix_refused(self):
        empty = IntervalMatrix(np.zeros((0, 0)), np.zeros((0, 0)))
        for check in (hertz_min_eig, strong_psd_interval, lambda a: strong_psd_interval(a, tol=0.0)):
            with pytest.raises(ValueError, match=r"^the empty 0x0 interval matrix has no eigenvalues$"):
                check(empty)

    @pytest.mark.parametrize("check", [
        lambda: min_eig(SymMatrix(np.zeros((0, 0)))),
        lambda: min_eigs(np.zeros((1, 0, 0))),
        lambda: ParametricSymMatrix([np.zeros((0, 0))], ParameterBox.from_bounds([(0, 1)])),
    ], ids=["min_eig", "min_eigs", "family"])
    def test_other_empty_matrices_refused(self, check):
        with pytest.raises(ValueError, match=r"^the empty 0x0 (matrix has|coefficient matrices have) no eigenvalues$"):
            check()

    def test_blocks_are_selected_from_mid_minus_and_plus_rad(self, monkeypatch):
        # Each block the kernel gets is exactly symmetric and, bit for bit, Mid - z_i z_j Rad_ij, -0.0 included.
        blocks = []

        def record(stack):
            blocks.append(stack.copy())
            return _jacobi_eigvals(stack)

        monkeypatch.setattr(definiteness, "_jacobi_eigvals", record)
        rng = np.random.default_rng(33)
        for n in (1, 2, 3, 5, 7):
            for scale in (5e-324, 1e-310, 1.0, 1e300):
                m = np.round(rng.normal(size=(n, n)) * 4) * scale * rng.choice([-0.0, 1.0], (n, n), p=[0.2, 0.8])
                w = np.abs(np.round(rng.normal(size=(n, n)) * 2)) * scale * rng.choice([0.0, 1.0], (n, n))
                lo, hi = (np.triu(x) + np.triu(x, 1).T for x in (m - w, m + w))
                a = IntervalMatrix(lo, hi)
                mid, rad = a.symmetric_parts()
                blocks.clear()
                hertz_min_eig(a)
                ones = np.ones(n)
                z = VertexEnumeration(ones, np.arange(n) > 0, -ones, ones, np.zeros(n)).points(0, 1 << (n - 1))
                got = np.concatenate(blocks)
                assert np.array_equal(got.view(np.uint64), got.swapaxes(1, 2).view(np.uint64))
                want = mid - np.einsum("vi,vj->vij", z, z) * rad
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("lo, hi, value", [
        (-_MAX, _MAX, -np.inf),
        (-_MAX, 0.0, -np.inf),
        (-1e308, 1e308, -np.inf),
        (0.0, _MAX, -1.7976931348623153e308),
    ], ids=["symmetric", "nonpositive", "1e308", "nonnegative"])
    def test_minimum_past_the_largest_double(self, lo, hi, value):
        # A sign matrix's smallest eigenvalue below -max rounds to -inf, as IEEE arithmetic does, with no warning.
        assert hertz_min_eig(IntervalMatrix(np.full((2, 2), lo), np.full((2, 2), hi))) == value

    def test_overflowing_ends_refused(self):
        # Mid + Rad of [1e308, max] is past the largest double.
        with pytest.raises(ValueError, match=r"^matrix entries must be finite$"):
            hertz_min_eig(IntervalMatrix(np.full((2, 2), 1e308), np.full((2, 2), _MAX)))

    def test_sign_rows_stream_in_blocks(self, monkeypatch):
        # No array grows with the 2^15 sign matrices of a 16x16 matrix: all the sign rows at once would hold
        # 4 MiB, and forming them that way peaked at 8.2 MiB.  A stand-in kernel keeps the run short.
        rows = [0]

        def diagonal(stack):
            rows[0] += len(stack)
            return stack.diagonal(axis1=1, axis2=2)

        monkeypatch.setattr(definiteness, "_jacobi_eigvals", diagonal)
        rng = np.random.default_rng(16)
        mid = rng.normal(size=(16, 16))
        rad = np.abs(rng.normal(size=(16, 16)))
        a = IntervalMatrix(mid + mid.T - rad - rad.T, mid + mid.T + rad + rad.T)
        tracemalloc.start()
        try:
            hertz_min_eig(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[0] == 1 << 15
        assert peak < 4 << 20


def sequential_starts(p: ParametricSymMatrix, restarts: int, seed: int = definiteness.WITNESS_SEED):
    """The witness stage's starts, one by one: the box midpoint, then ``restarts - 1`` seeded uniform draws."""
    rng = np.random.default_rng(seed)
    for trial in range(restarts):
        yield p.box.mid().copy() if trial == 0 else rng.uniform(p.box.inf(), p.box.sup())


def sequential_ascents(p: ParametricSymMatrix, restarts: int, seed: int = definiteness.WITNESS_SEED):
    """Reference witness search: one scalar ``min_eig(evaluate(...))`` per probe.

    The same seeded restarts, ternary rule, step and sweep counts and
    stopping test as the witness stage, one restart after another with
    no batching.  Yields (point, value, sweeps run) for each restart.
    """
    lows, highs = p.box.inf(), p.box.sup()
    for q in sequential_starts(p, restarts, seed):
        best = min_eig(evaluate(p, q, check=False))
        for sweep in range(1, 31):
            improved = best
            for k in range(p.K):
                if lows[k] == highs[k]:
                    continue
                lo, hi = lows[k], highs[k]
                for _ in range(48):
                    third = (hi - lo) / 3.0
                    a, b = lo + third, hi - third
                    q[k] = a
                    fa = min_eig(evaluate(p, q, check=False))
                    q[k] = b
                    fb = min_eig(evaluate(p, q, check=False))
                    if fa < fb:
                        lo = a
                    else:
                        hi = b
                q[k] = 0.5 * (lo + hi)
                best = min_eig(evaluate(p, q, check=False))
            if best - improved <= 1e-13 * (1.0 + abs(best)):
                break
        yield q, best, sweep


def passes(goal: str, value: float, tol: float) -> bool:
    return value > tol if goal == "pd" else value >= -tol


def sequential_witness(p: ParametricSymMatrix, restarts: int, goal: str, seed: int = definiteness.WITNESS_SEED):
    """The first start that passes the goal, else the first restart of ``sequential_ascents`` whose value passes, or None."""
    tol = family_tol(p)
    start = next((q for q in sequential_starts(p, restarts, seed) if passes(goal, min_eig(evaluate(p, q)), tol)), None)
    if start is not None:
        return start
    return next((q for q, best, _ in sequential_ascents(p, restarts, seed) if passes(goal, best, tol)), None)


def float_bracket_ascent(p: ParametricSymMatrix, start: np.ndarray, value: float):
    """One start's climb with its bracket in Python floats and one probe pair per call.

    The halves arithmetic, clamped midpoint, ternary rule, counts and stopping test of
    ``_coordinate_ascent``, scalar where the stage uses arrays and masks, so
    the stage must end on the same bits.  Returns the point and its value.
    """
    lows, highs = p.box.inf().tolist(), p.box.sup().tolist()
    q, best = start.copy(), value
    for _ in range(30):
        improved = best
        for k in range(p.K):
            if lows[k] == highs[k]:
                continue
            lo, hi = lows[k], highs[k]
            probes = np.repeat(q[None], 2, axis=0)
            for _ in range(48):
                third = (0.5 * hi - 0.5 * lo) / 1.5
                a, b = lo + third, hi - third
                probes[:, k] = a, b
                fa, fb = min_eigs(_members(p, probes)).tolist()
                if fa < fb:
                    lo = a
                else:
                    hi = b
            q[k] = min(max(0.5 * lo + 0.5 * hi, lo), hi)
            best = float(min_eigs(_members(p, q[None]))[0])
        if best - improved <= 1e-13 * (1.0 + abs(best)):
            break
    return q, best


def ridge_family(n: int, c: float) -> ParametricSymMatrix:
    """diag(2 q1 - q2, 2 q2 - q1, 5, ..., 5) - c I on [0, 1]^2, the shift on a degenerate q3.

    min_eig is concave with a ridge along q1 = q2, and each coordinate
    alone can only leave the ridge downhill.  So the search from a start
    (x, y) stalls on the ridge near (y, y) with value about y - c: the
    midpoint reaches 0.5 - c, and each restart the second coordinate of
    its own start.  The members are diagonal, which keeps the scalar
    reference cheap at any n.
    """
    a = np.zeros((3, n, n))
    a[0, 0, 0], a[0, 1, 1] = 2.0, -1.0
    a[1, 0, 0], a[1, 1, 1] = -1.0, 2.0
    a[2] = -c * np.eye(n)
    a[2, 2:, 2:] += 5.0 * np.eye(n - 2)
    box = ParameterBox([Interval(0.0, 1.0), Interval(0.0, 1.0), Interval(1.0, 1.0)])
    return ParametricSymMatrix([SymMatrix(m) for m in a], box)


def stage_witness(monkeypatch, p: ParametricSymMatrix, goal: str, restarts: int = definiteness.WITNESS_RESTARTS,
                  seed: int = definiteness.WITNESS_SEED):
    """The point of the witness stage's certificate for weak ``goal`` under ``restarts`` and ``seed``, or None."""
    monkeypatch.setattr(definiteness, "WITNESS_RESTARTS", restarts)
    monkeypatch.setattr(definiteness, "WITNESS_SEED", seed)
    v = decide(p, f"weak_{goal}", method="witness")
    assert v.method == "witness" and v.proved == isinstance(v.certificate, WitnessPoint)
    return np.array(v.certificate.p) if v.proved else None


def spy_witness_stage(monkeypatch) -> tuple[list, list]:
    """Lists that record the rows of each ``_members`` call and the starts of each ``_coordinate_ascent`` call."""
    calls, climbs = [], []
    members, ascent = definiteness._members, definiteness._coordinate_ascent

    def spy_members(p, points):
        calls.append(len(points))
        return members(p, points)

    def spy_ascent(p, starts, values):
        climbs.append(len(starts))
        return ascent(p, starts, values)

    monkeypatch.setattr(definiteness, "_members", spy_members)
    monkeypatch.setattr(definiteness, "_coordinate_ascent", spy_ascent)
    return calls, climbs


class TestWitnessSearch:
    def assert_matches_sequential(self, monkeypatch, p, goal, restarts, seed=definiteness.WITNESS_SEED):
        expected = sequential_witness(p, restarts, goal, seed)
        got = stage_witness(monkeypatch, p, goal, restarts, seed)
        assert (got is None) == (expected is None)
        if got is None:
            return False
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)
        assert p.box.contains(got)
        m = float(np.linalg.eigvalsh(np.tensordot(got, p.coefficient_stack(), axes=1))[0])
        assert passes(goal, m, family_tol(p))
        return True

    @pytest.mark.parametrize("goal", ["pd", "psd"])
    def test_batched_matches_sequential_on_fixtures(self, monkeypatch, rng, goal):
        for p in (rank_one_cone(), diag_sign_family()):
            self.assert_matches_sequential(monkeypatch, p, goal, restarts=5)
        for _ in range(5):
            p, _ = planted_pd_family(rng)
            assert self.assert_matches_sequential(monkeypatch, p, goal, restarts=20)

    @pytest.mark.parametrize("goal", ["pd", "psd"])
    def test_batched_matches_sequential_on_random_families(self, monkeypatch, rng, goal):
        # 2x2 members keep the scalar reference fast; the planted fixtures
        # above cover 3x3.
        found = 0
        for _ in range(30):
            found += self.assert_matches_sequential(monkeypatch, random_family(rng, max_n=2, max_k=4), goal, restarts=2)
        assert 0 < found < 30

    @pytest.mark.parametrize("restarts", [1, 2, 20])
    @pytest.mark.parametrize("goal", ["pd", "psd"])
    def test_lowest_accepted_restart_wins(self, monkeypatch, goal, restarts):
        p = ridge_family(2, 0.6)
        runs = list(sequential_ascents(p, restarts))
        accepted = [i for i, (_, best, _) in enumerate(runs) if passes(goal, best, family_tol(p))]
        assert 0 not in accepted
        if restarts == 20:
            # Several restarts pass and they stop after different numbers
            # of sweeps, so rows leave the lockstep batch at different times.
            assert len(accepted) >= 2
            assert len({sweeps for *_, sweeps in runs[1:]}) > 1
        assert self.assert_matches_sequential(monkeypatch, p, goal, restarts) == bool(accepted)

    def test_batches_split_by_size(self, monkeypatch):
        # At n = 60 the two probe members of a row take 57600 bytes, more
        # than the first block, so the midpoint climbs alone and the blocks
        # double up to the 18 rows that fit VERTEX_CHUNK_BYTES: 1, 2, 4, 8
        # and the last 5.  The seed puts the only start that reaches the
        # threshold last, so only the last block accepts.
        n = 60
        assert 2 * n * n * 8 > definiteness.FIRST_VERTEX_BLOCK_BYTES
        assert definiteness.VERTEX_CHUNK_BYTES // (2 * n * n * 8) == 18
        seed = next(
            s for s in range(1000)
            if np.argmax(np.random.default_rng(s).uniform(0.0, 1.0, (19, 3))[:, 1]) == 18
        )
        y = np.random.default_rng(seed).uniform(0.0, 1.0, (19, 3))[:, 1]
        c = 0.5 * (max(0.5, y[:18].max()) + y[18])
        assert c < y[18] - 1e-6
        p = ridge_family(n, c)
        _, climbs = spy_witness_stage(monkeypatch)
        assert self.assert_matches_sequential(monkeypatch, p, "pd", restarts=20, seed=seed)
        assert climbs == [1, 2, 4, 8, 5]

    def test_passing_start_skips_the_climb(self, monkeypatch):
        # p - 0.9 on [0, 1]: the midpoint fails weak PD and some draws pass.
        # All 20 starts go through one batched call, the first passing draw
        # is the witness with its value from that call, and nothing climbs.
        p = ParametricSymMatrix([np.eye(1), -0.9 * np.eye(1)], ParameterBox([Interval(0.0, 1.0), Interval(1.0, 1.0)]))
        calls, climbs = spy_witness_stage(monkeypatch)
        v = decide(p, "weak_pd", method="witness")
        assert v.proved and calls == [definiteness.WITNESS_RESTARTS] and climbs == []
        tol = family_tol(p)
        first = next(q for q in sequential_starts(p, definiteness.WITNESS_RESTARTS) if q[0] - 0.9 > tol)
        assert v.certificate.p == tuple(first) and v.certificate.min_eig == pytest.approx(first[0] - 0.9, abs=1e-15)
        assert v.certificate.min_eig > tol

    def test_climbs_keep_their_batches_when_no_start_passes(self, monkeypatch):
        # No start of ridge_family(2, 0.6) passes weak PD (the best is about
        # 0.579 - 0.6), but climbs do.  After one call on all 20 starts, all
        # 20 climb in one lockstep block, since the first block holds 64 rows
        # of two 2x2 probe members.
        calls, climbs = spy_witness_stage(monkeypatch)
        assert decide(ridge_family(2, 0.6), "weak_pd", method="witness").proved
        assert calls[0] == definiteness.WITNESS_RESTARTS and climbs == [20]

    def test_each_member_is_solved_once(self, monkeypatch):
        # The climb starts from the values of the all-starts call, so its
        # first call is the 40 probe members of 20 rows, not the 20 starts
        # again.  The certificate's value is the one its row's climb ended
        # on, and no call follows the climb.
        calls, _ = spy_witness_stage(monkeypatch)
        ascent, ended = definiteness._coordinate_ascent, []

        def spy_ascent(p, starts, values):
            q, best = ascent(p, starts, values)
            ended.append((len(calls), q, best))
            return q, best

        monkeypatch.setattr(definiteness, "_coordinate_ascent", spy_ascent)
        p = ridge_family(2, 0.6)
        v = decide(p, "weak_pd", method="witness")
        assert v.proved and calls[:2] == [definiteness.WITNESS_RESTARTS, 2 * definiteness.WITNESS_RESTARTS]
        (after_climb, q, best), = ended
        assert len(calls) == after_climb
        i = next(i for i, row in enumerate(q) if tuple(row.tolist()) == v.certificate.p)
        assert v.certificate.min_eig == best[i]
        assert v.certificate.min_eig == min_eig(evaluate(p, v.certificate.p))

    def test_no_passing_start_at_n4_climbs_in_two_blocks(self, monkeypatch):
        # Two 4x4 probe members take 256 bytes, so the first block holds 16
        # starts and the next the other 4.  No member of ridge_family(4, 1.5)
        # passes weak PD (its best is 1 - 1.5), so both blocks climb to the end.
        calls, climbs = spy_witness_stage(monkeypatch)
        assert decide(ridge_family(4, 1.5), "weak_pd", method="witness").unknown
        assert calls[0] == definiteness.WITNESS_RESTARTS and climbs == [16, 4]

    @pytest.mark.parametrize("n", [2, 4, 12])
    def test_witness_does_not_depend_on_the_blocks(self, monkeypatch, n):
        # Under the default bytes the 20 starts fall into blocks of [20],
        # [16, 4] and [1, 2, 4, 8, 5] rows at n = 2, 4 and 12; with a one-row
        # first block all into [1, 2, 4, 8, 5], and with huge blocks into [20].
        p = ridge_family(n, 0.6)
        first, cap = definiteness.FIRST_VERTEX_BLOCK_BYTES, definiteness.VERTEX_CHUNK_BYTES
        verdicts = []
        for first_bytes, cap_bytes in ((1, cap), (first, cap), (1 << 40, 1 << 40)):
            monkeypatch.setattr(definiteness, "FIRST_VERTEX_BLOCK_BYTES", first_bytes)
            monkeypatch.setattr(definiteness, "VERTEX_CHUNK_BYTES", cap_bytes)
            verdicts.append(decide(p, "weak_pd", method="witness"))
        assert verdicts[0] == verdicts[1] == verdicts[2]
        assert verdicts[0].proved

    def test_one_row_batches_match(self, rng, monkeypatch):
        # A chunk smaller than two members still gives one row per batch.
        monkeypatch.setattr(definiteness, "VERTEX_CHUNK_BYTES", 1)
        self.assert_matches_sequential(monkeypatch, ridge_family(2, 0.6), "pd", restarts=20)
        for _ in range(3):
            p, _ = planted_pd_family(rng)
            assert self.assert_matches_sequential(monkeypatch, p, "psd", restarts=20)

    @pytest.mark.parametrize("seed", range(8))
    def test_lockstep_rows_equal_rows_run_alone(self, seed):
        # Batching changes no bit: each row of a batch ends where the same
        # start ends when it runs by itself.  Seed 5 has a row that stops
        # on a tiny nonzero gain, and moves if it keeps sweeping.
        rng = np.random.default_rng(seed)
        for p in (ridge_family(2, 0.6), random_family(rng, 3, 4)):
            starts = rng.uniform(p.box.inf(), p.box.sup(), (6, p.K))
            values = min_eigs(_members(p, starts))
            q, best = definiteness._coordinate_ascent(p, starts, values)
            for i, start in enumerate(starts):
                qi, bi = definiteness._coordinate_ascent(p, start[None], values[i : i + 1])
                assert np.array_equal(q[i], qi[0]) and best[i] == bi[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_array_brackets_equal_python_float_brackets(self, seed):
        # The brackets are arrays moved by a mask; each element takes the same IEEE operations as
        # a Python float, so every row ends on the scalar climb's bits, on a box wider than the
        # largest double too.
        rng = np.random.default_rng(seed)
        wide = ParametricSymMatrix([np.diag([1.0, -1.0]), np.eye(2)], ParameterBox([Interval(-1e308, 1e308), Interval(0.0, 1.0)]))
        for p in (ridge_family(2, 0.6), random_family(rng, 3, 4), wide):
            starts = p.box.mid() + (0.5 * p.box.sup() - 0.5 * p.box.inf()) * rng.uniform(-1.0, 1.0, (5, p.K))
            values = min_eigs(_members(p, starts))
            q, best = definiteness._coordinate_ascent(p, starts, values)
            for i, start in enumerate(starts):
                qi, bi = float_bracket_ascent(p, start, float(values[i]))
                assert q[i].tolist() == qi.tolist() and best[i] == bi

    def test_starts_lie_in_a_box_wider_than_the_largest_double(self, monkeypatch):
        # hi - lo overflows on this box: drawing the restarts once raised
        # OverflowError, and the draws past 0.9 of the width give inf
        # unless they are capped at the upper bound.
        p = ParametricSymMatrix([np.diag([1.0, -1.0])], ParameterBox([Interval(-1e308, 1e308)]))
        starts = []
        ascent = definiteness._coordinate_ascent

        def spy(p, rows, values):
            starts.extend(rows[:, 0].tolist())
            return ascent(p, rows, values)

        monkeypatch.setattr(definiteness, "_coordinate_ascent", spy)
        assert decide(p, "weak_pd", tol=0.0, method="witness").unknown
        assert len(starts) == definiteness.WITNESS_RESTARTS
        assert all(-1e308 <= x <= 1e308 for x in starts) and max(starts) == 1e308

    def test_rank_one_cone_psd_witness_found(self, monkeypatch):
        w = stage_witness(monkeypatch, rank_one_cone(), "psd")
        assert w is not None
        assert min_eig(evaluate(rank_one_cone(), w)) >= -family_tol(rank_one_cone())

    def test_rank_one_cone_has_no_pd_witness(self, monkeypatch):
        assert stage_witness(monkeypatch, rank_one_cone(), "pd", restarts=5) is None

    def test_diag_sign_no_witness(self, monkeypatch):
        assert stage_witness(monkeypatch, diag_sign_family(), "pd", restarts=5) is None

    def test_planted_instances_recovered(self, monkeypatch, rng):
        hits = 0
        for _ in range(10):
            p, _ = planted_pd_family(rng)
            w = stage_witness(monkeypatch, p, "pd", restarts=20)
            if w is not None:
                assert min_eig(evaluate(p, w)) > family_tol(p)
                hits += 1
        assert hits == 10


class TestDecide:
    def test_split_favorable_decided_by_first_stage(self):
        v = decide(split_favorable(), "strong_pd")
        assert v.proved and v.method == "split"
        assert [name for name, _ in v.stage_ms] == ["split"]

    def test_regularity_favorable_decided_by_second_stage(self):
        v = decide(regularity_favorable(), "strong_pd")
        assert v.proved and v.method == "regularity"
        assert [name for name, _ in v.stage_ms] == ["split", "regularity"]

    def test_rank_one_cone_pd_disproved_by_vertices(self):
        v = decide(rank_one_cone(), "strong_pd")
        assert v.disproved and v.method == "vertex"

    def test_weak_goals(self):
        assert decide(diag_sign_family(), "weak_psd").disproved
        v = decide(rank_one_cone(), "weak_psd")
        assert v.proved and v.method == "witness"
        assert isinstance(v.certificate, WitnessPoint)
        # Every member of the cone family is singular, so weak PD fails and
        # the necessary condition sees it (its bound matrix is only PSD).
        v_pd = decide(rank_one_cone(), "weak_pd")
        assert v_pd.disproved and v_pd.method == "necessary"

    def test_unknown_when_budget_blocks_vertices(self, rng):
        p = regularity_favorable()
        v = decide(p, "strong_psd", vertex_budget=1)
        assert v.unknown

    def test_invalid_goal(self):
        with pytest.raises(ValueError):
            decide(rank_one_cone(), "psd")

    @pytest.mark.parametrize("goal", definiteness.GOALS)
    def test_default_tolerance_resolved_once(self, monkeypatch, goal):
        # No member of diag_sign_family is PSD and a zero budget blocks the
        # vertex stage, so the strong cascades run every stage; the weak
        # ones reach the witness stage on a strongly PD family.
        calls = []

        def counted(p):
            calls.append(p)
            return family_tol(p)

        monkeypatch.setattr(definiteness, "family_tol", counted)
        p = diag_sign_family() if goal in definiteness.STRONG_GOALS else regularity_favorable()
        verdict = decide(p, goal, vertex_budget=0)
        assert len(verdict.stage_ms) >= 2 and len(calls) == 1
        assert verdict.tol == family_tol(p)
        # An explicit tolerance comes back as given and resolves nothing.
        assert decide(p, goal, tol=0.05, vertex_budget=0).tol == 0.05 and len(calls) == 1

    @pytest.mark.parametrize(
        "tol, goal",
        [(float("nan"), "strong_pd"), (float("inf"), "strong_psd"), (-float("inf"), "weak_psd"),
         (-5.0, "strong_pd"), (-5.0, "weak_pd")],
    )
    def test_invalid_tolerance_rejected(self, tol, goal):
        # diag(p, -p) on [1, 2] is indefinite; NaN, inf and -5 once proved it.
        p = ParametricSymMatrix([np.diag([1.0, -1.0])], ParameterBox([Interval(1.0, 2.0)]))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            decide(p, goal, tol=tol)
        assert decide(p, goal, tol=0.0).disproved

    @pytest.mark.parametrize("goal", definiteness.GOALS)
    def test_overflowing_default_tolerance_rejected(self, goal):
        # The default tolerance of diag(1e308, -1e308) overflows to inf;
        # "strong_psd" was once proved by split with min_eig -1e308.
        p = ParametricSymMatrix([np.diag([1e308, -1e308])], ParameterBox([Interval(1.0, 1.0)]))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            decide(p, goal)
        assert decide(p, goal, tol=0.0).disproved

    @pytest.mark.parametrize("goal", definiteness.GOALS)
    def test_negative_vertex_budget_rejected(self, goal):
        # A NaN budget once enumerated every vertex (total > nan is false), and True read as a budget of 1.
        for budget in (-5, np.int64(-1), float("nan"), float("inf"), 2.0, np.float64(3.0), True, np.True_, "4", None):
            with pytest.raises(ValueError, match=f"vertex budget must be a nonnegative integer, got {re.escape(repr(budget))}"):
                decide(diag_sign_family(), goal, vertex_budget=budget)
        assert not decide(diag_sign_family(), goal, vertex_budget=0).proved
        for budget in (np.uint8(0), np.int64(4)):
            v, w = (decide(diag_sign_family(), goal, vertex_budget=b) for b in (budget, int(budget)))
            assert (v.status, v.method, v.detail) == (w.status, w.method, w.detail)

    @pytest.mark.parametrize("goal", definiteness.GOALS)
    def test_stages_run_in_table_order(self, rng, goal):
        # Under the defaults and under a zero budget, which keeps the strong
        # cascades from deciding on the vertex stage, the verdict's stage
        # times name the applicable stages in table order, up to and
        # including the one the verdict names; an unknown verdict ran them all.
        applicable = [s.name for s in definiteness.STAGES if goal in s.goals]
        for budget in (definiteness.DEFAULT_VERTEX_BUDGET, 0):
            for p in [random_family(rng) for _ in range(10)] + [split_favorable(), diag_sign_family()]:
                v = decide(p, goal, vertex_budget=budget)
                names = [name for name, _ in v.stage_ms]
                assert names == applicable[: len(names)] and names[-1] == v.method
                assert all(ms >= 0.0 for _, ms in v.stage_ms)
                assert not v.unknown or names == applicable

    def test_verdicts_compare_without_their_times(self):
        p = regularity_favorable()
        a, b = decide(p, "strong_pd"), decide(p, "strong_pd")
        assert a == b and a.method == "regularity"
        slower = dataclasses.replace(a, stage_ms=tuple((name, ms + 1.0) for name, ms in a.stage_ms))
        assert slower == a and slower.stage_ms != a.stage_ms
        assert dataclasses.replace(a, method="vertex") != a

    def test_method_keeps_its_position(self):
        v = definiteness.Verdict(Status.UNKNOWN, "split", None, "why")
        assert (v.method, v.detail, v.stage_ms) == ("split", "why", ())

    def test_certificates_recheck(self, rng):
        reverified = 0
        for _ in range(60):
            p = random_family(rng)
            for goal in ("strong_psd", "strong_pd"):
                v = decide(p, goal)
                if isinstance(v.certificate, CounterexampleVertex):
                    m = min_eig(evaluate(p, v.certificate.p))
                    assert m == pytest.approx(v.certificate.min_eig, abs=1e-9)
                    reverified += 1
                elif isinstance(v.certificate, SplitWitness):
                    m = min_eig(v.certificate.matrix)
                    assert m == pytest.approx(v.certificate.min_eig, abs=1e-9)
                    reverified += 1
        assert reverified > 0

    def test_consistency_chain(self, rng):
        for _ in range(60):
            p = random_family(rng)
            pd_v = strong_pd(p)
            if pd_v.proved:
                assert strong_psd(p).proved
                assert not weak_pd_necessary(p).disproved


class TestReportedPointsReplay:
    """Every reported point lies in the box exactly, and the public API gives back its reported value, bit for bit."""

    @pytest.mark.parametrize("seed", range(2))
    def test_min_eig_of_evaluate_is_the_reported_value(self, seed):
        rng = np.random.default_rng(seed)
        replayed = 0
        for _ in range(15):
            p = random_family(rng, max_n=4, max_k=4)
            for goal in ("strong_psd", "strong_pd", "weak_psd", "weak_pd"):
                cert = decide(p, goal).certificate
                if isinstance(cert, (WitnessPoint, CounterexampleVertex)):
                    assert min_eig(evaluate(p, cert.p)) == cert.min_eig
                    replayed += 1
        assert replayed >= 30

    @pytest.mark.parametrize("seed", range(4))
    def test_climbs_end_inside_boxes_of_subnormal_width(self, seed):
        # Halving an odd multiple of 5e-324 rounds to even, so on a bracket closed on one such point
        # 0.5 lo + 0.5 hi lands one step outside it; the climb clamps its midpoints into the box.  The
        # coefficients near 1e300 keep the members' entries normal, so the climb has values to compare.
        rng = np.random.default_rng(seed)
        tiny = 5e-324
        for _ in range(40):
            k = int(rng.integers(1, 4))
            lo = rng.integers(-9, 9, k) * tiny
            bounds = list(zip(lo.tolist(), (lo + rng.integers(1, 6, k) * tiny).tolist()))
            coeffs = [SymMatrix(1e300 * rng.uniform(-2.0, 2.0, (2, 2))) for _ in range(k)]
            p = ParametricSymMatrix(coeffs, ParameterBox.from_bounds(bounds))
            starts = np.vstack([p.box.mid(), p.box.inf(), p.box.sup()])
            q, _ = definiteness._coordinate_ascent(p, starts, min_eigs(_members(p, starts)))
            assert ((p.box.inf() <= q) & (q <= p.box.sup())).all()
            assert all(p.box.contains(row) for row in q)


class TestRunStage:
    """One stage alone, through ``decide(..., method=<stage>)``."""

    def test_matches_the_named_wrappers(self, rng):
        # All six public per-stage functions, under the defaults and under
        # a coarse tolerance with a budget that blocks most vertex scans.
        from psdparam.cli import certificate_to_jsonable

        for tol, budget in [(None, definiteness.DEFAULT_VERTEX_BUDGET), (0.05, 3)] * 20:
            p = random_family(rng)
            pairs = [
                (("strong_psd", "split"), strong_psd_split(p, tol)),
                (("strong_pd", "split"), strong_pd_split(p, tol)),
                (("strong_pd", "regularity"), strong_pd_regularity(p, tol)),
                (("strong_psd", "vertex"), strong_psd(p, tol, budget)),
                (("strong_pd", "vertex"), strong_pd(p, tol, budget)),
                (("weak_pd", "necessary"), weak_pd_necessary(p, tol)),
            ]
            for (goal, stage), expected in pairs:
                v = decide(p, goal, tol=tol, vertex_budget=budget, method=stage)
                assert (v.status, v.method, v.detail) == (expected.status, expected.method, expected.detail)
                assert certificate_to_jsonable(v.certificate) == certificate_to_jsonable(expected.certificate)

    def test_witness_stage(self, monkeypatch):
        v = decide(rank_one_cone(), "weak_psd", method="witness")
        assert v.proved and isinstance(v.certificate, WitnessPoint)
        starts = []
        ascent = definiteness._coordinate_ascent

        def spy(p, rows, values):
            starts.extend(rows.copy())
            return ascent(p, rows, values)

        monkeypatch.setattr(definiteness, "_coordinate_ascent", spy)
        monkeypatch.setattr(definiteness, "WITNESS_RESTARTS", 1)
        assert decide(diag_sign_family(), "weak_pd", method="witness").unknown
        assert len(starts) == 1

    @pytest.mark.parametrize(
        "goal, stage", [(goal, s.name) for s in definiteness.STAGES for goal in s.goals]
    )
    def test_one_stage_gives_one_row(self, goal, stage):
        for p in (split_favorable(), regularity_favorable(), diag_sign_family(), rank_one_cone()):
            v = decide(p, goal, method=stage)
            assert v.method == stage and len(v.stage_ms) == 1 and v.stage_ms[0][0] == stage

    def test_vertex_budget_reaches_the_stage(self):
        v = decide(regularity_favorable(), "strong_psd", vertex_budget=1, method="vertex")
        assert v.unknown and "budget 1" in v.detail

    def test_only_the_named_stage_runs_and_is_timed(self):
        # The cascade would stop at split; the vertex stage alone still
        # decides, and its time is the only one recorded.
        v = decide(split_favorable(), "strong_pd", method="vertex")
        assert v.proved and v.method == "vertex" and isinstance(v.certificate, VertexList)
        assert len(v.stage_ms) == 1 and v.stage_ms[0][0] == "vertex" and v.stage_ms[0][1] >= 0
        v = decide(split_favorable(), "strong_pd", method="auto")
        assert v.method == "split" and [name for name, _ in v.stage_ms] == ["split"]

    @pytest.mark.parametrize("stage", ["split", "vertex"])
    def test_rejects_negative_vertex_budget(self, stage):
        with pytest.raises(ValueError, match="vertex budget must be a nonnegative integer"):
            decide(diag_sign_family(), "strong_pd", vertex_budget=-1, method=stage)
        for wrapper in (strong_psd, strong_pd):
            with pytest.raises(ValueError, match="vertex budget must be a nonnegative integer"):
                wrapper(diag_sign_family(), budget=-1)

    @pytest.mark.parametrize(
        "goal, stage",
        [("weak_pd", "split"), ("strong_psd", "regularity"), ("weak_psd", "regularity"),
         ("weak_psd", "vertex"), ("strong_pd", "necessary"), ("strong_psd", "witness")],
    )
    def test_rejects_stage_outside_its_goals(self, goal, stage):
        with pytest.raises(ValueError, match=f"'{stage}' applies to"):
            decide(rank_one_cone(), goal, method=stage)

    def test_rejects_unknown_stage_and_goal(self):
        with pytest.raises(ValueError, match="unknown stage"):
            decide(rank_one_cone(), "strong_psd", method="oracle")
        with pytest.raises(ValueError, match="goal must be one of"):
            decide(rank_one_cone(), "psd", method="split")


class TestJacobiOnlyBehindHertz:
    """The decision stages solve on LAPACK; the Jacobi kernel serves ``hertz_min_eig`` alone."""

    @staticmethod
    def patch_kernel(monkeypatch, replacement):
        holders = [m for name, m in list(sys.modules.items()) if name.startswith("psdparam") and hasattr(m, "_jacobi_eigvals")]
        assert holders, "no psdparam module holds _jacobi_eigvals: the test would check nothing"
        for module in holders:
            monkeypatch.setattr(module, "_jacobi_eigvals", replacement)

    def test_decide_never_reaches_the_kernel(self, monkeypatch, rng):
        def refuse(*_):
            raise AssertionError("a decision stage reached the Jacobi kernel")

        families = [rank_one_cone(), split_favorable(), regularity_favorable(), diag_sign_family()]
        families += [random_family(rng, max_n=4, max_k=3) for _ in range(4)]
        self.patch_kernel(monkeypatch, refuse)
        monkeypatch.setattr(definiteness, "WITNESS_RESTARTS", 3)
        methods = set()
        for p in families:
            for goal in definiteness.GOALS:
                for method in ["auto", *(s.name for s in definiteness.STAGES if goal in s.goals)]:
                    decide(p, goal, method=method)
                    methods.add(method)
        assert methods == {"auto", *(s.name for s in definiteness.STAGES)}

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_certify_convexity_reaches_the_kernel_per_sign_matrix(self, monkeypatch, n):
        sizes = []

        def count(stack, *rest):
            sizes.extend([stack.shape[1]] * len(stack))
            return _jacobi_eigvals(stack, *rest)

        self.patch_kernel(monkeypatch, count)
        f = parse(" + ".join([f"x{i}^3" for i in range(1, n + 1)] + [f"x{i} x{i + 1}" for i in range(1, n)]))
        result = certify_convexity(f, ParameterBox.from_bounds([(1.0, 2.0)] * n))
        assert sizes == [n] * (1 << (n - 1))
        assert result.verdict.proved

"""Decision procedures: vertex checks, splitting conditions, regularity, Hertz, witness search."""

from __future__ import annotations

import itertools
import sys

import numpy as np
import pytest

from conftest import (
    diag_sign_family,
    planted_pd_family,
    random_family,
    rank_one_cone,
    regularity_favorable,
    split_favorable,
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
    relax,
    strong_pd,
    strong_pd_regularity,
    strong_pd_split,
    strong_psd,
    strong_psd_interval,
    strong_psd_split,
    vertices,
    weak_pd_necessary,
    weak_pd_witness,
    weak_psd_necessary,
)
from psdparam import definiteness
from psdparam.oracle import sample_min_eig
from psdparam.symlinalg import _jacobi_eigvals

PLANTED_FREE = 5  # 32 vertices; the chunks start at rows 0, 1, 3, 7, 15 and 31


def planted_vertex_family(rng, j: int, shift: float) -> ParametricSymMatrix:
    """shift * I on a degenerate parameter plus indefinite coefficients on [-1, 1].

    Gray vertex ``j`` alone puts -PLANTED_FREE on the (0, 0) entry; every
    other vertex puts at least 2 more there, and the remaining 2x2 block
    stays within +-0.6.  So with shift 4 only vertex ``j`` fails, with
    shift 2.5 it and its Gray neighbours fail, and with shift 6 every
    vertex passes and ``j`` is the worst.
    """
    gray = j ^ (j >> 1)
    e = np.eye(3)
    twist = 0.1 * (np.outer(e[1], e[1]) - np.outer(e[2], e[2]))
    coeffs = [e]
    for bit in range(PLANTED_FREE):
        sign = 1.0 if (gray >> bit) & 1 else -1.0
        noise = rng.uniform(-0.01, 0.01, (3, 3))
        coeffs.append(-sign * np.outer(e[0], e[0]) + twist + noise + noise.T)
    box = ParameterBox([Interval(shift, shift)] + [Interval(-1.0, 1.0)] * PLANTED_FREE)
    return ParametricSymMatrix(coeffs, box)


def sequential_vertex_scan(p: ParametricSymMatrix, goal: str):
    """The one-vertex-at-a-time scalar scan the batched route must agree with."""
    tol = family_tol(p)
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


class TestBatchedVertexRoute:
    def assert_matches_sequential(self, p, goal):
        op = strong_pd if goal == "pd" else strong_psd
        v = op(p)
        status, vertex, value = sequential_vertex_scan(p, goal)
        assert v.status is status
        cert = v.certificate
        if status is Status.DISPROVED:
            assert isinstance(cert, CounterexampleVertex)
            assert (cert.p, cert.min_eig) == (vertex, pytest.approx(value, abs=1e-9))
        else:
            assert isinstance(cert, VertexList) and cert.checked == len(vertices(p, tol=family_tol(p)))
            assert (cert.worst_vertex, cert.worst_min_eig) == (vertex, pytest.approx(value, abs=1e-9))
        return v

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 6, 7, 14, 15, 30, 31])
    @pytest.mark.parametrize("goal", ["psd", "pd"])
    def test_planted_first_failure(self, rng, j, goal):
        p = planted_vertex_family(rng, j, shift=4.0)
        v = self.assert_matches_sequential(p, goal)
        assert v.disproved and v.certificate.p == vertices(p)[j].values

    @pytest.mark.parametrize("j", [0, 3, 15, 31])
    @pytest.mark.parametrize("shift", [2.5, 0.5])
    @pytest.mark.parametrize("goal", ["psd", "pd"])
    def test_planted_several_failures(self, rng, j, shift, goal):
        v = self.assert_matches_sequential(planted_vertex_family(rng, j, shift), goal)
        assert v.disproved

    def test_tied_minimum_names_first_vertex(self):
        # A(p) = diag(p1, 10 - 0.001 p1 + p2, 10 - p2): the minimum 1 is
        # attained exactly at Gray vertices 0 and 3, in different chunks.
        p = ParametricSymMatrix(
            [np.diag([1.0, -0.001, 0.0]), np.diag([0.0, 1.0, -1.0]), np.diag([0.0, 10.0, 10.0])],
            ParameterBox([Interval(1.0, 2.0), Interval(0.0, 1.0), Interval(1.0, 1.0)]),
        )
        v = self.assert_matches_sequential(p, "pd")
        assert v.certificate.worst_vertex == vertices(p)[0].values
        assert v.certificate.worst_min_eig == 1.0

    @pytest.mark.parametrize("j", [0, 7, 31])
    def test_planted_proved_names_worst_vertex(self, rng, j):
        p = planted_vertex_family(rng, j, shift=6.0)
        v = self.assert_matches_sequential(p, "pd")
        assert v.proved and v.certificate.worst_vertex == vertices(p)[j].values

    def test_random_families(self, rng):
        decided = 0
        for _ in range(40):
            p = random_family(rng, max_n=4, max_k=6)
            for goal in ("psd", "pd"):
                decided += not self.assert_matches_sequential(p, goal).unknown
        assert decided == 80

    def test_one_row_chunks(self, rng, monkeypatch):
        monkeypatch.setattr(definiteness, "VERTEX_CHUNK_BYTES", 1)
        for j, shift in ((15, 4.0), (31, 2.5), (7, 6.0)):
            self.assert_matches_sequential(planted_vertex_family(rng, j, shift), "psd")


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


class TestWeakNecessary:
    def test_diag_sign_never_psd(self):
        v = weak_psd_necessary(diag_sign_family())
        assert v.disproved and v.method == "necessary"
        cert = v.certificate
        assert isinstance(cert, NecessaryFailure)
        assert np.allclose(cert.matrix.array, np.diag([2.0, -1.0]))

    def test_rank_one_cone_inconclusive(self):
        v = weak_psd_necessary(rank_one_cone())
        assert v.unknown
        assert isinstance(v.certificate, NecessaryFailure)

    def test_disproved_confirmed_by_oracle_sweep(self, rng):
        found = 0
        while found < 5:
            p = random_family(rng)
            v = weak_psd_necessary(p)
            if v.disproved:
                found += 1
                value, _ = sample_min_eig(p, "random", count=10_000)
                assert value < -family_tol(p)

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
        v = strong_pd_regularity(p)
        assert v.proved
        assert v.certificate.rho < 1e-12

    def test_singular_midpoint_unknown(self):
        p = ParametricSymMatrix([np.diag([1.0, -1.0])], ParameterBox([Interval(-1.0, 1.0)]))
        v = strong_pd_regularity(p)
        assert v.unknown and "singular" in v.detail

    def test_regularity_proved_implies_vertex_proved(self, rng):
        for _ in range(40):
            p = random_family(rng)
            if strong_pd_regularity(p).proved:
                assert strong_pd(p).proved


class TestIntervalChecks:
    def test_rank_one_relaxation_not_strongly_psd(self):
        assert not strong_psd_interval(relax(rank_one_cone()))

    def test_degenerate_pd_point_matrix(self):
        m = IntervalMatrix.point(np.array([[2.0, 0.3], [0.3, 1.5]]))
        assert strong_psd_interval(m) and hertz_min_eig(m) > definiteness.interval_tol(m)

    def test_asymmetric_input_rejected(self):
        bad = IntervalMatrix([[0.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [3.0, 1.0]])
        with pytest.raises(AsymmetricMatrixError):
            strong_psd_interval(bad)
        with pytest.raises(AsymmetricMatrixError):
            hertz_min_eig(bad)

    def test_default_tolerance_is_uniform(self):
        # interval_tol = 1e-10 * (1 + n * max|entry|) = 3e-10 here.
        t = definiteness.interval_tol(IntervalMatrix.point(np.eye(2)))
        assert t == pytest.approx(3e-10)
        inside = IntervalMatrix.point(np.diag([1.0, -0.5 * t]))
        outside = IntervalMatrix.point(np.diag([1.0, -2.0 * t]))
        assert strong_psd_interval(inside) and not strong_psd_interval(outside)
        assert strong_psd_interval(outside, tol=3.0 * t)
        assert not strong_psd_interval(inside, tol=0.0)

    def test_overflowing_default_tolerance_rejected(self):
        # n * max|entry| overflows; the inf default once passed this
        # indefinite point matrix as strongly PSD.
        m = IntervalMatrix.point(np.diag([1e308, -1e308]))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            strong_psd_interval(m)
        assert not strong_psd_interval(m, tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_invalid_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            strong_psd_interval(IntervalMatrix.point(np.eye(2)), tol=tol)

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
        assert hertz_min_eig(IntervalMatrix.point(m)) == pytest.approx(min_eig(SymMatrix(m)), abs=1e-12)

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


def sequential_ascents(p: ParametricSymMatrix, restarts: int, seed: int = definiteness.DEFAULT_SEED):
    """Reference witness search: one scalar ``min_eig(evaluate(...))`` per probe.

    The same seeded restarts, ternary rule, step and sweep counts and
    stopping test as ``weak_pd_witness``, one restart after another with
    no batching.  Yields (point, value, sweeps run) for each restart.
    """
    rng = np.random.default_rng(seed)
    lows, highs = p.box.inf(), p.box.sup()
    for trial in range(max(restarts, 1)):
        q = p.box.mid() if trial == 0 else rng.uniform(lows, highs)
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


def sequential_witness(p: ParametricSymMatrix, restarts: int, goal: str, seed: int = definiteness.DEFAULT_SEED):
    """The first restart of ``sequential_ascents`` whose value passes the goal, or None."""
    tol = family_tol(p)
    return next((q for q, best, _ in sequential_ascents(p, restarts, seed) if passes(goal, best, tol)), None)


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


class TestWitnessSearch:
    def assert_matches_sequential(self, p, goal, restarts, seed=definiteness.DEFAULT_SEED):
        expected = sequential_witness(p, restarts, goal, seed)
        got = weak_pd_witness(p, restarts=restarts, goal=goal, seed=seed)
        assert (got is None) == (expected is None)
        if got is None:
            return False
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)
        assert p.box.contains(got)
        m = float(np.linalg.eigvalsh(np.tensordot(got, p.coefficient_stack(), axes=1))[0])
        assert passes(goal, m, family_tol(p))
        return True

    @pytest.mark.parametrize("goal", ["pd", "psd"])
    def test_batched_matches_sequential_on_fixtures(self, rng, goal):
        for p in (rank_one_cone(), diag_sign_family()):
            self.assert_matches_sequential(p, goal, restarts=5)
        for _ in range(5):
            p, _ = planted_pd_family(rng)
            assert self.assert_matches_sequential(p, goal, restarts=20)

    @pytest.mark.parametrize("goal", ["pd", "psd"])
    def test_batched_matches_sequential_on_random_families(self, rng, goal):
        # 2x2 members keep the scalar reference fast; the planted fixtures
        # above cover 3x3.
        found = 0
        for _ in range(30):
            found += self.assert_matches_sequential(random_family(rng, max_n=2, max_k=4), goal, restarts=2)
        assert 0 < found < 30

    @pytest.mark.parametrize("restarts", [1, 2, 20])
    @pytest.mark.parametrize("goal", ["pd", "psd"])
    def test_lowest_accepted_restart_wins(self, goal, restarts):
        p = ridge_family(2, 0.6)
        runs = list(sequential_ascents(p, restarts))
        accepted = [i for i, (_, best, _) in enumerate(runs) if passes(goal, best, family_tol(p))]
        assert 0 not in accepted
        if restarts == 20:
            # Several restarts pass and they stop after different numbers
            # of sweeps, so rows leave the lockstep batch at different times.
            assert len(accepted) >= 2
            assert len({sweeps for *_, sweeps in runs[1:]}) > 1
        assert self.assert_matches_sequential(p, goal, restarts) == bool(accepted)

    def test_batches_split_by_size(self, monkeypatch):
        # At n = 60 the two probe members of a row take 57600 bytes, so a
        # batch holds 18 rows and the 19 random restarts run as 18 + 1.
        # The seed puts the only start that reaches the threshold last, so
        # only the second batch accepts.
        n = 60
        rows = definiteness.VERTEX_CHUNK_BYTES // (2 * n * n * 8)
        assert rows == 18
        seed = next(
            s for s in range(1000)
            if np.argmax(np.random.default_rng(s).uniform(0.0, 1.0, (19, 3))[:, 1]) == 18
        )
        y = np.random.default_rng(seed).uniform(0.0, 1.0, (19, 3))[:, 1]
        c = 0.5 * (max(0.5, y[:18].max()) + y[18])
        assert c < y[18] - 1e-6
        p = ridge_family(n, c)
        batches = []
        ascent = definiteness._coordinate_ascent

        def spy(p, starts):
            batches.append(len(starts))
            return ascent(p, starts)

        monkeypatch.setattr(definiteness, "_coordinate_ascent", spy)
        assert self.assert_matches_sequential(p, "pd", restarts=20, seed=seed)
        assert batches == [1, rows, 19 - rows]

    def test_one_row_batches_match(self, rng, monkeypatch):
        # A chunk smaller than two members still gives one row per batch.
        monkeypatch.setattr(definiteness, "VERTEX_CHUNK_BYTES", 1)
        self.assert_matches_sequential(ridge_family(2, 0.6), "pd", restarts=20)
        for _ in range(3):
            p, _ = planted_pd_family(rng)
            assert self.assert_matches_sequential(p, "psd", restarts=20)

    def test_unknown_goal_rejected(self):
        with pytest.raises(ValueError):
            weak_pd_witness(rank_one_cone(), goal="x")

    @pytest.mark.parametrize("seed", range(8))
    def test_lockstep_rows_equal_rows_run_alone(self, seed):
        # Batching changes no bit: each row of a batch ends where the same
        # start ends when it runs by itself.  Seed 5 has a row that stops
        # on a tiny nonzero gain, and moves if it keeps sweeping.
        rng = np.random.default_rng(seed)
        for p in (ridge_family(2, 0.6), random_family(rng, 3, 4)):
            starts = rng.uniform(p.box.inf(), p.box.sup(), (6, p.K))
            q, best = definiteness._coordinate_ascent(p, starts)
            for i, start in enumerate(starts):
                qi, bi = definiteness._coordinate_ascent(p, start[None])
                assert np.array_equal(q[i], qi[0]) and best[i] == bi[0]

    def test_zero_restarts_runs_one_start(self, monkeypatch):
        starts = []
        ascent = definiteness._coordinate_ascent

        def spy(p, rows):
            starts.extend(rows.copy())
            return ascent(p, rows)

        monkeypatch.setattr(definiteness, "_coordinate_ascent", spy)
        p = diag_sign_family()
        assert weak_pd_witness(p, restarts=0) is None
        assert len(starts) == 1
        np.testing.assert_array_equal(starts[0], p.box.mid())

    def test_rank_one_cone_psd_witness_found(self):
        w = weak_pd_witness(rank_one_cone(), goal="psd")
        assert w is not None
        assert min_eig(evaluate(rank_one_cone(), w)) >= -family_tol(rank_one_cone())

    def test_rank_one_cone_has_no_pd_witness(self):
        assert weak_pd_witness(rank_one_cone(), restarts=5) is None

    def test_diag_sign_no_witness(self):
        assert weak_pd_witness(diag_sign_family(), restarts=5) is None

    def test_planted_instances_recovered(self, rng):
        hits = 0
        for _ in range(10):
            p, _ = planted_pd_family(rng)
            w = weak_pd_witness(p, restarts=20)
            if w is not None:
                assert min_eig(evaluate(p, w)) > family_tol(p)
                hits += 1
        assert hits == 10


class TestDecide:
    def test_split_favorable_decided_by_first_stage(self):
        timings = {}
        v = decide(split_favorable(), "strong_pd", timings=timings)
        assert v.proved and v.method == "split"
        assert set(timings) == {"split"}

    def test_regularity_favorable_decided_by_second_stage(self):
        timings = {}
        v = decide(regularity_favorable(), "strong_pd", timings=timings)
        assert v.proved and v.method == "regularity"
        assert set(timings) == {"split", "regularity"}

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
        with pytest.raises(ValueError, match="vertex budget must be a nonnegative integer"):
            decide(diag_sign_family(), goal, vertex_budget=-5)
        assert not decide(diag_sign_family(), goal, vertex_budget=0).proved

    @pytest.mark.parametrize("goal", definiteness.GOALS)
    def test_stages_run_in_table_order(self, goal):
        # A one-vertex budget keeps the strong cascades from deciding early
        # on the vertex stage; every applicable stage then runs.
        applicable = [s.name for s in definiteness.STAGES if goal in s.goals]
        timings: dict = {}
        v = decide(diag_sign_family(), goal, vertex_budget=0, timings=timings)
        assert list(timings) == applicable[: applicable.index(v.method) + 1]
        assert v.method in applicable

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


class TestRunStage:
    """One stage alone, through ``decide(..., method=<stage>)``."""

    def test_matches_the_named_wrappers(self, rng):
        for _ in range(20):
            p = random_family(rng)
            pairs = [
                (("strong_psd", "split"), strong_psd_split(p)),
                (("strong_pd", "split"), strong_pd_split(p)),
                (("strong_pd", "regularity"), strong_pd_regularity(p)),
                (("strong_psd", "vertex"), strong_psd(p)),
                (("strong_pd", "vertex"), strong_pd(p)),
                (("weak_psd", "necessary"), weak_psd_necessary(p)),
                (("weak_pd", "necessary"), weak_pd_necessary(p)),
            ]
            for (goal, stage), expected in pairs:
                v = decide(p, goal, method=stage)
                assert (v.status, v.method, v.detail) == (expected.status, expected.method, expected.detail)
                assert type(v.certificate) is type(expected.certificate)

    def test_witness_stage(self):
        v = decide(rank_one_cone(), "weak_psd", method="witness")
        assert v.proved and isinstance(v.certificate, WitnessPoint)
        assert decide(diag_sign_family(), "weak_pd", restarts=1, method="witness").unknown

    def test_vertex_budget_reaches_the_stage(self):
        v = decide(regularity_favorable(), "strong_psd", vertex_budget=1, method="vertex")
        assert v.unknown and "budget 1" in v.detail

    def test_only_the_named_stage_runs_and_is_timed(self):
        # The cascade would stop at split; the vertex stage alone still
        # decides, and its time is the only one recorded.
        timings = {}
        v = decide(split_favorable(), "strong_pd", timings=timings, method="vertex")
        assert v.proved and v.method == "vertex" and isinstance(v.certificate, VertexList)
        assert list(timings) == ["vertex"] and timings["vertex"] >= 0
        timings = {}
        assert decide(split_favorable(), "strong_pd", timings=timings, method="auto").method == "split"
        assert list(timings) == ["split"]

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
        for name, module in list(sys.modules.items()):
            if name.startswith("psdparam") and hasattr(module, "_jacobi_eigvals"):
                monkeypatch.setattr(module, "_jacobi_eigvals", replacement)

    def test_decide_never_reaches_the_kernel(self, monkeypatch, rng):
        def refuse(*_):
            raise AssertionError("a decision stage reached the Jacobi kernel")

        families = [rank_one_cone(), split_favorable(), regularity_favorable(), diag_sign_family()]
        families += [random_family(rng, max_n=4, max_k=3) for _ in range(4)]
        self.patch_kernel(monkeypatch, refuse)
        methods = set()
        for p in families:
            for goal in definiteness.GOALS:
                for method in ["auto", *(s.name for s in definiteness.STAGES if goal in s.goals)]:
                    decide(p, goal, method=method, restarts=3)
                    methods.add(method)
        assert methods == {"auto", *(s.name for s in definiteness.STAGES)}

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_certify_convexity_reaches_the_kernel_per_sign_matrix(self, monkeypatch, n):
        sizes = []

        def count(a, *rest):
            sizes.append(a.n)
            return _jacobi_eigvals(a, *rest)

        self.patch_kernel(monkeypatch, count)
        f = parse(" + ".join([f"x{i}^3" for i in range(1, n + 1)] + [f"x{i} x{i + 1}" for i in range(1, n)]))
        result = certify_convexity(f, ParameterBox.from_bounds([(1.0, 2.0)] * n))
        assert sizes == [n] * (1 << (n - 1))
        assert result.verdict.proved

"""Parametric family model: evaluation, relaxation, preconditioning, vertex reduction."""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    BIG_INDEFINITE_DOC,
    DEMO_CUBIC,
    DEMO_CUBIC_BOUNDS,
    OVERFLOW_DOC,
    SPLIT_OVERFLOW_DOC,
    random_family,
    random_semidefinite_family,
    rank_one_cone,
    regularity_favorable,
    split_favorable,
    swap_copies_doc,
)
from psdparam import (
    Interval,
    IntervalMatrix,
    ParameterBox,
    ParametricSymMatrix,
    SingularMatrixError,
    SymMatrix,
    contains,
    evaluate,
    family_tol,
    parse,
    hessian,
    min_eig,
    passes,
    precondition_relax,
    problem_from_json,
    relax,
    vertices,
)
from psdparam import parametric
from psdparam.intervals import _scaled_bounds, _sum_bounds
from psdparam.oracle import full_vertex_check
from psdparam.parametric import FamilyOverflowError

EX2_M_INF = np.array([[0.2222, -0.4075], [-0.5556, 0.8148]])
EX2_M_SUP = np.array([[1.7778, 0.4075], [0.5556, 1.1852]])
EX3_M_INF = np.array([[0.7227, -0.6905], [-0.6905, 0.7227]])
EX3_M_SUP = np.array([[1.2773, 0.6905], [0.6905, 1.2773]])


class TestModel:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            ParameterBox([])
        with pytest.raises(TypeError):
            ParameterBox([(0.0, 1.0)])

    def test_coeff_count_must_match_box(self):
        with pytest.raises(ValueError):
            ParametricSymMatrix([np.eye(2)], ParameterBox([Interval(0, 1), Interval(0, 1)]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ParametricSymMatrix([np.eye(2), np.eye(3)], ParameterBox([Interval(0, 1)] * 2))

    def test_overflowing_members_rejected(self):
        # Every entry is finite, but 1e308 * 2 on the box [1, 2] is not.
        with pytest.raises(FamilyOverflowError, match="matrices overflow double precision over the parameter box"):
            problem_from_json(OVERFLOW_DOC)

    def test_overflowing_split_bounds_rejected(self):
        # Every member is finite; the split bound matrices' diagonal 1.5 c is not.
        c = 1.5e308
        for q in (0.0, 0.5, 1.0):
            assert np.isfinite(np.array([[c, q * c], [q * c, c]])).all()
        with pytest.raises(FamilyOverflowError, match="matrices overflow double precision"):
            problem_from_json(SPLIT_OVERFLOW_DOC)

    def test_overflowing_coefficient_spectrum_rejected(self):
        # Entries of 1.3e308 but eigenvalues of +-2.6e308: the member is
        # finite, its spectrum and PSD parts are not.
        m = np.array([[-1.0, -1.0, -1.0, -1.0], [-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0]])
        with pytest.raises(FamilyOverflowError):
            ParametricSymMatrix([1.3e308 * m], ParameterBox([Interval(1.0, 1.0)]))

    def test_entry_at_the_largest_double_rejected(self):
        # The member is finite, but relax's outward rounding would reach inf.
        big = np.finfo(float).max
        with pytest.raises(FamilyOverflowError):
            ParametricSymMatrix([np.array([[big]])], ParameterBox([Interval(1.0, 1.0)]))

    def test_overflowing_norm_bound_alone_is_accepted(self):
        # n * max|entry| overflows, and with it the default tolerance; the
        # members, the split bound matrices and the relaxation do not.
        p = problem_from_json(BIG_INDEFINITE_DOC)
        assert np.array_equal(evaluate(p, [1.0]).array, np.diag([1e308, -1e308]))
        relaxed = relax(p)
        assert np.isfinite(relaxed.inf).all() and np.isfinite(relaxed.sup).all()
        with pytest.raises(FamilyOverflowError, match="default tolerance overflows.*finite and nonnegative"):
            family_tol(p)

    def test_subnormal_box_contains_its_midpoint(self):
        # Its midpoint was once 0.0, outside the degenerate first interval.
        box = ParameterBox([Interval(5e-324, 5e-324), Interval(5e-324, 1e-323), Interval(0.0, 1.0)])
        assert box.mid().tolist() == [5e-324, 5e-324, 0.5]
        assert (box.inf() <= box.mid()).all() and (box.mid() <= box.sup()).all()


class TestEvaluate:
    def test_rank_one_at_one(self):
        m = evaluate(rank_one_cone(), [1.0])
        assert np.array_equal(m.array, np.ones((2, 2)))

    def test_zero_point(self):
        m = evaluate(rank_one_cone(), [0.0])
        assert np.array_equal(m.array, np.zeros((2, 2)))

    def test_split_favorable_midpoint(self):
        p = split_favorable()
        m = evaluate(p, p.box.mid())
        assert np.allclose(m.array, [[1.0, 0.5], [0.5, 1.6]])

    def test_outside_box_rejected(self):
        with pytest.raises(ValueError):
            evaluate(rank_one_cone(), [1.5])

    def test_membership_is_exact_on_a_narrow_box(self):
        # 9e-13 lies 4.5e7 box widths past [0, 1e-20]; an absolute slack of 1e-12 once let it through.
        p = ParametricSymMatrix([np.eye(2)], ParameterBox([Interval(0.0, 1e-20)]))
        with pytest.raises(ValueError, match="lies outside the box"):
            evaluate(p, [9e-13])
        assert p.box.contains([1e-20]) and not p.box.contains([np.nextafter(1e-20, 1.0)])
        assert p.box.contains([0.0]) and not p.box.contains([-5e-324])

    def test_one_row_of_the_batched_members(self, rng):
        # evaluate and the batched stages form A(q) by the same formula, so each row matches bit for bit.
        for _ in range(20):
            p = random_family(rng)
            points = rng.uniform(p.box.inf(), p.box.sup(), (5, p.K))
            members = parametric._members(p, points)
            for q, m in zip(points, members):
                assert evaluate(p, q).array.tobytes() == m.tobytes()


class TestRelax:
    def test_rank_one_exact_unit_entries(self):
        r = relax(rank_one_cone())
        assert np.array_equal(r.inf, np.zeros((2, 2)))
        assert np.array_equal(r.sup, np.ones((2, 2)))

    def test_point_box_degenerates_to_evaluation(self):
        coeffs = [np.array([[2.0, 1.0], [1.0, 0.5]]), np.eye(2)]
        p = ParametricSymMatrix(coeffs, ParameterBox([Interval(0.5, 0.5), Interval(2.0, 2.0)]))
        r = relax(p)
        expected = evaluate(p, [0.5, 2.0]).array
        assert np.array_equal(r.inf, expected) and np.array_equal(r.sup, expected)

    def test_demo_hessian_interval_exact(self):
        family = hessian(parse(DEMO_CUBIC), ParameterBox.from_bounds(DEMO_CUBIC_BOUNDS))
        r = relax(family)
        assert np.array_equal(r.inf, [[16, 7, -2], [7, 10, -3], [-2, -3, 6]])
        assert np.array_equal(r.sup, [[26, 12, -1], [12, 10, 4], [-1, 4, 12]])

    def test_soundness_sampled_members(self, rng):
        for _ in range(10):
            p = random_family(rng)
            r = relax(p)
            lows, highs = p.box.inf(), p.box.sup()
            for _ in range(100):
                q = rng.uniform(lows, highs)
                assert contains(r, evaluate(p, q).array)


class TestPreconditionRelax:
    def test_split_favorable_values(self):
        _, m = precondition_relax(split_favorable())
        assert np.abs(m.inf - EX2_M_INF).max() < 5e-4
        assert np.abs(m.sup - EX2_M_SUP).max() < 5e-4

    def test_regularity_favorable_values(self):
        _, m = precondition_relax(regularity_favorable())
        assert np.abs(m.inf - EX3_M_INF).max() < 5e-4
        assert np.abs(m.sup - EX3_M_SUP).max() < 5e-4

    def test_point_box_gives_identity(self):
        coeffs = [np.array([[2.0, 0.3], [0.3, 1.0]]), np.eye(2)]
        p = ParametricSymMatrix(coeffs, ParameterBox([Interval(1.0, 1.0), Interval(0.5, 0.5)]))
        c, m = precondition_relax(p)
        assert np.abs(m.mid() - np.eye(2)).max() < 1e-10
        assert m.rad().max() <= 4 * np.finfo(float).eps

    def test_singular_midpoint_propagates(self):
        p = ParametricSymMatrix([np.diag([1.0, -1.0])], ParameterBox([Interval(-1.0, 1.0)]))
        with pytest.raises(SingularMatrixError):
            precondition_relax(p)


class TestVertices:
    def test_split_favorable_reduced_pair(self):
        vs = list(vertices(split_favorable()))
        assert [v.values for v in vs] == [(1.0, 0.0), (1.0, 1.0)]

    def test_psd_coefficient_fixes_lower_endpoint(self):
        p = ParametricSymMatrix([np.eye(2)], ParameterBox([Interval(-1.0, 2.0)]))
        vs = list(vertices(p))
        assert [v.values for v in vs] == [(-1.0,)]

    def test_nsd_coefficient_fixes_upper_endpoint(self):
        p = ParametricSymMatrix([-np.eye(2)], ParameterBox([Interval(-1.0, 2.0)]))
        assert [v.values for v in vertices(p)] == [(2.0,)]

    def test_three_free_coordinates_gray_order(self, rng):
        coeffs = [SymMatrix(rng.uniform(-2, 2, (3, 3))) for _ in range(3)]
        # Force indefinite coefficients so nothing is fixed.
        coeffs = [SymMatrix(c.array - np.eye(3) * np.trace(c.array) / 3 + np.diag([2.0, -2.0, 0.0])) for c in coeffs]
        box = ParameterBox([Interval(0.0, 1.0)] * 3)
        p = ParametricSymMatrix(coeffs, box)
        vs = list(vertices(p))
        if len(vs) == 8:
            flips = [sum(a != b for a, b in zip(u.values, v.values)) for u, v in zip(vs, vs[1:])]
            assert flips == [1] * 7
        for v in vs:
            assert p.box.contains(np.array(v.values))

    def test_points_match_indexing(self, rng):
        for _ in range(20):
            p = random_family(rng, max_n=3, max_k=6)
            enum = vertices(p)
            rows = enum.points(0, len(enum))
            assert rows.shape == (len(enum), p.K)
            for i, row in enumerate(rows):
                assert tuple(row) == enum[i].values
            assert np.array_equal(enum.points(1, len(enum)), rows[1:])

    @pytest.mark.parametrize("copies", [63, 64])
    def test_indexing_past_sys_maxsize(self, copies):
        # Indices are bounded by 1 << free_count: len() refuses counts past sys.maxsize.
        enum = vertices(problem_from_json(swap_copies_doc(copies)))
        assert enum.free_count == copies
        count = 1 << copies

        def gray_vertex(i):  # the identity pinned at 1, then bit b of i ^ (i >> 1) picks coordinate b's end
            return (1.0,) + tuple(1.0 if (i ^ (i >> 1)) >> b & 1 else -1.0 for b in range(copies))

        assert enum[0].values == (1.0,) + (-1.0,) * copies
        assert enum[-1].values == (1.0,) + (-1.0,) * (copies - 1) + (1.0,) == gray_vertex(count - 1)
        for i in (1, 2, (1 << 62) + 5, count - 2):
            assert enum[i].values == gray_vertex(i)
            assert enum[i - count].values == gray_vertex(i)
        for i in (1 << 64, count, -count - 1):
            with pytest.raises(IndexError):
                enum[i]

    def test_indexing_past_two_to_the_64(self):
        # From 65 free coordinates an index no longer fits the uint64 that points counts in.
        enum = vertices(problem_from_json(swap_copies_doc(65)))
        assert enum[-1].values == (1.0, *[-1.0] * 64, 1.0)
        # The Gray code of 2^64 is 2^64 + 2^63: free coordinates 63 and 64 at their upper ends.
        assert enum[1 << 64].values == (1.0, *[-1.0] * 63, 1.0, 1.0)
        with pytest.raises(IndexError):
            enum[1 << 65]
        for i in (0, 1, 6, (1 << 63) + 3, (1 << 64) - 1):
            assert enum[i].values == tuple(enum.points(i, i + 1)[0].tolist())

    def test_fixing_rule_agrees_with_passes(self, rng):
        families = [random_family(rng) for _ in range(30)] + [random_semidefinite_family(rng) for _ in range(30)]
        for p in families:
            for tol in (None, family_tol(p)):
                enum = vertices(p, tol=tol)
                rows = enum.points(0, len(enum))
                for k, (lo, hi, coeff) in enumerate(zip(p.box.inf().tolist(), p.box.sup().tolist(), p.coeffs)):
                    t = family_tol(p) if tol is None else tol
                    width = max(1.0, hi - lo)
                    if lo == hi or passes(min_eig(coeff) * width, "psd", t):
                        expected = {lo}
                    elif passes(min_eig(SymMatrix(-coeff.array)) * width, "psd", t):
                        expected = {hi}
                    else:
                        expected = {lo, hi}
                    assert set(rows[:, k].tolist()) == expected

    @staticmethod
    def pinning(p, tol):
        """Per coordinate, read off ``vertices``: 1 pinned at inf, -1 pinned at sup, 0 free; and the shortfall."""
        enum = vertices(p, tol=tol)
        rows = enum.points(0, len(enum))
        signs = [0 if len(set(col)) > 1 else 1 if col[0] == lo else -1 for col, lo in zip(rows.T.tolist(), p.box.inf().tolist())]
        assert enum.free_count == signs.count(0)
        return signs, enum.shortfall

    def test_coefficient_signs(self):
        coeffs = [np.eye(2), -np.eye(2), np.diag([1.0, -1.0]), np.zeros((2, 2)), np.diag([1.0, -1e-12])]
        p = ParametricSymMatrix(coeffs, ParameterBox([Interval(0.0, 1.0)] * 5))
        signs, shortfall = self.pinning(p, 0.0)
        assert signs == [1, -1, 0, 1, 0] and shortfall == 0.0
        signs, shortfall = self.pinning(p, 1e-11)
        assert signs == [1, -1, 0, 1, 1] and shortfall == pytest.approx(1e-12, rel=1e-3)

    def test_coefficient_signs_scale_by_the_width(self):
        # The tolerance bounds what a member may miss, so an eigenvalue counts
        # times its parameter's width: diag(1, -1e-6) on [0, 1e6] shifts
        # members by 1 and is indefinite under tol 2e-4, though semidefinite
        # on [0, 1].  An overflowing width passes only a nonzero eigenvalue
        # of the right sign.  The pinned ones' shortfalls times their widths
        # add up, and a pinned coefficient with none adds 0 on any width.
        coeffs = [np.diag([1.0, -1e-6]), np.diag([1e-6, -1.0]), np.eye(2), np.zeros((2, 2)), -np.eye(2)]
        signs, shortfall = self.pinning(ParametricSymMatrix(coeffs, ParameterBox([Interval(0.0, 1.0)] * 5)), 2e-4)
        assert signs == [1, -1, 1, 1, -1] and shortfall == pytest.approx(2e-6, rel=1e-9)
        wide = ParametricSymMatrix(coeffs, ParameterBox([Interval(0.0, 1e6)] * 5))
        assert self.pinning(wide, 2e-4)[0] == [0, 0, 1, 1, -1]
        huge = ParametricSymMatrix([c * 1e-308 for c in coeffs], ParameterBox([Interval(-1e308, 1e308)] * 5))
        signs, shortfall = self.pinning(huge, 0.0)
        assert signs == [0, 0, 1, 0, -1] and shortfall == 0.0

    def test_exact_frees_only_the_coordinates_with_a_shortfall(self):
        # Under tol 1e-3: pinned with shortfall 9e-4, free, pinned with none, pinned NSD with 5e-4.
        coeffs = [np.diag([1.0, -9e-4]), np.diag([1.0, -1.0]), np.eye(2), np.diag([5e-4, -1.0])]
        p = ParametricSymMatrix(coeffs, ParameterBox([Interval(0.0, 1.0)] * 4))
        assert self.pinning(p, 1e-3) == ([1, 0, 1, -1], pytest.approx(1.4e-3))
        exact = vertices(p, tol=1e-3).exact()
        rows = exact.points(0, len(exact))
        assert exact.free_count == 3 and exact.shortfall == 0.0
        assert [sorted(set(col)) for col in rows.T.tolist()] == [[0.0, 1.0], [0.0, 1.0], [0.0], [0.0, 1.0]]
        assert [v.values for v in exact] == [tuple(r) for r in rows.tolist()]

    def test_default_tolerance_is_the_vertex_stage_one(self):
        # diag(10, -1e-9) on [0, 1e-3]: within the per-matrix tolerance
        # 1e-10 * (1 + 20) the coefficient passed as PSD and ``vertices``
        # listed one vertex, while the vertex stage, under family_tol =
        # 1e-10 * (1 + 20 * 1e-3), enumerates and checks two.
        from psdparam import strong_psd

        p = ParametricSymMatrix([np.diag([10.0, -1e-9])], ParameterBox([Interval(0.0, 1e-3)]))
        assert len(vertices(p)) == len(vertices(p, tol=family_tol(p))) == 2
        assert strong_psd(p).certificate.checked == 2

    def test_overflowing_default_tolerance_raises(self):
        # n * max|entry| of diag(1e308, -1e308) overflows; the default
        # tolerance once became inf and pinned the indefinite coefficient
        # as PSD, leaving no free coordinate.
        p = ParametricSymMatrix([np.diag([1e308, -1e308])], ParameterBox([Interval(0.0, 1.0)]))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            vertices(p)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            family_tol(p)
        assert vertices(p, tol=0.0).free_count == 1

    def test_coefficient_spectra_read_only(self):
        vals, vecs = split_favorable().coefficient_spectra()
        assert vals.shape == (2, 2) and vecs.shape == (2, 2, 2)
        assert np.allclose(vals[1], [-np.sqrt(2), np.sqrt(2)])
        with pytest.raises(ValueError):
            vals[0, 0] = 0.0

    def test_reduction_soundness_vs_full_enumeration(self, rng):
        from psdparam import strong_pd, strong_psd

        for _ in range(60):
            p = random_family(rng)
            for goal, op in (("psd", strong_psd), ("pd", strong_pd)):
                v = op(p)
                if not v.unknown:
                    assert full_vertex_check(p, goal) == v.proved


class TestProblemJson:
    DOC = (
        '{"n":2,"K":2,"coefficients":[[[1.5,0],[0,1.1]],[[-1,1],[1,1]]],'
        '"parameters":[{"inf":1,"sup":1},{"inf":0,"sup":1}]}'
    )

    def test_parse_reference_doc(self):
        p = problem_from_json(self.DOC)
        assert p.n == 2 and p.K == 2
        assert (p.box.inf()[1], p.box.sup()[1]) == (0.0, 1.0)
        assert np.array_equal(p.coeffs[0].array, [[1.5, 0.0], [0.0, 1.1]])

    def test_asymmetric_coefficient_rejected(self):
        doc = json.loads(self.DOC)
        doc["coefficients"][0][0][1] = 0.5
        with pytest.raises(ValueError, match="asymmetric"):
            problem_from_json(doc)

    def test_malformed_documents(self):
        with pytest.raises(ValueError):
            problem_from_json("{}")
        with pytest.raises(ValueError):
            problem_from_json('{"n":2,"K":1,"coefficients":[],"parameters":[]}')

    @pytest.mark.parametrize("parameters", [[{"inf": 1}], [1], [{"inf": None, "sup": 1}], 5])
    def test_malformed_parameters_raise_value_error(self, parameters):
        doc = {"n": 1, "K": 1, "coefficients": [[[1.0]]], "parameters": parameters}
        with pytest.raises(ValueError, match="malformed"):
            problem_from_json(doc)

    @pytest.mark.parametrize("key, value", [("n", 1.7), ("n", 1e400), ("K", 1e400), ("n", "1"), ("K", True)])
    def test_n_and_k_must_be_integers(self, key, value):
        # 1.7 was once truncated to 1, and 1e400 (inf) raised OverflowError.
        doc = json.loads(self.DOC)
        doc[key] = value
        with pytest.raises(ValueError, match="n and K must be integers"):
            problem_from_json(json.dumps(doc))

    def test_deep_nesting_raises_value_error(self):
        # 200 000 nested "[" once raised RecursionError out of json.loads.
        with pytest.raises(ValueError, match="nests too deeply"):
            problem_from_json("[" * 200_000)

    def test_family_tol_scales_with_problem(self):
        p = problem_from_json(self.DOC)
        assert 0 < family_tol(p) < 1e-8

    @pytest.mark.parametrize("old, new", [("[[[1.5,", "[[[1{zeros},"), ('"sup":1}]', '"sup":1{zeros}}]')])
    def test_integer_past_the_largest_double_raises_value_error(self, old, new):
        # A 401-digit integer entry or bound once raised OverflowError.
        text = self.DOC.replace(old, new.replace("{zeros}", "0" * 400))
        assert "0" * 400 in text
        with pytest.raises(ValueError) as info:
            problem_from_json(text)
        assert not isinstance(info.value, OverflowError)

    def test_non_numeric_entry_raises_value_error(self):
        # An object inside a coefficient once raised TypeError.
        doc = json.loads(self.DOC)
        doc["coefficients"][0][0][0] = {"re": 1.5}
        with pytest.raises(ValueError, match="coefficient 0 is not a matrix of doubles"):
            problem_from_json(doc)


@st.composite
def problem_docs(draw, max_n=3, max_k=4):
    """A small valid problem document: symmetric integer or float entries, ordered bounds."""
    n, k = draw(st.integers(1, max_n)), draw(st.integers(1, max_k))
    number = st.one_of(st.integers(-(2**70), 2**70), st.floats(-1e6, 1e6, allow_nan=False))
    coeffs = []
    for _ in range(k):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(number)
        coeffs.append(m)
    params = []
    for _ in range(k):
        a, b = sorted([draw(number), draw(number)])
        params.append({"inf": a, "sup": b})
    return {"n": n, "K": k, "coefficients": coeffs, "parameters": params}


class TestOnePassParse:
    """``problem_from_json`` tests every entry's type in one pass and walks the document only to name a fault."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_injected_non_numbers_are_named_as_the_walk_names_them(self, data):
        doc = data.draw(problem_docs())
        n, k = doc["n"], doc["K"]
        spots = [("coefficient", c, (i, j)) for c in range(k) for i in range(n) for j in range(n)]
        spots += [("parameter", c, key) for c in range(k) for key in ("inf", "sup")]
        faults = data.draw(st.lists(st.sampled_from(spots), min_size=1, max_size=3, unique=True))
        values = {}
        for what, idx, where in faults:
            value = values[(what, idx, where)] = data.draw(st.sampled_from([True, False, "1", None]))
            if what == "coefficient":
                doc["coefficients"][idx][where[0]][where[1]] = value
            else:
                doc["parameters"][idx][where] = value
        # The walk names the first faulty coefficient, then the first faulty parameter; a null outranks the rest.
        what, idx = min((w, i) for w, i, _ in faults)
        null = any(v is None for (w, i, _), v in values.items() if (w, i) == (what, idx))
        lead = "malformed parameter entry: " if what == "parameter" and null else ""
        kind = "a null" if null else "a boolean or a string"
        with pytest.raises(ValueError) as info:
            problem_from_json(json.dumps(doc))
        assert str(info.value) == f"{lead}{what} {idx} holds {kind}, not a number"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_family_built_from_arrays(self, data):
        doc = data.draw(problem_docs())
        if data.draw(st.booleans()):  # a skew inside the 1e-12 budget, in one coefficient
            c = doc["coefficients"][0]
            if len(c) > 1 and isinstance(c[0][1], float) and c[0][1] != 0.0:
                c[0][1] *= 1.0 + 2.0**-50
        bounds = [(float(iv["inf"]), float(iv["sup"])) for iv in doc["parameters"]]
        ref = ParametricSymMatrix(np.array(doc["coefficients"], dtype=float), ParameterBox.from_bounds(bounds))
        listed = ParametricSymMatrix([np.array(c, dtype=float) for c in doc["coefficients"]], ParameterBox.from_bounds(bounds))
        got = problem_from_json(json.dumps(doc))

        def arrays(p):
            return [p.coefficient_stack(), *p.coefficient_spectra(), *p.coefficient_parts(), p.asymmetry,
                    np.array(p.norm_bound), p.box.inf(), p.box.sup(), p.box.mid()]

        for family in (ref, listed):
            assert [a.tobytes() for a in arrays(got)] == [a.tobytes() for a in arrays(family)]
            assert [a.shape for a in arrays(got)] == [a.shape for a in arrays(family)]

    def test_integer_bounds_convert_as_float_does(self):
        big = [2**53 + 1, 2**63 + 1, 2**64 + 1, 10**20 + 1, -(2**53) - 1]
        doc = {"n": 1, "K": len(big), "coefficients": [[[1]]] * len(big), "parameters": [{"inf": b, "sup": b} for b in big]}
        p = problem_from_json(json.dumps(doc))
        assert p.box.inf().tolist() == p.box.sup().tolist() == [float(b) for b in big]

    def test_numpy_numbers_in_a_document_pass(self):
        doc = {"n": 2, "K": 2, "coefficients": [np.eye(2), [[np.float64(0), 1], [1, np.int64(0)]]],
               "parameters": [{"inf": np.float64(-1), "sup": 1}, {"inf": 0, "sup": np.float32(2)}]}
        p = problem_from_json(doc)
        assert p.coefficient_stack().tolist() == [np.eye(2).tolist(), [[0.0, 1.0], [1.0, 0.0]]]
        assert p.box.inf().tolist() == [-1.0, 0.0] and p.box.sup().tolist() == [1.0, 2.0]

    def test_asymmetry_is_refused_before_the_eigen_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(parametric, "eig_stack", lambda s: calls.append(s))
        doc = {"n": 2, "K": 1, "coefficients": [[[1, 2], [3, 1]]], "parameters": [{"inf": 0, "sup": 1}]}
        with pytest.raises(ValueError, match="coefficient 0 is asymmetric by 1"):
            problem_from_json(doc)
        assert calls == []


class TestFamilyTol:
    def test_bits_match_the_per_call_sum(self, rng):
        for _ in range(50):
            p = random_family(rng)
            reach = sum(max(abs(lo), abs(hi)) * c.norm_bound for lo, hi, c in zip(p.box.inf().tolist(), p.box.sup().tolist(), p.coeffs))
            assert family_tol(p) == 1e-10 * (1.0 + reach)

    def test_summed_once_at_construction(self, monkeypatch):
        p = split_favorable()
        expected = family_tol(p)

        def walk(self):
            raise AssertionError("family_tol walked the coefficients again")

        monkeypatch.setattr(SymMatrix, "norm_bound", property(walk))
        assert family_tol(p) == expected

    def test_overflow_raises_on_every_call(self):
        p = ParametricSymMatrix([np.diag([1e308, -1e308])], ParameterBox([Interval(0.0, 1.0)]))
        for _ in range(3):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                family_tol(p)


def sequential_enclosure(stack: np.ndarray, box: ParameterBox) -> tuple[np.ndarray, np.ndarray]:
    """Bounds summed one coefficient at a time, from zero, in k order: each product rounded outward, then added."""
    n = stack.shape[1]
    acc = (np.zeros((n, n)),) * 2
    for a, lo, hi in zip(stack, box.inf().tolist(), box.sup().tolist()):
        acc = _sum_bounds(*acc, *_scaled_bounds(a, lo, hi))
    return acc


def exact_enclosure(stack: np.ndarray, box: ParameterBox) -> tuple[list[Fraction], list[Fraction]]:
    """The exact bounds of sum_k stack[k] * [lo_k, hi_k], entry by entry in C order, in rationals."""
    ends = [(Fraction(lo), Fraction(hi)) for lo, hi in zip(box.inf().tolist(), box.sup().tolist())]
    lows, highs = [], []
    for entry in stack.reshape(len(stack), -1).T.tolist():
        products = [(Fraction(a) * lo, Fraction(a) * hi) for a, (lo, hi) in zip(entry, ends)]
        lows.append(sum(min(pair) for pair in products))
        highs.append(sum(max(pair) for pair in products))
    return lows, highs


def encloses_exact(got: IntervalMatrix, stack: np.ndarray, box: ParameterBox, exact: bool) -> bool:
    """Every entry's exact enclosure lies within [inf, sup], and equals it when ``exact``."""
    lows, highs = exact_enclosure(stack, box)
    inf = [Fraction(x) for x in got.inf.ravel().tolist()]
    sup = [Fraction(x) for x in got.sup.ravel().tolist()]
    if exact:
        return inf == lows and sup == highs
    return all(a <= lo and hi <= b for a, lo, hi, b in zip(inf, lows, highs, sup))


def mixed_scale_family(rng: np.random.Generator, i: int) -> ParametricSymMatrix:
    """Family ``i`` of a rotation through integer, dyadic and scaled data, some intervals degenerate."""
    n = int(rng.integers(1, 7))
    k = int(rng.integers(1, 8))
    kind = i % 3
    if kind == 0:  # integers
        coeffs = rng.integers(-9, 10, (k, n, n)).astype(float)
        bounds = np.sort(rng.integers(-4, 5, (k, 2)), axis=1).astype(float)
    elif kind == 1:  # dyadic fractions
        coeffs = rng.integers(-64, 65, (k, n, n)) / 16.0
        bounds = np.sort(rng.integers(-16, 17, (k, 2)), axis=1) / 8.0
    else:  # each coefficient scaled by 10^s, s in [-5, 5]
        coeffs = rng.uniform(-1.0, 1.0, (k, n, n)) * 10.0 ** rng.uniform(-5.0, 5.0, (k, 1, 1))
        bounds = np.sort(rng.uniform(-2.0, 2.0, (k, 2)), axis=1)
    degenerate = rng.random(k) < 0.3
    bounds[degenerate, 1] = bounds[degenerate, 0]
    return ParametricSymMatrix(coeffs + coeffs.swapaxes(1, 2), ParameterBox.from_bounds(bounds.tolist()))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackEnclosure:
    FAMILIES = 240

    def test_relax_matches_the_sequential_loop(self, rng):
        for i in range(self.FAMILIES):
            p = mixed_scale_family(rng, i)
            got, (inf, sup) = relax(p), sequential_enclosure(p.coefficient_stack(), p.box)
            assert same_bits(got.inf, inf) and same_bits(got.sup, sup), i
            # Integer and dyadic families (kinds 0 and 1) have exact products and sums.
            assert encloses_exact(got, p.coefficient_stack(), p.box, exact=i % 3 < 2), i

    def test_precondition_relax_matches_the_sequential_loop(self, rng):
        checked = 0
        for i in range(self.FAMILIES):
            p = mixed_scale_family(rng, i)
            try:
                c, got = precondition_relax(p)
            except SingularMatrixError:
                continue
            stack = np.array([c @ a for a in p.coefficient_stack()])
            inf, sup = sequential_enclosure(stack, p.box)
            assert same_bits(got.inf, inf) and same_bits(got.sup, sup), i
            assert encloses_exact(got, stack, p.box, exact=False), i
            checked += 1
        assert checked >= 200

    def test_precondition_relax_overflow_raises_without_warning(self):
        # A(mid) = 1e-10 I, so C A_1 = 1e310 I.
        p = ParametricSymMatrix([1e300 * np.eye(2), 1e-10 * np.eye(2)], ParameterBox.from_bounds([(-1, 1), (1, 1)]))
        with pytest.raises(OverflowError, match="overflow"):
            precondition_relax(p)

    @pytest.mark.parametrize("build", [relax, lambda p: precondition_relax(p)[1]], ids=["relax", "precondition_relax"])
    def test_one_interval_matrix_per_enclosure(self, monkeypatch, build):
        p = regularity_favorable()
        made = []
        post_init = IntervalMatrix.__post_init__

        def counted(self):
            made.append(self)
            post_init(self)

        monkeypatch.setattr(IntervalMatrix, "__post_init__", counted)
        build(p)
        assert len(made) == 1


class TestStackConstruction:
    DOC = (
        '{"n":2,"K":3,"coefficients":[[[1,0],[0,1]],[[0,1],[1,0]],[[2,0],[0,2]]],'
        '"parameters":[{"inf":0,"sup":1},{"inf":0,"sup":1},{"inf":0,"sup":1}]}'
    )

    @pytest.mark.parametrize("source", ["json", "arrays"])
    def test_one_eig_stack_call_and_no_per_coefficient_sym_matrix(self, monkeypatch, source):
        calls = []
        eig_stack = parametric.eig_stack

        def counted(stack):
            calls.append(stack.shape)
            return eig_stack(stack)

        def refuse(self, array):
            raise AssertionError("SymMatrix.__init__ called while building a family")

        monkeypatch.setattr(parametric, "eig_stack", counted)
        monkeypatch.setattr(SymMatrix, "__init__", refuse)
        if source == "json":
            p = problem_from_json(self.DOC)
        else:
            p = ParametricSymMatrix([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), 2 * np.eye(2)], ParameterBox.from_bounds([(0, 1)] * 3))
        assert calls == [(3, 2, 2)]
        assert [c.array.tolist() for c in p.coeffs] == p.coefficient_stack().tolist()

    @pytest.mark.parametrize("source", ["json", "arrays"])
    def test_one_symmetrize_pass(self, monkeypatch, source):
        calls = []
        symmetrize = parametric.symmetrize

        def counted(stack):
            calls.append(stack.shape)
            return symmetrize(stack)

        monkeypatch.setattr(parametric, "symmetrize", counted)
        if source == "json":
            problem_from_json(self.DOC)
        else:
            ParametricSymMatrix([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), 2 * np.eye(2)], ParameterBox.from_bounds([(0, 1)] * 3))
        assert calls == [(3, 2, 2)]

    def test_asymmetry_is_recorded_and_budgeted_per_coefficient(self):
        # The family records each coefficient's skew, as SymMatrix does; problem_from_json
        # allows 1e-12 times each coefficient's own largest entry.
        raw = [[[1.0, 1e-13], [0.0, 1.0]], [[1e-20, 1e-20], [0.0, 1e-20]]]
        p = ParametricSymMatrix(np.array(raw), ParameterBox.from_bounds([(0, 1)] * 2))
        assert p.asymmetry.tolist() == [1e-13, 1e-20] and not p.asymmetry.flags.writeable
        assert p.coefficient_stack()[1, 0, 1] == 5e-21
        doc = {"n": 2, "K": 1, "coefficients": raw[:1], "parameters": [{"inf": 0, "sup": 1}]}
        assert problem_from_json(doc).asymmetry.tolist() == [1e-13]
        with pytest.raises(ValueError, match="coefficient 1 is asymmetric by 1e-20"):
            problem_from_json({**doc, "K": 2, "coefficients": raw, "parameters": doc["parameters"] * 2})

    def test_coeffs_are_read_only_views_of_the_stack(self):
        p = problem_from_json(self.DOC)
        for k, c in enumerate(p.coeffs):
            assert isinstance(c, SymMatrix) and c.n == 2 and c.asymmetry == 0.0
            assert np.shares_memory(c.array, p.coefficient_stack()[k])
            with pytest.raises(ValueError):
                c.array[0, 0] = 5.0

    def test_stack_is_symmetrized_like_sym_matrix(self):
        # The average 0.5 a_ij + 0.5 a_ji, as SymMatrix forms it.
        raw = np.array([[1.0, 2.0], [2.0 + 1e-13, 3.0]])
        p = ParametricSymMatrix([raw], ParameterBox.from_bounds([(0, 1)]))
        assert np.array_equal(p.coefficient_stack()[0], SymMatrix(raw).array)
        assert np.array_equal(p.coefficient_stack()[0], p.coefficient_stack()[0].T)

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({1: [[0, 1, 2], [1, 0, 2]]}, "coefficient 1 has shape (2, 3), expected (2, 2)"),
            ({2: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "coefficient 2 has shape (3, 3), expected (2, 2)"),
            ({1: [[0, 1], [0.5, 0]], 2: [[2, 3], [0, 2]]}, "coefficient 1 is asymmetric by 0.5"),
            ({2: [[float("inf"), 0], [0, 1]]}, "matrix entries must be finite"),
        ],
        ids=["wrong-shape", "mixed-dimensions", "first-asymmetric", "non-finite"],
    )
    def test_problem_from_json_messages(self, edits, message):
        # The messages of the per-coefficient checks the stack replaced.
        doc = json.loads(self.DOC)
        for k, m in edits.items():
            doc["coefficients"][k] = m
        with pytest.raises(ValueError) as info:
            problem_from_json(json.dumps(doc))
        assert str(info.value) == message

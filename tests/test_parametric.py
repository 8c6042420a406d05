"""Parametric family model: evaluation, relaxation, preconditioning, vertex reduction."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import (
    DEMO_CUBIC,
    DEMO_CUBIC_BOUNDS,
    random_family,
    random_semidefinite_family,
    rank_one_cone,
    regularity_favorable,
    split_favorable,
)
from psdparam import (
    Interval,
    ParameterBox,
    ParametricSymMatrix,
    SingularMatrixError,
    SymMatrix,
    contains,
    default_tol,
    evaluate,
    family_tol,
    parse,
    hessian,
    min_eig,
    passes,
    precondition_relax,
    problem_from_json,
    problem_to_json,
    relax,
    vertices,
)
from psdparam.oracle import full_vertex_check

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

    def test_subnormal_box_contains_its_midpoint(self):
        # Its midpoint was once 0.0, outside the degenerate first interval.
        box = ParameterBox([Interval(5e-324, 5e-324), Interval(5e-324, 1e-323), Interval(0.0, 1.0)])
        assert box.mid().tolist() == [5e-324, 5e-324, 0.5]
        assert box.contains(box.mid(), slack=0.0)


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

    def test_fixing_rule_agrees_with_passes(self, rng):
        families = [random_family(rng) for _ in range(30)] + [random_semidefinite_family(rng) for _ in range(30)]
        for p in families:
            for tol in (None, family_tol(p)):
                enum = vertices(p, tol=tol)
                rows = enum.points(0, len(enum))
                for k, (iv, coeff) in enumerate(zip(p.box.intervals, p.coeffs)):
                    t = default_tol(coeff) if tol is None else tol
                    if iv.is_degenerate or passes(min_eig(coeff), "psd", t):
                        expected = {iv.inf}
                    elif passes(min_eig(SymMatrix(-coeff.array)), "psd", t):
                        expected = {iv.sup}
                    else:
                        expected = {iv.inf, iv.sup}
                    assert set(rows[:, k].tolist()) == expected

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
        assert p.box.intervals[1] == Interval(0.0, 1.0)
        assert np.array_equal(p.coeffs[0].array, [[1.5, 0.0], [0.0, 1.1]])

    def test_roundtrip(self):
        p = problem_from_json(self.DOC)
        q = problem_from_json(problem_to_json(p))
        assert q.n == p.n and q.K == p.K
        for a, b in zip(p.coeffs, q.coeffs):
            assert np.array_equal(a.array, b.array)

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


class TestFamilyTol:
    def test_bits_match_the_per_call_sum(self, rng):
        for _ in range(50):
            p = random_family(rng)
            reach = sum(max(abs(iv.inf), abs(iv.sup)) * c.norm_bound for iv, c in zip(p.box.intervals, p.coeffs))
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

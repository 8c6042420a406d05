"""Brute-force reference module: sampling schemes and the full vertex check."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import BIG_INDEFINITE_DOC, DEMO_CUBIC, DEMO_CUBIC_BOUNDS, rank_one_cone, split_favorable
from psdparam import Interval, ParameterBox, ParametricSymMatrix, hessian, parse, problem_from_json
from psdparam.oracle import full_vertex_check, sample_min_eig


class TestSampleMinEig:
    def test_rank_one_cone_vertices(self):
        value, argmin = sample_min_eig(rank_one_cone(), "vertices")
        assert value == pytest.approx(0.0, abs=1e-12)
        assert argmin[0] in (0.0, 1.0)

    def test_split_favorable_vertices_positive(self):
        value, _ = sample_min_eig(split_favorable(), "vertices")
        assert value > 0

    def test_demo_hessian_grid_positive(self):
        family = hessian(parse(DEMO_CUBIC), ParameterBox.from_bounds(DEMO_CUBIC_BOUNDS))
        value, _ = sample_min_eig(family, "grid", d=5)
        assert value > 0

    def test_random_scheme_reproducible(self):
        p = split_favorable()
        a = sample_min_eig(p, "random", count=500, seed=7)
        b = sample_min_eig(p, "random", count=500, seed=7)
        assert a[0] == b[0] and np.array_equal(a[1], b[1])

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError):
            sample_min_eig(rank_one_cone(), "grid", d=1)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            sample_min_eig(rank_one_cone(), "sobol")

    def test_vertex_budget(self):
        p = ParametricSymMatrix([np.eye(1)] * 21, ParameterBox([Interval(0, 1)] * 21))
        with pytest.raises(ValueError, match="budget"):
            sample_min_eig(p, "vertices")
        with pytest.raises(ValueError, match="budget"):
            full_vertex_check(p)


class TestFullVertexCheck:
    def test_rank_one_cone(self):
        assert full_vertex_check(rank_one_cone(), "psd")
        assert not full_vertex_check(rank_one_cone(), "pd")

    def test_goal_validation(self):
        with pytest.raises(ValueError):
            full_vertex_check(rank_one_cone(), "nsd")

    def test_member_near_the_largest_double(self):
        # diag(1e308, -1e308) is a valid family; symmetrising its member as
        # 0.5 * (A + A^T) once overflowed to inf.
        p = problem_from_json(BIG_INDEFINITE_DOC)
        assert not full_vertex_check(p, "psd", tol=0.0)
        value, argmin = sample_min_eig(p, "vertices")
        assert value == -1e308 and argmin.tolist() == [1.0]

    def test_agrees_with_decision_procedures(self, rng):
        from conftest import random_family
        from psdparam import decide

        for _ in range(60):
            p = random_family(rng)
            for goal in ("strong_psd", "strong_pd"):
                v = decide(p, goal)
                if not v.unknown:
                    assert full_vertex_check(p, goal.removeprefix("strong_")) == v.proved

    def test_grid_minimum_equivalent_to_vertex_check(self, rng):
        # The family minimum of the smallest eigenvalue is attained at a
        # vertex (the objective is concave in the parameters), so the grid
        # sweep and the vertex conjunction must agree outside the
        # tolerance band around the PSD threshold.
        from conftest import random_family
        from psdparam import family_tol

        checked = 0
        while checked < 40:
            p = random_family(rng, max_k=3)
            tol = family_tol(p)
            value, _ = sample_min_eig(p, "grid", d=3)
            if -20 * tol <= value < 0:
                continue
            checked += 1
            assert full_vertex_check(p, "psd") == (value >= -10 * tol)
            vertex_value, _ = sample_min_eig(p, "vertices")
            assert value >= vertex_value - 1e-9

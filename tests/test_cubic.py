"""Cubic parser, Hessian extraction, and the convexity certifier."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DEMO_CUBIC, DEMO_CUBIC_BOUNDS
from psdparam import (
    CubicPolynomial,
    Interval,
    ParameterBox,
    certify_convexity,
    evaluate,
    format_poly,
    hessian,
    hessian_coefficients,
    parse,
    poly_value,
)
from psdparam.cubic import DegreeError, PolynomialSyntaxError

DEMO_MATS = [
    np.array([[6.0, 4.0, 0.0], [4.0, 0.0, -1.0], [0.0, -1.0, 0.0]]),
    np.array([[4.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 6.0]]),
    np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 6.0], [0.0, 6.0, 0.0]]),
]
DEMO_CONST = np.array([[0.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 0.0]])


def finite_difference_hessian(f: CubicPolynomial, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    n = f.n
    out = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (poly_value(f, x + ei) - 2 * poly_value(f, x) + poly_value(f, x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            out[i, j] = out[j, i] = (
                poly_value(f, x + ei + ej)
                - poly_value(f, x + ei - ej)
                - poly_value(f, x - ei + ej)
                + poly_value(f, x - ei - ej)
            ) / (4 * h**2)
    return out


def random_cubic(rng, max_n: int = 6) -> CubicPolynomial:
    n = int(rng.integers(1, max_n + 1))
    terms = []
    for _ in range(int(rng.integers(1, 12))):
        key = tuple(sorted(int(v) for v in rng.integers(0, n + 1, 3)))
        terms.append((float(rng.uniform(-3, 3)), key))
    return CubicPolynomial.from_terms(n, terms)


class TestParse:
    def test_demo_polynomial(self):
        f = parse(DEMO_CUBIC)
        assert f.n == 3
        assert len(f.terms) == 5
        assert dict(((k, c) for c, k in f.terms)) == {
            (1, 1, 1): 1.0,
            (1, 1, 2): 2.0,
            (1, 2, 3): -1.0,
            (2, 3, 3): 3.0,
            (0, 2, 2): 5.0,
        }

    def test_zero_polynomial(self):
        assert parse("0").terms == ()

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            parse("x1^4")
        with pytest.raises(DegreeError):
            parse("x1^2 x2^2")
        with pytest.raises(DegreeError):
            parse("x1 x2 x3 x1")

    def test_letter_aliases(self):
        f = parse("x^3 + 2x^2y - x y z + 3y z^2 + 5y^2")
        assert f == parse(DEMO_CUBIC)

    def test_unknown_variable(self):
        with pytest.raises(PolynomialSyntaxError, match="unknown variable"):
            parse("3 a^2")

    def test_syntax_error_carries_position(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse("x1 + + x2")
        assert err.value.position >= 3
        with pytest.raises(PolynomialSyntaxError):
            parse("x1 $ x2")
        with pytest.raises(PolynomialSyntaxError):
            parse("")

    def test_term_merging(self):
        f = parse("x1 x2 x1 + x1^2 x2")
        assert f.terms == ((2.0, (1, 1, 2)),)

    def test_cancellation_drops_term(self):
        assert parse("x1^2 - x1^2").terms == ()

    def test_explicit_multiplication_and_leading_sign(self):
        f = parse("-2 * x1 * x2 + 0.5x3")
        assert dict(((k, c) for c, k in f.terms)) == {(0, 1, 2): -2.0, (0, 0, 3): 0.5}

    def test_constant_term(self):
        f = parse("7 + x1^2")
        assert (7.0, (0, 0, 0)) in f.terms

    def test_format_roundtrip_demo(self):
        f = parse(DEMO_CUBIC)
        assert parse(format_poly(f)) == f
        assert format_poly(parse("0")) == "0"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**20))
    def test_format_roundtrip_random(self, seed):
        # Reparsing recovers the normalized term list; the variable count
        # is re-inferred from the text, so unused trailing variables drop.
        f = random_cubic(np.random.default_rng(seed))
        g = parse(format_poly(f))
        assert g.terms == f.terms
        assert g.n == max((i for _, key in f.terms for i in key), default=0)


class TestHessian:
    def test_demo_coefficient_matrices(self):
        family = hessian(parse(DEMO_CUBIC), ParameterBox.from_bounds(DEMO_CUBIC_BOUNDS))
        assert family.K == 4
        for got, want in zip(family.coeffs[:3], DEMO_MATS):
            assert np.array_equal(got.array, want)
        assert np.array_equal(family.coeffs[3].array, DEMO_CONST)
        assert family.box.intervals[3] == Interval(1.0, 1.0)

    def test_pure_quadratic_keeps_only_constant_matrix(self):
        family = hessian(parse("x1^2"), ParameterBox([Interval(0.0, 1.0)]))
        assert family.K == 1
        assert np.array_equal(family.coeffs[0].array, [[2.0]])
        assert family.box.intervals[0] == Interval(1.0, 1.0)

    def test_vanishing_hessian_stays_well_formed(self):
        family = hessian(parse("x1 + 2"), ParameterBox([Interval(0.0, 1.0)]))
        assert family.K == 1
        assert np.array_equal(family.coeffs[0].array, [[0.0]])

    def test_box_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hessian(parse("x1^2 + x2^2"), ParameterBox([Interval(0, 1)]))

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError):
            hessian(parse("0"), ParameterBox([Interval(0, 1)]))

    def test_coefficient_matrices_exactly_symmetric(self, rng):
        for _ in range(50):
            f = random_cubic(rng)
            mats, const = hessian_coefficients(f)
            for m in mats + [const]:
                assert np.array_equal(m, m.T)

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            f = random_cubic(rng)
            mats, const = hessian_coefficients(f)
            x = rng.uniform(-2, 2, f.n)
            analytic = const + sum(m * v for m, v in zip(mats, x))
            fd = finite_difference_hessian(f, x)
            scale = 1.0 + np.abs(analytic).max()
            assert np.abs(analytic - fd).max() <= 1e-4 * scale

    def test_family_evaluation_matches_analytic(self, rng):
        f = parse(DEMO_CUBIC)
        family = hessian(f, ParameterBox.from_bounds(DEMO_CUBIC_BOUNDS))
        x = rng.uniform([2, 1, 0], [3, 2, 1])
        got = evaluate(family, np.append(x, 1.0)).array
        mats, const = hessian_coefficients(f)
        want = const + sum(m * v for m, v in zip(mats, x))
        assert np.allclose(got, want, atol=1e-12)


class TestCertifyConvexity:
    def test_demo_cubic_proved_by_split_despite_relaxation(self):
        res = certify_convexity(parse(DEMO_CUBIC), ParameterBox.from_bounds(DEMO_CUBIC_BOUNDS))
        assert res.verdict.proved and res.verdict.method == "split"
        assert not res.relaxation_strongly_psd
        assert res.relaxation_min_eig < 0

    def test_sum_of_squares_proved(self):
        f = parse("x1^2 + x2^2 + x3^2")
        box = ParameterBox.from_bounds([(-5, 5)] * 3)
        assert certify_convexity(f, box).verdict.proved

    def test_negative_cube_disproved(self):
        res = certify_convexity(parse("-x1^3"), ParameterBox([Interval(1.0, 2.0)]))
        assert res.verdict.disproved

    def test_diagnostics_come_from_one_hertz_value(self, rng):
        from psdparam import hertz_min_eig, relax, strong_psd_interval

        for _ in range(10):
            n = int(rng.integers(1, 5))
            terms = [(float(rng.integers(-3, 4)), tuple(sorted(rng.integers(0, n + 1, 3)))) for _ in range(6)]
            f = CubicPolynomial.from_terms(n, terms + [(1.0, (0, 1, 1))])
            box = ParameterBox.from_bounds([(float(lo), float(lo) + 1.0) for lo in rng.uniform(-2, 2, n)])
            relaxed = relax(hessian(f, box))
            for tol in (None, 1e-6, 10.0):
                res = certify_convexity(f, box, tol=tol)
                assert res.relaxation_min_eig == hertz_min_eig(relaxed)
                assert res.relaxation_strongly_psd == strong_psd_interval(relaxed, tol=tol)

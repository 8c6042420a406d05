"""Interval arithmetic: exactness, outward rounding, and inclusion properties."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from psdparam import (
    AsymmetricMatrixError,
    Interval,
    IntervalMatrix,
    contains,
    im_add,
    scale,
)
from psdparam.intervals import _clamped_mid

finite_floats = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
# Floats whose half is exact: zero, or at least twice the smallest normal.
halvable_floats = finite_floats.filter(lambda x: x == 0.0 or abs(x) >= 2.0**-1021)


def make_interval(a: float, b: float) -> Interval:
    return Interval(min(a, b), max(a, b))


class TestInterval:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    @given(finite_floats, finite_floats)
    def test_mid_rad_enclose_bounds(self, a, b):
        # The radius lives on IntervalMatrix; a 1x1 matrix carries the interval.
        iv = make_interval(a, b)
        m = IntervalMatrix([[iv.inf]], [[iv.sup]])
        mid, rad = Fraction(float(m.mid()[0, 0])), Fraction(float(m.rad()[0, 0]))
        assert mid == Fraction(float(_clamped_mid(iv.inf, iv.sup)))
        assert mid - rad <= Fraction(iv.inf)
        assert mid + rad >= Fraction(iv.sup)
        assert rad >= 0

    @pytest.mark.parametrize("lo, hi", [(5e-324, 5e-324), (1.5e-323, 1.5e-323), (5e-324, 1e-323), (-1e-323, -5e-324)])
    def test_mid_stays_inside_subnormal_bounds(self, lo, hi):
        # 0.5 * 5e-324 rounds to 0, so the plain formula once left the interval.
        mid = float(_clamped_mid(lo, hi))
        assert lo <= mid <= hi
        m = IntervalMatrix([[lo, 1.0]], [[hi, 3.0]])
        assert m.mid().tolist() == [[mid, 2.0]]
        assert contains(m, m.mid())

    def test_degenerate_subnormal_mid_is_the_point(self):
        assert float(_clamped_mid(5e-324, 5e-324)) == 5e-324
        assert IntervalMatrix.point([[5e-324]]).mid()[0, 0] == 5e-324

    @given(halvable_floats, halvable_floats)
    def test_ordinary_mid_bits_unchanged(self, a, b):
        # The clamp only acts where halving a bound rounds: bit-identical elsewhere.
        iv = make_interval(a, b)
        plain = 0.5 * iv.inf + 0.5 * iv.sup
        mid = float(_clamped_mid(iv.inf, iv.sup))
        assert math.copysign(1.0, mid) == math.copysign(1.0, plain) and mid == plain
        m = IntervalMatrix([[iv.inf]], [[iv.sup]]).mid()
        assert m.tobytes() == np.array([[plain]]).tobytes()


def one(lo: float, hi: float) -> IntervalMatrix:
    return IntervalMatrix([[lo]], [[hi]])


class TestScalarOps:
    """Exact-rounding checks of the entrywise operations, on 1x1 ``im_add`` and ``scale``.

    They pin the error-free transforms ``_two_sum`` and ``_two_prod`` and
    the ``_prod_unsafe`` fallback against exact rational arithmetic.
    """

    def test_add_exact_dyadic(self):
        assert im_add(one(1, 2), one(3, 4)).entry(0, 0) == Interval(4, 6)

    def test_add_identity(self):
        assert im_add(one(0, 0), one(-3.25, 7.5)).entry(0, 0) == Interval(-3.25, 7.5)

    def test_add_tenths_encloses_rational_sum(self):
        # Exact-rational oracle: the true sum 0.3 must be inside, and the
        # result may be at most two ulps wide.
        r = im_add(one(0.1, 0.1), one(0.2, 0.2)).entry(0, 0)
        true = Fraction(1, 10) + Fraction(2, 10)
        assert Fraction(r.inf) <= true <= Fraction(r.sup)
        assert r.sup <= math.nextafter(math.nextafter(r.inf, math.inf), math.inf)

    def test_mul_endpoint_products(self):
        r = scale([[0.0, 1.0, -1.0]], Interval(-1, 1))
        assert np.array_equal(r.inf, [[0.0, -1.0, -1.0]]) and np.array_equal(r.sup, [[0.0, 1.0, 1.0]])

    def test_mul_identity(self):
        assert scale([[1.0]], Interval(-2.5, 0.75)).entry(0, 0) == Interval(-2.5, 0.75)

    def test_mul_mixed_signs_brute_force(self):
        # Dense-sample oracle: each real entry of either sign times an
        # interval that straddles zero.
        r = scale([[-2.0, 3.0]], Interval(-5, 7))
        ys = np.linspace(-5, 7, 201)
        for j, x in enumerate((-2.0, 3.0)):
            assert r.inf[0, j] <= (x * ys).min() and (x * ys).max() <= r.sup[0, j]
        assert r.entry(0, 0) == Interval(-14, 10) and r.entry(0, 1) == Interval(-15, 21)

    def test_unsafe_products_widen_unconditionally(self):
        # Past 1e290 the two-product residual is not trusted, so even exact
        # products move outward.
        r = scale([[2.0 ** 970]], Interval(2.0, 2.0)).entry(0, 0)
        assert r.inf < 2.0 ** 971 < r.sup

    def test_huge_factor_with_a_moderate_product_widens(self):
        # 1e301 overflows the factor's splitting, so the residual is NaN; the
        # product 1.1e281 is inexact and was once kept as an exact point.
        r = scale([[1e301]], Interval(1.1e-20, 1.1e-20)).entry(0, 0)
        assert Fraction(r.inf) < Fraction(1e301) * Fraction(1.1e-20) < Fraction(r.sup)

    @given(finite_floats, finite_floats, finite_floats, finite_floats, st.data())
    def test_inclusion_isotonicity(self, a1, a2, b1, b2, data):
        a = make_interval(a1, a2)
        b = make_interval(b1, b2)
        x = data.draw(st.floats(min_value=a.inf, max_value=a.sup))
        y = data.draw(st.floats(min_value=b.inf, max_value=b.sup))
        s = im_add(one(a.inf, a.sup), one(b.inf, b.sup)).entry(0, 0)
        assert Fraction(s.inf) <= Fraction(x) + Fraction(y) <= Fraction(s.sup)
        p = scale([[x]], b).entry(0, 0)
        assert Fraction(p.inf) <= Fraction(x) * Fraction(y) <= Fraction(p.sup)

    def test_inclusion_isotonicity_bulk(self):
        # 1e4 random member pairs per operation, exact-rational membership.
        rng = np.random.default_rng(42)
        bounds = rng.uniform(-50, 50, size=(10_000, 4))
        for a1, a2, b1, b2 in bounds:
            a = make_interval(a1, a2)
            b = make_interval(b1, b2)
            t = rng.random(2)
            x = a.inf + t[0] * (a.sup - a.inf)
            y = b.inf + t[1] * (b.sup - b.inf)
            s = im_add(one(a.inf, a.sup), one(b.inf, b.sup)).entry(0, 0)
            p = scale([[x]], b).entry(0, 0)
            assert Fraction(s.inf) <= Fraction(x) + Fraction(y) <= Fraction(s.sup)
            assert Fraction(p.inf) <= Fraction(x) * Fraction(y) <= Fraction(p.sup)


class TestIntervalMatrix:
    def test_add_zero_matrix(self):
        a = IntervalMatrix(np.array([[0.0, -1.0]]), np.array([[2.0, 1.5]]))
        z = IntervalMatrix(np.zeros((1, 2)), np.zeros((1, 2)))
        r = im_add(z, a)
        assert np.array_equal(r.inf, a.inf) and np.array_equal(r.sup, a.sup)

    def test_add_one_by_one(self):
        a = IntervalMatrix([[1.0]], [[2.0]])
        b = IntervalMatrix([[3.0]], [[4.0]])
        r = im_add(a, b)
        assert r.entry(0, 0) == Interval(4, 6)

    def test_add_shape_mismatch(self):
        a = IntervalMatrix(np.zeros((2, 2)), np.zeros((2, 2)))
        b = IntervalMatrix(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            im_add(a, b)

    def test_add_containment_sampling(self, rng):
        lo_a = rng.uniform(-5, 5, (3, 3))
        lo_b = rng.uniform(-5, 5, (3, 3))
        a = IntervalMatrix(lo_a, lo_a + rng.uniform(0, 3, (3, 3)))
        b = IntervalMatrix(lo_b, lo_b + rng.uniform(0, 3, (3, 3)))
        r = im_add(a, b)
        for _ in range(200):
            m = a.inf + rng.random((3, 3)) * (a.sup - a.inf)
            n = b.inf + rng.random((3, 3)) * (b.sup - b.inf)
            assert contains(r, m + n)

    def test_scale_ones_by_unit(self):
        r = scale(np.ones((2, 2)), Interval(0, 1))
        assert np.array_equal(r.inf, np.zeros((2, 2)))
        assert np.array_equal(r.sup, np.ones((2, 2)))

    def test_scale_degenerate_is_exact(self):
        a = np.array([[1.25, -3.0], [0.5, 2.0]])
        r = scale(a, Interval(1, 1))
        assert np.array_equal(r.inf, a) and np.array_equal(r.sup, a)

    def test_scale_sign_flip(self):
        r = scale(np.diag([1.0, -1.0]), Interval(2, 3))
        assert r.entry(0, 0) == Interval(2, 3)
        assert r.entry(1, 1) == Interval(-3, -2)

    def test_contains_examples(self):
        relaxed = IntervalMatrix(np.zeros((2, 2)), np.ones((2, 2)))
        assert contains(relaxed, [[0, 1], [1, 0]])
        assert contains(relaxed, relaxed.mid())
        assert not contains(IntervalMatrix([[0.0]], [[1.0]]), [[1.5]])
        with pytest.raises(ValueError):
            contains(relaxed, np.zeros((3, 3)))

    def test_membership_commutes_with_ops(self, rng):
        a_lo = rng.uniform(-2, 2, (2, 2))
        a = IntervalMatrix(a_lo, a_lo + rng.uniform(0, 1, (2, 2)))
        p = Interval(-0.3, 1.7)
        m = a.inf + rng.random((2, 2)) * (a.sup - a.inf)
        s = rng.uniform(p.inf, p.sup)
        assert contains(scale(m, Interval(s, s)), m * s)
        b_lo = rng.uniform(-2, 2, (2, 2))
        b = IntervalMatrix(b_lo, b_lo + rng.uniform(0, 1, (2, 2)))
        n = b.inf + rng.random((2, 2)) * (b.sup - b.inf)
        assert contains(im_add(a, b), m + n)

    def test_symmetric_parts_gate(self):
        ok = IntervalMatrix([[0.0, 1.0], [1.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]])
        mid, rad = ok.symmetric_parts()
        assert np.array_equal(mid, mid.T) and np.array_equal(rad, rad.T)
        bad = IntervalMatrix([[0.0, 1.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(AsymmetricMatrixError):
            bad.symmetric_parts()

    def test_symmetric_parts_cannot_overflow(self):
        big = IntervalMatrix.point([[1e308, 1.7e308], [1.7e308, -1e308]])
        mid, rad = big.symmetric_parts()
        assert np.array_equal(mid, big.inf) and not rad.any()

    def test_immutability(self):
        a = IntervalMatrix.point(np.eye(2))
        with pytest.raises(ValueError):
            a.inf[0, 0] = 5.0

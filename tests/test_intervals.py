"""Interval enclosures: exactness, outward rounding, and inclusion properties."""

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
)
from psdparam.intervals import _clamped_mid, scaled_sum

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
        assert IntervalMatrix([[5e-324]], [[5e-324]]).mid()[0, 0] == 5e-324

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


def product(a, lo: float, hi: float) -> IntervalMatrix:
    """Enclosure of the real matrix a times [lo, hi]: a one-term ``scaled_sum``."""
    return scaled_sum(np.asarray(a, dtype=float)[None], np.array([lo]), np.array([hi]))


def interval_sum(a: IntervalMatrix, b: IntervalMatrix) -> IntervalMatrix:
    """Enclosure of a + b: a ``scaled_sum`` of one unit coefficient per entry of each summand.

    Multiplying by 1.0 and 0.0 and adding 0.0 are exact, so entry (i, j)
    is 0 + a_ij + b_ij with only the last sum rounded (the product rule
    still widens a bound of magnitude below 1e-290 or above 1e290).
    """
    units = np.eye(a.inf.size).reshape(-1, *a.shape)
    return scaled_sum(
        np.concatenate([units, units]),
        np.concatenate([a.inf.ravel(), b.inf.ravel()]),
        np.concatenate([a.sup.ravel(), b.sup.ravel()]),
    )


def bounds(r: IntervalMatrix, i: int = 0, j: int = 0) -> tuple[float, float]:
    return float(r.inf[i, j]), float(r.sup[i, j])


class TestScalarOps:
    """Exact-rounding checks of the entrywise sum and product, on 1x1 ``scaled_sum`` enclosures.

    They pin the error-free transforms ``_two_sum`` and ``_two_prod`` and
    the ``_prod_unsafe`` fallback against exact rational arithmetic.
    """

    def test_add_exact_dyadic(self):
        assert bounds(interval_sum(one(1, 2), one(3, 4))) == (4, 6)

    def test_add_identity(self):
        assert bounds(interval_sum(one(0, 0), one(-3.25, 7.5))) == (-3.25, 7.5)

    def test_add_tenths_encloses_rational_sum(self):
        # Exact-rational oracle: the true sum 0.3 must be inside, and the
        # result may be at most two ulps wide.
        lo, hi = bounds(interval_sum(one(0.1, 0.1), one(0.2, 0.2)))
        true = Fraction(1, 10) + Fraction(2, 10)
        assert Fraction(lo) <= true <= Fraction(hi)
        assert hi <= math.nextafter(math.nextafter(lo, math.inf), math.inf)

    def test_mul_endpoint_products(self):
        r = product([[0.0, 1.0, -1.0]], -1, 1)
        assert np.array_equal(r.inf, [[0.0, -1.0, -1.0]]) and np.array_equal(r.sup, [[0.0, 1.0, 1.0]])

    def test_mul_identity(self):
        assert bounds(product([[1.0]], -2.5, 0.75)) == (-2.5, 0.75)

    def test_mul_mixed_signs_brute_force(self):
        # Dense-sample oracle: each real entry of either sign times an
        # interval that straddles zero.
        r = product([[-2.0, 3.0]], -5, 7)
        ys = np.linspace(-5, 7, 201)
        for j, x in enumerate((-2.0, 3.0)):
            assert r.inf[0, j] <= (x * ys).min() and (x * ys).max() <= r.sup[0, j]
        assert bounds(r, 0, 0) == (-14, 10) and bounds(r, 0, 1) == (-15, 21)

    def test_unsafe_products_widen_unconditionally(self):
        # Past 1e290 the two-product residual is not trusted, so even exact
        # products move outward.
        lo, hi = bounds(product([[2.0 ** 970]], 2.0, 2.0))
        assert lo < 2.0 ** 971 < hi

    def test_huge_factor_with_a_moderate_product_widens(self):
        # 1e301 overflows the factor's splitting, so the residual is NaN; the
        # product 1.1e281 is inexact and was once kept as an exact point.
        lo, hi = bounds(product([[1e301]], 1.1e-20, 1.1e-20))
        assert Fraction(lo) < Fraction(1e301) * Fraction(1.1e-20) < Fraction(hi)

    @given(finite_floats, finite_floats, finite_floats, finite_floats, st.data())
    def test_inclusion_isotonicity(self, a1, a2, b1, b2, data):
        a = make_interval(a1, a2)
        b = make_interval(b1, b2)
        x = data.draw(st.floats(min_value=a.inf, max_value=a.sup))
        y = data.draw(st.floats(min_value=b.inf, max_value=b.sup))
        s_lo, s_hi = bounds(interval_sum(one(a.inf, a.sup), one(b.inf, b.sup)))
        assert Fraction(s_lo) <= Fraction(x) + Fraction(y) <= Fraction(s_hi)
        p_lo, p_hi = bounds(product([[x]], b.inf, b.sup))
        assert Fraction(p_lo) <= Fraction(x) * Fraction(y) <= Fraction(p_hi)

    def test_inclusion_isotonicity_bulk(self):
        # 1e4 random member pairs per operation, exact-rational membership.
        rng = np.random.default_rng(42)
        for a1, a2, b1, b2 in rng.uniform(-50, 50, size=(10_000, 4)):
            a = make_interval(a1, a2)
            b = make_interval(b1, b2)
            t = rng.random(2)
            x = a.inf + t[0] * (a.sup - a.inf)
            y = b.inf + t[1] * (b.sup - b.inf)
            s_lo, s_hi = bounds(interval_sum(one(a.inf, a.sup), one(b.inf, b.sup)))
            p_lo, p_hi = bounds(product([[x]], b.inf, b.sup))
            assert Fraction(s_lo) <= Fraction(x) + Fraction(y) <= Fraction(s_hi)
            assert Fraction(p_lo) <= Fraction(x) * Fraction(y) <= Fraction(p_hi)


class TestIntervalMatrix:
    def test_add_zero_matrix(self):
        a = IntervalMatrix(np.array([[0.0, -1.0]]), np.array([[2.0, 1.5]]))
        z = IntervalMatrix(np.zeros((1, 2)), np.zeros((1, 2)))
        r = interval_sum(z, a)
        assert np.array_equal(r.inf, a.inf) and np.array_equal(r.sup, a.sup)

    def test_add_one_by_one(self):
        a = IntervalMatrix([[1.0]], [[2.0]])
        b = IntervalMatrix([[3.0]], [[4.0]])
        r = interval_sum(a, b)
        assert bounds(r) == (4, 6)

    def test_add_containment_sampling(self, rng):
        lo_a = rng.uniform(-5, 5, (3, 3))
        lo_b = rng.uniform(-5, 5, (3, 3))
        a = IntervalMatrix(lo_a, lo_a + rng.uniform(0, 3, (3, 3)))
        b = IntervalMatrix(lo_b, lo_b + rng.uniform(0, 3, (3, 3)))
        r = interval_sum(a, b)
        for _ in range(200):
            m = a.inf + rng.random((3, 3)) * (a.sup - a.inf)
            n = b.inf + rng.random((3, 3)) * (b.sup - b.inf)
            assert contains(r, m + n)

    def test_scale_ones_by_unit(self):
        r = product(np.ones((2, 2)), 0, 1)
        assert np.array_equal(r.inf, np.zeros((2, 2)))
        assert np.array_equal(r.sup, np.ones((2, 2)))

    def test_scale_degenerate_is_exact(self):
        a = np.array([[1.25, -3.0], [0.5, 2.0]])
        r = product(a, 1, 1)
        assert np.array_equal(r.inf, a) and np.array_equal(r.sup, a)

    def test_scale_sign_flip(self):
        r = product(np.diag([1.0, -1.0]), 2, 3)
        assert bounds(r, 0, 0) == (2, 3)
        assert bounds(r, 1, 1) == (-3, -2)

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
        assert contains(product(m, s, s), m * s)
        b_lo = rng.uniform(-2, 2, (2, 2))
        b = IntervalMatrix(b_lo, b_lo + rng.uniform(0, 1, (2, 2)))
        n = b.inf + rng.random((2, 2)) * (b.sup - b.inf)
        assert contains(interval_sum(a, b), m + n)

    def test_symmetric_parts_gate(self):
        ok = IntervalMatrix([[0.0, 1.0], [1.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]])
        mid, rad = ok.symmetric_parts()
        assert np.array_equal(mid, mid.T) and np.array_equal(rad, rad.T)
        bad = IntervalMatrix([[0.0, 1.0], [0.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(AsymmetricMatrixError):
            bad.symmetric_parts()

    def test_symmetric_parts_cannot_overflow(self):
        m = [[1e308, 1.7e308], [1.7e308, -1e308]]
        big = IntervalMatrix(m, m)
        mid, rad = big.symmetric_parts()
        assert np.array_equal(mid, big.inf) and not rad.any()

    def test_immutability(self):
        a = IntervalMatrix(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            a.inf[0, 0] = 5.0

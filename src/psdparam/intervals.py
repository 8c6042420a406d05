"""Outward-rounded enclosures of sum_k A_k * [lo_k, hi_k] (``scaled_sum``).

An ``IntervalMatrix`` holds one as two read-only binary64 bound arrays,
checked by the bounds rule that ``Interval`` and ``ParameterBox`` share.
Each product and sum detects whether it is exact (Knuth two-sum, Dekker
two-product) and widens an inexact bound by one ulp outward, so integer
and dyadic data round-trips bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symlinalg import symmetrize

# Veltkamp splitter for binary64.
_SPLITTER = 134217729.0  # 2**27 + 1
# Outside this magnitude range the two-product error term may itself
# under/overflow, and past it a factor's splitting overflows; there we
# widen unconditionally instead of trusting it.
_SAFE_LO = 1e-290
_SAFE_HI = 1e290

_INF = float("inf")


class AsymmetricMatrixError(ValueError):
    """Raised when a symmetric view of an asymmetric interval matrix is requested."""


def _two_sum(a, b):
    """Rounded sum and its exact residual."""
    s = a + b
    t = s - a
    err = (a - (s - t)) + (b - t)
    return s, err


def _two_prod(a, b):
    """Rounded product and its exact residual (valid in the normal range).

    Past about 1e300 the splitting overflows and the residual is garbage;
    callers widen those products without it (``_prod_unsafe``).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = a * b
        ah = _SPLITTER * a
        ah = ah - (ah - a)
        al = a - ah
        bh = _SPLITTER * b
        bh = bh - (bh - b)
        bl = b - bh
        err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _prod_unsafe(a, b, p):
    big = (np.abs(p) > _SAFE_HI) | (np.abs(a) > _SAFE_HI) | (np.abs(b) > _SAFE_HI)
    return big | ((np.abs(p) < _SAFE_LO) & (a != 0.0) & (b != 0.0))


def _check_bounds(lo, hi) -> None:
    """ValueError at the first entry, in C order, whose bounds are not both finite or have lo > hi."""
    ok = np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)
    if not ok.all():
        i = int(np.argmin(ok))
        a, b = float(np.ravel(lo)[i]), float(np.ravel(hi)[i])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"interval bounds must be finite, got [{a}, {b}]")
        raise ValueError(f"lower bound {a} exceeds upper bound {b}")


def _clamped_mid(lo, hi):
    """0.5 * lo + 0.5 * hi, entrywise, clamped into [lo, hi]: halving a subnormal bound can round out of it."""
    m = 0.5 * lo + 0.5 * hi
    return np.where(m < lo, lo, np.where(m > hi, hi, m))


@dataclass(frozen=True)
class Interval:
    """Closed real interval [inf, sup] with finite float bounds."""

    inf: float
    sup: float

    def __post_init__(self):
        lo = float(self.inf)
        hi = float(self.sup)
        _check_bounds(lo, hi)
        object.__setattr__(self, "inf", lo)
        object.__setattr__(self, "sup", hi)

    def __repr__(self) -> str:
        return f"[{self.inf!r}, {self.sup!r}]"


@dataclass(frozen=True, eq=False)
class IntervalMatrix:
    """Rectangular matrix of intervals stored as paired bound arrays."""

    inf: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        lo = np.array(self.inf, dtype=float)
        hi = np.array(self.sup, dtype=float)
        if lo.ndim != 2 or lo.shape != hi.shape:
            raise ValueError(f"bound arrays must be 2-D with equal shapes, got {lo.shape} and {hi.shape}")
        _check_bounds(lo, hi)
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "inf", lo)
        object.__setattr__(self, "sup", hi)

    @property
    def rows(self) -> int:
        return self.inf.shape[0]

    @property
    def cols(self) -> int:
        return self.inf.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.inf.shape

    def mid(self) -> np.ndarray:
        """Entrywise ``_clamped_mid`` of the bounds."""
        return _clamped_mid(self.inf, self.sup)

    def rad(self) -> np.ndarray:
        """Entrywise radius, rounded up so mid +/- rad encloses the bounds."""
        m = self.mid()
        left, e1 = _two_sum(m, -self.inf)
        right, e2 = _two_sum(self.sup, -m)
        left = np.where(e1 > 0, np.nextafter(left, _INF), left)
        right = np.where(e2 > 0, np.nextafter(right, _INF), right)
        return np.maximum(np.maximum(left, right), 0.0)

    def max_abs(self) -> float:
        if self.inf.size == 0:
            return 0.0
        return float(max(np.abs(self.inf).max(), np.abs(self.sup).max()))

    def symmetric_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint and radius of the symmetric view, read-only and exactly symmetrized by ``symmetrize``.

        Permitted only when both are symmetric within 1e-12 times the
        largest entry magnitude; raises AsymmetricMatrixError otherwise.
        """
        if self.rows != self.cols:
            raise AsymmetricMatrixError(f"matrix is {self.rows}x{self.cols}, not square")
        tol = 1e-12 * self.max_abs()
        (mid, rad), skew = symmetrize(np.stack([self.mid(), self.rad()]))
        if skew.max() > tol:
            raise AsymmetricMatrixError(f"midpoint/radius asymmetry {skew.max():g} exceeds tolerance {tol:g}")
        return mid, rad

    def __repr__(self) -> str:
        return f"IntervalMatrix({self.rows}x{self.cols})"


def _sum_bounds(a_lo, a_hi, b_lo, b_hi):
    """Outward-rounded bounds of [a_lo, a_hi] + [b_lo, b_hi], entrywise."""
    lo, e_lo = _two_sum(a_lo, b_lo)
    hi, e_hi = _two_sum(a_hi, b_hi)
    return np.where(e_lo < 0, np.nextafter(lo, -_INF), lo), np.where(e_hi > 0, np.nextafter(hi, _INF), hi)


def _scaled_bounds(a, p_lo, p_hi):
    """Outward-rounded bounds of [a, a] * [p_lo, p_hi], entrywise over broadcasting arrays."""
    lo, hi = [], []
    for end in (p_lo, p_hi):
        p, e = _two_prod(a, end)
        unsafe = _prod_unsafe(a, end, p)
        lo.append(np.where(unsafe | (e < 0), np.nextafter(p, -_INF), p))
        hi.append(np.where(unsafe | (e > 0), np.nextafter(p, _INF), p))
    return np.minimum(*lo), np.maximum(*hi)


def scaled_sum(stack: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> IntervalMatrix:
    """Enclosure of sum_k stack[k] * [lo[k], hi[k]] for a real (K, m, n) stack.

    The K products are rounded outward at once, then summed in k order
    from zero with the outward-rounded two-sum.
    OverflowError, with no floating-point warning, when a bound overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p_lo, p_hi = _scaled_bounds(stack, lo[:, None, None], hi[:, None, None])
        acc = (np.zeros(stack.shape[1:]),) * 2
        for term in zip(p_lo, p_hi):
            acc = _sum_bounds(*acc, *term)
    if not np.isfinite(acc).all():
        raise OverflowError("interval bounds overflow double precision")
    return IntervalMatrix(*acc)


def contains(a: IntervalMatrix, m) -> bool:
    """Entrywise membership of a real matrix in an interval matrix."""
    m = np.asarray(getattr(m, "array", m), dtype=float)
    if m.shape != a.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {m.shape}")
    return bool((a.inf <= m).all() and (m <= a.sup).all())

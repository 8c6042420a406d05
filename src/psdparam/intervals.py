"""Matrix interval arithmetic with outward rounding.

Bounds are ordinary binary64 floats.  Every arithmetic operation detects
whether its floating-point result is exact (error-free transformations:
Knuth two-sum, Dekker two-product) and widens an inexact bound by one unit
in the last place in the safe direction.  Exact results stay exact, so
integer and dyadic data round-trips bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Veltkamp splitter for binary64.
_SPLITTER = 134217729.0  # 2**27 + 1
# Outside this magnitude range the two-product error term may itself
# under/overflow; there we widen unconditionally instead of trusting it.
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
    return (np.abs(p) > _SAFE_HI) | ((np.abs(p) < _SAFE_LO) & (a != 0.0) & (b != 0.0))


@dataclass(frozen=True)
class Interval:
    """Closed real interval [inf, sup] with finite float bounds."""

    inf: float
    sup: float

    def __post_init__(self):
        lo = float(self.inf)
        hi = float(self.sup)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
        object.__setattr__(self, "inf", lo)
        object.__setattr__(self, "sup", hi)

    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value)

    @property
    def mid(self) -> float:
        """0.5 * inf + 0.5 * sup, clamped into the interval: halving a subnormal bound can round out of it."""
        m = 0.5 * self.inf + 0.5 * self.sup
        return self.inf if m < self.inf else self.sup if m > self.sup else m

    @property
    def is_degenerate(self) -> bool:
        return self.inf == self.sup

    def __contains__(self, x: float) -> bool:
        return self.inf <= x <= self.sup

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
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("interval matrix bounds must be finite")
        if (lo > hi).any():
            raise ValueError("lower bounds exceed upper bounds")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "inf", lo)
        object.__setattr__(self, "sup", hi)

    @classmethod
    def point(cls, m) -> "IntervalMatrix":
        m = np.asarray(m, dtype=float)
        return cls(m, m.copy())

    @property
    def rows(self) -> int:
        return self.inf.shape[0]

    @property
    def cols(self) -> int:
        return self.inf.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.inf.shape

    def entry(self, i: int, j: int) -> Interval:
        return Interval(self.inf[i, j], self.sup[i, j])

    def mid(self) -> np.ndarray:
        """Entrywise ``Interval.mid``: 0.5 * inf + 0.5 * sup, clamped into the bounds."""
        m = 0.5 * self.inf + 0.5 * self.sup
        return np.where(m < self.inf, self.inf, np.where(m > self.sup, self.sup, m))

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

    def symmetric_parts(self, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint and radius of the symmetric view.

        Permitted only when both are symmetric within ``tol`` (default
        1e-12 times the largest entry magnitude); raises
        AsymmetricMatrixError otherwise.  The returned arrays are exactly
        symmetrized: entries that differ from their transpose become
        0.5 * x_ij + 0.5 * x_ji, which cannot overflow.
        """
        if self.rows != self.cols:
            raise AsymmetricMatrixError(f"matrix is {self.rows}x{self.cols}, not square")
        if tol is None:
            tol = 1e-12 * self.max_abs()
        mid = self.mid()
        rad = self.rad()
        skew = max(np.abs(mid - mid.T).max(), np.abs(rad - rad.T).max()) if self.rows else 0.0
        if skew > tol:
            raise AsymmetricMatrixError(f"midpoint/radius asymmetry {skew:g} exceeds tolerance {tol:g}")
        return tuple(np.where(x == x.T, x, 0.5 * x + 0.5 * x.T) for x in (mid, rad))

    def __repr__(self) -> str:
        return f"IntervalMatrix({self.rows}x{self.cols})"


def zeros(rows: int, cols: int) -> IntervalMatrix:
    return IntervalMatrix(np.zeros((rows, cols)), np.zeros((rows, cols)))


def im_add(a: IntervalMatrix, b: IntervalMatrix) -> IntervalMatrix:
    """Entrywise interval sum of two conformable interval matrices."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    lo, e_lo = _two_sum(a.inf, b.inf)
    hi, e_hi = _two_sum(a.sup, b.sup)
    lo = np.where(e_lo < 0, np.nextafter(lo, -_INF), lo)
    hi = np.where(e_hi > 0, np.nextafter(hi, _INF), hi)
    return IntervalMatrix(lo, hi)


def scale(a, p: Interval) -> IntervalMatrix:
    """Interval matrix with entry (i, j) = [a_ij, a_ij] * p for a real matrix a."""
    a = np.asarray(getattr(a, "array", a), dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-D real matrix")
    p1, e1 = _two_prod(a, p.inf)
    p2, e2 = _two_prod(a, p.sup)
    u1 = _prod_unsafe(a, p.inf, p1)
    u2 = _prod_unsafe(a, p.sup, p2)
    lo1 = np.where(u1 | (e1 < 0), np.nextafter(p1, -_INF), p1)
    lo2 = np.where(u2 | (e2 < 0), np.nextafter(p2, -_INF), p2)
    hi1 = np.where(u1 | (e1 > 0), np.nextafter(p1, _INF), p1)
    hi2 = np.where(u2 | (e2 > 0), np.nextafter(p2, _INF), p2)
    return IntervalMatrix(np.minimum(lo1, lo2), np.maximum(hi1, hi2))


def contains(a: IntervalMatrix, m) -> bool:
    """Entrywise membership of a real matrix in an interval matrix."""
    m = np.asarray(getattr(m, "array", m), dtype=float)
    if m.shape != a.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {m.shape}")
    return bool((a.inf <= m).all() and (m <= a.sup).all())

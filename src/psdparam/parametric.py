"""The linear parametric matrix model A(p) = sum_k A_k p_k over a parameter box.

Covers point evaluation, interval relaxation, midpoint preconditioning,
and enumeration of the reduced set of parameter-box vertices that decides
strong definiteness.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .intervals import Interval, IntervalMatrix, im_add, scale, zeros
from .symlinalg import SymMatrix, default_tol, eig_stack, invert, passes, scaled_tol

SYMMETRY_TOL_FACTOR = 1e-12


@dataclass(frozen=True)
class ParameterBox:
    """Axis-aligned box of parameter values, one interval per parameter."""

    intervals: tuple[Interval, ...]

    def __init__(self, intervals):
        ivs = tuple(intervals)
        if not ivs:
            raise ValueError("parameter box needs at least one interval")
        if not all(isinstance(iv, Interval) for iv in ivs):
            raise TypeError("parameter box entries must be Interval instances")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def from_bounds(cls, bounds) -> "ParameterBox":
        return cls(Interval(lo, hi) for lo, hi in bounds)

    @property
    def K(self) -> int:
        return len(self.intervals)

    def inf(self) -> np.ndarray:
        return np.array([iv.inf for iv in self.intervals])

    def sup(self) -> np.ndarray:
        return np.array([iv.sup for iv in self.intervals])

    def mid(self) -> np.ndarray:
        return np.array([iv.mid for iv in self.intervals])

    def contains(self, p, slack: float = 1e-12) -> bool:
        p = np.asarray(p, dtype=float)
        if p.shape != (self.K,):
            return False
        return bool((p >= self.inf() - slack).all() and (p <= self.sup() + slack).all())


@dataclass(frozen=True, eq=False)
class ParametricSymMatrix:
    """Symmetric coefficient matrices paired with a parameter box."""

    coeffs: tuple[SymMatrix, ...]
    box: ParameterBox

    def __init__(self, coeffs, box: ParameterBox):
        cs = tuple(c if isinstance(c, SymMatrix) else SymMatrix(c) for c in coeffs)
        if not cs:
            raise ValueError("need at least one coefficient matrix")
        n = cs[0].n
        if any(c.n != n for c in cs):
            raise ValueError("coefficient matrices must share one dimension")
        if len(cs) != box.K:
            raise ValueError(f"{len(cs)} coefficient matrices but box has {box.K} parameters")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "box", box)
        stack = np.stack([c.array for c in cs])
        eigvals, eigvecs = eig_stack(stack)
        for a in (stack, eigvals, eigvecs):
            a.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_spectra", (eigvals, eigvecs))
        # Bound on ||A(q)|| over the box, summed once here for ``family_tol``; inf or NaN when it overflows.
        reach = sum(max(abs(iv.inf), abs(iv.sup)) * c.norm_bound for iv, c in zip(box.intervals, cs))
        object.__setattr__(self, "_reach", reach)

    @property
    def n(self) -> int:
        return self.coeffs[0].n

    @property
    def K(self) -> int:
        return len(self.coeffs)

    def coefficient_stack(self) -> np.ndarray:
        """Read-only (K, n, n) array of the coefficient matrices."""
        return self._stack

    def coefficient_spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only eigenvalues (K, n), ascending, and eigenvectors (K, n, n) of the coefficients."""
        return self._spectra

    def __repr__(self) -> str:
        return f"ParametricSymMatrix(n={self.n}, K={self.K})"


def family_tol(p: ParametricSymMatrix) -> float:
    """Uniform definiteness tolerance for every member matrix of the family.

    ``scaled_tol(bound)``, where the bound dominates ||A(p)|| over the box;
    the family sums the bound once, when it is built.  ValueError when the
    tolerance overflows.
    """
    return scaled_tol(p._reach)


def evaluate(p: ParametricSymMatrix, point, check: bool = True) -> SymMatrix:
    """Member matrix A(point) = sum_k A_k point_k as a plain floating sum."""
    point = np.asarray(point, dtype=float)
    if point.shape != (p.K,):
        raise ValueError(f"expected {p.K} parameter values, got shape {point.shape}")
    if check and not p.box.contains(point):
        raise ValueError(f"parameter point {point.tolist()} lies outside the box")
    return SymMatrix(np.tensordot(point, p.coefficient_stack(), axes=1))


def relax(p: ParametricSymMatrix) -> IntervalMatrix:
    """Interval evaluation of the family: encloses {A(q) : q in box}.

    Drops the dependency structure, so it generally overestimates the
    true matrix set.
    """
    acc = zeros(p.n, p.n)
    for c, iv in zip(p.coeffs, p.box.intervals):
        acc = im_add(acc, scale(c.array, iv))
    return acc


def precondition_relax(p: ParametricSymMatrix) -> tuple[np.ndarray, IntervalMatrix]:
    """Midpoint-preconditioned relaxation.

    Returns the preconditioner C = A(mid)^-1 and the interval matrix
    sum_k (C A_k) p_k.  The real products C A_k are not symmetrized.
    Raises SingularMatrixError when the midpoint matrix is singular to
    working precision.
    """
    c = invert(evaluate(p, p.box.mid(), check=False))
    acc = zeros(p.n, p.n)
    for coeff, iv in zip(p.coeffs, p.box.intervals):
        acc = im_add(acc, scale(c @ coeff.array, iv))
    return c, acc


@dataclass(frozen=True)
class VertexAssignment:
    """One endpoint assignment of the parameter box."""

    values: tuple[float, ...]


class VertexEnumeration(Sequence):
    """Reduced vertex set of a parametric family, in Gray-code order.

    Coordinates whose coefficient matrix is PSD are fixed at the lower
    endpoint, NSD ones at the upper endpoint, and degenerate intervals at
    their single value; the remaining coordinates range over both
    endpoints.  Gray-code ordering flips one coordinate between
    consecutive vertices.
    """

    def __init__(self, base: np.ndarray, free: tuple[int, ...], lows: np.ndarray, highs: np.ndarray):
        self._base = base
        self._free = free
        self._lows = lows
        self._highs = highs

    @property
    def free_count(self) -> int:
        return len(self._free)

    def __len__(self) -> int:
        return 1 << len(self._free)

    def __getitem__(self, i: int) -> VertexAssignment:
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        i %= len(self)
        return VertexAssignment(tuple(self.points(i, i + 1)[0].tolist()))

    def points(self, start: int, stop: int) -> np.ndarray:
        """Vertices ``start`` to ``stop - 1`` in Gray-code order, one row each."""
        i = np.arange(start, stop, dtype=np.int64)
        gray = i ^ (i >> 1)
        free = np.array(self._free, dtype=np.intp)
        bits = (gray[:, None] >> np.arange(len(free))) & 1
        rows = np.tile(self._base, (len(i), 1))
        rows[:, free] = np.where(bits == 1, self._highs[free], self._lows[free])
        return rows


def vertices(p: ParametricSymMatrix, tol: float | None = None) -> VertexEnumeration:
    """Reduced vertex set sufficient for deciding strong PSD and strong PD alike.

    ``tol`` is the semidefiniteness tolerance used by the coefficient
    classification (per-matrix ``default_tol`` when omitted), applied to
    the eigenvalues the family computed once when it was built.
    """
    lows = p.box.inf()
    highs = p.box.sup()
    base = p.box.mid()
    eigvals = p.coefficient_spectra()[0]
    free: list[int] = []
    for k, (iv, coeff) in enumerate(zip(p.box.intervals, p.coeffs)):
        t = default_tol(coeff) if tol is None else tol
        if iv.is_degenerate:
            base[k] = iv.inf
        elif passes(eigvals[k, 0], "psd", t):  # PSD coefficient
            base[k] = iv.inf
        elif passes(-eigvals[k, -1], "psd", t):  # NSD coefficient
            base[k] = iv.sup
        else:
            free.append(k)
    return VertexEnumeration(base, tuple(free), lows, highs)


def problem_to_json(p: ParametricSymMatrix) -> str:
    return json.dumps(
        {
            "n": p.n,
            "K": p.K,
            "coefficients": [c.array.tolist() for c in p.coeffs],
            "parameters": [{"inf": iv.inf, "sup": iv.sup} for iv in p.box.intervals],
        }
    )


def problem_from_json(text: str | dict) -> ParametricSymMatrix:
    """Parse the parametric-matrix problem format.

    Expects {"n", "K", "coefficients", "parameters"}, n and K integers;
    coefficients must be symmetric within 1e-12 times their largest entry.
    """
    doc = json.loads(text) if isinstance(text, str) else text
    try:
        n, k = doc["n"], doc["K"]
        raw_coeffs = list(doc["coefficients"])
        raw_params = list(doc["parameters"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed problem document: {exc}") from exc
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, k)):
        raise ValueError(f"n and K must be integers, got n={n!r} and K={k!r}")
    if len(raw_coeffs) != k or len(raw_params) != k:
        raise ValueError(f"declared K={k} but found {len(raw_coeffs)} coefficients and {len(raw_params)} parameters")
    coeffs = []
    for idx, raw in enumerate(raw_coeffs):
        try:
            m = np.asarray(raw, dtype=float)
        except (OverflowError, TypeError) as exc:
            raise ValueError(f"coefficient {idx} is not a matrix of doubles: {exc}") from exc
        if m.shape != (n, n):
            raise ValueError(f"coefficient {idx} has shape {m.shape}, expected ({n}, {n})")
        sym = SymMatrix(m)
        if sym.asymmetry > SYMMETRY_TOL_FACTOR * max(sym.max_abs, 1e-300):
            raise ValueError(f"coefficient {idx} is asymmetric by {sym.asymmetry:g}")
        coeffs.append(sym)
    try:
        box = ParameterBox(Interval(float(iv["inf"]), float(iv["sup"])) for iv in raw_params)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed parameter entry: {exc!r}") from exc
    return ParametricSymMatrix(coeffs, box)

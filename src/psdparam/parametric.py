"""The linear parametric matrix model A(p) = sum_k A_k p_k over a parameter box.

The box is two read-only bound arrays and their clamped midpoint, built once; it
holds exactly the points within those bounds.  A family holds its coefficients as one
checked, symmetrized, read-only (K, n, n) stack, with their spectra and PSD parts
computed once.  ``_members`` forms every member matrix, for ``evaluate``, the vertex
scan and the witness climb.  Also covers the interval relaxation and its
midpoint-preconditioned form (each one outward-rounded ``scaled_sum``, added in k
order) and the reduced vertex set that decides strong definiteness.  Only
``vertices`` classifies coefficients: it pins semidefinite ones at one endpoint and
reports what that pinning may miss.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .intervals import Interval, IntervalMatrix, _check_bounds, _clamped_mid, scaled_sum
from .symlinalg import SymMatrix, check_tol, eig_stack, invert, passes, psd_parts, scaled_tol, symmetrize

SYMMETRY_TOL_FACTOR = 1e-12


class FamilyOverflowError(ValueError):
    """A family's matrices, or its default tolerance, leave double precision over its box."""


class ParameterBox:
    """Axis-aligned box of parameter values: read-only float64 arrays of its bounds and clamped midpoint, built once."""

    def __init__(self, intervals):
        ivs = tuple(intervals)
        if not all(isinstance(iv, Interval) for iv in ivs):
            raise TypeError("parameter box entries must be Interval instances")
        self._hold([(iv.inf, iv.sup) for iv in ivs])

    @classmethod
    def from_bounds(cls, bounds) -> "ParameterBox":
        box = cls.__new__(cls)
        box._hold(list(bounds))
        return box

    def _hold(self, pairs) -> None:
        pairs = np.array(pairs, dtype=float)
        if pairs.shape[1:] != (2,) or not len(pairs):
            raise ValueError(f"parameter box needs one or more (low, high) pairs, got an array of shape {pairs.shape}")
        bounds = pairs.T.copy()
        _check_bounds(*bounds)
        mid = _clamped_mid(*bounds)
        bounds.setflags(write=False)
        mid.setflags(write=False)
        (self._inf, self._sup), self._mid = bounds, mid

    @property
    def K(self) -> int:
        return len(self._inf)

    def inf(self) -> np.ndarray:
        return self._inf

    def sup(self) -> np.ndarray:
        return self._sup

    def mid(self) -> np.ndarray:
        return self._mid

    def contains(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        if p.shape != (self.K,):
            return False
        return bool((p >= self._inf).all() and (p <= self._sup).all())


@dataclass(frozen=True, eq=False)
class ParametricSymMatrix:
    """Coefficients as one checked, symmetrized, read-only (K, n, n) stack, each one's prior skew in ``asymmetry``, and a box.

    ``norm_bound``, ``sum_k max(|lo_k|, |hi_k|) * n * max|A_k|`` summed once when the family is built,
    bounds ||A(q)|| and ||sum_k |A_k| |q_k| || over the box; it is inf or NaN when it overflows.
    """

    box: ParameterBox
    norm_bound: float

    def __init__(self, coeffs, box: ParameterBox):
        try:
            raw = np.array([getattr(c, "array", c) for c in coeffs], dtype=float)
        except ValueError as exc:
            raise ValueError(f"coefficient matrices must share one dimension ({exc})") from exc
        if len(raw) != box.K:
            raise ValueError(f"{len(raw)} coefficient matrices but box has {box.K} parameters")
        self._hold(*symmetrize(raw), box)

    def _hold(self, stack: np.ndarray, skew: np.ndarray, box: ParameterBox) -> None:
        """Build the family on a stack ``symmetrize`` returned, with its skew."""
        k, n = stack.shape[:2]
        object.__setattr__(self, "box", box)
        eigvals, eigvecs = eig_stack(stack)
        scales = np.maximum(np.abs(box.inf()), np.abs(box.sup()))
        # ||A_k|| = max|eig| bounds every entry of A_k and of its PSD parts, so a finite
        # sum_k scales_k * ||A_k||, with room for rounding the sums over k and relax's
        # outward steps, keeps the members, the split bound matrices and ``relax`` finite.
        with np.errstate(over="ignore", invalid="ignore"):
            bound = scales @ np.abs(eigvals).max(axis=1) * (1.0 + 8 * (n + k) * np.finfo(float).eps)
        if not np.isfinite(bound):
            raise FamilyOverflowError("the family's matrices overflow double precision over the parameter box")
        parts = psd_parts(eigvals, eigvecs)
        for a in (skew, eigvals, eigvecs, *parts):
            a.setflags(write=False)
        object.__setattr__(self, "asymmetry", skew)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_spectra", (eigvals, eigvecs))
        object.__setattr__(self, "_parts", parts)
        reach = sum(s * (n * m) for s, m in zip(scales.tolist(), np.abs(stack).max(axis=(1, 2), initial=0.0).tolist()))
        object.__setattr__(self, "norm_bound", reach)

    @property
    def n(self) -> int:
        return self._stack.shape[1]

    @property
    def K(self) -> int:
        return self._stack.shape[0]

    @property
    def coeffs(self) -> tuple[SymMatrix, ...]:
        """The coefficients as SymMatrix views of the stack."""
        return tuple(map(SymMatrix.view, self._stack))

    def coefficient_stack(self) -> np.ndarray:
        """Read-only (K, n, n) array of the coefficient matrices."""
        return self._stack

    def coefficient_spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only eigenvalues (K, n), ascending, and eigenvectors (K, n, n) of the coefficients."""
        return self._spectra

    def coefficient_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (K, n, n) stacks of the PSD parts (plus, minus) of the coefficients, by ``psd_parts``."""
        return self._parts

    def __repr__(self) -> str:
        return f"ParametricSymMatrix(n={self.n}, K={self.K})"


def family_tol(p: ParametricSymMatrix) -> float:
    """Uniform definiteness tolerance for every member matrix of the family.

    ``scaled_tol(bound)``, where the bound dominates ||A(p)|| over the box;
    the family sums the bound once, when it is built.  FamilyOverflowError
    when the tolerance overflows, which finite members alone do not rule out.
    """
    try:
        return scaled_tol(p.norm_bound)
    except ValueError as exc:
        raise FamilyOverflowError(f"the family's default tolerance overflows; set one with tol= or --tol ({exc})") from exc


def _members(p: ParametricSymMatrix, points: np.ndarray) -> np.ndarray:
    """A(q) = sum_k A_k q_k for each row q of ``points``: the one formula behind every member matrix."""
    return np.einsum("vk,kij->vij", points, p.coefficient_stack())


def evaluate(p: ParametricSymMatrix, point, check: bool = True) -> SymMatrix:
    """Member matrix A(point), ``_members``' one-row case; with ``check``, the point must lie in the box exactly."""
    point = np.asarray(point, dtype=float)
    if point.shape != (p.K,):
        raise ValueError(f"expected {p.K} parameter values, got shape {point.shape}")
    if check and not p.box.contains(point):
        raise ValueError(f"parameter point {point.tolist()} lies outside the box")
    return SymMatrix(_members(p, point[None])[0])


def relax(p: ParametricSymMatrix) -> IntervalMatrix:
    """Interval evaluation of the family, ``scaled_sum`` over the box: encloses {A(q) : q in box}.

    Drops the dependency structure, so it generally overestimates the
    true matrix set.
    """
    return scaled_sum(p.coefficient_stack(), p.box.inf(), p.box.sup())


def precondition_relax(p: ParametricSymMatrix) -> tuple[np.ndarray, IntervalMatrix]:
    """Midpoint-preconditioned relaxation.

    Returns the preconditioner C = A(mid)^-1 and the ``scaled_sum``
    sum_k (C A_k) p_k; the real products C A_k are not symmetrized.
    Raises SingularMatrixError when the midpoint matrix is singular to
    working precision, and OverflowError, without a warning, when the
    products or their enclosure overflow.
    """
    c = invert(evaluate(p, p.box.mid(), check=False))
    with np.errstate(over="ignore", invalid="ignore"):
        return c, scaled_sum(c @ p.coefficient_stack(), p.box.inf(), p.box.sup())


@dataclass(frozen=True)
class VertexAssignment:
    """One endpoint assignment of the parameter box."""

    values: tuple[float, ...]


class VertexEnumeration(Sequence):
    """Reduced vertex set of a parametric family, in Gray-code order.

    Each coordinate is either pinned at one endpoint or free over both;
    Gray-code ordering flips one free coordinate between consecutive
    vertices.  ``shortfall`` bounds what the pinning misses: every member's
    smallest eigenvalue is at least the smallest over these vertices minus
    it.  ``exact()`` frees the coordinates that contribute to it.
    """

    def __init__(self, base: np.ndarray, free: np.ndarray, lows: np.ndarray, highs: np.ndarray, shortfalls: np.ndarray):
        self.shortfall = float(shortfalls.sum())
        self._shortfalls = shortfalls
        self._base = base
        self._free = np.flatnonzero(free)
        self._masks = np.uint64(1) << np.arange(len(self._free), dtype=np.uint64)
        self._lows, self._highs = lows, highs
        self._ends = lows[self._free], highs[self._free]

    def exact(self) -> "VertexEnumeration":
        """This set with every pinned coordinate of nonzero shortfall freed; its shortfall is 0."""
        free = self._shortfalls > 0.0
        free[self._free] = True
        return VertexEnumeration(self._base, free, self._lows, self._highs, np.zeros_like(self._shortfalls))

    @property
    def free_count(self) -> int:
        return len(self._free)

    def __len__(self) -> int:
        """``1 << free_count``; Python's ``len()`` refuses counts past ``sys.maxsize``, from 63 free coordinates."""
        return 1 << len(self._free)

    def __getitem__(self, i: int) -> VertexAssignment:
        count = 1 << len(self._free)
        if not -count <= i < count:
            raise IndexError(i)
        i %= count
        row = self._base.copy()  # the Gray code in Python ints, so any index below 1 << free_count works
        row[self._free] = np.where([(i ^ i >> 1) >> b & 1 for b in range(len(self._free))], self._ends[1], self._ends[0])
        return VertexAssignment(tuple(row.tolist()))

    def points(self, start: int, stop: int) -> np.ndarray:
        """Vertices ``start`` to ``stop - 1`` in Gray-code order, one row each; uint64 indices, kept below 2^64 by the vertex budget."""
        i = np.arange(start, stop, dtype=np.uint64)
        rows = np.empty((len(i), len(self._base)))
        rows[:] = self._base
        rows[:, self._free] = np.where((i ^ (i >> 1))[:, None] & self._masks, self._ends[1], self._ends[0])
        return rows


def vertices(p: ParametricSymMatrix, tol: float | None = None) -> VertexEnumeration:
    """Reduced vertex set sufficient for deciding strong PSD and strong PD alike.

    Under ``tol`` (``family_tol(p)`` when omitted), a coefficient is pinned
    at its lower endpoint when its eigenvalues times ``max(1, sup_k -
    inf_k)`` pass as PSD, else at its upper endpoint when they pass as NSD;
    degenerate intervals keep their single value and the other coordinates
    are free.  Pinning misses each member by at most the coefficient's
    ``max(0, -lambda_min)`` (PSD) or ``max(0, lambda_max)`` (NSD) times
    ``sup_k - inf_k``, and ``shortfall`` sums those; a zero one adds 0 even
    on an overflowing width.  A given ``tol`` must be finite and nonnegative.
    """
    tol = family_tol(p) if tol is None else check_tol(tol)
    eigvals = p.coefficient_spectra()[0]
    lows, highs = p.box.inf(), p.box.sup()
    with np.errstate(over="ignore", invalid="ignore"):
        span = highs - lows
        width = np.maximum(1.0, span)
        psd = passes(eigvals[:, 0] * width, "psd", tol)
        nsd = ~psd & passes(-eigvals[:, -1] * width, "psd", tol)
        short = np.where(psd, -eigvals[:, 0], np.where(nsd, eigvals[:, -1], 0.0))
        short = np.where(short > 0.0, short * span, 0.0)
    return VertexEnumeration(np.where(nsd, highs, lows), ~(psd | nsd) & (lows < highs), lows, highs, short)


def problem_from_json(text: str | dict) -> ParametricSymMatrix:
    """Parse the parametric-matrix problem format.

    Expects {"n", "K", "coefficients", "parameters"}, n and K integers, entries and bounds numbers (not
    booleans, strings or nulls); coefficients must be symmetric within 1e-12 times their largest entry.
    """
    try:
        doc = json.loads(text) if isinstance(text, str) else text
    except RecursionError as exc:
        raise ValueError("problem document nests too deeply") from exc
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
    # float() takes JSON booleans and numeric strings, and np.array turns a null into NaN, so refuse them by
    # type.  A null bound keeps the "malformed parameter entry" lead that float(None) once gave it.
    def refuse_non_numbers(what: str, idx: int, values) -> None:
        kinds = set(map(type, values))
        if type(None) in kinds:
            lead = "malformed parameter entry: " if what == "parameter" else ""
            raise ValueError(f"{lead}{what} {idx} holds a null, not a number")
        if not kinds.isdisjoint((bool, str)):
            raise ValueError(f"{what} {idx} holds a boolean or a string, not a number")

    try:  # one conversion, and one C-level pass over the types of all entries and bounds
        pairs = [(iv["inf"], iv["sup"]) for iv in raw_params]
        stack = np.array(raw_coeffs, dtype=float)
        if stack.shape != (k, n, n) or not {float, int}.issuperset(map(type, chain(*chain.from_iterable(raw_coeffs), *pairs))):
            raise TypeError("not a stack of numbers")
        box = ParameterBox.from_bounds(pairs)
    except (KeyError, TypeError, OverflowError, ValueError):  # walk to name the first coefficient, else parameter, at fault
        for idx, raw in enumerate(raw_coeffs):
            try:
                shape = np.asarray(raw, dtype=float).shape
            except (OverflowError, TypeError, ValueError) as exc:
                raise ValueError(f"coefficient {idx} is not a matrix of doubles: {exc}") from exc
            if shape != (n, n):
                raise ValueError(f"coefficient {idx} has shape {shape}, expected ({n}, {n})")
        for idx, values in enumerate(map(chain.from_iterable, raw_coeffs)):
            refuse_non_numbers("coefficient", idx, values)
        for idx, iv in enumerate(raw_params):  # each parameter is read, typed, converted and checked before the next
            try:
                bounds = (iv["inf"], iv["sup"])
                refuse_non_numbers("parameter", idx, bounds)
                lo, hi = float(bounds[0]), float(bounds[1])
            except (KeyError, TypeError, OverflowError) as exc:
                raise ValueError(f"malformed parameter entry: parameter {idx}: {exc!r}") from exc
            try:
                _check_bounds(lo, hi)
            except ValueError as exc:
                raise ValueError(f"{exc} in parameter {idx}") from exc
        box = ParameterBox.from_bounds(pairs)  # nothing named: numbers of other types pass, and K = 0 fails here
    stack, skew = symmetrize(stack)  # the skew is checked before the family's eigh
    bad = np.flatnonzero(skew > SYMMETRY_TOL_FACTOR * np.maximum(np.abs(stack).max(axis=(1, 2), initial=0.0), 1e-300))
    if len(bad):
        raise ValueError(f"coefficient {bad[0]} is asymmetric by {skew[bad[0]]:g}")
    p = ParametricSymMatrix.__new__(ParametricSymMatrix)
    p._hold(stack, skew, box)
    return p

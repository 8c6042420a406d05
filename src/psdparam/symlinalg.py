"""Dense symmetric eigensolvers and the numeric kernels built on them.

LAPACK (numpy.linalg) does the smallest eigenvalue, the spectral
decomposition, the shifted Cholesky screen, the splitting of a symmetric
matrix into a difference of two positive semidefinite parts, inversion,
the determinant, the batched solves over stacks of matrices and the
eigenvectors behind a closed-form Perron root bracket.  An eigenvalue-only
cyclic Jacobi kernel, ``_jacobi_eigvals``, is kept for one caller,
``definiteness.hertz_min_eig``, until ROADMAP item 2 swaps in LAPACK.  Also
the one symmetrization rule (``symmetrize``, on stacks) and the tolerances
with the one rule every decision compares against (``passes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PERRON_TOL = 1e-9  # the Perron bracket's target width


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to converge within its cap."""


class SingularMatrixError(ArithmeticError):
    """Matrix is singular to working precision."""


def symmetrize(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only symmetrized copy of a (K, n, n) stack and each matrix's largest |A - A^T| entry.

    Entries that differ from their transpose become 0.5 * a_ij + 0.5 * a_ji,
    which cannot overflow; others are kept.  ValueError for a non-square or
    non-finite matrix.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a square matrix, got shape {stack.shape[1:]}")
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")
    lower, upper = 0.5 * stack, 0.5 * stack.swapaxes(1, 2)
    skew = 2.0 * np.abs(lower - upper).max(axis=(1, 2), initial=0.0)
    sym = np.where(stack == stack.swapaxes(1, 2), stack, lower + upper)
    sym.setflags(write=False)
    return sym, skew


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric matrix; the constructor symmetrizes its input by ``symmetrize``.

    ``asymmetry`` records the largest |A - A^T| entry seen before
    symmetrization so callers can enforce their own skew budget.
    """

    array: np.ndarray
    asymmetry: float = 0.0

    def __init__(self, array):
        stack, skew = symmetrize(np.array(array, dtype=float)[None])
        object.__setattr__(self, "array", stack[0])
        object.__setattr__(self, "asymmetry", float(skew[0]))

    @classmethod
    def view(cls, a: np.ndarray) -> "SymMatrix":
        """Wrap an array ``symmetrize`` already returned, without copying or checking it again."""
        m = object.__new__(cls)
        object.__setattr__(m, "array", a)
        return m

    @property
    def n(self) -> int:
        return self.array.shape[0]

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.array).max()) if self.array.size else 0.0

    @property
    def norm_bound(self) -> float:
        # Cheap upper bound on the spectral norm: n * max|entry|.
        return self.n * self.max_abs

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"


@dataclass(frozen=True)
class PsdSplit:
    """Difference decomposition A = plus - minus with both parts PSD."""

    plus: SymMatrix
    minus: SymMatrix


def check_tol(tol: float) -> float:
    """``tol`` as a float; ValueError unless it is finite and nonnegative.

    A NaN, infinite or negative tolerance would let every comparison
    against it prove false claims.
    """
    value = float(tol)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")
    return value


def scaled_tol(bound: float) -> float:
    """The default tolerance 1e-10 * (1 + bound) for a norm bound; ValueError when it overflows."""
    return check_tol(1e-10 * (1.0 + bound))


def passes(values, kind: str, tol: float):
    """The one tolerance rule, on scalars or arrays: PD is ``values > tol``, PSD ``values >= -tol``; NaN fails."""
    return values > tol if kind == "pd" else values >= -tol


def _jacobi_eigvals(a: SymMatrix, max_sweeps: int = 30) -> np.ndarray:
    """Eigenvalues, ascending, by cyclic Jacobi rotations without eigenvectors.

    Scaling by a power of two into [0.5, 1) is exact and keeps the sum of
    squares in the convergence test from overflowing or vanishing; sweeps
    stop once the off-diagonal norm is at most 1e-13 times the matrix's,
    which also bounds |tau| below 2e13 n^2.  The iterate stays exactly
    symmetric, so each rotation writes its two new columns as rows too.
    """
    n = a.n
    if n <= 1:
        return np.diagonal(a.array).copy()
    e = int(np.frexp(a.max_abs)[1])
    w = np.ldexp(a.array, -e)
    stop = 1e-13 * float(np.sqrt((w * w).sum()))
    skip = stop / (2.0 * n * n)

    for _ in range(max_sweeps):
        off = float(np.sqrt(2.0 * (np.tril(w, -1) ** 2).sum()))
        if off <= stop:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                apr = w.item(p, r)
                if abs(apr) <= skip:
                    continue
                tau = (w.item(r, r) - w.item(p, p)) / (2.0 * apr)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + float(np.hypot(1.0, tau)))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                cp = w[:, p]
                cr = w[:, r]
                new_p = c * cp - s * cr
                new_r = s * cp + c * cr
                wpp = c * new_p.item(p) - s * new_p.item(r)
                wrr = s * new_r.item(p) + c * new_r.item(r)
                w[:, p] = w[p, :] = new_p
                w[:, r] = w[r, :] = new_r
                w[p, p], w[r, r] = wpp, wrr
                w[p, r] = w[r, p] = 0.0
    else:
        raise ConvergenceError(f"Jacobi sweeps exhausted ({max_sweeps}) without convergence")

    return np.sort(np.ldexp(np.diagonal(w), e))


def min_eig(a: SymMatrix) -> float:
    """Smallest eigenvalue, by LAPACK through ``min_eigs``."""
    return float(min_eigs(a.array[None])[0])


def eig_sym(a: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ascending and column eigenvectors, A = Q diag(w) Q^T, by ``eig_stack``."""
    return eig_stack(a.array)


def eig_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a matrix or of each in a (m, n, n) stack.

    One batched LAPACK call that reads the lower triangles; a LAPACK
    failure is raised as ConvergenceError.
    """
    try:
        return np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigh failed: {exc}") from exc


def min_eigs(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a (m, n, n) stack, by one batched LAPACK call."""
    try:
        return np.linalg.eigvalsh(stack)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigvalsh failed: {exc}") from exc


def shifted_cholesky_pivots(stack: np.ndarray, shift: float) -> np.ndarray | None:
    """Smallest Cholesky pivot of each A - shift I in a (m, n, n) stack, by one batched LAPACK call.

    None when any factorization fails: numpy's batched Cholesky raises for
    the whole stack.  The factorization reads the lower triangles.
    """
    try:
        factors = np.linalg.cholesky(stack - shift * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        return None
    return np.diagonal(factors, axis1=1, axis2=2).min(axis=1)


def psd_parts(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PSD parts (plus, minus) of A = Q diag(w) Q^T with A = plus - minus.

    Nonnegative eigenvalues (zeros included) go to ``plus``; magnitudes of
    negative ones go to ``minus``.  Stacks of spectra, (..., n) and
    (..., n, n), give stacks of parts.
    """
    return tuple((q * np.maximum(sign * w, 0.0)[..., None, :]) @ q.swapaxes(-1, -2) for sign in (1.0, -1.0))


def psd_split(a: SymMatrix) -> PsdSplit:
    """Split A = plus - minus with PSD parts, ``psd_parts`` of the spectral decomposition."""
    plus, minus = psd_parts(*eig_sym(a))
    return PsdSplit(SymMatrix(plus), SymMatrix(minus))


def invert(a: SymMatrix, spectrum: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Inverse Q diag(1/w) Q^T from the LAPACK spectral decomposition, or from ``spectrum`` = (w, Q) of A.

    Raises SingularMatrixError when the smallest eigenvalue magnitude is
    below 1e-12 * ||A||: midpoint preconditioning is then unavailable.
    """
    vals, q = eig_sym(a) if spectrum is None else spectrum
    floor = 1e-12 * max(a.norm_bound, np.finfo(float).tiny)
    smallest = float(np.abs(vals).min(initial=np.inf))
    if smallest < floor:
        raise SingularMatrixError(f"smallest eigenvalue magnitude {smallest:g} below {floor:g}")
    return (q / vals) @ q.T


def determinant(a: SymMatrix) -> float:
    """Determinant by LAPACK's LU factorization."""
    return float(np.linalg.det(a.array))


@dataclass(frozen=True)
class PerronBracket:
    """Collatz-Wielandt bracket ``lower <= rho <= upper`` around the Perron root of a nonnegative matrix.

    ``upper`` is always a valid upper bound on the spectral radius, so it
    may be used to conclude rho < 1 even when ``converged`` is false, which
    means the bracket is not narrower than ``PERRON_TOL``.  ``iterations``
    counts the Perron vectors whose ratios tightened it, 0 to 2.
    """

    upper: float
    lower: float
    converged: bool
    iterations: int


def spectral_radius_nonneg(r) -> PerronBracket:
    """Perron root of a nonnegative matrix R, bracketed in closed form at LAPACK's Perron vectors.

    For any positive x, min_i (R x)_i / x_i <= rho <= max_i (R x)_i / x_i (Collatz-Wielandt; Horn &
    Johnson, *Matrix Analysis*, ch. 8).  The bracket starts at max(max diagonal, min row sum) <= rho
    <= max row sum and each end is tightened by the ratios at x = |v|, for ``eig``'s eigenvector v of
    the eigenvalue with the largest real part, floored at 1e-9 of its largest entry.  Only when that
    leaves it not narrower than ``PERRON_TOL`` is this repeated at the same vector of the positive matrix
    R + 1e-8 * (max row sum) / n, whose vector stays away from zero when R is (nearly) reducible.
    An ``eig`` that fails or is not finite leaves the bracket as it stands.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("matrix entries must be finite")
    if (r < 0).any():
        raise ValueError("matrix entries must be nonnegative")

    n = r.shape[0]
    if not n:
        return PerronBracket(0.0, 0.0, True, 0)
    row_sums = r.sum(axis=1)
    max_row_sum = float(row_sums.max())
    lower, upper, used = max(float(r.diagonal().max()), float(row_sums.min())), max_row_sum, 0
    for spread in (0.0, 1e-8 * max_row_sum / n):
        try:
            w, v = np.linalg.eig(r + spread)
        except np.linalg.LinAlgError:
            break
        x = np.abs(v[:, np.argmax(w.real)])
        if not (np.isfinite(x).all() and x.max() > 0.0):
            break
        x = np.maximum(x, 1e-9 * x.max())
        ratios = (r @ x) / x
        lower, upper, used = max(lower, float(ratios.min())), min(upper, float(ratios.max())), used + 1
        if upper - lower < PERRON_TOL:
            break
    return PerronBracket(upper, min(lower, upper), upper - lower < PERRON_TOL, used)

"""Dense symmetric eigensolvers and the numeric kernels built on them.

LAPACK (numpy.linalg) does the smallest eigenvalue, the spectral
decomposition, the splitting of a symmetric matrix into a difference of
two positive semidefinite parts, inversion, the determinant and the
batched solves over stacks of matrices.  An eigenvalue-only cyclic
Jacobi kernel, ``_jacobi_eigvals``, is kept for one caller, the
convexity diagnostic ``definiteness.hertz_min_eig`` (its docstring says
why).  Also a bracketed Perron root, and the tolerances with the one
rule every definiteness decision compares against (``passes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to converge within its cap."""


class SingularMatrixError(ArithmeticError):
    """Matrix is singular to working precision."""


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric matrix; the constructor symmetrizes its input.

    Entries that differ from their transpose are replaced by the average
    0.5 * a_ij + 0.5 * a_ji, which cannot overflow; symmetric entries are
    kept bit for bit.  ``asymmetry`` records the largest |A - A^T| entry
    seen before symmetrization so callers can enforce their own skew
    budget.
    """

    array: np.ndarray
    asymmetry: float = 0.0

    def __init__(self, array):
        a = np.array(array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        lower, upper = 0.5 * a, 0.5 * a.T
        skew = 2.0 * float(np.abs(lower - upper).max()) if a.size else 0.0
        a = np.where(a == a.T, a, lower + upper)
        a.setflags(write=False)
        object.__setattr__(self, "array", a)
        object.__setattr__(self, "asymmetry", skew)

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


def default_tol(a: SymMatrix) -> float:
    """Definiteness tolerance ``scaled_tol(||A||)`` with the cheap norm bound."""
    return scaled_tol(a.norm_bound)


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


def psd_split(a: SymMatrix) -> PsdSplit:
    """Split A = plus - minus with PSD parts via the spectral decomposition.

    Nonnegative eigenvalues (zeros included) go to ``plus``; magnitudes of
    negative ones go to ``minus``.
    """
    vals, q = eig_sym(a)
    plus = (q * np.maximum(vals, 0.0)) @ q.T
    minus = (q * np.maximum(-vals, 0.0)) @ q.T
    return PsdSplit(SymMatrix(plus), SymMatrix(minus))


def invert(a: SymMatrix) -> np.ndarray:
    """Inverse Q diag(1/w) Q^T from the LAPACK spectral decomposition.

    Raises SingularMatrixError when the smallest eigenvalue magnitude is
    below 1e-12 * ||A||: midpoint preconditioning is then unavailable.
    """
    vals, q = eig_sym(a)
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
    """Collatz-Wielandt bracket around the Perron root of a nonnegative matrix.

    ``upper`` is always a valid upper bound on the spectral radius, so it
    may be used to conclude rho < 1 even when ``converged`` is false.
    """

    upper: float
    lower: float
    converged: bool
    iterations: int


def spectral_radius_nonneg(r, tol: float = 1e-9, max_iter: int = 10_000) -> PerronBracket:
    """Perron root of a nonnegative matrix by bracketed power iteration.

    Iterates on the diagonally shifted, scaled matrix R/s + I (which keeps
    the iterate strictly positive and removes periodicity) and maps the
    Collatz-Wielandt ratio bounds back to R.  Stops once the bracket width
    falls below ``tol``; past ``max_iter`` the current bracket is returned
    flagged as unconverged.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError("matrix entries must be finite")
    if (r < 0).any():
        raise ValueError("matrix entries must be nonnegative")

    n = r.shape[0]
    max_row_sum = float(r.sum(axis=1).max()) if n else 0.0
    max_diag = float(r.diagonal().max()) if n else 0.0
    if max_row_sum == 0.0:
        return PerronBracket(0.0, 0.0, True, 0)

    s = r / max_row_sum + np.eye(n)
    x = np.ones(n)
    lower = max_diag
    upper = max_row_sum
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        y = s @ x
        ratios = y / x
        lower = max(lower, (float(ratios.min()) - 1.0) * max_row_sum)
        upper = min(upper, (float(ratios.max()) - 1.0) * max_row_sum)
        if upper - lower < tol:
            converged = True
            break
        x = y / y.max()

    slack = 1e-12 * (1.0 + max_row_sum)
    assert upper >= max_diag - slack and upper <= max_row_sum + slack, "Perron-Frobenius bounds violated"
    return PerronBracket(upper, min(lower, upper), converged, it)

"""Dense symmetric eigensolvers and the numeric kernels built on them.

LAPACK (numpy.linalg) does the smallest eigenvalue, the spectral
decomposition, the shifted Cholesky screen, the splitting of a symmetric
matrix into a difference of two positive semidefinite parts, inversion,
the determinant, the batched solves over stacks of matrices and the
eigenvectors behind a closed-form Perron root bracket.  An eigenvalue-only
cyclic Jacobi kernel on stacks, ``_jacobi_eigvals``, is kept for one caller,
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
    which cannot overflow; others are kept; callers budget the skew.  ValueError
    for a non-square or non-finite matrix.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a square matrix, got shape {stack.shape[1:]}")
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")
    half = 0.5 * stack
    skew = 2.0 * np.abs(half - half.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    sym = np.where(stack == stack.swapaxes(1, 2), stack, half + half.swapaxes(1, 2))
    sym.setflags(write=False)
    return sym, skew


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric matrix; the constructor symmetrizes its input by ``symmetrize``, dropping its skew."""

    array: np.ndarray

    def __init__(self, array):
        object.__setattr__(self, "array", symmetrize(np.array(array, dtype=float)[None])[0][0])

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


def _jacobi_eigvals(stack: np.ndarray, max_sweeps: int = 30) -> np.ndarray:
    """Eigenvalues, ascending, of each matrix of a symmetric (v, n, n) stack, by cyclic Jacobi rotations.

    Each matrix is scaled by its own power of two into [0.5, 1), exact and safe from overflow and underflow,
    and its sweeps stop once its off-diagonal norm is at most 1e-13 times its own, which also bounds |tau|
    below 2e13 n^2.  All matrices rotate at once, each masked out of any rotation its own skip test skips
    and out of every sweep after its own convergence test passes, so each gets the eigenvalues it would get
    alone, bit for bit.  The iterates stay exactly symmetric, so each rotation writes its two new rows as
    columns too.  The working arrays are allocated once and updated in place; the divisions of masked-out
    matrices are discarded.
    """
    v, n = stack.shape[:2]
    if n <= 1:
        return stack.reshape(v, n).copy()
    e = np.frexp(np.abs(stack).max(axis=(1, 2)))[1][:, None]
    w = np.ldexp(stack, -e[:, :, None])
    low = w * w
    stop = 1e-13 * np.sqrt(low.reshape(v, -1).sum(axis=1))
    skip = stop / (2.0 * n * n)
    act, neg = np.empty((2, v), bool)
    tau, t, c, s, x = np.empty((5, v))
    new_p, new_r, prod = np.empty((3, v, n))
    with np.errstate(all="ignore"):
        for _ in range(max_sweeps):
            np.multiply(w, np.tri(n, k=-1), out=low)  # -0.0 or 0.0 on and above the diagonal: squared, np.tril(w, -1) ** 2
            low *= low
            alive = np.sqrt(2.0 * low.reshape(v, -1).sum(axis=1)) > stop
            if not alive.any():
                break
            for p in range(n - 1):
                for r in range(p + 1, n):
                    np.greater(np.abs(w[:, p, r], out=x), skip, out=act)
                    act &= alive
                    if not act.any():
                        continue
                    np.subtract(w[:, r, r], w[:, p, p], out=tau)
                    tau /= np.multiply(w[:, p, r], 2.0, out=x)
                    np.less(tau, 0.0, out=neg)
                    np.hypot(1.0, tau, out=t)
                    t += np.abs(tau, out=x)
                    np.divide(1.0, t, out=t)
                    np.negative(t, out=t, where=neg)  # (-1.0) / y is -(1.0 / y) exactly
                    np.multiply(t, t, out=c)
                    c += 1.0
                    np.divide(1.0, np.sqrt(c, out=c), out=c)
                    np.multiply(t, c, out=s)
                    cc, ss = c[:, None], s[:, None]
                    np.multiply(cc, w[:, p], out=new_p)
                    new_p -= np.multiply(ss, w[:, r], out=prod)
                    np.multiply(ss, w[:, p], out=new_r)
                    new_r += np.multiply(cc, w[:, r], out=prod)
                    wpp = c * new_p[:, p] - s * new_p[:, r]
                    wrr = s * new_r[:, p] + c * new_r[:, r]
                    new_p[:, p], new_p[:, r], new_r[:, p], new_r[:, r] = wpp, 0.0, 0.0, wrr
                    for j, new in ((p, new_p), (r, new_r)):
                        np.copyto(w[:, :, j], new, where=act[:, None])
                        np.copyto(w[:, j], new, where=act[:, None])
        else:
            raise ConvergenceError(f"Jacobi sweeps exhausted ({max_sweeps}) without convergence")
        return np.sort(np.ldexp(w.diagonal(axis1=1, axis2=2), e), axis=1)  # past the largest double: -inf or inf


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
    """Smallest eigenvalue of each matrix in a (m, n, n) stack, by one batched LAPACK call; ValueError when n = 0."""
    if stack.shape[-1] == 0:
        raise ValueError(f"the empty {stack.shape[-2]}x{stack.shape[-1]} matrix has no eigenvalues")
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

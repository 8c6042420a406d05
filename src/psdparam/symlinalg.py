"""Dense symmetric eigensolvers and the numeric kernels built on them.

Scalar kernels use cyclic Jacobi: spectral decomposition,
eigenvalue-based definiteness tests with an explicit tolerance policy,
splitting of a symmetric matrix into a difference of two positive
semidefinite parts.  Stacks of matrices (the coefficient spectra of a
family, the member matrices of the vertex route and of the witness
search's probes) go through batched LAPACK instead (``eig_stack``,
``min_eigs``).  Also Gaussian-elimination inversion and a bracketed
Perron root for nonnegative matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to converge within its cap."""


class SingularMatrixError(ArithmeticError):
    """Matrix is singular to working precision."""


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric matrix; the constructor symmetrizes its input.

    ``asymmetry`` records the largest |A - A^T| entry seen before
    symmetrization so callers can enforce their own skew budget.
    """

    array: np.ndarray
    asymmetry: float = 0.0

    def __init__(self, array):
        a = np.array(array, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        skew = float(np.abs(a - a.T).max()) if a.size else 0.0
        a = 0.5 * (a + a.T)
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


def default_tol(a: SymMatrix) -> float:
    """Definiteness tolerance 1e-10 * (1 + ||A||) with the cheap norm bound."""
    return 1e-10 * (1.0 + a.norm_bound)


def eig_sym(a: SymMatrix, max_sweeps: int = 30) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition A = Q diag(w) Q^T by cyclic Jacobi rotations.

    Returns eigenvalues ascending and the orthogonal matrix of column
    eigenvectors.  Convergence is quadratic; the sweep cap only trips on
    pathological input, in which case ConvergenceError is raised.
    """
    n = a.n
    w = a.array.copy()
    q = np.eye(n)
    if n <= 1:
        return np.diagonal(w).copy(), q

    frob = float(np.sqrt((w * w).sum()))
    stop = 1e-13 * (1.0 + frob)
    skip = stop / (2.0 * n * n)

    for _ in range(max_sweeps):
        off = float(np.sqrt(2.0 * (np.tril(w, -1) ** 2).sum()))
        if off <= stop:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                apr = w[p, r]
                if abs(apr) <= skip:
                    continue
                tau = (w[r, r] - w[p, p]) / (2.0 * apr)
                if abs(tau) > 1e150:
                    t = 1.0 / (2.0 * tau)
                else:
                    t = np.sign(tau) if tau != 0 else 1.0
                    t /= abs(tau) + np.hypot(1.0, tau)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                cp = w[:, p].copy()
                cr = w[:, r].copy()
                w[:, p] = c * cp - s * cr
                w[:, r] = s * cp + c * cr
                rp = w[p, :].copy()
                rr = w[r, :].copy()
                w[p, :] = c * rp - s * rr
                w[r, :] = s * rp + c * rr
                w[p, r] = w[r, p] = 0.0
                qp = q[:, p].copy()
                qr = q[:, r].copy()
                q[:, p] = c * qp - s * qr
                q[:, r] = s * qp + c * qr
    else:
        raise ConvergenceError(f"Jacobi sweeps exhausted ({max_sweeps}) without convergence")

    vals = np.diagonal(w).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], q[:, order]


def min_eig(a: SymMatrix) -> float:
    """Smallest eigenvalue."""
    return float(eig_sym(a)[0][0])


def eig_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of each matrix in a (m, n, n) stack.

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


def is_psd(a: SymMatrix, tol: float | None = None) -> bool:
    """Positive semidefinite up to tolerance: smallest eigenvalue >= -tol."""
    if tol is None:
        tol = default_tol(a)
    return min_eig(a) >= -tol


def is_pd(a: SymMatrix, tol: float | None = None) -> bool:
    """Positive definite with margin: smallest eigenvalue > +tol."""
    if tol is None:
        tol = default_tol(a)
    return min_eig(a) > tol


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
    """Inverse by Gaussian elimination with partial pivoting.

    Raises SingularMatrixError when the smallest pivot drops below
    1e-12 * ||A||, signalling that midpoint preconditioning is unavailable.
    """
    n = a.n
    aug = np.hstack([a.array.copy(), np.eye(n)])
    floor = 1e-12 * max(a.norm_bound, np.finfo(float).tiny)
    for col in range(n):
        k = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[k, col]
        if abs(pivot) < floor:
            raise SingularMatrixError(f"pivot {pivot:g} below {floor:g} in column {col}")
        if k != col:
            aug[[col, k]] = aug[[k, col]]
        aug[col] /= pivot
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:].copy()


def determinant(a: SymMatrix) -> float:
    """Determinant as the signed pivot product of a pivoted elimination."""
    n = a.n
    w = a.array.copy()
    det = 1.0
    for col in range(n):
        k = col + int(np.argmax(np.abs(w[col:, col])))
        pivot = w[k, col]
        if pivot == 0.0:
            return 0.0
        if k != col:
            w[[col, k]] = w[[k, col]]
            det = -det
        det *= pivot
        w[col + 1 :] -= np.outer(w[col + 1 :, col] / pivot, w[col])
    return float(det)


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

    def __float__(self) -> float:
        return self.upper


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

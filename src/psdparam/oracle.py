"""Brute-force reference checks for the decision procedures.

Everything here enumerates without reductions: all 2^K endpoint
combinations, a grid or random samples, never the reduced Gray-code
vertex set.  That unreduced enumeration is what makes this an
independent, slow ground truth for the clever routes.  Its eigenvalues
come from LAPACK (numpy.linalg.eigvalsh), the same library behind
``min_eig``, ``min_eigs``, ``eig_sym``, ``eig_stack``, ``psd_split``,
``invert`` and ``determinant``, so the eigensolver itself is
cross-checked separately: tests compare LAPACK against the Jacobi kernel
that is left behind ``hertz_min_eig``.  The decision procedures never
consult this module.
"""

from __future__ import annotations

import itertools

import numpy as np

from .parametric import ParametricSymMatrix, family_tol

DEFAULT_SEED = 0x5EED
MAX_VERTEX_PARAMS = 20
MAX_SAMPLES = 1 << 22


def _member_min_eigs(p: ParametricSymMatrix, points: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of A(q) for each row q of ``points``."""
    members = np.einsum("vk,kij->vij", points, p.coefficient_stack())
    members = 0.5 * (members + members.transpose(0, 2, 1))
    return np.linalg.eigvalsh(members)[:, 0]


def _sample_points(p: ParametricSymMatrix, scheme: str, d: int, count: int, seed: int) -> np.ndarray:
    lows = p.box.inf()
    highs = p.box.sup()
    if scheme == "vertices":
        if p.K > MAX_VERTEX_PARAMS:
            raise ValueError(f"vertex enumeration budget exceeded: K={p.K} > {MAX_VERTEX_PARAMS}")
        combos = itertools.product(*[(iv.inf, iv.sup) for iv in p.box.intervals])
        return np.array(sorted(set(combos)))
    if scheme == "grid":
        if d < 2:
            raise ValueError("grid scheme needs d >= 2 points per axis")
        axes = [
            np.array([iv.inf]) if iv.is_degenerate else np.linspace(iv.inf, iv.sup, d)
            for iv in p.box.intervals
        ]
        total = int(np.prod([len(ax) for ax in axes]))
        if total > MAX_SAMPLES:
            raise ValueError(f"grid of {total} points exceeds budget {MAX_SAMPLES}")
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)
    if scheme == "random":
        if count < 1:
            raise ValueError("random scheme needs count >= 1")
        if count > MAX_SAMPLES:
            raise ValueError(f"{count} samples exceed budget {MAX_SAMPLES}")
        rng = np.random.default_rng(seed)
        return rng.uniform(lows, highs, size=(count, p.K))
    raise ValueError(f"scheme must be 'grid', 'random', or 'vertices', got {scheme!r}")


def sample_min_eig(
    p: ParametricSymMatrix,
    scheme: str = "grid",
    d: int = 3,
    count: int = 1000,
    seed: int = DEFAULT_SEED,
) -> tuple[float, np.ndarray]:
    """Minimum of min_eig(A(q)) over a sample of the box; returns (value, argmin).

    Schemes: "grid" with d points per axis, "random" with ``count`` draws
    (seeded for reproducibility), or "vertices" for all 2^K endpoint
    combinations without reductions.
    """
    points = _sample_points(p, scheme, d, count, seed)
    mins = _member_min_eigs(p, points)
    best = int(np.argmin(mins))
    return float(mins[best]), points[best]


def full_vertex_check(p: ParametricSymMatrix, goal: str = "psd", tol: float | None = None) -> bool:
    """Ground-truth strong definiteness: conjunction over all 2^K vertices."""
    if goal not in ("psd", "pd"):
        raise ValueError(f"goal must be 'psd' or 'pd', got {goal!r}")
    if p.K > MAX_VERTEX_PARAMS:
        raise ValueError(f"vertex enumeration budget exceeded: K={p.K} > {MAX_VERTEX_PARAMS}")
    if tol is None:
        tol = family_tol(p)
    combos = np.array(list(itertools.product(*[(iv.inf, iv.sup) for iv in p.box.intervals])))
    mins = _member_min_eigs(p, combos)
    # Its own copy of the tolerance rule, not ``passes``, so the reference shares no code with the stages.
    if goal == "pd":
        return bool((mins > tol).all())
    return bool((mins >= -tol).all())

"""The package's public surface."""

from __future__ import annotations

import inspect

import psdparam

# Every public name of the package, sorted.  Adding or removing one is a
# reviewed edit of this tuple.
PUBLIC_NAMES = (
    "AsymmetricMatrixError",
    "BeeckWitness",
    "ConvergenceError",
    "ConvexityResult",
    "CounterexampleVertex",
    "CubicPolynomial",
    "FamilyOverflowError",
    "Interval",
    "IntervalMatrix",
    "NecessaryFailure",
    "ParameterBox",
    "ParametricSymMatrix",
    "PerronBracket",
    "PsdSplit",
    "SingularMatrixError",
    "SplitWitness",
    "Status",
    "SymMatrix",
    "Verdict",
    "VertexAssignment",
    "VertexList",
    "WitnessPoint",
    "certify_convexity",
    "contains",
    "decide",
    "determinant",
    "eig_stack",
    "eig_sym",
    "evaluate",
    "family_tol",
    "hertz_min_eig",
    "hessian",
    "hessian_coefficients",
    "invert",
    "min_eig",
    "min_eigs",
    "parse",
    "passes",
    "poly_value",
    "precondition_relax",
    "problem_from_json",
    "psd_split",
    "relax",
    "spectral_radius_nonneg",
    "strong_pd",
    "strong_pd_regularity",
    "strong_pd_split",
    "strong_psd",
    "strong_psd_interval",
    "strong_psd_split",
    "vertices",
    "weak_pd_necessary",
)


def test_public_names_are_pinned():
    # Submodules (psdparam.cubic, ...) are attributes once imported, but not names the package exports.
    names = tuple(sorted(n for n in dir(psdparam) if not n.startswith("_") and not inspect.ismodule(getattr(psdparam, n))))
    assert names == PUBLIC_NAMES

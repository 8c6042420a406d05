"""Cubic polynomials and their exactly-linear parametric Hessians.

A cubic in variables x1..xn is a sum of terms c * xi * xj * xk where the
index 0 stands for the constant factor 1.  Second derivatives of such
terms are affine in x, so the Hessian over a box is itself a linear
parametric matrix family with the variables acting as the parameters --
no linearization involved.  That family feeds the definiteness machinery
to certify convexity or nonconvexity on the box.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .definiteness import (
    DEFAULT_VERTEX_BUDGET,
    Verdict,
    decide,
    hertz_min_eig,
    interval_tol,
    passes,
)
from .parametric import FamilyOverflowError, ParameterBox, ParametricSymMatrix, relax

# Single-letter variable aliases accepted by the parser.
ALIASES = {"x": 1, "y": 2, "z": 3}


class PolynomialSyntaxError(ValueError):
    """Syntax error with the character position where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeError(ValueError):
    """Total degree or an exponent exceeds the cubic limit."""


@dataclass(frozen=True)
class CubicPolynomial:
    """Normalized cubic: merged terms keyed by sorted index triples.

    Each term is (coefficient, (i, j, k)) with 0 <= i <= j <= k <= n and
    index 0 meaning the constant factor.  No two terms share a triple,
    zero coefficients are dropped, and a merged coefficient that is not a
    finite double is a ValueError.
    """

    n: int
    terms: tuple[tuple[float, tuple[int, int, int]], ...]

    @classmethod
    def from_terms(cls, n: int, raw_terms) -> "CubicPolynomial":
        merged: dict[tuple[int, int, int], float] = {}
        for coeff, indices in raw_terms:
            key = tuple(sorted(indices))
            if len(key) != 3 or any(i < 0 or i > n for i in key):
                raise ValueError(f"bad index triple {key} for n={n}")
            try:
                c = float(coeff)
            except OverflowError as exc:  # an int or Fraction past the largest double
                raise ValueError(f"coefficient of {key} is not a finite double: {exc}") from None
            merged[key] = merged.get(key, 0.0) + c
        for key, c in merged.items():
            if not math.isfinite(c):
                raise ValueError(f"coefficient of {key} is not a finite double: {c!r}")
        kept = tuple(
            (c, key) for key, c in sorted(merged.items()) if c != 0.0
        )
        return cls(n, kept)


def poly_value(f: CubicPolynomial, x) -> float:
    """Evaluate f at a point (index 0 contributes the factor 1)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.n,):
        raise ValueError(f"expected {f.n} coordinates, got shape {x.shape}")
    ext = np.concatenate(([1.0], x))
    return float(sum(c * ext[i] * ext[j] * ext[k] for c, (i, j, k) in f.terms))


_BLANKS = " \t\n\r\f\v"  # between tokens; other whitespace is an unexpected character
_TOKEN_RE = re.compile(
    rf"""[{_BLANKS}]*(?:
        (?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
      | (?P<var>x[0-9]+|[A-Za-z])
      | (?P<op>[-+*^])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then ("end", "", len(text)); past the last token only blanks may follow."""
    tokens, pos = [], 0
    while m := _TOKEN_RE.match(text, pos):
        tokens.append((m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)))
        pos = m.end()
    if tail := text[pos:].lstrip(_BLANKS):
        raise PolynomialSyntaxError(f"unexpected character {tail[0]!r}", pos)
    return [*tokens, ("end", "", len(text))]


def variable_index(name: str) -> int:
    """The index of variable ``name``, ``x<ASCII digits>`` or an alias; ValueError for any other name or ``x0``."""
    if re.fullmatch(r"x[0-9]+", name):
        idx = int(name[1:])
        if idx < 1:
            raise ValueError(f"variable index must be >= 1, got {name!r}")
        return idx
    if name in ALIASES:
        return ALIASES[name]
    raise ValueError(f"unknown variable name {name!r} (use x1, x2, ... or the aliases x, y, z)")


def parse(text: str) -> CubicPolynomial:
    """Parse a cubic polynomial.

    Grammar: terms joined by '+'/'-', the first with an optional sign; a term
    is an optional decimal or scientific coefficient, then factors, each with
    an optional exponent '^1'..'^3' and an optional '*' before it; a '*' must
    be followed by a factor.  Blanks are free: ASCII space,
    tab, newline, carriage return, form feed and vertical tab; any other
    character, Unicode whitespace included, is unexpected.  Raises
    PolynomialSyntaxError with a position, or DegreeError past degree 3.
    """
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise PolynomialSyntaxError("empty input", tokens[0][2])
    raw_terms: list[tuple[float, list[int]]] = []
    t = 0
    while True:  # one term: an optional sign, a coefficient or a variable, then factors
        kind, value, pos = tokens[t]
        coeff = -1.0 if value == "-" else 1.0
        if value in ("+", "-"):
            t += 1
            kind, value, pos = tokens[t]
        if kind == "num":
            coeff *= float(value)
            t += 1
        elif kind != "var":
            raise PolynomialSyntaxError("expected a coefficient or variable", pos)
        factors: list[int] = []
        while True:
            if tokens[t][1] == "*":
                if tokens[t + 1][0] != "var":
                    raise PolynomialSyntaxError("expected a variable after '*'", tokens[t][2])
                t += 1
            kind, value, pos = tokens[t]
            if kind != "var":
                break
            try:
                idx = variable_index(value)
            except ValueError as exc:
                raise PolynomialSyntaxError(str(exc), pos) from None
            exponent, t = 1, t + 1
            if tokens[t][1] == "^":
                ek, ev, ep = tokens[t + 1]
                if ek != "num" or not ev.isdigit():
                    raise PolynomialSyntaxError("expected an integer exponent after '^'", ep)
                exponent, t = int(ev), t + 2
                if not 1 <= exponent <= 3:
                    raise DegreeError(f"exponent {exponent} outside 1..3")
            factors.extend([idx] * exponent)
            if len(factors) > 3:
                raise DegreeError(f"term degree {len(factors)} exceeds 3")
        raw_terms.append((coeff, factors))
        if kind == "end":
            break
        if value not in ("+", "-"):
            raise PolynomialSyntaxError(f"expected '+', '-', or end of input, got {value!r}", pos)

    n = max((i for _, factors in raw_terms for i in factors), default=0)
    padded = [(c, tuple(sorted(factors + [0] * (3 - len(factors))))) for c, factors in raw_terms]
    return CubicPolynomial.from_terms(n, padded)


def hessian_coefficients(f: CubicPolynomial) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-variable and constant coefficient matrices of the Hessian.

    The Hessian is sum_v mats[v-1] * x_v + const; all matrices come out
    exactly symmetric by construction.
    """
    n = f.n
    mats = [np.zeros((n, n)) for _ in range(n)]
    const = np.zeros((n, n))
    # A sum past the largest double becomes inf here, and the family built
    # from these matrices rejects it as a non-finite entry.
    with np.errstate(over="ignore"):
        for c, key in f.terms:
            for s, t, r in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                i, j, rem = key[s], key[t], key[r]
                if i == 0 or j == 0:
                    continue
                target = const if rem == 0 else mats[rem - 1]
                target[i - 1, j - 1] += c
    return mats, const


def hessian(f: CubicPolynomial, box: ParameterBox) -> ParametricSymMatrix:
    """Hessian of f over the box as a linear parametric family.

    The family's parameters are (x1, ..., xn, 1): one coefficient matrix per
    variable, on that variable's interval, then the constant matrix on the
    degenerate parameter [1, 1].  Every matrix is kept, zero or not, so a
    point of the family is always a point of the box with a trailing 1.
    """
    if f.n < 1:
        raise ValueError("polynomial has no variables")
    if box.K != f.n:
        raise ValueError(f"box has {box.K} intervals but the polynomial has {f.n} variables")
    mats, const = hessian_coefficients(f)
    bounds = [*zip(box.inf(), box.sup()), (1.0, 1.0)]
    try:
        return ParametricSymMatrix([*mats, const], ParameterBox.from_bounds(bounds))
    except ValueError as exc:  # f's coefficients are finite: its Hessian overflowed
        raise FamilyOverflowError(f"cannot form the Hessian: {exc}") from exc


@dataclass(frozen=True)
class ConvexityResult:
    """Convexity verdict plus the relaxation-based diagnostics.

    ``relaxation_strongly_psd`` and ``relaxation_min_eig`` describe what
    the dependency-free interval Hessian alone can certify; the verdict
    uses the parametric family, which is never weaker.  Both come from
    one ``hertz_min_eig`` pass; the interval Hessian counts as strongly
    PSD when that minimum ``passes`` as PSD (``interval_tol`` by default).
    Both are None when the pass's 2^(n-1) sign matrices exceed the
    vertex budget or ``DEFAULT_VERTEX_BUDGET``, ``hertz_min_eig``'s cap.
    """

    verdict: Verdict
    relaxation_strongly_psd: bool | None
    relaxation_min_eig: float | None


def certify_convexity(
    f: CubicPolynomial,
    box: ParameterBox,
    tol: float | None = None,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
) -> ConvexityResult:
    """Certify convexity of f on the box via its parametric Hessian.

    Proved means the Hessian is positive semidefinite everywhere on the
    box; Disproved exhibits a point where it is not.  The verdict is
    ``decide``'s on goal strong_psd over ``hessian(f, box)``, with its
    stage times, so a certificate's point (a counterexample's ``p``, a
    vertex list's ``worst_vertex``) is (x1, ..., xn, 1) with x in the box.
    ``vertex_budget`` bounds the diagnostics as well as the vertex stage.
    """
    family = hessian(f, box)
    verdict = decide(family, "strong_psd", tol=tol, vertex_budget=vertex_budget)
    if 1 << (f.n - 1) > min(vertex_budget, DEFAULT_VERTEX_BUDGET):
        return ConvexityResult(verdict, None, None)
    relaxed = relax(family)
    h = hertz_min_eig(relaxed)
    return ConvexityResult(verdict, passes(h, "psd", interval_tol(relaxed) if tol is None else tol), h)

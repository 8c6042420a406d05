"""Cubic polynomials and their exactly-linear parametric Hessians.

A cubic in variables x1..xn is a sum of terms c * xi * xj * xk where the
index 0 stands for the constant factor 1.  Second derivatives of such
terms are affine in x, so the Hessian over a box is itself a linear
parametric matrix family with the variables acting as the parameters --
no linearization involved.  That family feeds the definiteness machinery
to certify convexity or nonconvexity on the box.
"""

from __future__ import annotations

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
from .intervals import Interval
from .parametric import ParameterBox, ParametricSymMatrix, relax

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
    index 0 meaning the constant factor.  No two terms share a triple and
    zero coefficients are dropped.
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
            merged[key] = merged.get(key, 0.0) + float(coeff)
        kept = tuple(
            (c, key) for key, c in sorted(merged.items()) if c != 0.0
        )
        return cls(n, kept)

    def __str__(self) -> str:
        return format_poly(self)


def poly_value(f: CubicPolynomial, x) -> float:
    """Evaluate f at a point (index 0 contributes the factor 1)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.n,):
        raise ValueError(f"expected {f.n} coordinates, got shape {x.shape}")
    ext = np.concatenate(([1.0], x))
    return float(sum(c * ext[i] * ext[j] * ext[k] for c, (i, j, k) in f.terms))


def format_poly(f: CubicPolynomial) -> str:
    """Render in the grammar the parser accepts; parse(format(f)) == f."""
    if not f.terms:
        return "0"
    pieces = []
    for c, key in f.terms:
        factors = [i for i in key if i != 0]
        mag = abs(c)
        body = []
        if mag != 1.0 or not factors:
            body.append(repr(mag))
        i = 0
        while i < len(factors):
            j = i
            while j < len(factors) and factors[j] == factors[i]:
                j += 1
            e = j - i
            body.append(f"x{factors[i]}" + (f"^{e}" if e > 1 else ""))
            i = j
        term = " ".join(body)
        if not pieces:
            pieces.append(term if c > 0 else f"-{term}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + term)
    return " ".join(pieces)


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<var>x\d+|[A-Za-z])
      | (?P<op>[-+*^])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].lstrip()
            if not tail:
                break
            raise PolynomialSyntaxError(f"unexpected character {tail[0]!r}", pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _variable_index(name: str, pos: int) -> int:
    if name.startswith("x") and len(name) > 1:
        idx = int(name[1:])
        if idx < 1:
            raise PolynomialSyntaxError(f"variable index must be >= 1, got {name!r}", pos)
        return idx
    if name in ALIASES:
        return ALIASES[name]
    raise PolynomialSyntaxError(
        f"unknown variable name {name!r} (use x1, x2, ... or the aliases x, y, z)", pos
    )


def parse(text: str) -> CubicPolynomial:
    """Parse a cubic polynomial.

    Grammar: signed terms joined by '+'/'-'; a term is an optional decimal
    coefficient times factors with optional '*' and exponents '^1'..'^3';
    whitespace and implicit multiplication are free.  Raises
    PolynomialSyntaxError with a position, or DegreeError past degree 3.
    """
    tokens = _tokenize(text)
    cursor = 0

    def peek():
        return tokens[cursor]

    def advance():
        nonlocal cursor
        tok = tokens[cursor]
        cursor += 1
        return tok

    raw_terms: list[tuple[float, list[int]]] = []
    sign = 1.0
    kind, value, pos = peek()
    if kind == "op" and value in "+-":
        advance()
        sign = -1.0 if value == "-" else 1.0
    elif kind == "end":
        raise PolynomialSyntaxError("empty input", pos)

    while True:
        coeff = sign
        factors: list[int] = []
        kind, value, pos = peek()
        if kind == "num":
            advance()
            coeff *= float(value)
            if peek()[0] == "op" and peek()[1] == "*":
                advance()
        elif kind != "var":
            raise PolynomialSyntaxError("expected a coefficient or variable", pos)

        while True:
            kind, value, pos = peek()
            if kind != "var":
                break
            advance()
            idx = _variable_index(value, pos)
            exponent = 1
            if peek()[0] == "op" and peek()[1] == "^":
                advance()
                ek, ev, ep = advance()
                if ek != "num" or not ev.isdigit():
                    raise PolynomialSyntaxError("expected an integer exponent after '^'", ep)
                exponent = int(ev)
                if not 1 <= exponent <= 3:
                    raise DegreeError(f"exponent {exponent} outside 1..3")
            factors.extend([idx] * exponent)
            if len(factors) > 3:
                raise DegreeError(f"term degree {len(factors)} exceeds 3")
            if peek()[0] == "op" and peek()[1] == "*":
                advance()

        raw_terms.append((coeff, factors))

        kind, value, pos = peek()
        if kind == "end":
            break
        if kind == "op" and value in "+-":
            advance()
            sign = -1.0 if value == "-" else 1.0
            continue
        raise PolynomialSyntaxError(f"expected '+', '-', or end of input, got {value!r}", pos)

    n = max((i for _, factors in raw_terms for i in factors), default=0)
    padded = [(c, tuple(sorted(factors + [0] * (3 - len(factors))))) for c, factors in raw_terms]
    f = CubicPolynomial.from_terms(n, padded)
    if len(f.terms) == 1 and f.terms[0][0] == 0.0:
        f = CubicPolynomial(n, ())
    return f


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

    One coefficient matrix per variable (its interval taken from the box)
    plus a constant matrix paired with the degenerate parameter [1, 1].
    All-zero matrices are dropped; a polynomial with a vanishing Hessian
    keeps the zero constant matrix so the family stays well formed.
    """
    if f.n < 1:
        raise ValueError("polynomial has no variables")
    if box.K != f.n:
        raise ValueError(f"box has {box.K} intervals but the polynomial has {f.n} variables")
    mats, const = hessian_coefficients(f)
    coeffs = []
    params = []
    for v, m in enumerate(mats):
        if np.any(m):
            coeffs.append(m)
            params.append(box.intervals[v])
    if np.any(const) or not coeffs:
        coeffs.append(const)
        params.append(Interval(1.0, 1.0))
    return ParametricSymMatrix(coeffs, ParameterBox(params))


@dataclass(frozen=True)
class ConvexityResult:
    """Convexity verdict plus the relaxation-based diagnostics.

    ``relaxation_strongly_psd`` and ``relaxation_min_eig`` describe what
    the dependency-free interval Hessian alone can certify; the verdict
    uses the parametric family, which is never weaker.  Both come from
    one ``hertz_min_eig`` pass; the interval Hessian counts as strongly
    PSD when that minimum ``passes`` as PSD (``interval_tol`` by default).
    """

    verdict: Verdict
    relaxation_strongly_psd: bool
    relaxation_min_eig: float


def certify_convexity(
    f: CubicPolynomial,
    box: ParameterBox,
    tol: float | None = None,
    vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    timings: dict | None = None,
) -> ConvexityResult:
    """Certify convexity of f on the box via its parametric Hessian.

    Proved means the Hessian is positive semidefinite everywhere on the
    box; Disproved exhibits a point where it is not.
    """
    family = hessian(f, box)
    relaxed = relax(family)
    verdict = decide(family, "strong_psd", tol=tol, vertex_budget=vertex_budget, timings=timings)
    h = hertz_min_eig(relaxed)
    return ConvexityResult(
        verdict=verdict,
        relaxation_strongly_psd=passes(h, "psd", interval_tol(relaxed) if tol is None else tol),
        relaxation_min_eig=h,
    )

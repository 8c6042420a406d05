"""Cubic parser, Hessian extraction, and the convexity certifier."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DEMO_CUBIC, DEMO_CUBIC_BOUNDS
from psdparam import (
    CounterexampleVertex,
    CubicPolynomial,
    Interval,
    ParameterBox,
    VertexList,
    certify_convexity,
    decide,
    evaluate,
    hessian,
    hessian_coefficients,
    min_eig,
    parse,
    poly_value,
)
from psdparam.cubic import DegreeError, PolynomialSyntaxError, variable_index

DEMO_MATS = [
    np.array([[6.0, 4.0, 0.0], [4.0, 0.0, -1.0], [0.0, -1.0, 0.0]]),
    np.array([[4.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 6.0]]),
    np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, 6.0], [0.0, 6.0, 0.0]]),
]
DEMO_CONST = np.array([[0.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 0.0]])


def finite_difference_hessian(f: CubicPolynomial, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    n = f.n
    out = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (poly_value(f, x + ei) - 2 * poly_value(f, x) + poly_value(f, x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            out[i, j] = out[j, i] = (
                poly_value(f, x + ei + ej)
                - poly_value(f, x + ei - ej)
                - poly_value(f, x - ei + ej)
                + poly_value(f, x - ei - ej)
            ) / (4 * h**2)
    return out


def random_cubic(rng, max_n: int = 6) -> CubicPolynomial:
    n = int(rng.integers(1, max_n + 1))
    terms = []
    for _ in range(int(rng.integers(1, 12))):
        key = tuple(sorted(int(v) for v in rng.integers(0, n + 1, 3)))
        terms.append((float(rng.uniform(-3, 3)), key))
    return CubicPolynomial.from_terms(n, terms)


class TestParse:
    def test_demo_polynomial(self):
        f = parse(DEMO_CUBIC)
        assert f.n == 3
        assert len(f.terms) == 5
        assert dict(((k, c) for c, k in f.terms)) == {
            (1, 1, 1): 1.0,
            (1, 1, 2): 2.0,
            (1, 2, 3): -1.0,
            (2, 3, 3): 3.0,
            (0, 2, 2): 5.0,
        }

    def test_zero_polynomial(self):
        assert parse("0").terms == ()

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            parse("x1^4")
        with pytest.raises(DegreeError):
            parse("x1^2 x2^2")
        with pytest.raises(DegreeError):
            parse("x1 x2 x3 x1")

    def test_letter_aliases(self):
        f = parse("x^3 + 2x^2y - x y z + 3y z^2 + 5y^2")
        assert f == parse(DEMO_CUBIC)

    def test_unknown_variable(self):
        with pytest.raises(PolynomialSyntaxError, match="unknown variable"):
            parse("3 a^2")

    @pytest.mark.parametrize("name, index", [("x1", 1), ("x12", 12), ("x", 1), ("y", 2), ("z", 3)])
    def test_variable_index(self, name, index):
        assert variable_index(name) == index

    @pytest.mark.parametrize(
        "name, message",
        [
            ("x0", "variable index must be >= 1"),
            ("xa", "unknown variable name"),
            ("x1a", "unknown variable name"),
            ("q", "unknown variable name"),
            ("x\u0663", "unknown variable name"),
        ],
    )
    def test_variable_index_refuses(self, name, message):
        # The one name rule of the parser and of the CLI's --box; "xa" is not an index, and "x\u0663" (once 3)
        # has no ASCII digits.
        with pytest.raises(ValueError, match=message):
            variable_index(name)

    def test_zero_index_error_carries_position(self):
        with pytest.raises(PolynomialSyntaxError, match="variable index must be >= 1, got 'x0'") as err:
            parse("x1 + x0^2")
        assert err.value.position == 5

    def test_syntax_error_carries_position(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse("x1 + + x2")
        assert err.value.position >= 3
        with pytest.raises(PolynomialSyntaxError):
            parse("x1 $ x2")
        with pytest.raises(PolynomialSyntaxError):
            parse("")

    def test_term_merging(self):
        f = parse("x1 x2 x1 + x1^2 x2")
        assert f.terms == ((2.0, (1, 1, 2)),)

    def test_cancellation_drops_term(self):
        assert parse("x1^2 - x1^2").terms == ()

    @pytest.mark.parametrize(
        "text, value",
        [("1e400 x1^2", "inf"), ("1e308 x1^2 + 1e308 x1^2", "inf"), ("1e400 x1^2 - 1e400 x1^2", "nan")],
        ids=["inf", "merged-overflow", "nan"],
    )
    def test_non_finite_coefficient_refused(self, text, value):
        # These once parsed, and the NaN one survived the zero filter (NaN != 0).
        with pytest.raises(ValueError, match=rf"^coefficient of \(0, 1, 1\) is not a finite double: {value}$"):
            parse(text)
        with pytest.raises(ValueError, match="not a finite double"):
            CubicPolynomial.from_terms(1, [(float(value), (1, 1, 0))])

    def test_integer_past_the_largest_double_refused(self):
        # float(10**400) raises OverflowError, which callers catching ValueError missed.
        with pytest.raises(ValueError, match=r"^coefficient of \(0, 1, 1\) is not a finite double: int too large"):
            CubicPolynomial.from_terms(1, [(10**400, (1, 1, 0))])

    def test_explicit_multiplication_and_leading_sign(self):
        f = parse("-2 * x1 * x2 + 0.5x3")
        assert dict(((k, c) for c, k in f.terms)) == {(0, 1, 2): -2.0, (0, 0, 3): 0.5}

    def test_constant_term(self):
        f = parse("7 + x1^2")
        assert (7.0, (0, 0, 0)) in f.terms

    @pytest.mark.parametrize(
        "text, error, message, position",
        [
            # The tokenizer reports the start of the blank run before the character.
            ("x1 $ x2", PolynomialSyntaxError, "unexpected character '$'", 2),
            ("", PolynomialSyntaxError, "empty input", 0),
            ("   ", PolynomialSyntaxError, "empty input", 3),
            ("x1 + + x2", PolynomialSyntaxError, "expected a coefficient or variable", 5),
            ("+", PolynomialSyntaxError, "expected a coefficient or variable", 1),
            ("x1 + x0^2", PolynomialSyntaxError, "variable index must be >= 1, got 'x0'", 5),
            ("3 a^2", PolynomialSyntaxError, "unknown variable name 'a' (use x1, x2, ... or the aliases x, y, z)", 2),
            ("x1^x", PolynomialSyntaxError, "expected an integer exponent after '^'", 3),
            ("x1^2.5", PolynomialSyntaxError, "expected an integer exponent after '^'", 3),
            ("x1 x2 3", PolynomialSyntaxError, "expected '+', '-', or end of input, got '3'", 6),
            ("2 ^ 3", PolynomialSyntaxError, "expected '+', '-', or end of input, got '^'", 2),
            ("x1^4", DegreeError, "exponent 4 outside 1..3", None),
            ("x1 x2 x3 x1", DegreeError, "term degree 4 exceeds 3", None),
        ],
        ids=[
            "unexpected-character", "empty", "blank", "double-sign", "sign-alone", "index-zero", "unknown-name",
            "name-exponent", "decimal-exponent", "missing-sign", "exponent-without-variable", "exponent-past-3",
            "degree-past-3",
        ],
    )
    def test_malformed_input_outcomes(self, text, error, message, position):
        # One row per raise in the tokenizer and the parser: type, exact message and position.
        with pytest.raises(ValueError) as err:
            parse(text)
        assert type(err.value) is error
        if position is None:
            assert str(err.value) == message
        else:
            assert str(err.value) == f"{message} (at position {position})"
            assert err.value.position == position

    def test_dangling_star_is_accepted(self):
        # Kept as it is: a '*' may follow any factor, so one with nothing after it is ignored.
        assert parse("x1 *") == parse("x1")

    @pytest.mark.parametrize(
        "text, position",
        [("\u0663 x1^\u0663", 0), ("x\u0663^2", 1)],
        ids=["arabic-indic-coefficient-and-exponent", "arabic-indic-index"],
    )
    def test_digits_are_ascii(self, text, position):
        # \d once read any Unicode decimal digit: these parsed as 3 x1^3 and x3^2.
        with pytest.raises(PolynomialSyntaxError, match="unexpected character") as err:
            parse(text)
        assert err.value.position == position

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
                st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=3),
                st.sampled_from(["", " ", "*", " * "]),
                st.booleans(),
                st.sampled_from([None, "^", "^ "]),
            ),
            min_size=1,
            max_size=10,
        ),
        st.booleans(),
    )
    def test_rendered_terms_parse_to_from_terms(self, spelled, leading_plus):
        # Each term as "+ c x1 x1 x3" or "- c ...", index 0 left out; parse infers n
        # as the largest index written, and merges in the written order, as from_terms does.
        # Spellings vary per term: implicit products ("2x1x2") or '*', the aliases x, y, z for
        # x1..x3, repeats as powers ("x1^2", "x1^ 3"), and a first term with or without its '+'.
        def render(c, key, joiner, alias, power):
            names = ["xyz"[i - 1] if alias and i <= 3 else f"x{i}" for i in key if i]
            if power:
                names = [name if k == 1 else f"{name}{power}{k}" for name, k in Counter(names).items()]
            return ("-" if c < 0 else "+") + " " + joiner.join([repr(abs(c)), *names])

        text = " ".join(render(*term) for term in spelled)
        if not leading_plus and text.startswith("+"):
            text = text[1:]
        terms = [(c, key) for c, key, *_ in spelled]
        n = max(i for _, key in terms for i in key)
        assert parse(text) == CubicPolynomial.from_terms(n, terms)


class TestHessian:
    def test_demo_coefficient_matrices(self):
        family = hessian(parse(DEMO_CUBIC), ParameterBox.from_bounds(DEMO_CUBIC_BOUNDS))
        assert family.K == 4
        for got, want in zip(family.coeffs[:3], DEMO_MATS):
            assert np.array_equal(got.array, want)
        assert np.array_equal(family.coeffs[3].array, DEMO_CONST)
        assert (family.box.inf()[3], family.box.sup()[3]) == (1.0, 1.0)

    def test_pure_quadratic_keeps_only_constant_matrix(self):
        # The constant matrix is the only nonzero one; the zero x1 matrix keeps
        # its place, so the parameters are always (x1, ..., xn, 1).
        family = hessian(parse("x1^2"), ParameterBox([Interval(0.0, 1.0)]))
        assert family.K == 2
        assert [m.array.tolist() for m in family.coeffs] == [[[0.0]], [[2.0]]]
        assert family.box.inf().tolist() == [0.0, 1.0] and family.box.sup().tolist() == [1.0, 1.0]

    def test_vanishing_hessian_stays_well_formed(self):
        family = hessian(parse("x1 + 2"), ParameterBox([Interval(0.0, 1.0)]))
        assert family.K == 2
        assert [m.array.tolist() for m in family.coeffs] == [[[0.0]], [[0.0]]]
        assert family.box.inf().tolist() == [0.0, 1.0] and family.box.sup().tolist() == [1.0, 1.0]

    def test_box_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hessian(parse("x1^2 + x2^2"), ParameterBox([Interval(0, 1)]))

    def test_no_variables_rejected(self):
        with pytest.raises(ValueError):
            hessian(parse("0"), ParameterBox([Interval(0, 1)]))

    def test_coefficient_matrices_exactly_symmetric(self, rng):
        for _ in range(50):
            f = random_cubic(rng)
            mats, const = hessian_coefficients(f)
            for m in mats + [const]:
                assert np.array_equal(m, m.T)

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            f = random_cubic(rng)
            mats, const = hessian_coefficients(f)
            x = rng.uniform(-2, 2, f.n)
            analytic = const + sum(m * v for m, v in zip(mats, x))
            fd = finite_difference_hessian(f, x)
            scale = 1.0 + np.abs(analytic).max()
            assert np.abs(analytic - fd).max() <= 1e-4 * scale

    def test_family_evaluation_matches_analytic(self, rng):
        f = parse(DEMO_CUBIC)
        family = hessian(f, ParameterBox.from_bounds(DEMO_CUBIC_BOUNDS))
        x = rng.uniform([2, 1, 0], [3, 2, 1])
        got = evaluate(family, np.append(x, 1.0)).array
        mats, const = hessian_coefficients(f)
        want = const + sum(m * v for m, v in zip(mats, x))
        assert np.allclose(got, want, atol=1e-12)


class TestCertifyConvexity:
    def test_demo_cubic_proved_by_split_despite_relaxation(self):
        res = certify_convexity(parse(DEMO_CUBIC), ParameterBox.from_bounds(DEMO_CUBIC_BOUNDS))
        assert res.verdict.proved and res.verdict.method == "split"
        assert not res.relaxation_strongly_psd
        assert res.relaxation_min_eig < 0

    def test_sum_of_squares_proved(self):
        f = parse("x1^2 + x2^2 + x3^2")
        box = ParameterBox.from_bounds([(-5, 5)] * 3)
        assert certify_convexity(f, box).verdict.proved

    def test_negative_cube_disproved(self):
        res = certify_convexity(parse("-x1^3"), ParameterBox([Interval(1.0, 2.0)]))
        assert res.verdict.disproved

    def test_nan_tolerance_rejected(self):
        # A NaN tolerance once proved the concave -x1^2 convex.
        with pytest.raises(ValueError, match="finite and nonnegative"):
            certify_convexity(parse("-x1^2"), ParameterBox([Interval(0.0, 1.0)]), tol=float("nan"))

    def test_hessian_past_the_largest_double_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            hessian(parse("1e308 x1^3"), ParameterBox([Interval(0.0, 1e308)]))

    def test_vertex_budget_bounds_the_diagnostics(self):
        # Three variables: the Hertz pass solves 2^2 sign matrices.
        f, box = parse("x1^2 + x2^2 + x3^2"), ParameterBox.from_bounds([(0, 1)] * 3)
        within = certify_convexity(f, box, vertex_budget=4)
        past = certify_convexity(f, box, vertex_budget=3)
        assert within.relaxation_strongly_psd is True and within.relaxation_min_eig == 2.0
        assert past.relaxation_strongly_psd is None and past.relaxation_min_eig is None
        assert past.verdict.proved and past.verdict.method == within.verdict.method == "split"

    def test_certificate_points_are_points_of_the_box(self):
        # A variable that occurs only in quadratic or linear terms has a zero
        # coefficient matrix; it was once dropped from the family, and a
        # disproof's p then read as a point with its coordinates shifted.
        rng = np.random.default_rng(24)
        disproofs = vertex_lists = 0
        for _ in range(200):
            n = int(rng.integers(1, 5))
            terms = []
            for _ in range(int(rng.integers(1, 7))):
                deg = int(rng.integers(1, 4))
                terms.append((float(rng.integers(-3, 4)), sorted([0] * (3 - deg) + rng.integers(1, n + 1, deg).tolist())))
            f = CubicPolynomial.from_terms(n, terms)
            lo = rng.uniform(-2, 2, n)
            box = ParameterBox.from_bounds(zip(lo, lo + rng.uniform(0, 2, n)))
            family = hessian(f, box)
            assert family.K == n + 1
            # The cascade proves these cubics by split; the vertex stage alone gives vertex lists.
            for verdict in (certify_convexity(f, box).verdict, decide(family, "strong_psd", method="vertex")):
                cert = verdict.certificate
                if verdict.disproved:
                    disproofs += 1
                    assert len(cert.p) == n + 1 and cert.p[-1] == 1.0 and box.contains(cert.p[:-1])
                    assert min_eig(evaluate(family, cert.p)) == cert.min_eig
                elif isinstance(cert, VertexList):
                    vertex_lists += 1
                    assert len(cert.worst_vertex) == n + 1 and cert.worst_vertex[-1] == 1.0
                    assert box.contains(cert.worst_vertex[:-1])
        assert disproofs > 100 and vertex_lists > 20

    def test_disproofs_confirmed_by_the_cubic_itself(self):
        # For a cubic, f(x + d) + f(x - d) - 2 f(x) = d^T H(x) d exactly, so a negative second
        # difference at a point of the box disproves convexity. It is evaluated in Fractions
        # straight from f.terms, sharing no code with hessian, decide or LAPACK.
        def exact_value(f, x):
            ext = [Fraction(1), *x]
            return sum(Fraction(c) * ext[i] * ext[j] * ext[k] for c, (i, j, k) in f.terms)

        rng = np.random.default_rng(13)
        disproofs = 0
        for _ in range(200):
            f = random_cubic(rng)
            lo = rng.uniform(-2, 2, f.n)
            box = ParameterBox.from_bounds(zip(lo, lo + rng.uniform(0.1, 2, f.n)))
            res = certify_convexity(f, box)
            if not res.verdict.disproved:
                continue
            disproofs += 1
            cert = res.verdict.certificate
            assert isinstance(cert, CounterexampleVertex)
            d = np.linalg.eigh(evaluate(hessian(f, box), cert.p).array)[1][:, 0]
            x = [Fraction(v) for v in cert.p[:-1]]
            plus = exact_value(f, [a + Fraction(b) for a, b in zip(x, d)])
            minus = exact_value(f, [a - Fraction(b) for a, b in zip(x, d)])
            assert plus + minus - 2 * exact_value(f, x) < 0
        assert disproofs > 150

    def test_diagnostics_come_from_one_hertz_value(self, rng):
        from psdparam import hertz_min_eig, relax, strong_psd_interval

        for _ in range(10):
            n = int(rng.integers(1, 5))
            terms = [(float(rng.integers(-3, 4)), tuple(sorted(rng.integers(0, n + 1, 3)))) for _ in range(6)]
            f = CubicPolynomial.from_terms(n, terms + [(1.0, (0, 1, 1))])
            box = ParameterBox.from_bounds([(float(lo), float(lo) + 1.0) for lo in rng.uniform(-2, 2, n)])
            relaxed = relax(hessian(f, box))
            for tol in (None, 1e-6, 10.0):
                res = certify_convexity(f, box, tol=tol)
                assert res.relaxation_min_eig == hertz_min_eig(relaxed)
                assert res.relaxation_strongly_psd == strong_psd_interval(relaxed, tol=tol)

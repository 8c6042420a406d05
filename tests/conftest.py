"""Shared fixtures: the showcase problem families and random-instance generators."""

from __future__ import annotations

import json

import numpy as np
import pytest

from psdparam import Interval, ParameterBox, ParametricSymMatrix, SymMatrix

# Cubic used by the demo and CLI tests; variables x, y, z alias x1, x2, x3.
DEMO_CUBIC = "x1^3 + 2 x1^2 x2 - x1 x2 x3 + 3 x2 x3^2 + 5 x2^2"
DEMO_CUBIC_BOUNDS = [(2.0, 3.0), (1.0, 2.0), (0.0, 1.0)]

# Problem documents past the range of doubles, shared by the CLI and model tests.
# Finite entries whose symmetrised coefficients and bound matrices overflow.
OVERFLOW_DOC = (
    '{"n":2,"K":2,"coefficients":[[[1e308,0],[0,1e308]],[[1e308,1e308],[1e308,-1e308]]],'
    '"parameters":[{"inf":1,"sup":2},{"inf":-1,"sup":1}]}'
)
# diag(1e308, -1e308) on [1, 1]: finite members, but n * max|entry| and so
# the default tolerance overflow.
BIG_INDEFINITE_DOC = '{"n":2,"K":1,"coefficients":[[[1e308,0],[0,-1e308]]],"parameters":[{"inf":1,"sup":1}]}'
# diag(c, c) on [1, 1] plus [[0, c], [c, 0]] on [0, 1], c = 1.5e308: every
# member [[c, qc], [qc, c]] is finite, but the split bound matrices sum the
# PSD parts of both coefficients, with diagonal 1.5 c.
SPLIT_OVERFLOW_DOC = (
    '{"n":2,"K":2,"coefficients":[[[1.5e308,0],[0,1.5e308]],[[0,1.5e308],[1.5e308,0]]],'
    '"parameters":[{"inf":1,"sup":1},{"inf":0,"sup":1}]}'
)


def swap_copies_doc(copies: int) -> str:
    """Problem document: I on [1, 1] plus ``copies`` copies of [[0, 1], [1, 0]] on [-1, 1].

    No coefficient is pinned, so the vertex stage faces 2^copies vertices; from 63 copies that count is past sys.maxsize.
    """
    coefficients = [[[1, 0], [0, 1]]] + [[[0, 1], [1, 0]]] * copies
    parameters = [{"inf": 1, "sup": 1}] + [{"inf": -1, "sup": 1}] * copies
    return json.dumps({"n": 2, "K": copies + 1, "coefficients": coefficients, "parameters": parameters})


def rank_one_cone() -> ParametricSymMatrix:
    """A(p) = ones(2x2) * p with p in [0, 1]: PSD everywhere, PD nowhere."""
    return ParametricSymMatrix([np.ones((2, 2))], ParameterBox([Interval(0.0, 1.0)]))


def split_favorable() -> ParametricSymMatrix:
    """2x2 family the splitting condition certifies but the regularity route cannot."""
    return ParametricSymMatrix(
        [np.array([[1.5, 0.0], [0.0, 1.1]]), np.array([[-1.0, 1.0], [1.0, 1.0]])],
        ParameterBox([Interval(1.0, 1.0), Interval(0.0, 1.0)]),
    )


def regularity_favorable() -> ParametricSymMatrix:
    """2x2 family the regularity route certifies but the splitting condition cannot."""
    return ParametricSymMatrix(
        [
            np.array([[3.3, 0.25], [0.25, 3.3]]),
            np.array([[1.0, 2.0], [2.0, 0.0]]),
            np.array([[0.0, 2.0], [2.0, 1.0]]),
        ],
        ParameterBox([Interval(1.0, 1.0), Interval(0.0, 1.0), Interval(0.0, 1.0)]),
    )


def diag_sign_family() -> ParametricSymMatrix:
    """A(p) = diag(1, -1) * p with p in [1, 2]: never PSD."""
    return ParametricSymMatrix([np.diag([1.0, -1.0])], ParameterBox([Interval(1.0, 2.0)]))


def random_family(rng: np.random.Generator, max_n: int = 4, max_k: int = 4) -> ParametricSymMatrix:
    """Random instance with entries in [-2, 2] and box endpoints in [-1, 2]."""
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    coeffs = [SymMatrix(rng.uniform(-2.0, 2.0, (n, n))) for _ in range(k)]
    ivs = []
    for _ in range(k):
        a, b = np.sort(rng.uniform(-1.0, 2.0, 2))
        ivs.append(Interval(float(a), float(b)))
    return ParametricSymMatrix(coeffs, ParameterBox(ivs))


def random_semidefinite_family(rng: np.random.Generator, max_n: int = 4, max_k: int = 4) -> ParametricSymMatrix:
    """Random instance where every coefficient matrix is PSD or NSD by construction."""
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    coeffs = []
    for _ in range(k):
        r = int(rng.integers(1, n + 1))
        g = rng.uniform(-1.0, 1.0, (n, r))
        m = g @ g.T
        if rng.random() < 0.5:
            m = -m
        coeffs.append(SymMatrix(m))
    ivs = []
    for _ in range(k):
        a, b = np.sort(rng.uniform(-1.0, 2.0, 2))
        ivs.append(Interval(float(a), float(b)))
    return ParametricSymMatrix(coeffs, ParameterBox(ivs))


def planted_pd_family(rng: np.random.Generator, margin: float = 0.2) -> tuple[ParametricSymMatrix, np.ndarray]:
    """Random family guaranteed weakly PD: a ridge term lifts a planted point."""
    n = int(rng.integers(2, 4))
    k = int(rng.integers(1, 4))
    coeffs = [SymMatrix(rng.uniform(-2.0, 2.0, (n, n))) for _ in range(k)]
    ivs = []
    point = []
    for _ in range(k):
        a, b = np.sort(rng.uniform(-1.0, 2.0, 2))
        ivs.append(Interval(float(a), float(b)))
        point.append(float(rng.uniform(a, b)))
    base = sum(c.array * v for c, v in zip(coeffs, point))
    lift = margin - float(np.linalg.eigvalsh(base)[0])
    coeffs.append(SymMatrix(np.eye(n) * max(lift, 0.0)))
    ivs.append(Interval(1.0, 1.0))
    point.append(1.0)
    return ParametricSymMatrix(coeffs, ParameterBox(ivs)), np.array(point)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0x5EED)

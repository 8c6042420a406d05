"""Seeded instance generators for the psdparam benchmark, with ground truth.

Every workload is a fixed list of slots, one instance each, built from the
workload seed with LAPACK (``numpy.linalg``) only.  The timed loop runs the
list as a cycle, whole cycles at a time, so every run sees the same mix of
sizes and outcomes whatever the seed.

Each instance records what the benchmark knows without asking the program:
the family as it built it, the true answer where the construction settles
it, and the stage the design expects to decide it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("strong-vertex", "weak", "convex")


@dataclass
class Instance:
    label: str
    argv: list
    goal: str  # strong_psd, strong_pd, weak_psd, weak_pd; convexity is strong_psd of the Hessian
    coeffs: np.ndarray  # (K, n, n) coefficient stack of the family the benchmark built
    lows: np.ndarray
    highs: np.ndarray
    expected: str | None  # "proved" / "disproved" when the construction settles it
    stage: str  # stage the design expects to decide: split, vertex, necessary, witness, unknown
    traceless: bool = False


# ---------------------------------------------------------------------------
# shared helpers


def _sym(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / np.sqrt(2.0 * n)


def bound_matrix(coeffs, plus_at, minus_at) -> np.ndarray:
    """sum_k plus_at[k] * A_k+ - minus_at[k] * A_k- over the PSD splits A_k = A_k+ - A_k-.

    With (lows, highs) this is the split stage's lower bound on every
    member; with (highs, lows) the necessary stage's upper bound.
    """
    w, v = np.linalg.eigh(coeffs)
    plus = (v * np.maximum(w, 0.0)[:, None, :]) @ v.transpose(0, 2, 1)
    minus = (v * np.maximum(-w, 0.0)[:, None, :]) @ v.transpose(0, 2, 1)
    return np.tensordot(plus_at, plus, axes=1) - np.tensordot(minus_at, minus, axes=1)


def _gray_vertices(free: int) -> np.ndarray:
    """(2^F, F) array of +-1 vertices in reflected Gray order, bit b <-> coordinate b."""
    i = np.arange(1 << free)
    bits = ((i ^ (i >> 1))[:, None] >> np.arange(free)) & 1
    return np.where(bits == 1, 1.0, -1.0)


def _problem_json(coeffs, lows, highs) -> str:
    return json.dumps(
        {
            "n": int(coeffs.shape[1]),
            "K": int(coeffs.shape[0]),
            "coefficients": coeffs.tolist(),
            "parameters": [{"inf": float(lo), "sup": float(hi)} for lo, hi in zip(lows, highs)],
        }
    )


def _check_instance(path: Path, label, goal, coeffs, lows, highs, **kw) -> Instance:
    path.write_text(_problem_json(coeffs, lows, highs), encoding="utf-8")
    argv = ["check", str(path), "--goal", goal.replace("_", "-")]
    return Instance(label, argv, goal, coeffs, np.asarray(lows, float), np.asarray(highs, float), **kw)


# ---------------------------------------------------------------------------
# strong-vertex: c*I on a degenerate parameter plus F indefinite coefficients
# on [-1, 1].  c sits between the exhaustive vertex minimum and the split and
# Beeck bounds, so only the vertex stage can decide.

# (n, free coefficients); fewer coefficients at larger n keeps one verdict
# under a second with the Jacobi eigensolver.
STRONG_SIZES = {4: 8, 6: 7, 10: 6}


def _strong_family(rng, n, free, kind, position):
    verts = _gray_vertices(free)
    while True:
        a = np.stack([_sym(rng, n) for _ in range(free)])
        ev = np.linalg.eigvalsh(a)
        if (ev[:, 0] > -0.05).any() or (ev[:, -1] < 0.05).any():
            continue  # a semidefinite coefficient would be pinned, not enumerated
        mins = np.linalg.eigvalsh(np.einsum("vk,kij->vij", verts, a))[:, 0]
        order = np.argsort(mins)
        m1, m2 = mins[order[0]], mins[order[1]]
        # split proves iff c > lambda_max(sum |A_k|); regularity iff c > rho(sum abs(A_k))
        ones = np.ones(free)
        split_bound = -np.linalg.eigvalsh(bound_matrix(a, -ones, ones))[0]
        beeck_bound = np.linalg.eigvalsh(np.abs(a).sum(axis=0))[-1]
        if kind == "proved":
            gap = min(split_bound, beeck_bound) + m1
            if gap < 0.05 * abs(m1):
                continue
            c = -m1 + 0.25 * gap
        else:
            if m2 - m1 < 0.05 * abs(m1):
                continue
            c = -0.5 * (m1 + m2)  # only the minimizing vertex fails
            # reflect coordinates so the minimizing vertex lands at `position`
            a = a * (verts[order[0]] * verts[position])[:, None, None]
        if c <= 0.1:
            continue
        coeffs = np.concatenate([c * np.eye(n)[None], a])
        lows = np.array([1.0] + [-1.0] * free)
        highs = np.ones(free + 1)
        return coeffs, lows, highs


def _strong_slots():
    slots = []
    for n, free in STRONG_SIZES.items():
        size = 1 << free
        slots += [
            (n, free, "proved", None),
            (n, free, "late", size - size // 8),
            (n, free, "early", size // 32),
            (n, free, "early", size // 16),
            (n, free, "early", size // 8),
        ]
    return slots


def strong_vertex(rng, workdir: Path, slots=None) -> list[Instance]:
    out = []
    for idx, (n, free, kind, position) in enumerate(slots or _strong_slots()):
        coeffs, lows, highs = _strong_family(rng, n, free, kind, position)
        goal = ("strong_psd", "strong_pd")[idx % 2]
        label = f"n{n}-F{free}-{kind}"
        expected = "proved" if kind == "proved" else "disproved"
        out.append(
            _check_instance(
                workdir / f"strong-{idx:02d}.json", label, goal, coeffs, lows, highs,
                expected=expected, stage="vertex",
            )
        )
    return out


# ---------------------------------------------------------------------------
# weak: planted weakly-PD families (the witness search proves) and traceless
# families (no member is PD; the necessary stage refutes or the search fails)


def _planted(rng, n, k):
    """PD coefficients on boxes that straddle zero.

    A(lows) is negative definite and A(highs) positive definite, so the
    family is weakly but not strongly PD.  lambda_min(A(p)) rises in every
    coordinate, so the witness search climbs to the upper corner in two
    sweeps from the midpoint.
    """
    lows = np.round(rng.uniform(-1.0, -0.2, k), 2)
    highs = np.round(rng.uniform(0.5, 1.5, k), 2)
    b = rng.standard_normal((k, n, n))
    a = b @ b.transpose(0, 2, 1) / n + 0.2 * np.eye(n)
    return a, lows, highs


def _traceless_refuted(rng, n, k):
    while True:
        lows = np.round(rng.uniform(-1.0, 1.0, k), 2)
        highs = np.round(lows + rng.uniform(0.5, 2.0, k), 2)
        a = np.stack([_sym(rng, n) for _ in range(k)])
        a -= (np.trace(a, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
        if np.linalg.eigvalsh(bound_matrix(a, highs, lows))[0] < -0.05:
            return a, lows, highs


def _traceless_open(rng, k):
    """2x2 traceless family the necessary condition cannot refute.

    A_k = r_k [[cos t_k, sin t_k], [sin t_k, -cos t_k]] with all t_k inside
    an 80-degree sector and a positive box, so lambda_min(A(p)) = -|L p|
    falls in every coordinate: the best member sits at the lower corner, and
    the witness search settles there in two sweeps per restart.
    """
    while True:
        base = rng.uniform(0.0, 2.0 * np.pi)
        t = base + rng.uniform(0.0, np.deg2rad(80.0), k)
        r = rng.uniform(0.5, 1.5, k)
        a = np.stack([ri * np.array([[np.cos(ti), np.sin(ti)], [np.sin(ti), -np.cos(ti)]]) for ri, ti in zip(r, t)])
        lows = np.round(rng.uniform(0.05, 0.15, k), 2)
        highs = np.round(lows + rng.uniform(1.0, 2.0, k), 2)
        if np.linalg.eigvalsh(bound_matrix(a, highs, lows))[0] > 0.05:
            return a, lows, highs


def _weak_slots():
    return [
        ("planted", 2, 2), ("planted", 2, 3), ("planted", 3, 2), ("planted", 3, 3),
        ("planted", 2, 2), ("planted", 3, 3),
        ("refuted", 2, 2), ("refuted", 2, 3), ("refuted", 3, 2), ("refuted", 3, 3),
        ("refuted", 2, 3), ("refuted", 3, 2),
        ("open", 2, 2), ("open", 2, 3), ("open", 2, 2),
    ]


def weak(rng, workdir: Path, slots=None) -> list[Instance]:
    out = []
    for idx, (kind, n, k) in enumerate(slots or _weak_slots()):
        if kind == "planted":
            coeffs, lows, highs = _planted(rng, n, k)
            goal = ("weak_pd", "weak_psd")[idx % 2]
            kw = dict(expected="proved", stage="witness")
        elif kind == "refuted":
            coeffs, lows, highs = _traceless_refuted(rng, n, k)
            goal, kw = "weak_pd", dict(expected="disproved", stage="necessary", traceless=True)
        else:
            coeffs, lows, highs = _traceless_open(rng, k)
            goal, kw = "weak_pd", dict(expected="disproved", stage="unknown", traceless=True)
        out.append(
            _check_instance(workdir / f"weak-{idx:02d}.json", f"{kind}-n{n}-K{k}", goal, coeffs, lows, highs, **kw)
        )
    return out


# ---------------------------------------------------------------------------
# convex: cubics on positive boxes; convex ones are proved by the split
# stage, non-convex ones disproved by the vertex stage


def _hessian_stack(n: int, terms) -> np.ndarray:
    """(n + 1, n, n) stack: Hessian = sum_v x_v * stack[v - 1] + stack[n].

    Differentiates each monomial by its exponent vector, independently of
    the program's own Hessian code.
    """
    out = np.zeros((n + 1, n, n))
    for coef, idx in terms:
        e = np.zeros(n + 1, dtype=int)
        for i in idx:
            e[i] += 1
        e[0] = 0
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                rest = e.copy()
                factor = rest[a]
                rest[a] -= 1
                factor *= rest[b]
                rest[b] -= 1
                if factor == 0:
                    continue
                left = [v for v in range(1, n + 1) for _ in range(rest[v])]
                slot = n if not left else left[0] - 1
                out[slot, a - 1, b - 1] += coef * factor
    return out


def _format_term(coef, idx) -> str:
    factors = []
    for v in sorted(set(i for i in idx if i)):
        e = idx.count(v)
        factors.append(f"x{v}" + (f"^{e}" if e > 1 else ""))
    return f"{float(abs(coef))!r} " + " ".join(factors)


def _format_cubic(terms) -> str:
    text = ""
    for coef, idx in terms:
        sign = "-" if coef < 0 else "+"
        text += f" {sign} {_format_term(coef, idx)}" if text else f"{'-' if coef < 0 else ''}{_format_term(coef, idx)}"
    return text


def _split_min(stack, lows, highs) -> float:
    return float(np.linalg.eigvalsh(bound_matrix(stack, lows, highs))[0])


def _cubic(rng, n, convex):
    lows = np.round(rng.uniform(0.5, 1.5, n), 2)
    highs = np.round(lows + rng.uniform(0.5, 1.5, n), 2)
    terms = [(round(float(rng.uniform(0.2, 1.0)), 3), (v, v, v)) for v in range(1, n + 1)]
    for _ in range(n):
        i, j, k = sorted(rng.choice(np.arange(1, n + 1), size=3, replace=True).tolist())
        terms.append((round(float(rng.uniform(0.05, 0.3)) * rng.choice((-1.0, 1.0)), 3), (i, j, k)))
    b = rng.standard_normal((n, n))
    q = b @ b.T / n
    p_lows = np.append(lows, 1.0)
    p_highs = np.append(highs, 1.0)
    # Lift the quadratic part until the split bound is comfortably PD and
    # lambda_min(Mid) - rho(Rad) of the interval Hessian is positive, so the
    # relaxation diagnostics enumerate every sign vertex on convex cubics.
    base = _hessian_stack(n, terms)
    base[n] += 2.0 * q
    mid = np.tensordot(0.5 * (p_lows + p_highs), base, axes=1)
    rad = np.tensordot(0.5 * (p_highs - p_lows), np.abs(base), axes=1)
    margin = min(_split_min(base, p_lows, p_highs), np.linalg.eigvalsh(mid)[0] - np.linalg.eigvalsh(rad)[-1])
    mu = round(max(0.0, -margin) / 2.0 + 0.5, 3)
    q = q + mu * np.eye(n)
    for i in range(n):
        terms.append((round(float(q[i, i]), 3), (0, i + 1, i + 1)))
        for j in range(i + 1, n):
            terms.append((round(float(2.0 * q[i, j]), 3), (0, i + 1, j + 1)))
    if not convex:
        # a concave square in one variable that makes its Hessian diagonal
        # negative on the whole box: every vertex fails, so the first decides
        v = int(rng.integers(1, n + 1))
        row = _hessian_stack(n, terms)[:, v - 1, v - 1]
        top = float(np.maximum(row[:n] * lows, row[:n] * highs).sum() + row[n])
        terms.append((-round(top / 2.0 + 0.5, 3), (0, v, v)))
    return terms, lows, highs


# (variables, convex cubics, non-convex cubics) per cycle.  The diagnostics
# cost 2^(n-1) eigen-solves, twice over on convex cubics, so small cubics
# make up most verdicts and n = 8, 9 come only non-convex, above the p90:
# a cycle stays near two seconds, a run holds over two hundred verdicts,
# and the p90 falls on the n = 7 cubics, short enough to time steadily.
CONVEX_MIX = ((4, 5, 5), (5, 5, 4), (6, 3, 3), (7, 1, 2), (8, 0, 1), (9, 0, 1))


def _convex_slots():
    slots = []
    for n, convex_count, nonconvex_count in CONVEX_MIX:
        slots += [(n, True)] * convex_count + [(n, False)] * nonconvex_count
    return slots


def convex(rng, workdir: Path, slots=None) -> list[Instance]:
    out = []
    for n, is_convex in slots or _convex_slots():
        terms, lows, highs = _cubic(rng, n, is_convex)
        stack = _hessian_stack(n, terms)
        p_lows, p_highs = np.append(lows, 1.0), np.append(highs, 1.0)
        if is_convex:
            assert _split_min(stack, p_lows, p_highs) > 0.05, "convex cubic lost its split margin"
        boxes = []
        for v in range(n):
            boxes += ["--box", f"x{v + 1}={float(lows[v])!r}:{float(highs[v])!r}"]
        argv = ["convex", *boxes, "--", _format_cubic(terms)]
        label = f"n{n}-{'convex' if is_convex else 'nonconvex'}"
        expected = "proved" if is_convex else "disproved"
        stage = "split" if is_convex else "vertex"
        out.append(Instance(label, argv, "strong_psd", stack, p_lows, p_highs, expected, stage))
    return out


GENERATORS = {"strong-vertex": strong_vertex, "weak": weak, "convex": convex}

# Small slot lists for the smoke mode: same kinds, smallest sizes.
SMOKE_SLOTS = {
    "strong-vertex": [(4, 4, "proved", None), (4, 4, "late", 14), (4, 4, "early", 1)],
    "weak": [("planted", 2, 2), ("refuted", 2, 2), ("open", 2, 2)],
    "convex": [(4, True), (4, False)],
}


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Instance]:
    """The workload's instance cycle for ``seed``; problem files go to ``workdir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    slots = SMOKE_SLOTS[workload] if smoke else None
    return GENERATORS[workload](rng, workdir, slots)

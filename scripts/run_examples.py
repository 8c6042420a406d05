#!/usr/bin/env python3
"""Walk the built-in showcase families through every decision route.

Four problems illustrate the landscape: a rank-one cone that relaxation
ruins, a 2x2 family only the splitting condition certifies, one only the
regularity route certifies, and a cubic whose parametric Hessian is
certifiably convex even though its interval Hessian is not.
"""

import argparse

import numpy as np

import psdparam as pp
from psdparam.definiteness import STAGES

SHOWCASES = {
    "rank-one-cone": pp.ParametricSymMatrix(
        [np.ones((2, 2))], pp.ParameterBox([pp.Interval(0.0, 1.0)])
    ),
    "split-favorable": pp.ParametricSymMatrix(
        [np.array([[1.5, 0.0], [0.0, 1.1]]), np.array([[-1.0, 1.0], [1.0, 1.0]])],
        pp.ParameterBox([pp.Interval(1.0, 1.0), pp.Interval(0.0, 1.0)]),
    ),
    "regularity-favorable": pp.ParametricSymMatrix(
        [
            np.array([[3.3, 0.25], [0.25, 3.3]]),
            np.array([[1.0, 2.0], [2.0, 0.0]]),
            np.array([[0.0, 2.0], [2.0, 1.0]]),
        ],
        pp.ParameterBox([pp.Interval(1.0, 1.0), pp.Interval(0.0, 1.0), pp.Interval(0.0, 1.0)]),
    ),
}

DEMO_CUBIC = "x1^3 + 2 x1^2 x2 - x1 x2 x3 + 3 x2 x3^2 + 5 x2^2"
DEMO_BOUNDS = [(2.0, 3.0), (1.0, 2.0), (0.0, 1.0)]


def show_family(name: str, p: pp.ParametricSymMatrix) -> None:
    print(f"== {name} (n={p.n}, K={p.K})")
    for goal in ("strong_psd", "strong_pd"):
        parts = []
        for stage in STAGES:
            if goal in stage.goals:
                v = pp.decide(p, goal, method=stage.name)
                rho = f" (rho={v.certificate.rho:.4f})" if isinstance(v.certificate, pp.BeeckWitness) else ""
                parts.append(f"{stage.name}={v.status.value}{rho}")
        cascade = pp.decide(p, goal)
        print(f"  {goal:10s}: {'  '.join(parts)}  -> decide: {cascade.status.value} by {cascade.method}")
    weak = pp.decide(p, "weak_pd")
    print(f"  weak_pd   : {weak.status.value} by {weak.method}")
    relaxed = pp.relax(p)
    print(
        f"  relaxation: strongly_psd={pp.strong_psd_interval(relaxed)}"
        f"  min_eig={pp.hertz_min_eig(relaxed):.4f}"
    )


def show_cubic() -> None:
    print(f"== cubic-convexity: {DEMO_CUBIC}  on {DEMO_BOUNDS}")
    f = pp.parse(DEMO_CUBIC)
    box = pp.ParameterBox.from_bounds(DEMO_BOUNDS)
    res = pp.certify_convexity(f, box)
    print(f"  verdict: {res.verdict.status.value} by {res.verdict.method}")
    print(
        f"  interval-Hessian diagnostics: strongly_psd={res.relaxation_strongly_psd}"
        f"  min_eig={res.relaxation_min_eig:.4f}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--only", choices=[*SHOWCASES, "cubic-convexity"], default=None)
    args = parser.parse_args()
    for name, family in SHOWCASES.items():
        if args.only in (None, name):
            show_family(name, family)
    if args.only in (None, "cubic-convexity"):
        show_cubic()


if __name__ == "__main__":
    main()

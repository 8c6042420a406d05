"""Correctness gate for benchmark verdicts, run after the timed loop.

A verdict fails when the call raised, exited 64, returned an exit code that
does not match its status, printed a report that breaks the published
schema, or reached a proved/disproved answer that the ground truth
contradicts.  Ground truth is LAPACK only: ``oracle.full_vertex_check`` for
strong goals and convexity, and ``numpy.linalg.eigvalsh`` at every
counterexample and witness point the program reports.
"""

from __future__ import annotations

import json

import numpy as np

from psdparam import Interval, ParameterBox, ParametricSymMatrix
from psdparam.cli import report_schema
from psdparam.oracle import full_vertex_check

from workloads import Instance, bound_matrix

EXIT_FOR_STATUS = {"proved": 0, "disproved": 1, "unknown": 2}
BOX_SLACK = 1e-12


def _validator():
    import jsonschema

    schema = report_schema()
    return jsonschema.validators.validator_for(schema)(schema)


class Gate:
    def __init__(self, instances: list[Instance]):
        self.instances = instances
        self.validator = _validator()
        self._truth: dict[tuple[int, float], bool] = {}

    def _family(self, inst: Instance) -> ParametricSymMatrix:
        box = ParameterBox(Interval(float(lo), float(hi)) for lo, hi in zip(inst.lows, inst.highs))
        return ParametricSymMatrix(list(inst.coeffs), box)

    def _strong_truth(self, slot: int, tol: float) -> bool:
        key = (slot, tol)
        if key not in self._truth:
            inst = self.instances[slot]
            kind = "pd" if inst.goal.endswith("pd") else "psd"
            self._truth[key] = full_vertex_check(self._family(inst), kind, tol)
        return self._truth[key]

    def check(self, slot: int, code, stdout: str) -> str | None:
        """None when the verdict passes, else the reason it fails."""
        if code == 64:
            return "exit 64 (input error)"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return "report is not JSON"
        error = next(iter(self.validator.iter_errors(doc)), None)
        if error is not None:
            return f"report breaks the schema: {error.message}"
        status = doc["status"]
        if code != EXIT_FOR_STATUS[status]:
            return f"exit code {code} for status {status}"
        if status == "unknown":
            return None
        inst = self.instances[slot]
        tol = float(doc["tolerances"]["definiteness"])
        if inst.expected is not None and status != inst.expected:
            return f"{status}, but the instance was built to be {inst.expected}"
        if inst.goal.startswith("strong"):
            return self._check_strong(slot, inst, status, doc["certificate"], tol)
        return self._check_weak(inst, status, doc["certificate"], tol)

    def _point_min_eig(self, inst: Instance, p) -> float | None:
        p = np.asarray(p, dtype=float)
        if p.shape != inst.lows.shape:
            return None
        if (p < inst.lows - BOX_SLACK).any() or (p > inst.highs + BOX_SLACK).any():
            return None
        return float(np.linalg.eigvalsh(np.tensordot(p, inst.coeffs, axes=1))[0])

    def _check_strong(self, slot, inst, status, cert, tol) -> str | None:
        holds = self._strong_truth(slot, tol)
        if holds != (status == "proved"):
            return f"{status}, but the full vertex check says {'it holds' if holds else 'it fails'}"
        if status == "disproved":
            if cert is None or cert.get("type") != "counterexample_vertex":
                return "disproved without a counterexample vertex"
            m = self._point_min_eig(inst, cert["p"])
            if m is None:
                return "counterexample vertex lies outside the box"
            passes = m > tol if inst.goal.endswith("pd") else m >= -tol
            if passes:
                return f"counterexample vertex has smallest eigenvalue {m:g}, which passes"
        return None

    def _check_weak(self, inst, status, cert, tol) -> str | None:
        pd = inst.goal.endswith("pd")
        if status == "proved":
            if inst.traceless and pd:
                return "a traceless family proved weakly PD"
            if cert is None or cert.get("type") != "witness_point":
                return "proved without a witness point"
            m = self._point_min_eig(inst, cert["p"])
            if m is None:
                return "witness point lies outside the box"
            if not (m > tol if pd else m >= -tol):
                return f"witness point has smallest eigenvalue {m:g}, which fails"
            return None
        if cert is None or cert.get("type") != "necessary_failure":
            return "disproved without a necessary-condition matrix"
        bound = bound_matrix(inst.coeffs, inst.highs, inst.lows)
        matrix = np.asarray(cert["matrix"], dtype=float)
        if matrix.shape != bound.shape or not np.allclose(matrix, bound, rtol=1e-8, atol=1e-8):
            return "necessary-condition matrix differs from the re-derived bound"
        m = float(np.linalg.eigvalsh(matrix)[0])
        if m > tol if pd else m >= -tol:
            return f"necessary-condition matrix has smallest eigenvalue {m:g}, which passes"
        return None

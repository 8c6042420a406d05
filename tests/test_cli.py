"""CLI conformance: exit codes, report schema, determinism, flag handling."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import get_args

import jsonschema
import numpy as np
import pytest

from conftest import BIG_INDEFINITE_DOC, DEMO_CUBIC, OVERFLOW_DOC, SPLIT_OVERFLOW_DOC, swap_copies_doc
from psdparam import Interval, ParameterBox, cubic, hessian, parametric, parse, problem_from_json
from psdparam import definiteness as df
from psdparam.cli import (
    EXIT_DISPROVED,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_PROVED,
    EXIT_UNKNOWN,
    _parse_box_flags,
    certificate_to_jsonable,
    main,
    report_schema,
)
from psdparam.oracle import full_vertex_check
from psdparam.symlinalg import SymMatrix, scaled_tol

SPLIT_DOC = (
    '{"n":2,"K":2,"coefficients":[[[1.5,0],[0,1.1]],[[-1,1],[1,1]]],'
    '"parameters":[{"inf":1,"sup":1},{"inf":0,"sup":1}]}'
)
# A(mid) = 1e-10 I: the preconditioned coefficient C A_1 = 1e310 I overflows.
PRECONDITION_OVERFLOW_DOC = (
    '{"n":2,"K":2,"coefficients":[[[1e300,0],[0,1e300]],[[1e-10,0],[0,1e-10]]],'
    '"parameters":[{"inf":-1,"sup":1},{"inf":1,"sup":1}]}'
)
REGULARITY_DOC = (
    '{"n":2,"K":3,"coefficients":[[[3.3,0.25],[0.25,3.3]],[[1,2],[2,0]],[[0,2],[2,1]]],'
    '"parameters":[{"inf":1,"sup":1},{"inf":0,"sup":1},{"inf":0,"sup":1}]}'
)

# diag(1, -1e-6) on [0, 1e6] plus a constant: the first coefficient's eigenvalue
# -1e-6 lies inside the tolerance, but moving its parameter shifts members by 1.
WIDE_DOC = (
    '{{"n":2,"K":2,"coefficients":[[[1,0],[0,-1e-6]],{constant}],'
    '"parameters":[{{"inf":0,"sup":1e6}},{{"inf":1,"sup":1}}]}}'
)
# Three copies of diag(1, -9e-4) on [0, 1]: under --tol 1e-3 each passes as PSD and is pinned
# at 0, but their shortfalls add up, and A(1, 1, 1) = diag(3, -2.7e-3) is not PSD.
PINNED_DOC = (
    '{"n":2,"K":3,"coefficients":[[[1,0],[0,-0.0009]],[[1,0],[0,-0.0009]],[[1,0],[0,-0.0009]]],'
    '"parameters":[{"inf":0,"sup":1},{"inf":0,"sup":1},{"inf":0,"sup":1}]}'
)
# diag(-9e-4, 1) and diag(1, -9e-4) on [0, 1]: both pinned at 0 under --tol 1e-3, with shortfalls
# adding up to 1.8e-3, yet every member is PSD within the tolerance.
PINNED_PSD_DOC = (
    '{"n":2,"K":2,"coefficients":[[[-0.0009,0],[0,1]],[[1,0],[0,-0.0009]]],'
    '"parameters":[{"inf":0,"sup":1},{"inf":0,"sup":1}]}'
)
# A(p) = p on a box whose width overflows a double, or whose sup is the largest power of ten.
HUGE_BOX_DOC = '{{"n":1,"K":1,"coefficients":[[[1]]],"parameters":[{{"inf":{inf},"sup":1e308}}]}}'

# diag(p, -p) on p in [1, 2]: no member is even PSD, whatever the goal.
INDEFINITE_DOC = '{"n":2,"K":1,"coefficients":[[[1,0],[0,-1]]],"parameters":[{"inf":1,"sup":2}]}'

# Finite entries whose squares overflow; the member's smallest eigenvalue is -9e200.
HUGE_DOC = '{"n":2,"K":1,"coefficients":[[[1e200,1e201],[1e201,1e200]]],"parameters":[{"inf":1,"sup":1}]}'

DEMO_BOX_FLAGS = ["--box", "x1=2:3", "--box", "x2=1:2", "--box", "x3=0:1"]


def fail_lapack(monkeypatch, name: str) -> None:
    """Make ``numpy.linalg.<name>`` raise LinAlgError, as LAPACK does when it fails to converge."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, name, fail)


@pytest.fixture
def split_file(tmp_path):
    path = tmp_path / "split.json"
    path.write_text(SPLIT_DOC)
    return str(path)


@pytest.fixture
def regularity_file(tmp_path):
    path = tmp_path / "regularity.json"
    path.write_text(REGULARITY_DOC)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def assert_schema_valid(report):
    jsonschema.validate(report, report_schema())


def assert_input_error(result, message: str):
    code, report, err = result
    assert code == EXIT_INPUT_ERROR and report is None
    assert "error:" in err and message in err


def test_shipped_schema_is_itself_valid():
    jsonschema.Draft202012Validator.check_schema(report_schema())


def test_certificate_types_match_the_schema():
    # The Certificate union, the classes' type names, the schema's type
    # enum and its properties all name the same types and fields.
    types = get_args(df.Certificate)
    schema = report_schema()["properties"]["certificate"]["oneOf"][1]
    assert [t.json_type for t in types] == schema["properties"]["type"]["enum"]
    fields = {f.name for t in types for f in dataclasses.fields(t)}
    assert set(schema["properties"]) == fields | {"type"}
    assert "type" not in fields and "json_type" not in fields


# Each certificate type with the report JSON the hand-written serializer produced.
GOLDEN_CERTIFICATES = [
    (df.VertexList(4, (1.0, -0.5), 0.25), '{"checked":4,"type":"vertex_list","worst_min_eig":0.25,"worst_vertex":[1.0,-0.5]}'),
    (df.CounterexampleVertex((2.0, 0.0), -1.5), '{"min_eig":-1.5,"p":[2.0,0.0],"type":"counterexample_vertex"}'),
    (
        df.SplitWitness(SymMatrix([[1.0, 2.0], [2.0, 3.0]]), -0.25),
        '{"matrix":[[1.0,2.0],[2.0,3.0]],"min_eig":-0.25,"type":"split_witness"}',
    ),
    (df.BeeckWitness(0.9678, False), '{"converged":false,"rho":0.9678,"type":"beeck"}'),
    (
        df.NecessaryFailure(SymMatrix(np.diag([-2.0, 1.0])), -2.0),
        '{"matrix":[[-2.0,0.0],[0.0,1.0]],"min_eig":-2.0,"type":"necessary_failure"}',
    ),
    (df.WitnessPoint((0.5,), 0.125), '{"min_eig":0.125,"p":[0.5],"type":"witness_point"}'),
]


@pytest.mark.parametrize("cert, expected", GOLDEN_CERTIFICATES, ids=lambda x: getattr(x, "json_type", ""))
def test_certificate_json_is_unchanged(cert, expected):
    assert json.dumps(certificate_to_jsonable(cert), sort_keys=True, separators=(",", ":")) == expected


def test_every_certificate_type_has_a_golden_case():
    assert {type(c) for c, _ in GOLDEN_CERTIFICATES} == set(get_args(df.Certificate))


def test_screened_vertex_list_json():
    # A proof the Cholesky screen made carries its shift, and null for the smallest eigenvalue.
    cert = df.VertexList(4, (1.0, -0.5), None, 1e-9)
    expected = '{"checked":4,"shift":1e-09,"type":"vertex_list","worst_min_eig":null,"worst_vertex":[1.0,-0.5]}'
    assert json.dumps(certificate_to_jsonable(cert), sort_keys=True, separators=(",", ":")) == expected


def test_screened_vertex_proof_report(capsys, split_file):
    code, report, _ = run_cli(capsys, "check", split_file, "--goal", "strong-pd", "--method", "vertex")
    assert code == EXIT_PROVED
    assert_schema_valid(report)
    cert = report["certificate"]
    assert cert["worst_min_eig"] is None and cert["shift"] > report["tolerances"]["definiteness"]


def test_unknown_certificate_type_is_rejected():
    assert certificate_to_jsonable(None) is None
    with pytest.raises(TypeError, match="unknown certificate type"):
        certificate_to_jsonable(df.Verdict(df.Status.PROVED, "split"))


class TestCheck:
    def test_split_route(self, capsys, split_file):
        code, report, err = run_cli(capsys, "check", split_file, "--goal", "strong-pd")
        assert code == EXIT_PROVED
        assert report["status"] == "proved" and report["method"] == "split"
        assert_schema_valid(report)
        assert "proved" in err

    def test_regularity_route(self, capsys, regularity_file):
        code, report, _ = run_cli(capsys, "check", regularity_file, "--goal", "strong-pd")
        assert code == EXIT_PROVED
        assert report["method"] == "regularity"
        assert report["certificate"]["rho"] == pytest.approx(0.9678, abs=5e-4)
        assert_schema_valid(report)

    @pytest.mark.parametrize("goal", ["strong-psd", "strong-pd"])
    @pytest.mark.parametrize("copies", [63, 64])
    def test_vertex_count_past_sys_maxsize_is_unknown(self, capsys, tmp_path, goal, copies):
        path = tmp_path / "swaps.json"
        path.write_text(swap_copies_doc(copies))
        code, report, err = run_cli(capsys, "check", str(path), "--goal", goal)
        assert code == EXIT_UNKNOWN and report["method"] == "vertex"
        assert report["detail"] == f"2^{copies} vertices exceed budget {df.DEFAULT_VERTEX_BUDGET}"
        assert "unknown by vertex" in err
        assert_schema_valid(report)

    def test_truncated_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n":2')
        code, report, err = run_cli(capsys, "check", str(bad), "--goal", "strong-pd")
        assert code == EXIT_INPUT_ERROR
        assert report is None
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "check", "/nonexistent.json", "--goal", "strong-pd")
        assert code == EXIT_INPUT_ERROR

    def test_non_utf8_file_is_input_error(self, capsys, tmp_path):
        # Once a UnicodeDecodeError traceback, exit 1 ("disproved").
        path = tmp_path / "latin1.json"
        path.write_bytes(SPLIT_DOC.encode().replace(b'"n"', b'"\xe9n"'))
        assert_input_error(run_cli(capsys, "check", str(path), "--goal", "strong-pd"), "cannot read")

    @pytest.mark.parametrize("old, new", [('"n":2', '"n":1e400'), ('"K":1', '"K":1e400'), ('"n":2', '"n":1.7')])
    def test_non_integer_size_is_input_error(self, capsys, tmp_path, old, new):
        # 1e400 once raised OverflowError (a traceback) and 1.7 was truncated to 1.
        path = tmp_path / "size.json"
        path.write_text(INDEFINITE_DOC.replace(old, new))
        assert new in path.read_text()
        assert_input_error(run_cli(capsys, "check", str(path), "--goal", "strong-pd"), "n and K must be integers")

    @pytest.mark.parametrize("old, new", [("[[[1,", "[[[1{zeros},"), ('"sup":2', '"sup":1{zeros}')])
    def test_integer_past_the_largest_double_is_input_error(self, capsys, tmp_path, old, new):
        # A 401-digit integer entry or bound once raised OverflowError (a traceback).
        path = tmp_path / "big.json"
        path.write_text(INDEFINITE_DOC.replace(old, new.format(zeros="0" * 400)))
        assert "0" * 400 in path.read_text()
        assert_input_error(run_cli(capsys, "check", str(path), "--goal", "strong-pd"), "malformed problem file")

    def test_asymmetric_coefficients(self, capsys, tmp_path):
        doc = json.loads(SPLIT_DOC)
        doc["coefficients"][1][0][1] = 5.0
        bad = tmp_path / "asym.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "check", str(bad), "--goal", "strong-pd")
        assert code == EXIT_INPUT_ERROR and "asymmetric" in err

    @pytest.mark.parametrize(
        "goal, doc, tol_flags",
        [pytest.param(goal, doc, flags, id=goal + suffix)
         for suffix, doc, flags in (
             ("", OVERFLOW_DOC, []),
             ("-tol0", OVERFLOW_DOC, ["--tol", "0"]),
             ("-split-tol0", SPLIT_OVERFLOW_DOC, ["--tol", "0"]),
         )
         for goal in ("strong-psd", "strong-pd", "weak-psd", "weak-pd")],
    )
    def test_overflowing_family_is_input_error(self, capsys, tmp_path, goal, doc, tol_flags):
        # No tolerance can help: OVERFLOW_DOC's members overflow, and
        # "--tol 0" once reached the cascade in the library, which disproved
        # with min_eig NaN. SPLIT_OVERFLOW_DOC's members are finite but its
        # split and necessary bound matrices are not; under "--tol 0"
        # weak-psd was once disproved with min_eig NaN or ended in a LAPACK
        # traceback.
        path = tmp_path / "overflow.json"
        path.write_text(doc)
        code, report, err = run_cli(capsys, "check", str(path), "--goal", goal, *tol_flags)
        assert code == EXIT_INPUT_ERROR and report is None
        assert err.startswith("error:") and "overflow" in err

    @pytest.mark.parametrize(
        "method, code, status",
        [("auto", EXIT_DISPROVED, "disproved"), ("regularity", EXIT_UNKNOWN, "unknown")],
    )
    def test_overflowing_preconditioned_relaxation(self, capsys, tmp_path, method, code, status):
        # A(mid) = 1e-10 I, so C A_1 = 1e310 I. The regularity stage once
        # printed a RuntimeWarning and exited 64, though the vertex stage
        # disproves the family.
        path = tmp_path / "precondition.json"
        path.write_text(PRECONDITION_OVERFLOW_DOC)
        result = run_cli(capsys, "check", str(path), "--goal", "strong-pd", "--method", method)
        assert result[0] == code and result[1]["status"] == status
        if method == "regularity":
            assert "overflow" in result[1]["detail"]
        else:
            assert result[1]["method"] == "vertex" and result[1]["certificate"]["min_eig"] < -1e299
        assert_schema_valid(result[1])

    def test_finite_members_decide_under_an_explicit_tolerance(self, capsys, tmp_path):
        # Only the default tolerance overflows here; "--tol 0" was once
        # rejected as "member matrices overflow" all the same.
        path = tmp_path / "big.json"
        path.write_text(BIG_INDEFINITE_DOC)
        code, report, _ = run_cli(capsys, "check", str(path), "--goal", "strong-psd", "--tol", "0")
        assert code == EXIT_DISPROVED and report["method"] == "vertex"
        assert report["certificate"]["min_eig"] == -1e308
        assert report["tolerances"]["definiteness"] == 0.0
        assert_schema_valid(report)

    def test_overflowing_default_tolerance_asks_for_tol(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(BIG_INDEFINITE_DOC)
        result = run_cli(capsys, "check", str(path), "--goal", "strong-psd")
        assert_input_error(result, "default tolerance overflows")
        assert "--tol" in result[2]

    def test_deeply_nested_file_is_input_error(self, capsys, tmp_path):
        # 200 000 nested "[" once raised RecursionError: a traceback and exit 1.
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000)
        assert_input_error(run_cli(capsys, "check", str(path), "--goal", "strong-pd"), "malformed problem file")

    @pytest.mark.parametrize(
        "doc, goal, message",
        [
            (
                '{"n":1,"K":1,"coefficients":[[[true]]],"parameters":[{"inf":false,"sup":true}]}',
                "strong-psd",
                "coefficient 0 holds a boolean or a string",
            ),
            (
                '{"n":1,"K":1,"coefficients":[[[" 1e0 "]]],"parameters":[{"inf":"-0","sup":" 2 "}]}',
                "weak-pd",
                "coefficient 0 holds a boolean or a string",
            ),
            (
                '{"n":1,"K":2,"coefficients":[[[1]],[[2]]],"parameters":[{"inf":0,"sup":1},{"inf":0,"sup":true}]}',
                "strong-psd",
                "parameter 1 holds a boolean or a string",
            ),
            (
                '{"n":1,"K":2,"coefficients":[[[1]],[[2]]],"parameters":[{"inf":0,"sup":1},{"inf":"-0","sup":" 2 "}]}',
                "weak-pd",
                "parameter 1 holds a boolean or a string",
            ),
            (
                '{"n":2,"K":2,"coefficients":[[[1,0],[0,1]],[[1,false],[false,1]]],"parameters":[{"inf":0,"sup":1},{"inf":0,"sup":1}]}',
                "strong-pd",
                "coefficient 1 holds a boolean or a string",
            ),
            (
                '{"n":1,"K":1,"coefficients":[[["one"]]],"parameters":[{"inf":0,"sup":1}]}',
                "strong-pd",
                "coefficient 0 is not a matrix of doubles",
            ),
            (
                '{"n":1,"K":2,"coefficients":[[[1]],[[null]]],"parameters":[{"inf":0,"sup":1},{"inf":0,"sup":1}]}',
                "strong-psd",
                "coefficient 1 holds a null, not a number",
            ),
            (
                '{"n":1,"K":2,"coefficients":[[[1]],[[2]]],"parameters":[{"inf":0,"sup":1},{"inf":null,"sup":1}]}',
                "weak-psd",
                "malformed parameter entry: parameter 1 holds a null, not a number",
            ),
        ],
        ids=["booleans", "strings", "boolean-bound", "string-bounds", "boolean-entry", "word-entry", "null-entry", "null-bound"],
    )
    def test_entries_and_bounds_must_be_numbers(self, capsys, tmp_path, doc, goal, message):
        # float() takes true, false and numeric strings; each of the first five files was once
        # decided ("proved by split", "proved by witness", ...).  A null entry once became NaN and
        # a null bound a TypeError, neither naming its coefficient or parameter.
        path = tmp_path / "typed.json"
        path.write_text(doc)
        assert_input_error(run_cli(capsys, "check", str(path), "--goal", goal), f"malformed problem file: {message}")

    def test_explicit_tolerance_skips_the_default(self, capsys, monkeypatch, split_file):
        # Every family_tol call, through whichever imported name, sums
        # through parametric.scaled_tol.
        calls = []

        def counted(bound):
            calls.append(bound)
            return scaled_tol(bound)

        monkeypatch.setattr(parametric, "scaled_tol", counted)
        code, report, _ = run_cli(capsys, "check", split_file, "--goal", "strong-pd", "--tol", "0")
        assert code == EXIT_PROVED and report["tolerances"]["definiteness"] == 0.0
        assert calls == []
        run_cli(capsys, "check", split_file, "--goal", "strong-pd")
        assert len(calls) == 1

    def test_exit_matches_status(self, capsys, split_file):
        for goal, expected in (("strong-pd", EXIT_PROVED), ("weak-pd", EXIT_PROVED)):
            code, report, _ = run_cli(capsys, "check", split_file, "--goal", goal)
            assert code == expected and report["status"] == "proved"

    def test_forced_method_unknown(self, capsys, split_file):
        code, report, _ = run_cli(
            capsys, "check", split_file, "--goal", "strong-pd", "--method", "regularity"
        )
        assert code == EXIT_UNKNOWN
        assert report["status"] == "unknown" and report["method"] == "regularity"
        assert report["certificate"]["rho"] == pytest.approx(1.0419, abs=5e-4)
        assert_schema_valid(report)

    def test_forced_method_is_timed(self, capsys, split_file):
        code, report, _ = run_cli(capsys, "check", split_file, "--goal", "strong-psd", "--method", "vertex")
        assert code == EXIT_PROVED and report["method"] == "vertex"
        assert set(report["timings_ms"]) == {"vertex", "total"}

    def test_timings_are_the_verdicts_stage_times(self, capsys, monkeypatch, regularity_file):
        verdicts = []
        decide = df.decide

        def spy(*args, **kwargs):
            verdicts.append(decide(*args, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(df, "decide", spy)
        _, report, _ = run_cli(capsys, "check", regularity_file, "--goal", "strong-pd")
        total = report["timings_ms"].pop("total")
        assert report["timings_ms"] == dict(verdicts[0].stage_ms)
        assert set(report["timings_ms"]) == {"split", "regularity"}
        assert total >= sum(report["timings_ms"].values())

    def test_forced_method_goal_mismatch(self, capsys, split_file):
        code, _, err = run_cli(
            capsys, "check", split_file, "--goal", "weak-pd", "--method", "split"
        )
        assert code == EXIT_INPUT_ERROR
        assert "'split'" in err and "strong_psd, strong_pd only" in err

    def test_forced_witness_on_weak_goal(self, capsys, split_file):
        code, report, _ = run_cli(
            capsys, "check", split_file, "--goal", "weak-pd", "--method", "witness"
        )
        assert code == EXIT_PROVED
        assert report["method"] == "witness" and report["certificate"]["type"] == "witness_point"
        assert report["certificate"]["min_eig"] > report["tolerances"]["definiteness"]
        assert_schema_valid(report)

    def test_forced_witness_on_strong_goal(self, capsys, split_file):
        code, report, err = run_cli(
            capsys, "check", split_file, "--goal", "strong-pd", "--method", "witness"
        )
        assert code == EXIT_INPUT_ERROR and report is None
        assert "'witness'" in err and "weak_psd, weak_pd only" in err

    def test_method_choices_come_from_the_stage_table(self, capsys, split_file):
        from psdparam.definiteness import STAGES

        for stage in STAGES:
            goal = stage.goals[0].replace("_", "-")
            code, report, _ = run_cli(capsys, "check", split_file, "--goal", goal, "--method", stage.name)
            assert code != EXIT_INPUT_ERROR and report["method"] == stage.name
        code, _, _ = run_cli(capsys, "check", split_file, "--goal", "strong-pd", "--method", "oracle")
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("goal", ["strong-psd", "strong-pd"])
    def test_huge_entries_are_not_proved(self, capsys, tmp_path, goal):
        # The Jacobi solver's convergence test once overflowed here and
        # returned the positive diagonal as the spectrum: "proved by split".
        path = tmp_path / "huge.json"
        path.write_text(HUGE_DOC)
        code, report, _ = run_cli(capsys, "check", str(path), "--goal", goal)
        assert code == EXIT_DISPROVED
        assert report["method"] == "vertex"
        assert report["certificate"]["min_eig"] == pytest.approx(-9e200, rel=1e-9)

    @pytest.mark.parametrize("method", ["auto", "split", "vertex"])
    def test_wide_box_is_not_pinned_at_one_endpoint(self, capsys, tmp_path, method):
        # diag(0.5, 0.5) + p diag(1, -1e-6): A(1e6, 1) has min_eig -0.5.
        # The coefficient once passed as PSD within the tolerance 2e-4 and was
        # pinned at p = 0: "proved by split", and by vertex from 1 vertex.
        path = tmp_path / "wide.json"
        path.write_text(WIDE_DOC.format(constant="[[0.5,0],[0,0.5]]"))
        code, report, _ = run_cli(capsys, "check", str(path), "--goal", "strong-pd", "--method", method)
        assert code != EXIT_PROVED
        if method != "split":
            assert code == EXIT_DISPROVED and report["method"] == "vertex"
            assert report["certificate"]["p"] == [1e6, 1.0]
            assert report["certificate"]["min_eig"] == pytest.approx(-0.5)

    def test_wide_box_weak_pd_is_not_disproved(self, capsys, tmp_path):
        # diag(-5e5, 0.9) + p diag(1, -1e-6) is PD at p = 7e5.  Pinning the
        # coefficient at p = 1e6 once gave "disproved by necessary" (-0.1).
        path = tmp_path / "wide.json"
        path.write_text(WIDE_DOC.format(constant="[[-5e5,0],[0,0.9]]"))
        code, report, _ = run_cli(capsys, "check", str(path), "--goal", "weak-pd")
        assert code == EXIT_PROVED and report["method"] == "witness"
        p = report["certificate"]["p"][0]
        assert 0.0 <= p <= 1e6
        assert np.linalg.eigvalsh(np.diag([p - 5e5, 0.9 - 1e-6 * p]))[0] > report["tolerances"]["definiteness"]

    @pytest.mark.parametrize("method", ["auto", "split", "vertex"])
    def test_pinned_shortfalls_add_up_for_strong_psd(self, capsys, tmp_path, method):
        # Pinning all three coefficients at 0 once gave "proved by split", and
        # by vertex from 1 vertex, though A(1, 1, 1) has min_eig -2.7e-3.  The
        # split bound diag(0, -2.7e-3) now fails, and the vertex stage rescans
        # with all three coordinates free: A(1, 1, 0) is the first failing vertex.
        path = tmp_path / "pinned.json"
        path.write_text(PINNED_DOC)
        code, report, _ = run_cli(capsys, "check", str(path), "--goal", "strong-psd", "--tol", "1e-3", "--method", method)
        if method == "split":
            assert code == EXIT_UNKNOWN and report["method"] == "split" and report["detail"] == ""
            assert report["certificate"]["min_eig"] == pytest.approx(-2.7e-3)
        else:
            assert code == EXIT_DISPROVED and report["method"] == "vertex"
            assert report["certificate"]["p"] == [1.0, 1.0, 0.0]
            assert report["certificate"]["min_eig"] == pytest.approx(-1.8e-3)
        assert_schema_valid(report)

    def test_pinned_rescan_keeps_the_vertex_budget(self, capsys, tmp_path):
        path = tmp_path / "pinned.json"
        path.write_text(PINNED_DOC)
        code, report, _ = run_cli(
            capsys, "check", str(path), "--goal", "strong-psd", "--tol", "1e-3", "--vertex-budget", "4"
        )
        assert code == EXIT_UNKNOWN and report["method"] == "vertex"
        assert report["detail"] == "2^3 vertices exceed budget 4"

    @pytest.mark.parametrize("method", ["auto", "vertex"])
    def test_pinned_shortfalls_that_do_not_matter_still_prove(self, capsys, tmp_path, method):
        # Both answers were once "unknown by vertex": the pinned vertex A(0, 0) = 0
        # less the shortfall 1.8e-3 fails.  The split bound diag(-9e-4, -9e-4)
        # passes, and the vertex rescan checks all 4 vertices.
        path = tmp_path / "pinned.json"
        path.write_text(PINNED_PSD_DOC)
        code, report, _ = run_cli(capsys, "check", str(path), "--goal", "strong-psd", "--tol", "1e-3", "--method", method)
        assert code == EXIT_PROVED
        if method == "auto":
            assert report["method"] == "split"
        else:
            assert report["method"] == "vertex" and report["certificate"]["checked"] == 4
            assert full_vertex_check(parametric.problem_from_json(PINNED_PSD_DOC), "psd", 1e-3)
        assert_schema_valid(report)

    @pytest.mark.parametrize("method", ["auto", "necessary"])
    def test_pinned_shortfalls_add_up_for_weak_psd(self, capsys, tmp_path, method):
        # The pinned upper bound matrix diag(3, -2.7e-3) once gave "disproved by
        # necessary", though A(0, 0, 0) = 0 is PSD; the parts give diag(3, 0),
        # which passes, and the witness stage proves.
        path = tmp_path / "pinned.json"
        path.write_text(PINNED_DOC)
        code, report, _ = run_cli(capsys, "check", str(path), "--goal", "weak-psd", "--tol", "1e-3", "--method", method)
        if method == "auto":
            assert code == EXIT_PROVED and report["method"] == "witness"
            p = np.array(report["certificate"]["p"])
            assert np.linalg.eigvalsh(np.diag([p.sum(), -9e-4 * p.sum()]))[0] >= -1e-3
        else:
            assert code == EXIT_UNKNOWN and report["detail"] == ""
            assert report["certificate"]["matrix"] == [[3.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("method", ["auto", "regularity"])
    def test_regularity_keeps_members_above_the_tolerance(self, capsys, tmp_path, method):
        # A(p) = p on [5e-4, 1] has no singular member and A(mid) passes, so the
        # Beeck bound once gave "proved by regularity" under --tol 1e-3, though
        # A(5e-4) is not PD by that tolerance.  The bound now covers A(q) - s I, 0 <= s <= tol.
        path = tmp_path / "low.json"
        path.write_text('{"n":1,"K":1,"coefficients":[[[1]]],"parameters":[{"inf":0.0005,"sup":1}]}')
        code, report, _ = run_cli(capsys, "check", str(path), "--goal", "strong-pd", "--tol", "1e-3", "--method", method)
        if method == "auto":
            assert code == EXIT_DISPROVED and report["method"] == "vertex" and report["certificate"]["p"] == [0.0005]
        else:
            assert code == EXIT_UNKNOWN and report["certificate"]["rho"] > 1.0

    def test_weak_psd_witness_at_a_passing_start(self, capsys, tmp_path):
        # diag(p, -p) on [-1, 1] is PSD only at p = 0, the midpoint start;
        # the ternary steps move off it, and the search once said "unknown".
        path = tmp_path / "zero.json"
        path.write_text('{"n":2,"K":1,"coefficients":[[[1,0],[0,-1]]],"parameters":[{"inf":-1,"sup":1}]}')
        code, report, _ = run_cli(capsys, "check", str(path), "--goal", "weak-psd", "--tol", "0")
        assert code == EXIT_PROVED and report["method"] == "witness"
        assert report["certificate"]["p"] == [0.0] and report["certificate"]["min_eig"] == 0.0

    @pytest.mark.parametrize("inf", ["0", "-1e308"])
    @pytest.mark.parametrize("goal", ["weak-psd", "weak-pd"])
    def test_huge_box_witness_is_finite_and_in_the_box(self, capsys, tmp_path, goal, inf):
        # On [0, 1e308] the search's midpoint 0.5 (lo + hi) overflowed and
        # "proved" with p = Infinity, which is not JSON; on [-1e308, 1e308]
        # drawing the restarts raised OverflowError, a traceback with exit 1.
        path = tmp_path / "huge-box.json"
        path.write_text(HUGE_BOX_DOC.format(inf=inf))
        code = main(["check", str(path), "--goal", goal])
        out = capsys.readouterr().out

        def refuse(constant):
            raise AssertionError(f"{constant} in the report")

        report = json.loads(out, parse_constant=refuse)
        assert code == EXIT_PROVED and report["method"] == "witness"
        (p,) = report["certificate"]["p"]
        assert float(inf) <= p <= 1e308 and report["certificate"]["min_eig"] == p
        assert_schema_valid(report)

    def test_tol_flag_recorded(self, capsys, split_file):
        code, report, _ = run_cli(
            capsys, "check", split_file, "--goal", "strong-pd", "--tol", "1e-6"
        )
        assert code == EXIT_PROVED
        assert report["tolerances"]["definiteness"] == 1e-6

    @pytest.mark.parametrize(
        "tol, goal",
        [("nan", "strong-pd"), ("inf", "strong-psd"), ("-inf", "weak-psd"), ("-5", "strong-pd"), ("-5", "weak-pd")],
    )
    def test_invalid_tolerance_is_input_error(self, capsys, tmp_path, tol, goal):
        # NaN, inf and -5 once proved false claims about an indefinite family.
        # "--tol=" keeps argparse from reading "-inf" as an option.
        path = tmp_path / "indefinite.json"
        path.write_text(INDEFINITE_DOC)
        result = run_cli(capsys, "check", str(path), "--goal", goal, f"--tol={tol}")
        assert_input_error(result, "finite and nonnegative")

    def test_zero_tolerance_is_valid(self, capsys, tmp_path):
        path = tmp_path / "indefinite.json"
        path.write_text(INDEFINITE_DOC)
        code, report, _ = run_cli(capsys, "check", str(path), "--goal", "strong-pd", "--tol", "0")
        assert code == EXIT_DISPROVED
        assert report["tolerances"]["definiteness"] == 0.0
        assert report["certificate"]["min_eig"] == -1.0

    def test_seed_flag_is_unknown(self, capsys, split_file):
        # The witness search seeds itself with a constant; --seed is gone.
        result = run_cli(capsys, "check", split_file, "--goal", "weak-pd", "--seed", "7")
        assert_input_error(result, "unrecognized arguments: --seed 7")

    @pytest.mark.parametrize("goal", ["strong-pd", "weak-psd"])
    def test_negative_vertex_budget_is_input_error(self, capsys, tmp_path, goal):
        # -5 once ran the cascade and came back "unknown by vertex", exit 2.
        path = tmp_path / "indefinite.json"
        path.write_text(INDEFINITE_DOC)
        result = run_cli(capsys, "check", str(path), "--goal", goal, "--vertex-budget", "-5")
        assert_input_error(result, "vertex budget must be a nonnegative integer")

    @pytest.mark.parametrize("flag, name", [("--vertex-budget", "vertex budget")])
    def test_non_integer_count_is_input_error(self, capsys, split_file, flag, name):
        result = run_cli(capsys, "check", split_file, "--goal", "strong-pd", flag, "2.5")
        assert_input_error(result, f"invalid {name} value: '2.5'")

    @pytest.mark.parametrize(
        "parameters",
        ['[{"inf":1}]', "[1]", '[{"inf":null,"sup":1}]'],
    )
    def test_malformed_parameter_is_input_error(self, capsys, tmp_path, parameters):
        path = tmp_path / "bad.json"
        path.write_text(INDEFINITE_DOC.replace('[{"inf":1,"sup":2}]', parameters))
        assert_input_error(run_cli(capsys, "check", str(path), "--goal", "strong-pd"), "malformed parameter entry")

    def test_non_numeric_entry_is_input_error(self, capsys, tmp_path):
        # An object inside a coefficient once raised TypeError (a traceback).
        path = tmp_path / "bad.json"
        path.write_text(INDEFINITE_DOC.replace("[[[1,", '[[[{"re":1},'))
        assert '{"re":1}' in path.read_text()
        assert_input_error(run_cli(capsys, "check", str(path), "--goal", "strong-pd"), "not a matrix of doubles")

    def test_non_list_coefficients_are_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n":2,"K":1,"coefficients":5,"parameters":[{"inf":1,"sup":2}]}')
        assert_input_error(run_cli(capsys, "check", str(path), "--goal", "strong-pd"), "malformed problem document")

    @pytest.mark.parametrize("name", ["eigh", "eigvalsh"])
    def test_lapack_failure_is_exit_64(self, capsys, monkeypatch, split_file, name):
        # eigh fails while the family is built, eigvalsh in the split stage;
        # either once reached the user as a ConvergenceError traceback.
        fail_lapack(monkeypatch, name)
        assert_input_error(run_cli(capsys, "check", split_file, "--goal", "strong-pd"), f"LAPACK {name} failed")

    def test_determinism_modulo_timings(self, capsys, regularity_file):
        _, a, _ = run_cli(capsys, "check", regularity_file, "--goal", "strong-pd")
        _, b, _ = run_cli(capsys, "check", regularity_file, "--goal", "strong-pd")
        a.pop("timings_ms")
        b.pop("timings_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{split}", "--goal", "strong-pd"],
        ["check", "{split}", "--goal", "strong-psd", "--method", "vertex"],
        ["convex", DEMO_CUBIC, *DEMO_BOX_FLAGS],
    ],
)
def test_report_is_one_json_line(capsys, split_file, argv):
    main([arg.format(split=split_file) for arg in argv])
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert_schema_valid(json.loads(out))


class TestConvex:
    def test_demo_cubic(self, capsys):
        code, report, _ = run_cli(capsys, "convex", DEMO_CUBIC, *DEMO_BOX_FLAGS)
        assert code == EXIT_PROVED
        assert report["method"] == "split"
        diag = report["diagnostics"]
        assert diag["relaxation_strongly_psd"] is False
        assert diag["hertz_min_eig"] < 0
        assert_schema_valid(report)

    def test_diagnostics_match_library(self, capsys):
        from psdparam import ParameterBox, certify_convexity, parse

        code, report, _ = run_cli(capsys, "convex", DEMO_CUBIC, *DEMO_BOX_FLAGS)
        res = certify_convexity(parse(DEMO_CUBIC), ParameterBox.from_bounds([(2, 3), (1, 2), (0, 1)]))
        assert report["diagnostics"]["hertz_min_eig"] == pytest.approx(res.relaxation_min_eig, abs=1e-12)

    def test_square_is_convex(self, capsys):
        code, report, _ = run_cli(capsys, "convex", "x1^2", "--box", "x1=0:1")
        assert code == EXIT_PROVED
        assert_schema_valid(report)

    def test_negative_cube_disproved(self, capsys):
        code, report, _ = run_cli(capsys, "convex", "--box", "x1=1:2", "--", "-x1^3")
        assert code == EXIT_DISPROVED
        assert report["certificate"]["type"] == "counterexample_vertex"
        assert_schema_valid(report)

    def test_disproof_point_is_x_then_1(self, capsys):
        # x1 occurs only in a quadratic term; its zero coefficient matrix was
        # once dropped, and p read [3.0, 1.0]: x2 and the constant's 1.
        code, report, _ = run_cli(capsys, "convex", "--box", "x1=0:1", "--box", "x2=3:4", "--", "x2^3 - x1^2")
        assert code == EXIT_DISPROVED
        assert report["certificate"] == {"type": "counterexample_vertex", "p": [0.0, 3.0, 1.0], "min_eig": -2.0}

    @pytest.mark.parametrize(
        "expression, value",
        [("1e400 x1^2", "inf"), ("1e308 x1^2 + 1e308 x1^2", "inf"), ("1e400 x1^2 - 1e400 x1^2", "nan")],
        ids=["inf", "merged-overflow", "nan"],
    )
    def test_non_finite_coefficient_is_parse_error(self, capsys, expression, value):
        # These once reached the Hessian and failed as "matrix entries must be finite".
        result = run_cli(capsys, "convex", "--box", "x1=0:1", "--", expression)
        assert result == (EXIT_INPUT_ERROR, None, f"error: cannot parse polynomial: coefficient of (0, 1, 1) is not a finite double: {value}\n")

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "convex", "x1^4", "--box", "x1=0:1")
        assert code == EXIT_INPUT_ERROR and "parse" in err

    def test_missing_box(self, capsys):
        code, _, err = run_cli(capsys, "convex", "x1^2 + x2^2", "--box", "x1=0:1")
        assert code == EXIT_INPUT_ERROR and "x2" in err

    def test_huge_variable_index_is_quick_input_error(self, capsys):
        # Listing every missing variable of x1..x(10^12) once ran for hours.
        t0 = time.perf_counter()
        code, report, err = run_cli(capsys, "convex", "x1000000000000^2", "--box", "x1=0:1")
        assert time.perf_counter() - t0 < 5.0
        assert code == EXIT_INPUT_ERROR and report is None
        assert err.strip() == "error: missing --box for x2, x3, x4, ..."

    def test_unknown_box_variable(self, capsys):
        code, _, err = run_cli(capsys, "convex", "x1^2", "--box", "x1=0:1", "--box", "q=0:1")
        assert code == EXIT_INPUT_ERROR and "unknown variable" in err

    @pytest.mark.parametrize(
        "name, message",
        [
            ("x0", "--box: variable index must be >= 1, got 'x0'"),
            ("xa", "--box: unknown variable name 'xa' (use x1, x2, ... or the aliases x, y, z)"),
            ("q", "--box: unknown variable name 'q' (use x1, x2, ... or the aliases x, y, z)"),
        ],
        ids=["x0", "xa", "q"],
    )
    def test_box_names_follow_the_parser_rule(self, capsys, name, message):
        # The parser's messages, after "--box: "; x0 was "outside x1..x1" and q "unknown variable 'q' in --box".
        result = run_cli(capsys, "convex", "x1^2", "--box", "x1=0:1", "--box", f"{name}=0:1")
        assert_input_error(result, message)
        assert result[2].strip() == f"error: {message}"

    def test_box_name_past_the_variables(self, capsys):
        result = run_cli(capsys, "convex", "x1^2 + x2^2", "--box", "x1=0:1", "--box", "x2=0:1", "--box", "z=0:1")
        assert_input_error(result, "--box variable 'z' is outside x1..x2")

    def test_bad_box_syntax(self, capsys):
        code, _, _ = run_cli(capsys, "convex", "x1^2", "--box", "x1=zero:1")
        assert code == EXIT_INPUT_ERROR

    def test_alias_box_names(self, capsys):
        code, report, _ = run_cli(capsys, "convex", "x^2 + y^2", "--box", "x=0:1", "--box", "y=0:2")
        assert code == EXIT_PROVED
        assert report["box"] == {"x1": [0.0, 1.0], "x2": [0.0, 2.0]}

    def test_huge_indefinite_quadratic_disproved(self, capsys):
        code, report, _ = run_cli(
            capsys, "convex", "--box", "x1=0:1", "--box", "x2=0:1", "--", "1e200 x1^2 + 1e201 x1 x2 + 1e200 x2^2"
        )
        assert code == EXIT_DISPROVED
        assert report["method"] == "vertex"
        assert report["diagnostics"]["relaxation_strongly_psd"] is False
        assert report["diagnostics"]["hertz_min_eig"] == pytest.approx(-8e200, rel=1e-9)

    def test_diagnostics_past_the_budget_are_null(self):
        # The Hertz diagnostic of 70 variables has 2^69 sign matrices; it
        # once ended in a traceback and exit 1 ("disproved").  Past the
        # vertex budget it is skipped and the report says null.
        n = 70
        argv = ["convex", *(f"--box=x{i}=0:1" for i in range(1, n + 1)), " + ".join(f"x{i}^2" for i in range(1, n + 1))]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")])))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "psdparam.cli", *argv], capture_output=True, text=True, env=env, timeout=30
        )
        assert time.perf_counter() - t0 < 5.0
        assert proc.returncode == EXIT_PROVED and "Traceback" not in proc.stderr, proc.stderr
        report = json.loads(proc.stdout)
        assert report["diagnostics"] == {"relaxation_strongly_psd": None, "hertz_min_eig": None}
        assert_schema_valid(report)

    def test_hessian_near_the_largest_double(self, capsys):
        # The Hessian entry 1e308 is finite; symmetrising the interval
        # Hessian once overflowed it to inf and ended in a traceback.
        code, report, _ = run_cli(capsys, "convex", "--box", "x1=0:1", "--", "5e307 x1^2")
        assert code == EXIT_PROVED
        assert report["diagnostics"]["relaxation_strongly_psd"] is True
        assert report["diagnostics"]["hertz_min_eig"] == pytest.approx(1e308, rel=1e-12)

    def test_overflowing_hessian_is_input_error(self, capsys):
        code, report, err = run_cli(
            capsys, "convex", "--box", "x1=1e300:1e301", "--box", "x2=0:1", "--", "1e10 x1^3 + x1 x2^2"
        )
        assert code == EXIT_INPUT_ERROR and report is None
        assert err.startswith("error:") and "overflow" in err

    def test_hessian_at_the_largest_double_is_input_error(self, capsys):
        # The Hessian entry is exactly the largest double; its interval
        # relaxation once rounded outward to inf, with overflow warnings,
        # and failed as "interval matrix bounds must be finite".
        result = run_cli(capsys, "convex", "--box", "x1=0:1", "--", "8.988465674311579e307 x1^2")
        assert_input_error(result, "cannot form the Hessian: the family's matrices overflow")

    def test_library_fault_is_not_an_input_error(self, capsys, monkeypatch):
        # Only the Hessian's range and its default tolerance are input
        # errors; a ValueError from the diagnostics is a defect and exits
        # 70 with its traceback, never 1, the disproved code.
        def broken(m):
            raise ValueError("diagnostic fault")

        monkeypatch.setattr(cubic, "hertz_min_eig", broken)
        code, report, err = run_cli(capsys, "convex", DEMO_CUBIC, *DEMO_BOX_FLAGS)
        assert code == EXIT_INTERNAL_ERROR == 70 and report is None
        assert "Traceback" in err and "ValueError: diagnostic fault" in err

    def test_vertex_count_past_sys_maxsize_is_unknown(self, capsys):
        # 64 variables x_i on [-1, 1]: the Hessian family has 2^64 vertices, past what len() can count.
        terms = " + ".join(f"x{i} x{i % 64 + 1} x{(i + 1) % 64 + 1} + 0.3 x{i}^2" for i in range(1, 65))
        boxes = [flag for i in range(1, 65) for flag in ("--box", f"x{i}=-1:1")]
        code, report, err = run_cli(capsys, "convex", terms, *boxes)
        assert code == EXIT_UNKNOWN and report["status"] == "unknown"
        assert_schema_valid(report)

    @pytest.mark.parametrize("name", ["eigh", "eigvalsh"])
    def test_lapack_failure_is_exit_64(self, capsys, monkeypatch, name):
        fail_lapack(monkeypatch, name)
        assert_input_error(run_cli(capsys, "convex", "x1^2", "--box", "x1=0:1"), f"LAPACK {name} failed")

    def test_hessian_formed_once(self, capsys, monkeypatch):
        # The command once formed the Hessian itself, for its tolerance,
        # and certify_convexity formed it again.
        calls = []
        real = cubic.hessian_coefficients

        def counted(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(cubic, "hessian_coefficients", counted)
        code, _, _ = run_cli(capsys, "convex", DEMO_CUBIC, *DEMO_BOX_FLAGS)
        assert code == EXIT_PROVED and len(calls) == 1

    def test_hessian_past_the_largest_double_is_input_error(self, capsys):
        result = run_cli(capsys, "convex", "--box", "x1=0:1e308", "--", "1e308 x1^3")
        assert_input_error(result, "cannot form the Hessian")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_tolerance_is_input_error(self, capsys, tol):
        # --tol nan once proved the concave -x1^2 convex.
        result = run_cli(capsys, "convex", "--box", "x1=0:1", "--tol", tol, "--", "-x1^2")
        assert_input_error(result, "finite and nonnegative")

    def test_negative_vertex_budget_is_input_error(self, capsys):
        result = run_cli(capsys, "convex", "--box", "x1=0:1", "--vertex-budget", "-1", "--", "x1^2")
        assert_input_error(result, "vertex budget must be a nonnegative integer")

    def test_successive_calls_share_no_box(self, capsys):
        code, first, _ = run_cli(capsys, "convex", "x^2 + y^2", "--box", "x=0:1", "--box", "y=0:2")
        assert code == EXIT_PROVED and first["box"] == {"x1": [0.0, 1.0], "x2": [0.0, 2.0]}
        code, second, _ = run_cli(capsys, "convex", "x1^2", "--box", "x1=3:4")
        assert code == EXIT_PROVED and second["box"] == {"x1": [3.0, 4.0]}
        code, _, err = run_cli(capsys, "convex", "x^2 + y^2", "--box", "x=0:1")
        assert code == EXIT_INPUT_ERROR and "missing --box for x2" in err

    def test_usage_error_maps_to_input_error(self, capsys):
        assert main(["convex"]) == EXIT_INPUT_ERROR
        capsys.readouterr()



class TestBoxFrontDoors:
    """Every way into a parameter box: its errors, word for word, with exit 64, and its arrays, bit for bit."""

    @pytest.mark.parametrize(
        "parameter, message",
        [
            ('{"inf":[0],"sup":1}', """malformed parameter entry: parameter 1: TypeError("float() argument must be a string or a real number, not 'list'")"""),
            ('{"inf":{"a":1},"sup":1}', """malformed parameter entry: parameter 1: TypeError("float() argument must be a string or a real number, not 'dict'")"""),
            ('{"inf":0,"sup":1' + "0" * 400 + "}", "malformed parameter entry: parameter 1: OverflowError('int too large to convert to float')"),
            ('{"inf":0,"sup":1e999}', "interval bounds must be finite, got [0.0, inf] in parameter 1"),
            ('{"inf":NaN,"sup":1}', "interval bounds must be finite, got [nan, 1.0] in parameter 1"),
            ("[0, 1]", "malformed parameter entry: parameter 1: TypeError('list indices must be integers or slices, not str')"),
            ('{"inf":2,"sup":1}', "lower bound 2.0 exceeds upper bound 1.0 in parameter 1"),
        ],
        ids=["list", "dict", "huge-integer", "1e999", "NaN", "parameter-list", "reversed"],
    )
    def test_json_bound_errors(self, capsys, tmp_path, parameter, message):
        path = tmp_path / "box.json"
        path.write_text('{"n":1,"K":2,"coefficients":[[[1]],[[1]]],"parameters":[{"inf":0,"sup":1},%s]}' % parameter)
        result = run_cli(capsys, "check", str(path), "--goal", "strong-psd")
        assert result == (EXIT_INPUT_ERROR, None, f"error: malformed problem file: {message}\n")

    def test_json_names_the_first_faulty_parameter(self, capsys, tmp_path):
        # A reversed bound in parameter 1 and a list in parameter 2: each parameter is checked before the next.
        path = tmp_path / "box.json"
        params = '{"inf":0,"sup":1},{"inf":2,"sup":1},{"inf":[0],"sup":1}'
        path.write_text('{"n":1,"K":3,"coefficients":[[[1]],[[1]],[[1]]],"parameters":[%s]}' % params)
        result = run_cli(capsys, "check", str(path), "--goal", "strong-psd")
        message = "lower bound 2.0 exceeds upper bound 1.0 in parameter 1"
        assert result == (EXIT_INPUT_ERROR, None, f"error: malformed problem file: {message}\n")

    @pytest.mark.parametrize(
        "flag, expression, message",
        [
            ("x1=2:1", "x1^2", "lower bound 2.0 exceeds upper bound 1.0"),
            ("x1=nan:1", "x1^2", "interval bounds must be finite, got [nan, 1.0]"),
            ("x1=-inf:1", "x1^2", "interval bounds must be finite, got [-inf, 1.0]"),
            ("x1=1e999:2", "x1^2", "interval bounds must be finite, got [inf, 2.0]"),
            ("x1=2:1", "x1^2 + x2^2", "lower bound 2.0 exceeds upper bound 1.0"),
        ],
        ids=["reversed", "nan", "-inf", "1e999", "reversed-before-missing"],
    )
    def test_box_flag_errors(self, capsys, flag, expression, message):
        result = run_cli(capsys, "convex", "--box", flag, "--", expression)
        assert result == (EXIT_INPUT_ERROR, None, f"error: {message}\n")

    def test_every_front_door_builds_the_same_arrays(self):
        # Subnormal, degenerate and signed-zero bounds, where the midpoint's clamp and sign show.
        given = [(5e-324, 1e-323), (2.5, 2.5), (-1e-323, -5e-324), (-1.5, 0.75), (-0.0, 0.0), (5e-324, 5e-324)]
        bounds = [*given, (1.0, 1.0)]  # the Hessian's constant matrix adds the last parameter
        doc = {"n": 1, "K": len(bounds), "coefficients": [[[1.0]]] * len(bounds), "parameters": [{"inf": lo, "sup": hi} for lo, hi in bounds]}
        flags = [f"x{i}={lo!r}:{hi!r}" for i, (lo, hi) in enumerate(given, 1)]
        cubic_text = " + ".join(f"x{i}^3" for i in range(1, len(given) + 1)) + " + x1^2"
        boxes = [
            ParameterBox(Interval(lo, hi) for lo, hi in bounds),
            ParameterBox.from_bounds(bounds),
            problem_from_json(json.dumps(doc)).box,
            hessian(parse(cubic_text), _parse_box_flags(flags, len(given))).box,
        ]
        mid = [5e-324, 2.5, -5e-324, -0.375, 0.0, 5e-324, 1.0]
        for box in boxes:
            arrays = (box.inf(), box.sup(), box.mid())
            for got, want in zip(arrays, (*zip(*bounds), mid)):
                assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()
                assert not got.flags.writeable
                with pytest.raises(ValueError):
                    got[0] = 0.0


def test_parser_is_built_once(capsys, monkeypatch, split_file):
    from psdparam import cli

    built = []
    build = cli.build_parser

    def spy():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        assert main(["check", split_file, "--goal", "strong-pd"]) == EXIT_PROVED
        assert main(["convex", "x1^2", "--box", "x1=0:1"]) == EXIT_PROVED
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1


def test_command_is_looked_up_at_call_time(capsys, monkeypatch, split_file):
    from psdparam import cli

    seen = []
    check = cli.cmd_check

    def wrapped(args):
        seen.append(args.goal)
        return check(args)

    main(["check", split_file, "--goal", "strong-pd"])
    monkeypatch.setattr(cli, "cmd_check", wrapped)
    assert main(["check", split_file, "--goal", "strong-psd"]) == EXIT_PROVED
    capsys.readouterr()
    assert seen == ["strong-psd"]

"""CLI conformance: exit codes, report schema, determinism, flag handling."""

from __future__ import annotations

import dataclasses
import json
import time
from typing import get_args

import jsonschema
import numpy as np
import pytest

from conftest import DEMO_CUBIC
from psdparam import definiteness as df
from psdparam.cli import (
    EXIT_DISPROVED,
    EXIT_INPUT_ERROR,
    EXIT_PROVED,
    EXIT_UNKNOWN,
    certificate_to_jsonable,
    main,
    report_schema,
)
from psdparam.symlinalg import SymMatrix

SPLIT_DOC = (
    '{"n":2,"K":2,"coefficients":[[[1.5,0],[0,1.1]],[[-1,1],[1,1]]],'
    '"parameters":[{"inf":1,"sup":1},{"inf":0,"sup":1}]}'
)
REGULARITY_DOC = (
    '{"n":2,"K":3,"coefficients":[[[3.3,0.25],[0.25,3.3]],[[1,2],[2,0]],[[0,2],[2,1]]],'
    '"parameters":[{"inf":1,"sup":1},{"inf":0,"sup":1},{"inf":0,"sup":1}]}'
)

# Finite entries whose symmetrised coefficients and bound matrices overflow.
OVERFLOW_DOC = (
    '{"n":2,"K":2,"coefficients":[[[1e308,0],[0,1e308]],[[1e308,1e308],[1e308,-1e308]]],'
    '"parameters":[{"inf":1,"sup":2},{"inf":-1,"sup":1}]}'
)

# diag(p, -p) on p in [1, 2]: no member is even PSD, whatever the goal.
INDEFINITE_DOC = '{"n":2,"K":1,"coefficients":[[[1,0],[0,-1]]],"parameters":[{"inf":1,"sup":2}]}'

# Finite entries whose squares overflow; the member's smallest eigenvalue is -9e200.
HUGE_DOC = '{"n":2,"K":1,"coefficients":[[[1e200,1e201],[1e201,1e200]]],"parameters":[{"inf":1,"sup":1}]}'

DEMO_BOX_FLAGS = ["--box", "x1=2:3", "--box", "x2=1:2", "--box", "x3=0:1"]


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

    @pytest.mark.parametrize("goal", ["strong-psd", "strong-pd", "weak-psd", "weak-pd"])
    def test_overflowing_family_is_input_error(self, capsys, tmp_path, goal):
        path = tmp_path / "overflow.json"
        path.write_text(OVERFLOW_DOC)
        code, report, err = run_cli(capsys, "check", str(path), "--goal", goal)
        assert code == EXIT_INPUT_ERROR and report is None
        assert err.startswith("error:") and "overflow" in err

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

    def test_negative_seed_is_input_error(self, capsys, split_file):
        result = run_cli(capsys, "check", split_file, "--goal", "weak-pd", "--seed", "-1")
        assert_input_error(result, "seed must be a nonnegative integer")

    @pytest.mark.parametrize("goal", ["strong-pd", "weak-psd"])
    def test_negative_vertex_budget_is_input_error(self, capsys, tmp_path, goal):
        # -5 once ran the cascade and came back "unknown by vertex", exit 2.
        path = tmp_path / "indefinite.json"
        path.write_text(INDEFINITE_DOC)
        result = run_cli(capsys, "check", str(path), "--goal", goal, "--vertex-budget", "-5")
        assert_input_error(result, "vertex budget must be a nonnegative integer")

    @pytest.mark.parametrize("flag, name", [("--vertex-budget", "vertex budget"), ("--seed", "seed")])
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

"""Smoke tests for the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DESIGN = {
    "strong-vertex": {"vertex"},
    "weak": {"witness", "necessary", "unknown"},
    "convex": {"split", "vertex"},
}

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracer import SpanStats, Tracer  # noqa: E402


def run_bench(workload: str, trace: int, seed: int, cwd: Path = ROOT, smoke: bool = True):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace, seed=11)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    saved = json.loads((HERE / "out" / f"result-{workload}-seed11-trace{trace}.json").read_text(encoding="utf-8"))
    assert set(saved["stage_mix"]) == DESIGN[workload]
    if trace:
        assert result["metrics"]["trace.overhead_pct"]["value"] > -100.0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_report_prints_every_metric_for_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "report.py"), "--seed", "12", "--seconds", "0.2", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(w["name"] in lines[0] for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert any(line.split()[:2] == [metric["name"], metric["unit"]] for line in lines), metric["name"]


def test_full_instance_lists_reach_their_design_stages(tmp_path):
    from workloads import build

    for workload, stages in DESIGN.items():
        instances = build(workload, 3, tmp_path)
        assert {inst.stage for inst in instances} == stages
        if workload == "strong-vertex":
            kinds = {inst.label.rsplit("-", 1)[1] for inst in instances}
            assert kinds == {"proved", "late", "early"}


def test_gate_rejects_a_contradicted_verdict(tmp_path):
    from gate import Gate
    from workloads import build

    instances = build("strong-vertex", 5, tmp_path, smoke=True)
    gate = Gate(instances)
    slot = next(i for i, inst in enumerate(instances) if inst.expected == "disproved")
    forged = {
        "status": "proved",
        "method": "vertex",
        "certificate": {"type": "vertex_list", "checked": 16, "worst_vertex": [1.0] * 5, "worst_min_eig": 1.0},
        "timings_ms": {},
        "tolerances": {"definiteness": 1e-9},
    }
    assert gate.check(slot, 0, json.dumps(forged)) is not None
    assert gate.check(slot, 1, json.dumps(forged)) is not None  # exit code contradicts status
    assert gate.check(slot, 64, "") is not None


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    calls = []

    def leaf():
        calls.append("leaf")

    leaf_traced = tracer.span("m.leaf", leaf)

    def outer():
        leaf_traced()
        leaf_traced()

    tracer.span("m.outer", outer)()
    stats = SpanStats(tracer)
    assert stats.calls("m.leaf", parent="m.outer") == 2
    a = tracer.arrays()
    outer_row = tracer.names.index("m.outer")
    outer_self = a["self"][a["name"] == outer_row][0]
    assert np.isclose(outer_self, a["dur"][0] - a["dur"][1:].sum())
    assert stats.self_ms("m") == pytest.approx(a["dur"][0] * 1e3)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("weak", 0, seed=1, cwd=tmp_path, smoke=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

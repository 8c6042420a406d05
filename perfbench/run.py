"""psdparam benchmark: verdicts through ``psdparam.cli.main``, in process.

    python3 perfbench/run.py --workload strong-vertex --seed 1 --seconds 20 --trace 0

Closed loop with one caller: the next verdict starts when the previous one
returns.  The instances are generated from ``--seed`` and written as problem
files before timing starts; ``psdparam`` is imported from ``src/`` of the
checkout.  Whole cycles of the workload's instance list run until
``--seconds`` have passed, then every verdict goes through the correctness
gate.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an
untraced half and then the same cycles again with spans recorded at every
module boundary, and reports the per-layer metrics and the tracing
overhead.  The last stdout line is the JSON result; the lines before it
are a readable summary.  Results and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before numpy loads, here and in the set-up spawns.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_ROUNDS = 5
SETUP_SPAWNS = 3
# Time of Reference.sample's kernel on a 2-vCPU Intel Xeon VM in its fast
# state; timing metrics are scaled to this machine speed.
REFERENCE_MS = 0.55
STAGES = ("split", "regularity", "vertex", "necessary", "witness")


@dataclass
class Record:
    slot: int
    seconds: float
    code: int | None
    stdout: str
    error: str | None = None
    doc: dict | None = None


# ---------------------------------------------------------------------------
# measuring


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing psdparam.cli.

    Spawns alternate with the reference kernel; each round's spawn times are
    scaled by ``REFERENCE_MS`` over the kernel's median time in that round,
    as the verdict cycles are (see ``end_to_end``), and the result is the
    median scaled spawn time.
    """
    import numpy as np

    env = dict(os.environ, PYTHONPATH=str(SRC))
    reference = Reference()
    scaled = []
    for _ in range(SETUP_ROUNDS):
        spawns = []
        for _ in range(SETUP_SPAWNS):
            reference.sample()
            t0 = perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import psdparam.cli"],
                env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            spawns.append(perf_counter() - t0)
        scale = REFERENCE_MS / (np.median(reference.samples[-SETUP_SPAWNS:]) * 1e3)
        scaled += [t * scale for t in spawns]
    return float(np.median(scaled))


def invoke(cli, slot: int, argv: list) -> Record:
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except Exception as exc:  # a raising verdict is a failed operation, not a crash of the run
        return Record(slot, perf_counter() - t0, None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Record(slot, perf_counter() - t0, code, out.getvalue())


def run_cycle(cli, instances, before=None) -> list[Record]:
    """One verdict per instance, in order; ``before()`` runs ahead of each."""
    records = []
    for slot, inst in enumerate(instances):
        if before is not None:
            before()
        records.append(invoke(cli, slot, inst.argv))
    return records


class Reference:
    """A fixed kernel, timed before every verdict, that tracks the machine's speed.

    Jacobi-style rotations on a 6x6 matrix: Python loops over small numpy
    operations, the same kind of work as the program's hot path.  A shared
    machine can stay slow for minutes; the kernel's median time within a
    cycle says how slow that cycle ran.
    """

    def __init__(self):
        import numpy as np

        self.matrix = np.random.default_rng(0).standard_normal((6, 6))
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        w = self.matrix.copy()
        for _ in range(8):
            for p in range(5):
                for r in range(p + 1, 6):
                    cp, cr = w[:, p].copy(), w[:, r].copy()
                    w[:, p] = 0.8 * cp - 0.6 * cr
                    w[:, r] = 0.6 * cp + 0.8 * cr
        self.samples.append(perf_counter() - t0)


def run_for(cli, instances, seconds: float, before=None) -> list[Record]:
    """Whole cycles until ``seconds`` have passed."""
    records = []
    t0 = perf_counter()
    while not records or perf_counter() - t0 < seconds:
        records += run_cycle(cli, instances, before)
    return records


def run_traced(cli, psdparam, instances, seconds: float):
    """Alternate untraced and traced cycles until ``seconds`` pass.

    Alternating puts both kinds of cycle under the same machine conditions,
    so their best times give the tracing overhead.
    """
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    t0 = perf_counter()
    while not plain or perf_counter() - t0 < seconds:
        plain += run_cycle(cli, instances)
        tracer.install(psdparam)
        try:
            traced += run_cycle(cli, instances, before=tracer.begin_verdict)
        finally:
            tracer.uninstall()
    return tracer, plain, traced


def best_times(records, slots: int):
    """Each instance's fastest latency over the cycles in ``records``, in seconds."""
    import numpy as np

    return np.array([r.seconds for r in records]).reshape(-1, slots).min(axis=0)


def high_percentile(n: int) -> float:
    """p90, or the highest percentile with at least ten samples beyond it (never below p50)."""
    return max(0.5, min(0.9, 1.0 - 10.0 / n))


# ---------------------------------------------------------------------------
# metrics


def verdict_of(rec: Record) -> str:
    """Deciding stage, ``unknown``, or ``failed``."""
    if rec.doc is None:
        return "failed"
    if rec.doc["status"] == "unknown":
        return "unknown"
    return rec.doc["method"]


def gate_records(gate, records) -> list[str]:
    failures = []
    for rec in records:
        reason = rec.error
        if reason is None:
            reason = gate.check(rec.slot, rec.code, rec.stdout)
        if reason is None:
            rec.doc = json.loads(rec.stdout)
        else:
            failures.append(f"slot {rec.slot}: {reason}")
    return failures


def end_to_end(records, slots: int, setup_s: float, peak_rss_mb: float, reference_s) -> tuple[dict, dict]:
    """End-to-end metrics from each instance's median scaled time over the run's cycles.

    Other tenants of a shared machine slow it down, only ever upwards: for
    fractions of a second, and at times for minutes.  Each cycle's times
    are scaled to the speed at which the reference kernel takes
    ``REFERENCE_MS``, by the kernel's median time within that cycle
    (``reference_s`` holds one kernel time per verdict).  An instance's
    median scaled time over the cycles stands for its cost: every verdict's
    latency is replaced by it before the percentiles are taken, and
    throughput is the cycle length over their sum.
    """
    import numpy as np

    cycles = len(records) // slots
    scale = REFERENCE_MS / (np.median(np.array(reference_s).reshape(cycles, slots), axis=1) * 1e3)
    seconds = np.array([r.seconds for r in records]).reshape(cycles, slots)
    typical = np.median(seconds * scale[:, None], axis=0)
    lat = np.tile(typical, cycles) * 1e3
    q = high_percentile(len(lat))
    decided = sum(verdict_of(r) not in ("unknown", "failed") for r in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (slots / typical.sum(), "1/s"),
        "latency_p50_ms": (float(np.percentile(lat, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(lat, 100 * q)), "ms"),
        "decided_share": (decided / len(records), "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = np.array([r.seconds for r in records]) * 1e3
    info = {
        "latency_samples": len(lat),
        "latency_high_percentile": 100 * q,
        "median_cycle_scale": float(np.median(scale)),
        "raw_verdicts_per_s": len(records) / raw.sum() * 1e3,
        "raw_latency_p50_ms": float(np.percentile(raw, 50)),
        "raw_latency_high_ms": float(np.percentile(raw, 100 * q)),
    }
    return metrics, info


def stage_mix(records) -> dict:
    mix: dict[str, int] = {}
    for rec in records:
        key = verdict_of(rec)
        mix[key] = mix.get(key, 0) + 1
    return mix


def vertices_needed(psdparam, inst, doc) -> int:
    """Vertices a sequential Gray-order scan needs to reach this vertex verdict."""
    cert = doc["certificate"]
    if cert["type"] == "vertex_list":
        return cert["checked"]
    if inst.argv[0] == "check":
        family = psdparam.problem_from_json(Path(inst.argv[1]).read_text(encoding="utf-8"))
    else:
        box = psdparam.ParameterBox.from_bounds(zip(inst.lows[:-1], inst.highs[:-1]))
        family = psdparam.hessian(psdparam.parse(inst.argv[-1]), box)
    enum = psdparam.vertices(family, tol=doc["tolerances"]["definiteness"])
    target = tuple(cert["p"])
    return next(i + 1 for i in range(len(enum)) if enum[i].values == target)


def per_layer(psdparam, instances, plain, traced, stats, counts) -> dict:
    v = len(traced)  # the traced cycles repeat the untraced ones

    def stage_ms(stage):
        """Total stage time over the untraced pass's reports."""
        return sum(r.doc["timings_ms"].get(stage, 0.0) for r in plain if r.doc is not None)

    needed = {}
    for rec in traced:
        if rec.doc is not None and verdict_of(rec) == "vertex" and rec.slot not in needed:
            needed[rec.slot] = vertices_needed(psdparam, instances[rec.slot], rec.doc)
    needed_total = sum(needed.get(r.slot, 0) for r in traced if r.doc is not None and verdict_of(r) == "vertex")
    visited = counts["vertices_visited"]
    vertex_s = stage_ms("vertex") / 1e3

    diagnostics = sum(
        stats.ms(name, parent="cubic.certify_convexity")
        for name in ("parametric.relax", "definiteness.strong_psd_interval", "definiteness.hertz_min_eig")
    )
    certify = stats.ms("cubic.certify_convexity")
    cli_self = (
        stats.ms("cli.main")
        - stats.ms("definiteness.decide", parent="cli.cmd_check")
        - stats.ms("cubic.certify_convexity", parent="cli.cmd_convex")
    )
    mix = stage_mix(plain)
    m = {
        "symlinalg.eig_sym_calls": (stats.calls("symlinalg.eig_sym") / v, "calls/verdict"),
        "symlinalg.eig_sym_ms": (stats.ms("symlinalg.eig_sym") / v, "ms/verdict"),
        "symlinalg.psd_split_ms": (stats.ms("symlinalg.psd_split") / v, "ms/verdict"),
        "symlinalg.invert_ms": (stats.ms("symlinalg.invert") / v, "ms/verdict"),
        "symlinalg.perron_ms": (stats.ms("symlinalg.spectral_radius_nonneg") / v, "ms/verdict"),
        "symlinalg.perron_iterations": (counts["perron_iterations"] / v, "iters/verdict"),
        "parametric.evaluate_calls": (stats.calls("parametric.evaluate") / v, "calls/verdict"),
        "parametric.evaluate_ms": (stats.ms("parametric.evaluate") / v, "ms/verdict"),
        "parametric.vertices_ms": (stats.ms("parametric.vertices") / v, "ms/verdict"),
        "parametric.relax_ms": (stats.ms("parametric.relax") / v, "ms/verdict"),
        "parametric.precondition_relax_ms": (stats.ms("parametric.precondition_relax") / v, "ms/verdict"),
        "parametric.problem_from_json_ms": (stats.ms("parametric.problem_from_json") / v, "ms/verdict"),
        "intervals.calls": (
            sum(stats.calls(f"intervals.{f}") for f in ("scale", "im_add", "symmetric_parts")) / v,
            "calls/verdict",
        ),
        "intervals.ms": (
            sum(stats.ms(f"intervals.{f}") for f in ("scale", "im_add", "symmetric_parts")) / v,
            "ms/verdict",
        ),
        **{f"definiteness.{s}_ms": (stage_ms(s) / len(plain), "ms/verdict") for s in STAGES},
        **{f"definiteness.decided_by_{s}": (mix.get(s, 0) / len(plain), "share") for s in STAGES},
        "definiteness.vertices_visited": (visited / v, "vertices/verdict"),
        "definiteness.vertices_per_s": (visited / vertex_s if vertex_s else 0.0, "1/s"),
        "definiteness.vertex_useful_ratio": (needed_total / visited if visited else 0.0, "ratio"),
        "definiteness.witness_evals": (
            stats.calls("parametric.evaluate", parent="definiteness.weak_pd_witness") / v,
            "evals/verdict",
        ),
        "cubic.parse_ms": (stats.ms("cubic.parse") / v, "ms/verdict"),
        "cubic.hessian_ms": (stats.ms("cubic.hessian") / v, "ms/verdict"),
        "cubic.diagnostics_ms": (diagnostics / v, "ms/verdict"),
        "cubic.diagnostics_share": (diagnostics / certify if certify else 0.0, "share"),
        **{
            f"{module}.self_ms": (stats.self_ms(module) / v, "ms/verdict")
            for module in ("intervals", "symlinalg", "parametric", "definiteness", "cubic")
        },
        "cli.self_ms": (cli_self / v, "ms/verdict"),
        "cli.report_bytes": (sum(len(r.stdout.encode()) for r in plain) / len(plain), "bytes/verdict"),
        "verdict.failed_share": (sum(r.doc is None for r in plain + traced) / len(plain + traced), "share"),
        "verdict.unknown_share": (mix.get("unknown", 0) / len(plain), "share"),
        "trace.overhead_pct": (
            100.0 * (best_times(traced, len(instances)).sum() / best_times(plain, len(instances)).sum() - 1.0),
            "%",
        ),
    }
    return m


# ---------------------------------------------------------------------------
# environment and output


def environment() -> dict:
    import numpy as np

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def print_summary(title: str, metrics: dict, extra: dict) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    for key, value in extra.items():
        print(f"  {key}: {json.dumps(value)}")


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances of the same kinds, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "psdparam" / "cli.py").is_file():
        print(f"error: no psdparam sources under {SRC}; run from a psdparam checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s = measure_setup() if args.trace == 0 else None

    import psdparam
    from psdparam import cli

    from gate import Gate
    from tracer import SpanStats
    from workloads import build

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / f"problems-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        instances = build(args.workload, args.seed, workdir, smoke=args.smoke)
        gate = Gate(instances)
        invoke(cli, 0, instances[0].argv)  # warm-up, untimed

        if args.trace == 0:
            reference = Reference()
            records = run_for(cli, instances, args.seconds, before=reference.sample)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failures = gate_records(gate, records)
            metrics, info = end_to_end(records, len(instances), setup_s, peak_rss_mb, reference.samples)
            info["failed_share"] = len(failures) / len(records)
            info["unknown_share"] = stage_mix(records).get("unknown", 0) / len(records)
            detail = {"latencies": [[r.slot, r.seconds] for r in records], "reference_s": reference.samples}
        else:
            tracer, plain, traced = run_traced(cli, psdparam, instances, args.seconds)
            records = plain + traced
            failures = gate_records(gate, records)
            metrics = per_layer(psdparam, instances, plain, traced, SpanStats(tracer), tracer.counts)
            tracer.save(OUT / f"spans-{tag}.npz")
            info = {"spans": len(tracer.start)}
            detail = {}

        summary = {
            "cycles": len(records) // len(instances),
            "slots": len(instances),
            "stage_mix": stage_mix(records),
            "design_stages": sorted({inst.stage for inst in instances}),
            **info,
            "failures": failures[:20],
            "environment": environment(),
        }
        print_summary(f"psdparam benchmark: {args.workload}, seed {args.seed}, trace {args.trace}", metrics, summary)
        result = {
            "correct": not failures,
            "attempted": len(records),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
            json.dumps({**result, **summary, **detail}, indent=1), encoding="utf-8"
        )
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

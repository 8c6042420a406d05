"""Every benchmark metric for every workload, in one table.

    python3 perfbench/report.py --seed 1 --seconds 30

Runs ``run.py`` once untraced and once traced per workload of
``BENCHMARK.json`` and prints each metric by name, with its unit, one column
per workload.  Exits 1 if any run fails its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    table: dict[str, dict[str, float]] = {}
    units: dict[str, str] = {}
    correct = True
    for workload in workloads:
        for trace in (0, 1):
            cmd = [
                *spec["command"], "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run([sys.executable, *cmd[1:]], cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                table.setdefault(name, {})[workload] = metric["value"]
                units[name] = metric["unit"]

    width = max(len(name) for name in table)
    print(f"{'metric':<{width}}  {'unit':<16}" + "".join(f"{w:>16}" for w in workloads))
    for name, row in table.items():
        print(f"{name:<{width}}  {units[name]:<16}" + "".join(f"{row[w]:>16.6g}" for w in workloads))
    print(f"correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

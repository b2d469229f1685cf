"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/stability.py --workload scan --seeds 1-10

For every end-to-end metric this prints the median over the runs and the
distance between the first and third quartile as a share of the median,
next to the metric's bound from BENCHMARK.json.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import summary

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    status = 0
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=False,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}{proc.stdout}")
                status = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            spread = summary.spread(vals) if med else float("nan")
            bound = bounds.get(name)
            print(f"{workload} {name}: median {med:.6g} spread {spread:.4f}"
                  + (f" bound {bound} ({spread / bound:.2f} of it)" if bound else ""))
    return status


if __name__ == "__main__":
    sys.exit(main())

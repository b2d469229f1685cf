"""Benchmark of the deodhar toolkit, run from the root of a checkout.

    python3 bench/run.py --workload census --seed 1 --seconds 22 --trace 0

The workload's inputs are generated from ``--seed``.  Timed passes, each in
a fresh interpreter and one at a time, repeat until ``--seconds`` have gone
by (at least ``MIN_PASSES``); :func:`end_to_end` says how the passes are
combined.  Every job's verdict is checked; any failed check makes the exit
code 1.  Everything runs in one thread, so no job ever waits for another.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with times scaled to a reference machine speed (see :mod:`calibration`).
With ``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones, unscaled, plus the tracing overhead; the spans of the
last traced pass are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details: the failure fraction ``fail_frac``, job counts, which
tail percentile was used, the unscaled times, the failed checks and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import inputs
import summary
import tracing

ROOT = Path(__file__).resolve().parent.parent
PASS_SCRIPT = Path(__file__).resolve().parent / "timed_pass.py"
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 4
RUN_LIMIT_S = 170.0  # no pass may run past this many seconds from the start


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_pass(workload: str, payload: dict, trace: bool, deadline: float) -> dict:
    request = json.dumps({"workload": workload, "inputs": payload, "trace": trace})
    timeout = max(1.0, deadline - time.monotonic())
    # A fixed hash seed makes every pass of a run iterate its sets and dicts
    # in the same order, so the passes repeat exactly the same work.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(PASS_SCRIPT)], input=request, capture_output=True,
        text=True, cwd=ROOT, env=env, timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"timed pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _scaled(p: dict) -> dict:
    """One pass's timings scaled to the calibration probe's reference speed
    (see :mod:`calibration`): each job by the probes around and during it,
    the time between jobs by the pass's median probe, set-up by its own."""
    ref = calibration.REFERENCE_S
    job_s = [t * ref / probe for t, probe in zip(p["job_s"], p["job_probe_s"])]
    between_s = max(0.0, p["run_s"] - sum(p["job_s"]))
    return {
        "job_s": job_s,
        "run_s": sum(job_s) + between_s * ref / p["run_probe_s"],
        "setup_s": p["setup_s"] * ref / p["setup_probe_s"],
    }


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Medians over the passes of the scaled timings (see :mod:`calibration`)
    and of peak memory.  A job's time is its median over the passes;
    ``item_p50_ms`` and ``item_tail_ms`` are the median and the tail of
    those job times."""
    labels = passes[0]["labels"]
    if any(p["labels"] != labels for p in passes):
        raise RuntimeError("passes of one run ran different jobs")
    scaled = [_scaled(p) for p in passes]
    job_s = [statistics.median(times) for times in zip(*(s["job_s"] for s in scaled))]
    tail_s, tail_rule = summary.tail(job_s)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in scaled),
        "run_s": statistics.median(s["run_s"] for s in scaled),
        "item_p50_ms": 1000.0 * statistics.median(job_s),
        "item_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    slowest = max(range(len(job_s)), key=job_s.__getitem__)
    wall_job_s = [statistics.median(times) for times in zip(*(p["job_s"] for p in passes))]
    details = {
        "tail_rule": tail_rule,
        "slowest_job": labels[slowest],
        "unscaled": {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "run_s": statistics.median(p["run_s"] for p in passes),
            "item_p50_ms": 1000.0 * statistics.median(wall_job_s),
            "item_tail_ms": 1000.0 * summary.tail(wall_job_s)[0],
        },
        "probe_ms": 1000.0 * statistics.median(p["run_probe_s"] for p in passes),
    }
    return values, details


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced passes, unscaled, so that self times and
    ``trace.run_s`` share one clock.  ``trace.overhead_s`` is the median
    traced ``run_s`` less the median untraced one, both scaled, since the
    two kinds of pass ran at different moments."""
    names = traced[0]["layers"].keys()
    values = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    for name in ("roots.structure.build_s", "chevalley.adjoint_rep.build_s"):
        values[name] = statistics.median(p["build_s"].get(name, 0.0) for p in traced)
    values["trace.run_s"] = statistics.median(p["run_s"] for p in traced)
    values["trace.overhead_s"] = (statistics.median(_scaled(p)["run_s"] for p in traced)
                                  - statistics.median(_scaled(p)["run_s"] for p in plain))
    return values


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "deodhar" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'deodhar'} is missing", file=sys.stderr)
        return 2

    started = time.monotonic()
    payload = inputs.GENERATORS[args.workload](args.seed)
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            trace_turn = bool(args.trace) and len(traced) < len(plain)
            (traced if trace_turn else plain).append(
                run_pass(args.workload, payload, trace_turn, started + RUN_LIMIT_S))
            if args.trace:
                done = len(traced) == len(plain)
            else:
                done = len(plain) >= MIN_PASSES
            if done and time.monotonic() - started >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(len(p["job_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    if args.trace:
        values = per_layer(plain, traced)
        wanted = spec["per_layer"]
        details = {}
        for p in traced:  # self times partition the traced time, so this cannot fail
            self_total = sum(p["layers"][f"{layer}.self_s"] for layer in tracing.LAYERS)
            if self_total > p["run_s"]:
                failed += 1
                details["trace_error"] = f"layer self times {self_total} exceed run_s {p['run_s']}"
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": environment(),
            "spans": traced[-1]["spans"], "layers": traced[-1]["layers"],
        }), encoding="utf-8")
        details["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        values, details = end_to_end(plain)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "jobs_per_pass": len(plain[0]["job_s"]),
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        "failures": [f for p in passes for f in p["failures"]][:20],
        "environment": environment(),
    })
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

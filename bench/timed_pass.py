"""One timed pass of one workload, in a fresh interpreter.

Reads ``{"workload", "inputs", "trace"}`` as JSON on stdin and writes one
JSON object on stdout.  Running each pass in its own interpreter starts
every memo cache of the program cold, as it is for each command-line call.

Set-up is the import of the program plus the tables the workload builds
before its first job.  The pass runs the jobs; tracing, when asked for, is
installed after set-up and removed before the verdicts are checked.  Peak
memory is read before the checks, so it is the program's, not theirs.
"""

import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import tracing

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    request = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    sampler = calibration.Sampler()
    with contextlib.ExitStack() as stack:
        if not request["trace"]:  # traced passes report unscaled times
            stack.enter_context(sampler)
        setup_probes = [calibration.probe()]
        overhead = sampler.overhead_s
        start = time.perf_counter()
        import jobs  # imports the program

        workload = jobs.WORKLOADS[request["workload"]](request["inputs"])
        done = time.perf_counter()
        setup_s = done - start - (sampler.overhead_s - overhead)
        setup_probes += sampler.between(start, done) + [calibration.probe()]

        tracer = None
        if request["trace"]:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        runner = jobs.Runner(sampler, tracer)
        overhead = sampler.overhead_s
        start = time.perf_counter()
        workload.run(runner)
        runner.probe()
        run_s = (time.perf_counter() - start - runner.untimed_s
                 - (sampler.overhead_s - overhead))
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = workload.check(runner.digests)
    result = {
        "setup_s": setup_s,
        "setup_probe_s": statistics.median(setup_probes),
        "run_s": run_s,
        "run_probe_s": statistics.median(runner.probes + sampler.probes),
        "job_s": runner.times,
        "job_probe_s": runner.job_probes(),
        "peak_rss_mb": peak_rss_mb,
        "labels": runner.labels,
        "failures": [[runner.labels[i], msg] for i, msg in sorted(failures.items())],
        "build_s": workload.build_s,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, run_s)
        result["spans"] = tracer.spans
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

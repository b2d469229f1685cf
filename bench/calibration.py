"""A fixed pure-Python loop that measures how fast the machine runs right now.

Other tenants of a shared machine slow it down by half or more, for stretches
of seconds to minutes.  Timing this loop next to every job, and every
``SAMPLE_INTERVAL_S`` during long ones, and scaling the job's time by
``REFERENCE_S / probe time`` removes that common factor: the scaled times are
what the run would have taken at the speed at which the probe takes
``REFERENCE_S``.  The loop allocates no containers, so it never triggers the
cyclic garbage collector and does not depend on the program's heap.
"""

from __future__ import annotations

import signal
import time

PROBE_ITERATIONS = 10_000
# The probe's time on the machine the benchmark was defined on (a 2-vCPU
# Intel Xeon VM, Python 3.11) in its faster stretches.  Any fixed value
# works; this one keeps scaled times close to wall times there.
REFERENCE_S = 0.0007
SAMPLE_INTERVAL_S = 0.1

_TABLE = {k: (k * 7919) % 251 for k in range(64)}


def probe() -> float:
    """Seconds taken by one fixed run of the loop."""
    table = _TABLE
    total = 0
    start = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        total += table[i & 63] ^ i
    elapsed = time.perf_counter() - start
    if total < 0:  # never true; keeps the loop's result alive
        raise AssertionError(total)
    return elapsed


class Sampler:
    """Runs the probe from a timer signal every ``SAMPLE_INTERVAL_S`` while
    active, recording when each sample started and how long the probe took;
    ``overhead_s`` is the time spent in the handler, for callers to subtract
    from what they time.  Samples are kept as floats in two lists, so the
    handler allocates no container for the garbage collector to count."""

    def __init__(self):
        self.starts: list[float] = []
        self.probes: list[float] = []
        self.overhead_s = 0.0

    def _on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.starts.append(start)
        self.probes.append(probe())
        self.overhead_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, start: float, end: float) -> list[float]:
        """Probe times of the samples taken in ``[start, end]``."""
        return [p for t, p in zip(self.starts, self.probes) if start <= t <= end]

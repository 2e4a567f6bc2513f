"""The machine's pace, from a fixed computation timed all through a run.

On the shared host this benchmark was built on, a process runs at one of two
speeds, the slower about 1.6 times slower, switching within a second or so;
the share of time spent at the slower one drifts over minutes, and a run
cannot outlast that drift. So run.py also times a fixed piece of the
benchmark's own pure Python, `checks.analyse` (the sublevel sweep written
apart from treemorse) over a seeded set of small functions and one
150-vertex tree, every SAMPLE_EVERY_S of wall time, and quotes each
operation's time at the nominal pace:

    time * NOMINAL_S / mean of the reference samples within WINDOW_S of it

The mean, not the median: between two speeds the median jumps from one to
the other. The reference runs none of treemorse's code, so a change to the
program moves the quoted times in full; the machine's drift is what comes
out.

    python3 bench/pace.py     # time the reference 200 times; print mean and median
"""

from __future__ import annotations

import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from itertools import accumulate
from time import perf_counter

import checks
import inputs

NOMINAL_S = 0.001  # the reference time at which timings are quoted
SAMPLE_EVERY_S = 0.05  # wall time between two samples
WINDOW_S = 1.0  # samples this close to an operation set its pace


def _reference_inputs() -> list[tuple[dict, list]]:
    rng = random.Random(0)
    functions = []
    for pairs in list(inputs.FIVE_VERTEX_TREES.values()) * 6:
        vertices = {v: rng.randrange(100) for v in inputs.vertex_names(pairs)}
        edges = [(u, v, max(vertices[u], vertices[v]) + 1 + rng.randrange(20)) for u, v in pairs]
        functions.append((vertices, edges))
    doc = inputs.random_document("recursive", 150, True, rng)
    functions.append((doc["vertices"], [tuple(e) for e in doc["edges"]]))
    return functions


_FUNCTIONS = _reference_inputs()


def reference() -> float:
    """Seconds the fixed computation takes now."""
    t0 = perf_counter()
    for vertices, edges in _FUNCTIONS:
        checks.analyse(vertices, edges)
    return perf_counter() - t0


class Pace:
    """Reference samples taken every SAMPLE_EVERY_S of wall time.

    A timer signal interrupts whatever runs, operations included, so that
    operations seconds long have their pace sampled while they run, not only
    at their ends. The samples therefore add about 2% to every measured
    time, on the parent and on a change alike.
    """

    def __init__(self) -> None:
        for _ in range(5):  # warm-up
            reference()
        self.at: list[float] = []  # when each sample started
        self.samples: list[float] = []
        self._running = False
        self._sampling = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._sampling:  # a late signal does not nest a sample in another
            self._sampling = True
            self.at.append(perf_counter())
            self.samples.append(reference())
            self._sampling = False

    def _arm(self, interval: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._running = True
        self._arm(SAMPLE_EVERY_S)

    @contextmanager
    def paused(self):
        """No samples while a child process is timed."""
        if self._running:
            self._arm(0)
        try:
            yield
        finally:
            if self._running:
                self._arm(SAMPLE_EVERY_S)

    def finish(self) -> None:
        """Stop sampling; prepare the prefix sums that scale() reads."""
        self._running = False
        self._arm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._on_alarm(signal.SIGALRM, None)
        self._sums = [0.0, *accumulate(self.samples)]

    def scale(self, start: float, end: float) -> float:
        """Multiply the time of something that ran from `start` to `end` by
        this to quote it at the nominal pace."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # nothing near: the nearest samples on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return NOMINAL_S * (hi - lo) / (self._sums[hi] - self._sums[lo])

    def scaled(self, times: list[float], ends: list[float]) -> list[float]:
        """Each time, ended at the matching entry of `ends`, at the nominal pace."""
        return [t * self.scale(end - t, end) for t, end in zip(times, ends)]


if __name__ == "__main__":
    times = [reference() for _ in range(200)]
    print(f"reference: mean {statistics.fmean(times) * 1e3:.3f} ms, "
          f"median {statistics.median(times) * 1e3:.3f} ms (nominal {NOMINAL_S * 1e3:g} ms)")

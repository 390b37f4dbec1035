"""
How fast the machine runs Python code right now, sampled while a pass runs.

On a shared virtual machine each vCPU's speed swings by up to a factor of
two within seconds, and the vCPUs swing apart, so a pass's bare wall time
mostly measures the host.  `Sampler` runs a fixed pure-Python loop, which
does not import bperm, once before a command line, every SAMPLE_INTERVAL_S
while it runs (on a timer signal, in the main thread), and once after it.
`worker.py` scales the command line's time by the mean speed the samples
saw, and so reports what the pass would take at the reference speed: one
loop in REFERENCE_S.

Each loop is timed twice.  Its CPU time scales the pass's CPU time.  For the
pass's wall time: while the pass has no child processes, a loop runs on the
CPU the pass runs on and its wall time counts, so the speed also reflects the
time the host takes that vCPU away.  While pool workers run they keep every
CPU busy: successive loops then move to successive CPUs, so the pass is
scaled by the speed of all of them, and their CPU time counts, which leaves
out the share of the CPU that the worker running there takes.

    python3 perfbench/calibrate.py      # prints ten loop times
"""
from __future__ import annotations

import itertools
import os
import signal
import statistics
import time

# The loop's time at the reference speed.  It only fixes the scale of the
# reported times: about the loop's fastest time on the machine the figures
# in README.md come from (2 vCPUs of an Intel Xeon at 2.0 GHz, Python 3.11.7).
REFERENCE_S = 0.003
SAMPLE_INTERVAL_S = 0.2
PERMUTATION_SIZE = 6
REPEATS = 2
EXPECTED_INVERSIONS = 5400  # sum of inversions over all 6! permutations


def reference_work() -> int:
    """Total inversions over all permutations of 6 letters: tuples, loops, comparisons."""
    total = 0
    for word in itertools.permutations(range(PERMUTATION_SIZE)):
        for i, left in enumerate(word):
            for right in word[i + 1:]:
                if left > right:
                    total += 1
    return total


def loop_seconds() -> tuple[float, float]:
    """Wall and thread CPU seconds of REPEATS runs of the reference loop."""
    wall, cpu = time.perf_counter(), time.thread_time()
    totals = [reference_work() for _ in range(REPEATS)]
    wall, cpu = time.perf_counter() - wall, time.thread_time() - cpu
    if totals != [EXPECTED_INVERSIONS] * REPEATS:
        raise RuntimeError(f"calibration loop computed {totals}, not {EXPECTED_INVERSIONS}")
    return wall, cpu


def has_children() -> bool:
    """Whether this process has child processes now (read from /proc)."""
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
                if handle.read().strip():
                    return True
    except OSError:
        return True  # unknown: time loops as if pool workers were running
    return False


class Sampler:
    """Speed samples of one command line, and the time spent taking them."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.taken = 0
        self.wall_loops: list[float] = []  # loop seconds that scale wall time
        self.cpu_loops: list[float] = []  # loop seconds that scale CPU time
        self.own_wall_s = self.own_cpu_s = 0.0

    def sample(self, *_signal) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        pooled = has_children()
        moved = pooled and len(self.cpus) > 1
        if moved:
            os.sched_setaffinity(0, {self.cpus[self.taken % len(self.cpus)]})
        try:
            loop_wall, loop_cpu = loop_seconds()
            self.wall_loops.append(loop_cpu if pooled else loop_wall)
            self.cpu_loops.append(loop_cpu)
        finally:
            if moved:
                os.sched_setaffinity(0, self.cpus)
            self.taken += 1
            self.own_wall_s += time.perf_counter() - wall
            self.own_cpu_s += time.process_time() - cpu

    def begin(self) -> None:
        """Take the first sample, then sample on the timer."""
        self.wall_loops, self.cpu_loops = [], []
        self.sample()
        self.own_wall_s = self.own_cpu_s = 0.0
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def disarm(self) -> None:
        """Stop the timer; own_wall_s and own_cpu_s now cover the call alone."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def finish(self) -> tuple[float, float]:
        """Take the last sample; return the mean speeds over the reference speed."""
        self.sample()
        return tuple(
            statistics.fmean(REFERENCE_S / loop for loop in loops)
            for loops in (self.wall_loops, self.cpu_loops)
        )


if __name__ == "__main__":
    for _ in range(10):
        print("%.5f s wall, %.5f s cpu" % loop_seconds())

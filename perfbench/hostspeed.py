"""Host-speed calibration for the end-to-end times.

The benchmark's host is shared: on a 2-vCPU guest the same simulator pass
has taken 12.2 s and 23.3 s ten minutes apart, with other tenants' load,
not the code, making the difference.  :class:`Sampler` measures the host's
speed *during* a timed region: an interval timer interrupts the region
every :data:`INTERVAL_S` seconds and the signal handler times a short run
of a fixed pure-Python :class:`Kernel`.  The handler's own time is
subtracted from the region, and every end-to-end time is reported at the
reference speed as ``raw * REFERENCE_S / kernel``.  On that guest the
reference-speed walls of ten runs per workload spread 2.9-4.6% (quartile
distance over median); in one set of six runs whose raw walls spread 27%,
an earlier form of this calibration brought the spread down to 3.7%.

The kernel mimics the simulator's interpreter-bound hot loop (a timer
heap, generator resumes, dict updates, scattered reads of a 2 MiB table)
but lives in the benchmark, so a change to the simulator cannot change
it.  Its state is built once and a run allocates no garbage-collected
object, so sampling inside a scenario moves neither a simulated result
nor the collector's schedule.
"""

from __future__ import annotations

import heapq
import signal
import time
from array import array
from typing import List, Tuple

#: kernel seconds per :data:`ROUNDS` rounds at the reference host speed
REFERENCE_S = 0.055
ROUNDS = 40_000

#: seconds between two samples inside a timed region, and their size
INTERVAL_S = 0.1
BURST_ROUNDS = 2_000

_PROCS = 64
_TABLE_WORDS = 1 << 18


def _process():
    total = 0
    while True:
        total += yield total


class Kernel:
    """The calibration kernel and its preallocated state."""

    def __init__(self) -> None:
        self._procs = [_process() for _ in range(_PROCS)]
        for proc in self._procs:
            next(proc)
        # heap entries are ints (time << 6 | process): no tuple per push
        self._heap = list(range(_PROCS))
        self._table = array("q", range(_TABLE_WORDS))
        self._visits = dict.fromkeys(range(_PROCS), 0)

    def run(self, rounds: int = ROUNDS) -> Tuple[float, float]:
        """(wall s, CPU s) of ``rounds`` rounds, scaled to :data:`ROUNDS`."""
        heap, procs, table, visits = (self._heap, self._procs, self._table,
                                      self._visits)
        pop, push = heapq.heappop, heapq.heappush
        mask = _TABLE_WORDS - 1
        index = total = 0
        t0, c0 = time.perf_counter(), time.process_time()
        for i in range(rounds):
            entry = pop(heap)
            k = entry & (_PROCS - 1)
            procs[k].send(i)
            visits[k] += 1
            index = (index * 1103515245 + 12345) & mask
            total += table[index]
            push(heap, entry + ((7 + k % 7) << 6))
        scale = ROUNDS / rounds
        return ((time.perf_counter() - t0) * scale,
                (time.process_time() - c0) * scale)


class Sampler:
    """Samples host speed while a ``with`` block runs.

    One :data:`BURST_ROUNDS` kernel run per :data:`INTERVAL_S` of wall
    time inside the block.  :attr:`spent` is the (wall, CPU) time the
    samples took, which the caller subtracts from the block's time.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.samples: List[Tuple[float, float]] = []
        self.spent = (0.0, 0.0)

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(self.kernel.run(BURST_ROUNDS))
        wall, cpu = self.spent
        self.spent = (wall + time.perf_counter() - t0,
                      cpu + time.process_time() - c0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

"""Host speed, measured by timing a fixed pure-Python kernel.

On a shared host the same code runs up to twice as slow for stretches of
tens of seconds to minutes, long enough to cover a whole run, while the
kernel and the idindex CLI slow down together.  The worker therefore times
this kernel every 50 ms while it measures and reports times scaled to a
host on which the kernel takes ``REF_KERNEL_S``:
``t * REF_KERNEL_S / mean kernel time``.  On a shared 2-vCPU VM, over ten
seeds per workload, this cut the quartile spread of the pass time from
11-33% of the median to 2-10%.

The kernel does the kind of work the solvers do (list-of-lists counters,
tuple unpacking, closures, recursion), touches no idindex code, and does
the same work on every call, so a change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time

# The kernel's time on the host the reference numbers were taken on
# (Python 3.11, one core of a 2-vCPU VM); only a scale factor.
REF_KERNEL_S = 0.005

_ROWS = 64
_WIDTH = 24
_UPDATES = tuple(
    tuple(((w * 7 + j * 13) % _ROWS, (w + j) % 6 - 1, (w * 3 + j) % 5 - 1) for j in range(12))
    for w in range(20)
)


def kernel() -> int:
    """Fixed work; returns a checksum so that nothing is optimised away."""
    delta = [[0] * _WIDTH for _ in range(_ROWS)]
    nonzero = [0] * _ROWS
    k = 4

    def place(w, c, sign):
        for p, ip, im in _UPDATES[w]:
            row = delta[p]
            if ip >= 0:
                s = ip * k + c
                old = row[s]
                row[s] = old + sign
                if old == 0:
                    nonzero[p] += 1
            if im >= 0:
                s = im * k + c
                old = row[s]
                row[s] = old - sign
                if old == 0:
                    nonzero[p] -= 1

    def dfs(depth, acc):
        if depth == 6:
            return acc + sum(nonzero)
        total = 0
        for c in range(3):
            w = (depth * 3 + c) % 20
            place(w, c, 1)
            total += dfs(depth + 1, acc + c)
            place(w, c, -1)
        return total

    return dfs(0, 0)


def sample() -> float:
    """Seconds one kernel call takes right now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class Probe:
    """Samples the kernel every ``every_s`` seconds of wall time while it is
    active, from a ``SIGALRM`` handler, so that the samples interleave with
    the calls they scale, also inside a call that takes seconds.  The time
    the handler takes is added to ``stolen``; a caller subtracts it from
    the time it measures."""

    def __init__(self, every_s: float = 0.05):
        self.every_s = every_s
        self.stolen = 0.0
        self.samples: list[float] = []
        self._previous = None
        self._busy = False

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a signal that came during a sample
            return
        self._busy = True
        started = time.perf_counter()
        self.samples.append(sample())
        self.stolen += time.perf_counter() - started
        self._busy = False

    def __enter__(self) -> Probe:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> list[float]:
        """The samples since the last ``take``; at least one."""
        if not self.samples:
            self._handler(None, None)
        samples, self.samples = self.samples, []
        return samples


def scaled(seconds: float, samples) -> float:
    """``seconds`` as they would read on the reference host.  The samples'
    mean, not their median, because ``seconds`` is a sum over the same
    stretch of time and slow moments add to both."""
    return seconds * REF_KERNEL_S / statistics.fmean(samples)

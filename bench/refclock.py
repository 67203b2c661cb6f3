"""Reference-speed clock: wall time rescaled by how fast the host runs right now.

The benchmark shares a few cores of a busy host, and the speed those cores give
one thread drifts by tens of percent over seconds and minutes.  The drift is
the same for any CPU-bound code, so a small fixed reference loop, timed at
regular intervals while the jobs run, tells how fast the host is at each
moment.  A stretch of ``dt`` seconds during which the reference loop took
``c`` seconds did ``dt / c`` loops' worth of work; at the nominal speed, where
one loop takes ``NOMINAL_S``, that work takes ``dt * NOMINAL_S / c``.  The sum
over a pass is the pass's time at reference speed: it moves when the program
does more or less work, and stays put when the host slows down.

The samples are taken from a SIGALRM handler, so they also fall inside long
jobs; the handler's own time is left out of every interval.  Only the main
thread of a process on a POSIX system can use it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_S = 1e-3       # one reference loop at reference speed
INTERVAL_S = 0.05      # time between samples

_TABLE = np.arange(6 * 6 * 6, dtype=np.float64).reshape(6, 6, 6) / 216.0
_PERMS = [tuple((i * k + k) % 31 for i in range(31)) for k in range(1, 31)]
_WORD = tuple(i * i % 3 % 2 for i in range(31))


def reference_loop() -> float:
    """A fixed mix of the kinds of work gnorm does, about a millisecond on a
    2020s server core: generator scans over permutations of tuples (as in the
    symmetry and counting-law searches), a set-based orbit walk, dict updates,
    and small numpy contractions (as in density evaluation)."""
    w = _WORD
    total = 0.0
    for _ in range(3):
        kept = [p for p in _PERMS if all(w[p[i]] == w[i] for i in range(3))]
        seen, stack = {0}, [0]
        while stack:
            x = stack.pop()
            for p in _PERMS:
                if p[x] not in seen:
                    seen.add(p[x])
                    stack.append(p[x])
        counts: dict = {}
        for i in range(400):
            key = (i % 97, w[i % 31])
            counts[key] = counts.get(key, 0) + 1
        for _ in range(8):
            total += float(np.einsum("ijk,jkl->il", _TABLE, _TABLE).sum())
        total += len(kept) + len(seen) + len(counts)
    return total


def probe(n: int = 40) -> float:
    """Mean time of ``n`` reference loops: the host's speed right now."""
    t = time.perf_counter()
    for _ in range(n):
        reference_loop()
    return (time.perf_counter() - t) / n


class RefClock:
    """Samples the reference loop every ``interval`` seconds while active.

    ``mark()`` takes a sample now and returns its index; ``scaled(i, j)`` is
    the time between marks ``i`` and ``j`` at reference speed and ``raw(i, j)``
    the same time as measured, both without the sampling itself.
    """

    def __init__(self, interval: float = INTERVAL_S, clock=time.perf_counter,
                 loop=reference_loop):
        self.interval = interval
        self.clock = clock
        self.loop = loop
        self.starts: list[float] = []   # when each sample began
        self.costs: list[float] = []    # how long its reference loop took
        self._old = None
        self._busy = False

    def mark(self) -> int:
        self._busy = True
        t = self.clock()
        self.loop()
        self.starts.append(t)
        self.costs.append(self.clock() - t)
        self._busy = False
        return len(self.starts) - 1

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # an alarm during mark() would interleave samples
            self.mark()

    def __enter__(self) -> "RefClock":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _gaps(self, i: int, j: int):
        """(length, speed cost) of each stretch between samples i..j."""
        for k in range(i, j):
            gap = self.starts[k + 1] - (self.starts[k] + self.costs[k])
            yield gap, (self.costs[k] + self.costs[k + 1]) / 2

    def raw(self, i: int, j: int) -> float:
        return sum(gap for gap, _ in self._gaps(i, j))

    def scaled(self, i: int, j: int) -> float:
        return sum(gap * NOMINAL_S / cost for gap, cost in self._gaps(i, j))

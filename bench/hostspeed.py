"""Host speed, sampled while the benchmark times the program.

A shared virtual machine changes speed under the benchmark: on the 2-vCPU
machine this was sized on, a fixed pure-Python loop ran in 24 ms for a
minute and in 35 ms the next, in user CPU time as much as in wall time, so
neither a longer run nor a best-of filters it out.  The benchmark therefore
samples the host's speed while it runs and scales every end-to-end time to
one nominal speed.

A wall-clock interval timer interrupts the program every ``PERIOD`` seconds
and times a fixed reference loop.  A timed interval is scaled by
``NOMINAL_MS / mean(reference times sampled inside it)``: a time reads what
it would have read on a host that runs the reference loop in ``NOMINAL_MS``.
The time spent in the sampler, ``spent``, is taken out of every interval
it falls in.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

PERIOD = 0.1  # seconds between samples
NOMINAL_MS = 1.0  # reference loop time the scaled figures assume
MIN_SAMPLES = 5  # an interval with fewer samples borrows its neighbours'

_WORDS = tuple(f"w{i}" for i in range(64))
_TABLE = {w: i for i, w in enumerate(_WORDS[::2])}
_SET = frozenset(_WORDS[::3])


def reference() -> int:
    """A fixed mix of what the program does most: loops, tuple indexing,
    set and dict lookups and small-integer arithmetic.  Allocates no
    container, so it never triggers the garbage collector."""
    acc = 0
    for i in range(8000):
        w = _WORDS[i & 63]
        if w in _SET:
            acc += 1
        acc += _TABLE.get(w, i) % 7
    return acc


class HostSpeed:
    """Samples the reference loop from SIGALRM while it is entered."""

    def __init__(self) -> None:
        self.at: list[float] = []  # sample end times, on the wall clock
        self.ms: list[float] = []  # reference loop time of each sample
        self.spent = 0.0  # seconds spent in the sampler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        reference()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.at.append(t1)
        self.ms.append((t1 - t0) * 1000)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """Scale for an interval given by two perf_counter() readings: the
        samples inside it, widened to the nearest ``MIN_SAMPLES`` if fewer."""
        inside = [m for a, m in zip(self.at, self.ms) if start <= a <= end]
        if len(inside) < MIN_SAMPLES and self.ms:
            middle = (start + end) / 2
            nearest = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - middle))
            inside = [self.ms[i] for i in nearest[:MIN_SAMPLES]]
        return NOMINAL_MS / statistics.mean(inside) if inside else 1.0


class Unscaled:
    """Stand-in for HostSpeed in traced runs, which report raw times."""

    spent = 0.0

    def factor(self, start: float, end: float) -> float:
        return 1.0

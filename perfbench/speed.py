"""CPU-speed probe for normalising timings.

The machine this benchmark was written on runs the same Python code at two
or more speeds, about 1.4-1.9x apart, switching every few seconds to few
minutes with the load of other tenants; process CPU time moves with wall
time, so it does not help.  A fixed reference loop, unrelated to graphdss,
runs from a SIGALRM handler every INTERVAL_S seconds for the whole run.  A
timed region is then reported both raw and scaled to a reference CPU on
which that loop takes REFERENCE_S: its raw time, minus the probe time spent
inside it, times REFERENCE_S over the mean probe duration around it.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter
from typing import List, Tuple

INTERVAL_S = 0.1
REFERENCE_S = 0.001
PAD_S = 0.25  # probes this close to a region also describe its speed

# The loop mixes the kernels graphdss spends its time in at this commit: bit
# tests on a wide Python int and list comprehensions over edge tuples, as in
# peeling, and byte-wise XOR through a generator, as in the payload code.
_A = bytes(range(256)) * 8
_B = _A[::-1]
_WIDE = (1 << 9000) - 12345
_EDGES = tuple((i, (i * 7) % 997) for i in range(600))


def reference_loop() -> int:
    acc = 0
    for i in range(0, 9000, 9):
        acc += (_WIDE >> i) & 1
    acc += len(bytes(a ^ b for a, b in zip(_A, _B)))
    for _ in range(2):
        acc += len([e for e, w in _EDGES if (_WIDE >> w) & 1])
    return acc


class SpeedProbe:
    """Context manager that samples the reference loop's duration."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_loop()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the region [start, end] would take on the reference CPU."""
        lo = bisect.bisect_left(self.starts, start - PAD_S)
        hi = bisect.bisect_right(self.starts, end + PAD_S)
        if lo == hi:  # no probe nearby: use the next one, or the last
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        near: List[Tuple[float, float]] = list(zip(self.starts[lo:hi], self.durations[lo:hi]))
        inside = sum(d for s, d in near if start <= s <= end)
        mean = sum(d for _, d in near) / len(near)
        return (end - start - inside) * REFERENCE_S / mean

"""How fast the host runs right now, from a fixed piece of work.

The benchmark's host is shared with other tenants, and its speed moves
with their load: a fixed pure-Python loop has been seen to run 60% slower
for minutes at a time, and the two vCPUs to differ by a third at the same
moment.  Raw wall times of two runs of the same code then differ by more
than any useful regression bound, whatever statistic a run reports.

So ``run.py`` keeps all its processes on one CPU, and each pass runs
``probe`` between its operations, untimed.  ``Scaler`` turns the probes
into one factor per operation, ``REFERENCE_S`` over the probe time around
it: the scaled times are those of a host on which the probe takes
``REFERENCE_S``.  The probe runs no foldcheck code
(a mix of interpreter work and small ``uint8`` contractions, as in the
program's own hot paths), so a change to the program moves the scaled
times exactly as it moves the raw ones; only the host's speed cancels.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# within the range of the probe's time (5.5-10 ms) on the machine the
# reference figures in README.md come from; it only sets their scale
REFERENCE_S = 0.010

_BLOCK = (np.arange(6 * 6 * 6).reshape(6, 6, 6) * 7 % 5 % 2).astype(np.uint8)


def _work() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(10000):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    for _ in range(240):
        total += int((np.einsum("ijp,pko->ijko", _BLOCK, _BLOCK) % 2).sum())
    return total


def probe() -> float:
    """Wall time of one run of the fixed work, after an untimed run.

    The untimed run refills the caches the last operation evicted, so the
    timed one measures the host, not what the program left in the caches.
    """
    _work()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Scaler:
    """Per-operation scale factors from probes run between operations.

    Three probes run at creation, right after the pass's set-up, which
    their median scales.  Then a probe runs after an operation once
    ``every_s`` seconds have gone by since the last one.  The operations
    between two probes share a factor, taken from the median of the two
    probes before them and the two after, so that one probe slowed by an
    interrupt does not move it.
    """

    WINDOW = 2

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.times = [probe() for _ in range(3)]
        self.setup_scale = REFERENCE_S / statistics.median(self.times)
        self._last_at = time.perf_counter()
        # (operations in the segment, index of the probe that closed it)
        self._segments: list[tuple[int, int]] = []
        self._pending = 0

    def after_op(self) -> None:
        self._pending += 1
        if time.perf_counter() - self._last_at >= self.every_s:
            self._probe()

    def finish(self) -> list[float]:
        """One factor per operation, in order."""
        if self._pending:
            self._probe()
        scales: list[float] = []
        for count, closer in self._segments:
            window = self.times[max(0, closer - self.WINDOW):closer + self.WINDOW]
            scales += [REFERENCE_S / statistics.median(window)] * count
        return scales

    def _probe(self) -> None:
        self.times.append(probe())
        self._segments.append((self._pending, len(self.times) - 1))
        self._pending = 0
        self._last_at = time.perf_counter()

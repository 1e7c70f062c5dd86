"""Time that does not drift with the host's speed.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same build takes 0.22 s one second and 0.34 s the next, and whole
minutes run 30% slow.  A timing taken in a slow phase says nothing about
the program.  So an untraced run samples the host's speed while it
measures, and reports its times at a fixed reference speed.

While ``Sampler.sampling`` is on, a timer signal interrupts the work
every ``INTERVAL_S`` and runs ``probe``, a fixed piece of pure Python
work, and records how long it took.  ``now`` stops while the probe runs,
so a timing taken with it holds the program's own time only.  A timed
region's seconds are then multiplied by ``factor``, the mean of
``REFERENCE_S / probe time`` over the region's probes: the host's mean
speed relative to the reference.  That gives the time the region would
have taken on a host that runs one probe in ``REFERENCE_S``.  The probe is in this file, not in ``src/``, so a
change to the program moves the region's time and not the probe's.

With sampling off, as in a traced run, ``now`` is
``time.perf_counter`` and every factor is 1: plain seconds.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from statistics import fmean
from typing import List

INTERVAL_S = 0.05
PROBE_ROUNDS = 5000
# About one probe's wall on a 2-core Intel Xeon VM under Python 3.11,
# which ran at 0.66 to 1.36 of this speed; scaled times read close to
# that host's seconds.
REFERENCE_S = 0.0021


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next = self

    def bump(self, by: int) -> int:
        self.value = (self.value + by) & 0xFFFF
        return self.value


_CELLS = [_Cell(i) for i in range(64)]
for _i, _c in enumerate(_CELLS):
    _c.next = _CELLS[(_i * 7 + 1) % 64]
_TABLE = {i: i * 3 for i in range(256)}
_NAMES = ["v{}".format(i) for i in range(32)]


def probe() -> int:
    """The fixed calibration work: the dict lookups, attribute access,
    method calls and integer arithmetic the compiler and interpreter
    spend their time on.  It creates no container objects, so it never
    starts a garbage collection inside the work it interrupts."""
    cell = _CELLS[0]
    table = _TABLE
    acc = 0
    for i in range(PROBE_ROUNDS):
        cell = cell.next
        acc += cell.bump(i)
        key = acc & 255
        table[key] = table.get(key, 0) + 1
        if _NAMES[i & 31] in table:
            acc -= 1
        acc ^= len(_NAMES[acc & 31])
    return acc


class Sampler:
    """Samples the host's speed with ``probe`` while ``sampling`` is on."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.stolen = 0.0  # seconds spent in probes since the sampler was made

    def now(self) -> float:
        """``time.perf_counter`` less the time spent in probes."""
        return time.perf_counter() - self.stolen

    def mark(self) -> int:
        """Where a timed region starts, for ``factor``."""
        return len(self.samples)

    def factor(self, since: int) -> float:
        """The host's mean speed during the region begun at ``since``,
        relative to the reference: the mean of ``REFERENCE_S / probe``.

        The probes are evenly spaced in time, so this is the time-weighted
        mean speed.  A region shorter than one interval has no probe of
        its own; it takes the run's mean so far.  With no probe at all, 1.
        """
        window = self.samples[since:] or self.samples
        return fmean([REFERENCE_S / p for p in window]) if window else 1.0

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        probe()
        spent = time.perf_counter() - started
        self.samples.append(spent)
        self.stolen += time.perf_counter() - started

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


CLOCK = Sampler()

"""Host speed, measured while a pass runs, and a clock that leaves it out.

The machine this benchmark was built on shares its cores with other
load: the same pure-Python work runs up to 1.8× slower from one minute
to the next, and CPU time slows with wall time, so no timer of this
process can tell the program's own cost from the host's state. While a
pass runs, ``HostClock`` therefore interrupts it every ``INTERVAL_S`` and
times a fixed slice of pure-Python work (``_slice``) that does not call
the package. ``factor`` compares the mean slice time with
``NOMINAL_SLICE_S``, the slice time on that machine in a typical state.
The benchmark multiplies the times it reports by the factor, so they
read as seconds at the nominal host speed.

``now`` excludes the time spent in slices, so neither pass times, op
latencies nor trace spans include them.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.05
NOMINAL_SLICE_S = 0.002
# Slices that set the factor of one op: about half a second of host state.
WINDOW = 10


def _slice() -> Fraction:
    """Fraction arithmetic and dict updates, like the package's hot paths."""
    total = Fraction(0)
    for _ in range(3):
        acc: dict[tuple[int, int], Fraction] = {}
        for i in range(1, 120):
            key = (i % 13, i % 7)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i % 11 + 1)
        total += sum(acc.values())
    return total


class HostClock:
    """Use as a context manager around one pass, in the main thread."""

    def __init__(self) -> None:
        self.spent = 0.0  # seconds spent in slices so far
        self.slices: list[float] = []
        self._previous = None

    def now(self) -> float:
        return perf_counter() - self.spent

    def _tick(self, _signum=None, _frame=None) -> None:
        entered = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            _slice()
            self.slices.append(perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
            self.spent += perf_counter() - entered

    def __enter__(self) -> "HostClock":
        self.slices = []
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def factor(self, first: int = 0, end: int | None = None) -> float:
        """Nominal over measured host speed during the last pass.

        ``first`` and ``end`` select the slices to use, by index; they
        are widened to ``WINDOW`` slices where the pass has that many.
        """
        end = len(self.slices) if end is None else end
        missing = WINDOW - (end - first)
        if missing > 0:
            first = max(0, first - missing // 2)
            end = min(len(self.slices), first + WINDOW)
            first = max(0, end - WINDOW)
        chosen = self.slices[first:end]
        return NOMINAL_SLICE_S * len(chosen) / sum(chosen)

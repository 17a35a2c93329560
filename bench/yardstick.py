"""A fixed computation that measures how fast the host runs faberpoly's kind
of code just now.

On a shared host the processor can run the same code up to twice as slow
for stretches of seconds to minutes, when other tenants load it.  The
benchmark times the yardstick between operations and scales every
operation time by ``REFERENCE_S / reading``, so its figures read in seconds
at the host's usual speed and a slow stretch largely cancels out.  The
yardstick is the benchmark's own code, never the program's: a faster or
slower program leaves it unchanged.  It does, in equal shares of time,
what faberpoly does: complex arithmetic on tuples of Python complex
numbers (the recurrence) and numpy operations on short complex arrays
(Aberth's sweeps, the series engine), since the slow stretches slow the two
kinds by different amounts.  A pure-Python yardstick alone left twice the
spread on ``roots-sweep``.

See README.md, "Spread and bounds", for the spreads measured with and
without it.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

#: a typical reading on a 2-vCPU Intel Xeon virtual machine (2.7 to 5.2 ms
#: seen inside runs); it only sets the scale of the figures
REFERENCE_S = 0.004
#: operations closer together than this share one reading
EVERY_S = 0.1
#: a reading is the median of this many yardstick times, so that one
#: interrupted run does not skew the operations it brackets
RUNS_PER_READING = 3

_A = tuple(complex(i % 7, i % 5) * 0.1 for i in range(64))
_B = tuple(complex(i % 3, -(i % 4)) * 0.1 for i in range(64))
_X = 0.9 * np.exp(1j * np.linspace(0.0, 6.0, 64))


def _python_part() -> None:
    """Complex convolutions of 64-term tuples, as the recurrence does."""
    a = _A
    for _ in range(3):
        out = [0j] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            for k, y in enumerate(_B):
                out[i + k] += x * y
        a = tuple(c * 0.5 for c in out[:len(a)])


def _numpy_part() -> None:
    """Horner sweeps and a pairwise-difference sum on 64-element arrays, as
    Aberth's iteration and the series engine do."""
    x = _X
    for _ in range(12):
        acc = np.zeros_like(x)
        for c in _A:
            acc = acc * x + c
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        x = x - 1e-3 * acc / (1.0 + np.abs(acc)) + 1e-5 * (1.0 / diff).sum(axis=1)


def yardstick() -> float:
    """Seconds taken by a fixed mix of pure-Python and numpy complex arithmetic."""
    start = perf_counter()
    _python_part()
    _numpy_part()
    return perf_counter() - start


def reading() -> float:
    return median(yardstick() for _ in range(RUNS_PER_READING))


class Scaler:
    """Readings of the yardstick around a sequence of timed intervals.

    ``before`` takes a reading when the last one is older than ``EVERY_S``
    and must precede each timed interval; ``close`` takes the final reading.
    Each interval is then scaled by the mean of the readings that bracket
    it, the last one before it and the first one after."""

    def __init__(self):
        self.readings: list[float] = []
        self.taken_at = float("-inf")
        self.brackets: list[int] = []

    def before(self) -> None:
        if perf_counter() - self.taken_at >= EVERY_S:
            self.readings.append(reading())
            self.taken_at = perf_counter()
        self.brackets.append(len(self.readings) - 1)

    def close(self) -> None:
        self.readings.append(reading())

    def scaled(self, times: list[float]) -> list[float]:
        r = self.readings
        return [t * REFERENCE_S / (0.5 * (r[b] + r[b + 1]))
                for t, b in zip(times, self.brackets)]

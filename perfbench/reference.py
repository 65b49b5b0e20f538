"""Host-speed reference: a fixed piece of work timed between the tasks.

On a shared host the speed of one CPU drifts by ±20 % and more, for minutes
at a time, in wall time and CPU time alike, so the raw times of two runs of
the same code differ by more than any useful regression bound.  The
benchmark therefore times this reference between every two timed items (set
up repeats, tasks) and reports each item's time scaled to the speed at which
the reference takes ``NOMINAL_S``:

    calibrated = raw * NOMINAL_S / local reference time

where the local reference time is the median of the reference samples
nearest the item.  A change to nonholo moves ``raw`` and leaves the
reference alone, because the reference calls nothing in nonholo.  The raw
figures are printed beside the calibrated ones.

The reference mixes what the program does per step: small pure-Python float
arithmetic and function calls, plus small NumPy arrays and a 2x2 solve.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

ITERATIONS = 120
# reference time in the faster of the two speed states seen on the host the
# benchmark was defined on (2-vCPU Intel Xeon Sapphire Rapids KVM guest,
# Python 3.11.7, NumPy 2.4.6); the slower state takes about 1.65 ms
NOMINAL_S = 1.0e-3
# reference samples taken on each side of an item for its local speed: the
# host switches speed state within a second, so only the nearest two count
HALF_WINDOW = 1


def _work() -> float:
    acc = 0.0
    for i in range(ITERATIONS):
        t = 1e-3 * i
        q = (math.sin(t), math.cos(t), t, 0.5 * t)
        gram = np.array([[1.0 + q[0] * q[0], q[1]], [q[1], 2.0]])
        rhs = np.array([q[2] - q[3], q[0] * q[1]])
        lam = np.linalg.solve(gram, rhs)
        acc += float(lam[0] - lam[1]) + sum(x * x for x in q)
    return acc


class Reference:
    """Times the reference work; keeps every sample of one run in order."""

    def __init__(self, warmup: int = 20):
        self.expected = _work()
        self.samples: list[float] = []
        for _ in range(warmup):
            self._time()

    def _time(self) -> float:
        t0 = time.perf_counter()
        out = _work()
        seconds = time.perf_counter() - t0
        if out != self.expected:
            raise RuntimeError(f"reference work returned {out!r}, not {self.expected!r}")
        return seconds

    def sample(self) -> None:
        """Take one sample; call it before each timed item and once after the last."""
        self.samples.append(self._time())

    def calibrate(self, raw: list[float]) -> list[float]:
        """Scale raw[k], timed between samples k and k + 1, to the nominal speed."""
        if len(self.samples) != len(raw) + 1:
            raise ValueError(f"{len(raw)} items need {len(raw) + 1} reference samples, "
                             f"not {len(self.samples)}")
        out = []
        for k, seconds in enumerate(raw):
            lo = max(0, k + 1 - HALF_WINDOW)
            local = statistics.median(self.samples[lo:k + 1 + HALF_WINDOW])
            out.append(seconds * NOMINAL_S / local)
        return out

    def reset(self) -> None:
        self.samples = []

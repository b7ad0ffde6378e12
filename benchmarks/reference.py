"""Host-speed reference: fixed work that uses no aquapos code.

On a shared machine the CPU's speed drifts by tens of percent over
minutes, and every aquapos stage speeds up or slows down with it by the
same factor. The benchmark times this reference between its stages, many
times per run, and reports each time multiplied by ``NOMINAL_S`` over the
median of the reference samples taken nearest to it: seconds on a host
that runs the reference in ``NOMINAL_S``. A change to aquapos cannot move
the reference, so it moves the reported times in full. Unscaled times
stay in the run record.

The work mixes what aquapos spends its time on: small numpy algebra,
interpreter loops over dicts and lists, and JSON encoding and decoding.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

NOMINAL_S = 0.024  # median reference time on the 2-vCPU x86_64 host the bounds were set on
LOOPS = 1500

_ROTATION = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
_RECORD = {"t": 0.01, "kind": "imu", "gyro": [0.01, -0.02, 0.003],
           "accel": [0.1, -0.2, -9.8]}


def work() -> float:
    acc = 0.0
    v = np.array([0.1, 0.2, 1.5])
    for i in range(LOOPS):
        w = _ROTATION @ v + v
        acc += float(np.sqrt(w @ w))
        text = json.dumps(_RECORD, separators=(",", ":"))
        rec = json.loads(text)
        acc += sum(x * x for x in rec["accel"]) + len(rec) + i % 7
    return acc


class HostClock:
    """Reference samples with the times they were taken at.

    ``scale(t)`` is ``NOMINAL_S`` over the median of the ``NEAREST``
    samples taken closest to perf_counter time t, so a measurement taken
    at t is scaled by the host's speed around t rather than over the
    whole run.
    """

    NEAREST = 9

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (mid time, seconds)
        self._arrays = (np.empty(0), np.empty(0))

    def sample(self):
        t0 = perf_counter()
        work()
        t1 = perf_counter()
        self.samples.append((0.5 * (t0 + t1), t1 - t0))

    def scale(self, t: float) -> float:
        times, seconds = self._arrays
        if times.size != len(self.samples):
            times, seconds = self._arrays = tuple(np.array(self.samples).T)
        k = min(self.NEAREST, times.size)
        nearest = np.argpartition(np.abs(times - t), k - 1)[:k]
        return NOMINAL_S / float(np.median(seconds[nearest]))

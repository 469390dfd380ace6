"""Rescale measured times to a fixed machine speed.

On a shared virtual machine the speed available to one process drifts by up
to 2x over minutes, so the same iteration takes 4.4 s at one time and 9 s a
few minutes later. While a ``SpeedProbe`` is active, a timer signal runs a
fixed reference kernel ``PERIOD_S`` seconds after the last one ended and
times it. The kernel does what gaitbo's hot loops do (many small-array numpy
operations and a small matrix product), so it slows down with them.
``rescale`` removes the probe's own time from a measured interval and scales
the rest to the speed at which one kernel run takes ``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
# The fastest time of one kernel run, back to back, on a 2-vCPU Intel Xeon VM.
# Between a workload's own calls the kernel runs slower than back to back, so
# rescaled times read below wall times.
REFERENCE_S = 0.0025

_SMALL = np.full((3, 3), 0.1)
_BLOCK = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)


def reference_kernel() -> float:
    total = 0.0
    for _ in range(16):
        v = np.ones(3)
        for _ in range(40):
            v = 0.5 * (_SMALL @ v) + 0.01 * np.sqrt(np.abs(v))
        total += float(v[0]) + float((_BLOCK @ _BLOCK[:, :8]).sum())
    return total


class SpeedProbe:
    """Reference-kernel timings taken while the ``with`` block runs."""

    def __init__(self):
        self.samples: list = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)
        # Re-armed one shot at a time, so a slow sample never nests another.
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        reference_kernel()  # the first call in a process runs cold; not a sample
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent_s(self) -> float:
        """Seconds the probe itself ran."""
        return sum(self.samples)

    @property
    def scale(self) -> float:
        """REFERENCE_S over the mean kernel time: above 1 on a fast machine."""
        return REFERENCE_S * len(self.samples) / self.spent_s

    def rescale(self, seconds: float, wall: float) -> float:
        """``seconds`` of the ``wall`` seconds the probe was active, without
        the probe's share, at the reference speed."""
        return seconds * (1.0 - self.spent_s / wall) * self.scale

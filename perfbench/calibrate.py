"""How fast the CPU runs while a command runs, from a probe timed beside it.

The benchmark's host is a few vCPUs of a shared machine.  A vCPU's speed
changes by a third or more from one second to the next and its average
drifts over minutes (one phi-lp pass took 3.3 s and 6.0 s within an hour,
with CPU time moving with wall time), and the two vCPUs drift apart.  So
the benchmark pins itself and its children to one CPU, and a thread of its
own wakes every ``PERIOD_S`` to time ``probe``, a fixed 1-2 ms of work with
nothing of the program in it.  Probes that fall inside a command's run
measure that CPU's speed over the same seconds as the command; the
benchmark scales the command's time to the speed at which the probe takes
``REFERENCE_PROBE_S``.

While the thread probes, the command loses about 3% of its CPU to it, the
same share on every commit.
"""

from __future__ import annotations

import statistics
import threading
import time

import mpmath
import numpy as np

PERIOD_S = 0.05
# about the median probe time inside CLI runs on the 2-vCPU Intel Xeon VM
# the benchmark was tuned on (Python 3.11, numpy 2, mpmath 1.3)
REFERENCE_PROBE_S = 1.5e-3

LD = np.longdouble
_TABLEAU = np.random.default_rng(0).random((60, 400)).astype(LD)
_CIRCLE = np.exp(2j * np.pi * np.linspace(0.0, 1.0, 1 << 13))


def probe() -> float:
    """1-2 ms of what the workloads spend their time on: a Python loop, a
    60-digit mpmath sum, rank-one updates of a long-double simplex tableau
    and a complex FFT.  Returns a value that depends on all of it."""
    s = 0
    for k in range(4000):
        s += (k * k) % 7
    with mpmath.workdps(60):
        x = mpmath.mpf(0)
        for k in range(1, 40):
            x += mpmath.sqrt(k) / k
    T = _TABLEAU.copy()
    for i in range(2):
        T -= np.outer(T[:, i] * LD(1e-3), T[i])
    return s + float(x) + float(T[0, 0]) + float(np.abs(np.fft.fft(_CIRCLE)[1]))


class Sampler:
    """Times ``probe`` every ``PERIOD_S`` on a thread, from entering the
    ``with`` block to leaving it."""

    def __init__(self):
        self.samples = []  # (start, seconds) of each probe
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        probe()  # the first call fills caches the others find full
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while not self._stop.wait(PERIOD_S):
            t0 = time.perf_counter()
            probe()
            self.samples.append((t0, time.perf_counter() - t0))

    def speed(self, windows):
        """``REFERENCE_PROBE_S`` over the median time of the probes that lie
        wholly inside one of the (start, end) windows; None if none do."""
        inside = [d for t, d in list(self.samples)
                  if any(a <= t and t + d <= b for a, b in windows)]
        return REFERENCE_PROBE_S / statistics.median(inside) if inside else None

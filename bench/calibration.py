"""A fixed reference kernel that expresses timings at a constant machine speed.

On a shared machine the speed of one core changes by a third or more for
seconds or minutes at a time (measured on a 2-CPU x86-64 VM with Python 3.11
and numpy 2.4). Such a swing moved even the fastest repetition of a command
by 15-20% between runs. The benchmark therefore runs this kernel
every ``PERIOD_S`` while a command runs (from a ``SIGALRM`` handler, between
two bytecodes of the command) and ``RUNS`` times after it. The kernel does
the same kind of work as qfg (small complex Hermitian eigensolves, 2x2
matrices built from Python floats, matrix products and scalar Python
arithmetic) but calls no qfg code. A command's time, less the kernel runs
inside it, is scaled by ``NOMINAL_S / kernel time``, the kernel time being
the median of the runs during the command and just before and after it.
That scaled time is the command's cost on a machine where the kernel takes
exactly ``NOMINAL_S``. A change in qfg moves it; a change in machine speed
moves the command and the kernel together and cancels. Sampling inside the
command matters because the speed changes within a second: with samples
only between 1-2 s commands, the scaled cost of one command varied by 13%
between runs; with samples every 20 ms, by 5%.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Duration the kernel is normalized to, near its median on the machine above.
NOMINAL_S = 1.5e-3
#: Kernel runs after each timed command.
RUNS = 5
#: Interval between kernel runs during a timed command.
PERIOD_S = 0.02


class Reference:
    """The kernel's inputs and its timed samples, in call order."""

    def __init__(self):
        rng = np.random.default_rng(0)
        mats = rng.normal(size=(8, 3, 3)) + 1j * rng.normal(size=(8, 3, 3))
        self._mats = [(m + m.conj().T) / 2 for m in mats]
        self._quads = rng.normal(size=(20, 4)).tolist()
        self.samples: list[float] = []

    def run(self) -> None:
        """Run and time the kernel ``RUNS`` times."""
        for _ in range(RUNS):
            self.samples.append(self._kernel())

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for m in self._mats:
            _, v = np.linalg.eigh(m)
            acc += float(np.trace(v @ m @ v.conj().T).real)
            for row in m:
                for z in row:
                    z = complex(z)
                    acc += (z * z.conjugate()).real ** 0.5
        # 2x2 matrices built from Python floats, as qfg builds its qubit states
        for a, b, c, d in self._quads:
            m = np.array([[a, b + 1j * c], [b - 1j * c, d]], dtype=complex)
            acc += float(np.linalg.norm(m - m.conj().T)) + float(np.trace(m @ m).real)
            w, v = np.linalg.eigh(m)
            acc += float(w[0]) + float(np.abs(v).sum())
        return time.perf_counter() - t0

    def time_call(self, fn, *args):
        """Call ``fn(*args)``; return its result and its duration at nominal speed."""
        before = len(self.samples)
        spent = 0.0

        def tick(signum, frame):
            nonlocal spent
            t0 = time.perf_counter()
            self.samples.append(self._kernel())
            spent += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            # disarm before restoring the handler, so no SIGALRM meets the default one
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        self.run()
        window = self.samples[max(0, before - RUNS):]
        return result, (elapsed - spent) * NOMINAL_S / statistics.median(window)

    def scale_at(self, position: int) -> float:
        """Factor for a time measured between samples ``position - 1`` and ``position``."""
        window = self.samples[max(0, position - RUNS):position + RUNS]
        return NOMINAL_S / statistics.median(window)

    def scale(self) -> float:
        """Factor for a time measured anywhere in the run."""
        return NOMINAL_S / statistics.median(self.samples)

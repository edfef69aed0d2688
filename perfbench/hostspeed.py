"""Host speed, measured with a fixed reference computation in a clean interpreter.

The benchmark's host is a few cores of a shared machine whose speed drifts
by tens of percent within seconds and by up to a factor of two over
minutes: on a 2-vCPU VM one repetition of `branch-deep` took 3.8 to 7.4 s
within five minutes, on identical inputs.  A fixed computation (the kernel
below: DOP853 on a damped pendulum, the integrator and small-array Python
overhead that itergelfand's own descents spend their time in) slows down
with it.  So the end-to-end timings are reported in reference seconds:
the kernel is timed every INTERVAL_S along the run, and the program time
between two such calibrations is scaled by

    REFERENCE_S / (mean kernel time of the two calibrations)

that is, to what it would take on a host where the kernel takes
REFERENCE_S.  A program change leaves the kernel alone, so it moves the
reference seconds as it moves the raw ones; host drift moves both the
program and the kernel, and cancels.

The kernel runs in its own interpreter, which never imports itergelfand, so
nothing the program does to its process (garbage collector, warnings
filters, module state) changes the reference work.  The benchmark waits
while the kernel runs, and both processes are pinned to the same CPU, so
the kernel sees the core the program runs on and never competes with it.

    python3 perfbench/hostspeed.py        # serve: one kernel per input line
"""

from __future__ import annotations

import math
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# kernel time, in seconds, that defines a reference second: about what the
# kernel takes on an unloaded core of the machine the baseline was measured on
REFERENCE_S = 0.027
# wall time between the end of one calibration and the start of the next
INTERVAL_S = 0.3


def kernel():
    """The fixed reference computation; deterministic, about 27 ms."""
    import numpy as np
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return np.array([y[1], -math.sin(y[0]) - 0.1 * y[1]])

    for _ in range(2):
        solve_ivp(rhs, (0.0, 60.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)


def serve():
    """Run the kernel once per line read from stdin and print its duration."""
    kernel()  # first call loads and warms scipy; not reported
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        kernel()
        print(repr(time.perf_counter() - t0), flush=True)


class HostClock:
    """Kernel timings along the run, and program time rescaled by them.

    Each calibration is kept as (start, end, kernel seconds) on the
    benchmark's perf_counter.  Program time between two calibrations is
    scaled by REFERENCE_S over the mean of their kernel times; time spent
    calibrating counts for nothing.
    """

    def __init__(self):
        self.marks = []
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host-speed kernel did not start")

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def calibrate(self):
        t0 = time.perf_counter()
        self.proc.stdin.write("\n")
        kernel_s = float(self.proc.stdout.readline())
        self.marks.append((t0, time.perf_counter(), kernel_s))

    @contextmanager
    def sampling(self):
        """Calibrate at the start, every INTERVAL_S and at the end of the block.

        A one-shot SIGALRM timer pauses the program wherever it is, inside
        an op too, so a long op is sampled along its length, not only at
        its ends.  The handler re-arms the timer after each calibration.
        """
        active = True

        def on_timer(signum, frame):
            if active:
                self.calibrate()
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

        previous = signal.signal(signal.SIGALRM, on_timer)
        self.calibrate()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self
        finally:
            active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.calibrate()

    def kernel_s(self):
        """Median kernel time of the run so far."""
        return sorted(k for _, _, k in self.marks)[len(self.marks) // 2]

    def scaled(self, t0, t1):
        """Reference seconds in [t0, t1]; the interval must lie between two calibrations."""
        total = covered = 0.0
        for (_, a_end, a_k), (b_start, _, b_k) in zip(self.marks, self.marks[1:]):
            overlap = min(t1, b_start) - max(t0, a_end)
            if overlap > 0:
                total += overlap * 2.0 * REFERENCE_S / (a_k + b_k)
                covered += overlap
        uncovered = (t1 - t0) - covered - sum(
            max(0.0, min(t1, end) - max(t0, start)) for start, end, _ in self.marks)
        if uncovered > 1e-6:
            raise ValueError(f"{uncovered:.3g} s of [{t0}, {t1}] lie outside the calibrations")
        return total


if __name__ == "__main__":
    serve()

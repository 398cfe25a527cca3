"""Machine-speed reference for run_s.

The benchmark's reference machine, a shared 2-vCPU virtual machine, changes
speed by tens of per cent within seconds, with no steal time: the process's
CPU time moves with its wall time, and one fixed piece of work takes from
0.12 s to 0.22 s.  A fixed kernel timed right before and right after each
timed pass slows down and speeds up with it, so run.py reports every pass
scaled to the kernel's nominal time:

    scaled_s = pass_s * NOMINAL_S / mean(kernel mean before, kernel mean after)

The kernel is the program's hot mix -- small slotted objects carrying a value
and a tuple of partials, built through generators, and SVDs of 6x6 matrices
-- written here so that it never changes with the program.  A change to the
program moves the scaled time exactly as much as the measured one.

Around each pass the kernel runs until it has taken SHARE of the pass's
length, at least once, so that a long pass is scaled by the machine's speed
over seconds and not over one 0.2 s sample.
"""

import statistics
import time

import numpy as np

NOMINAL_S = 0.18   # the kernel's median time on the reference machine
SHARE = 0.3
STEPS = 15000
SVDS = 2000


class _Dual:
    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = tuple(partials)

    def __add__(self, other):
        return _Dual(self.value + other.value,
                     (p + q for p, q in zip(self.partials, other.partials)))

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.value * other.value,
                         (p * other.value + self.value * q
                          for p, q in zip(self.partials, other.partials)))
        return _Dual(self.value * other, (p * other for p in self.partials))


_MATRIX = np.linspace(-1.0, 1.0, 36).reshape(6, 6) ** 3 + np.eye(6)


def kernel_s():
    """Wall time of one run of the fixed kernel."""
    start = time.perf_counter()
    x = _Dual(0.3, (1.0, 0.0, 0.0))
    step = _Dual(0.1, (0.0, 1.0, 0.5))
    for _ in range(STEPS):
        x = x * 0.5 + x * step + step
    for _ in range(SVDS):
        np.linalg.svd(_MATRIX)
    return time.perf_counter() - start


def kernel_mean(pass_s):
    """Mean kernel time over runs taking SHARE of pass_s, at least one."""
    times = [kernel_s()]
    while sum(times) < SHARE * pass_s:
        times.append(kernel_s())
    return statistics.mean(times)

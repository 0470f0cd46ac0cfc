"""Host-speed calibration for the end-to-end timings.

On a shared machine the speed of one core drifts by 20-40% over minutes,
as neighbours come and go, and every absolute timing drifts with it.  The
benchmark therefore runs a fixed calibration kernel between op cycles and
scales each timing by ``REFERENCE_S / t_kernel``, with ``t_kernel`` the
median kernel time around it.  A scaled time reads as the time on a host
where the kernel takes ``REFERENCE_S``.  The kernel calls nothing in the
program, so a change to the program moves the scaled times exactly as it
moves the raw ones; only the host's drift is divided out.

The kernel mixes the two kinds of work the program's layers do: an
interpreter-bound Python loop and strided column updates of a boolean
matrix.  Changing it, or ``REFERENCE_S``, changes every scaled metric.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.005
WINDOW = 3          # kernel runs taken on each side of a cycle


def kernel_seconds() -> float:
    """Time one run of the fixed calibration kernel."""
    start = time.perf_counter()
    acc = 0
    for i in range(30000):
        acc += (i * i) % 7
    masks = np.zeros((2000, 64), dtype=bool)
    ones = np.ones(2000, dtype=bool)
    for e in range(300):
        masks[:, e % 64] |= ones & masks[:, (e * 7) % 64]
    return time.perf_counter() - start


def scale(kernel_times) -> float:
    """Factor that turns a raw time into a time at the reference speed."""
    return REFERENCE_S / statistics.median(kernel_times)


def cycle_scales(kernel_times: list[float], cycles: int) -> list[float]:
    """Scale for each of ``cycles`` cycles; ``kernel_times[i]`` was taken
    just before cycle ``i`` and the last one after the final cycle."""
    return [scale(kernel_times[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(cycles)]

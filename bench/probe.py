"""Machine-speed probe for timing on a shared machine.

Other tenants of a shared host slow this process by up to a factor of two,
in bursts of seconds and in phases of minutes.  The probe times three fixed
kernels that do not touch the package: small numpy calls, an interpreter
loop and float formatting, the three kinds of work the solver does.  Their
geometric mean, taken just before and just after an operation, measures
how fast the machine ran it.  `compensated` rescales the operation's wall
time to the speed at which the probe takes REFERENCE_S seconds, the
probe's time on an idle 2-core Xeon reference machine.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

REFERENCE_S = 1.0e-3

_X = np.linspace(0.1, 1.0, 64)


def _numpy_calls() -> None:
    for _ in range(200):
        float(np.sum(np.cos(np.sqrt(_X * _X + 1.0)) * _X))


def _interpreter() -> None:
    acc = 0.0
    for i in range(12000):
        acc += (i * 0.5) % 7.0


def _formatting() -> None:
    ",".join(repr(i * 0.1) for i in range(2000))


def probe() -> float:
    """Geometric mean of the three kernels' times, in seconds.

    The kernels run after a full collection and with the collector off, so
    the garbage and heap an operation leaves behind do not slow the probe.
    """
    gc.collect()
    gc.disable()
    times = []
    try:
        for kernel in (_numpy_calls, _interpreter, _formatting):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return math.prod(times) ** (1.0 / 3.0)


def compensated(seconds: float, before: float, after: float) -> float:
    """Wall time rescaled to the reference speed."""
    return seconds * REFERENCE_S / math.sqrt(before * after)

"""Machine-speed calibration kernel.

On a shared host the same command's wall time drifts by tens of percent
with co-tenant load, in spells lasting seconds.  The benchmark runs this
fixed kernel before and after every timed command and divides the
command's time by the mean of those two kernel times, reporting
*reference seconds*: the time the command would take on a machine where
the kernel takes ``NOMINAL_S``.

The kernel mimics the program's instruction mix (one bisect into a
16k-entry list and a handful of small numpy calls per iteration, like a
split step) and calls no rdesplit code, so a change to the program's code
paths does not move it.  It does run in the program's process, so a change
that leaves state behind there (a thread that keeps running, a much larger
retained heap, a changed numpy error or dispatch state) can slow the kernel
and the commands alike and be partly cancelled out.  The benchmark
therefore also records raw wall medians next to the reference ones.
``NOMINAL_S`` is the kernel's median time with no other load on a 2-core
Intel Xeon VM with Python 3.11 and numpy 2.4, so reference seconds are
close to wall seconds on that machine when it is quiet.
"""

from __future__ import annotations

import time
from bisect import bisect_right

import numpy as np

NOMINAL_S = 0.0175
_ITERATIONS = 1000


def kernel() -> float:
    """Seconds taken by one run of the fixed kernel."""
    rng = np.random.default_rng(0)
    knots = np.linspace(0.0, 1.0, 16385).tolist()
    W = rng.standard_normal((2, 2, 2))
    amp = rng.random((2, 2))
    phi = rng.random((2, 2))
    area = rng.standard_normal((2, 2))
    inc = rng.standard_normal(2)
    u = np.array([0.1, -0.2])
    start = time.perf_counter()
    for j in range(_ITERATIONS):
        i = bisect_right(knots, j / _ITERATIONS) - 1
        arg = np.einsum("iam,m->ia", W, u) + phi
        f = amp * np.sin(arg)
        grad = (amp * np.cos(arg))[:, :, None] * W
        v = u + f @ (inc * knots[i])
        z = np.einsum("ibm,ma,ab->i", grad, f, area)
        u = 0.999 * u + 1e-3 * (v + z)
        if not np.isfinite(u).all():
            raise ArithmeticError("calibration kernel diverged")
    return time.perf_counter() - start


def scale(seconds, before, after):
    """Reference seconds of ``seconds`` timed between kernel runs that took
    ``before`` and ``after``."""
    return NOMINAL_S * seconds / (0.5 * (before + after))


def to_reference(elapsed, kernels):
    """Reference seconds of ``elapsed[i]``, timed between ``kernels[i]`` and
    ``kernels[i + 1]``."""
    if len(kernels) != len(elapsed) + 1:
        raise ValueError("need one kernel time before and after each sample")
    return [scale(t, kernels[i], kernels[i + 1])
            for i, t in enumerate(elapsed)]

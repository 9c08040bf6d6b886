"""Machine-speed calibration for a shared, noisy host.

On the reference machine (2 vCPUs shared with other tenants) the same
work takes anywhere from 0.6x to 1.3x its typical time, in spells of ten
seconds to a minute, and process CPU time moves with wall time, so the
slowdown is in execution speed rather than in waiting. ``kernel`` is a
fixed piece of work that shares no code with setfuse: small numpy linear
algebra, numpy over a thousand elements, ``math.fsum`` and a plain Python
loop. Each timing is scaled by ``NOMINAL_REPEAT_S / kernel()``, with the
kernel timed on both sides of it, which turns it into seconds at the
machine's typical speed. A change to setfuse cannot move the kernel, so it
moves the scaled figures as it moves the raw ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

# median seconds per kernel repeat on the reference machine (see README.md)
NOMINAL_REPEAT_S = 1.65e-4
# a full calibration; the stream loop uses a few repeats after every pair
FULL_REPEATS = 200

_RNG = np.random.default_rng(0)
_SPD = np.array([[2.0, 0.3], [0.3, 1.0]])
_SMALL = _RNG.standard_normal(1000)
_LARGE = _RNG.random(2000)
# bound now, so a traced run's counting wrapper is not timed
_cholesky = np.linalg.cholesky


def kernel(repeats: int = FULL_REPEATS) -> float:
    """Seconds per repeat of the fixed calibration work."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(repeats):
        chol = _cholesky(_SPD)
        acc += float(np.linalg.solve(chol, _SMALL[:2]).sum())
        acc += float(np.exp(_SMALL * 0.01).sum())
        acc += math.fsum(_LARGE)
        acc += sum(i * 0.5 for i in range(100))
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel lost its value")
    return elapsed / repeats


def scale(seconds: float, per_repeat: float) -> float:
    """``seconds`` at the machine's typical speed."""
    return seconds * NOMINAL_REPEAT_S / per_repeat

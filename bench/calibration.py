"""Machine-speed calibration.

The machines this benchmark runs on are shared, and their speed for pure
Python code drifts by up to 2x over seconds to minutes as neighbours come
and go.  A fixed calibration kernel, run before every operation, measures
that speed; each operation's wall time is then scaled by
REFERENCE_S / (mean kernel time around the operation).  The kernel is
plain standard-library code, never rbmx, so it runs the same on every
commit.  It allocates and frees Fractions, tuples and dict entries like
the engine does, because the drift hits allocation-heavy code harder than
integer loops.
"""

import gc
import time
from fractions import Fraction

# kernel time on an idle 2-vCPU x86-64 machine with CPython 3.11; scaled
# times read as milliseconds on such a machine
REFERENCE_S = 0.002
WINDOW = 10  # kernel runs on each side of an operation that set its scale


def _kernel():
    s = Fraction(0)
    d = {}
    for i in range(1, 900):
        s += Fraction(1, i % 97 + 1)
        d[i % 64] = (s, i)
    return s


def sample():
    """Seconds taken by one kernel run.  The collector is paused so that
    the kernel neither triggers nor absorbs collections owed by rbmx; the
    kernel frees everything it allocates."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scale(times, samples):
    """Scale each time by REFERENCE_S over the mean of the kernel samples
    within WINDOW places of it; samples[i] was taken just before times[i]."""
    out = []
    for i, t in enumerate(times):
        near = samples[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(t * REFERENCE_S * len(near) / sum(near))
    return out

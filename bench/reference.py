"""A fixed computation that measures the host's current speed.

On a shared host the CPU speed drifts, by up to half between one minute and
the next on the 2-vCPU VM this benchmark was built on, and every timing
inherits that drift.  The benchmark times this reference next to the
instances and reports instance times at a nominal reference speed (see
``scale``), which cancels most of the drift.  Of the references tried (a
dict-and-set graph walk, numpy bit counting, and the two together), the
numpy one tracked the instance times of every workload best.  It must never
change, or figures from before and after the change stop being comparable.
"""

from time import perf_counter

import numpy as np

# the reference's duration at the speed the scaled figures are quoted in,
# about its median between instances on that VM
NOMINAL_S = 0.0008
INTERVAL_S = 0.25          # re-measure at most this often between instances
REPEATS = 3                # a sample is the fastest of this many timings

_MASKS = np.arange(1 << 16, dtype=np.uint64)


def _work() -> int:
    ok = np.ones(_MASKS.shape, dtype=bool)
    for j in range(6):
        ok &= (np.bitwise_count(_MASKS & np.uint64(0x5555 << j)) & np.uint64(1)) == np.uint64(j & 1)
    return int(ok.sum())


def sample() -> float:
    """Seconds the reference takes right now."""
    best = float("inf")
    for _ in range(REPEATS):
        t = perf_counter()
        _work()
        best = min(best, perf_counter() - t)
    return best


def scale(seconds: float, reference_s: float) -> float:
    """A duration measured while the reference took ``reference_s``,
    expressed at the nominal reference speed."""
    return seconds * NOMINAL_S / reference_s

"""Host-speed reference for scaling measured times to a nominal host.

The shared machines this benchmark runs on switch, for seconds at a time,
between states in which the same call takes up to twice, at times three
times, as long.  A fixed reference workload timed next to the measured
calls tracks those states, and ``HostClock.scale`` divides them out.

The reference is a mix of the kinds of work meanset's hot paths do: small
numpy array arithmetic, a non-negative least-squares solve and a bounded
L-BFGS-B minimisation, about 6 ms in all.  It tracks the program's
slowdowns far better than a pure-Python loop does.  Timed side by side
for 100 s on a 2-CPU x86 VM, three meanset calls spread 0.43-0.53
(IQR / median).  Their ratios to each part of this mix spread 0.11-0.16,
and their ratios to a pure-Python loop 0.20-0.25.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_ROUNDS_PER_S = 180.0  # reference rounds per second of the nominal host
EVERY_S = 0.25                # wall time between reference samples
WINDOW = 2                    # samples on each side that scale one call

_A = np.array([[0.5, 0.1, 0.2], [0.0, 0.4, 0.1], [0.3, 0.2, 0.1]])
_B = np.array([[1.0, 0.2, 0.0, 0.3], [0.1, 0.9, 0.4, 0.0], [0.0, 0.3, 1.1, 0.2],
               [0.5, 0.0, 0.2, 0.8], [0.3, 0.6, 0.1, 0.1], [0.2, 0.1, 0.7, 0.4]])
_b = np.array([0.9, 0.4, 0.7, 0.2, 0.5, 0.3])


def _objective(x):
    return float(((x - 0.3) ** 2).sum() + 0.1 * x[0] * x[1])


def reference_speed() -> float:
    """Rounds per second of the fixed reference mix (one round, ~6 ms)."""
    import scipy.optimize as so  # imported here: set-up times the first scipy import

    t0 = time.perf_counter()
    x = np.zeros(3)
    for _ in range(1000):
        x = np.minimum(_A @ x + 1.0, 2.0)
    for _ in range(100):
        so.nnls(_B, _b)
    for _ in range(3):
        so.minimize(_objective, np.zeros(3), method="L-BFGS-B", bounds=[(0.0, 1.0)] * 3)
    return 1.0 / (time.perf_counter() - t0)


class HostClock:
    """Scales measured times to a nominal host.

    The reference is timed between operations at least every ``EVERY_S``.
    An operation's time is multiplied by the median speed of the samples
    around it, over ``NOMINAL_ROUNDS_PER_S``: the scaled times are seconds
    on a host that runs the reference at that speed.  A change to the
    program moves them; a change in the host's speed mostly does not.
    """

    def __init__(self):
        self.speeds = []
        self.sample()

    def sample(self) -> None:
        self.speeds.append(reference_speed())
        self.last = time.perf_counter()

    def tick(self) -> int:
        """Sample if one is due; the index of the latest sample."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()
        return len(self.speeds) - 1

    def scale(self, seconds: float, index: int) -> float:
        """``seconds`` measured after sample ``index``, on the nominal host."""
        nearby = self.speeds[max(0, index - WINDOW + 1):index + WINDOW + 1]
        return seconds * statistics.median(nearby) / NOMINAL_ROUNDS_PER_S

"""Machine-speed scale for wall times measured on a shared host.

On a host shared with other tenants the speed of one core drifts, by up to
2x over a few seconds. Medians within a run cannot remove a drift that
lasts longer than the run, so the benchmark times a fixed calibration
kernel right before and right after every timed operation and reports
each wall time scaled to the speed at which that kernel takes
``REFERENCE_S``:

    scaled = wall * REFERENCE_S / mean(kernel before, kernel after)

The kernel does the kinds of work the qstitch layers do, pure-Python dict,
tuple and integer operations and complex matrix-vector products at 64 and
256 kets, and it never calls qstitch, so a change to the program moves a
scaled time exactly as it moves the wall time; only the host's drift
cancels. The raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel time at the reference speed: its median on the 2-vCPU Xeon host
# the benchmark was defined on, so scaled times read close to wall times there.
REFERENCE_S = 2.4e-3


class SpeedProbe:
    def __init__(self) -> None:
        self._small = (np.arange(64 * 64).reshape(64, 64) % 7).astype(complex)
        self._large = (np.arange(256 * 256).reshape(256, 256) % 7).astype(complex)

    def _kernel(self) -> int:
        seen: dict = {}
        acc = 0
        for i in range(3000):
            key = (i % 97, "k", i % 13)
            seen[key] = seen.get(key, 0) + 1
            acc += len(seen) * i
        for m, steps in ((self._small, 40), (self._large, 12)):
            v = np.ones(len(m), dtype=complex)
            for _ in range(steps):
                v = m @ v
                v = v / np.abs(v).max()
        return acc

    def measure(self) -> float:
        """Best of three kernel timings, so one interrupt does not count."""
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        return best

    def scale(self, before: float, after: float) -> float:
        return 2 * REFERENCE_S / (before + after)

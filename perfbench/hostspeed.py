"""How fast the shared host runs right now, from a fixed probe.

Other tenants of a shared host slow every process on it for seconds to
minutes at a time: the same repetition of ``converge_p3`` took 9.7 s to
17.1 s within a few minutes, with user CPU time growing as much as wall time
and steal time near zero.  No estimate within one run removes phases that
long, so each repetition's times are scaled by the speed the host ran at
while it was measured.

The probe is a frozen copy of the difference-form nonlocal apply of
``nlbiharm.nlop`` (slice differences, scale, accumulate), on the grid size
and dimension of the workload it calibrates, so it slows down as much as the
program does.  It lives here, not in the package, so a change to the
package never moves it.

``speed(samples)`` is ``REFERENCE_PASS_S / pass time``, averaged over the
samples: 1 on the reference host when it was quiet, below 1 when the host is
slower.  A time multiplied by it reads as seconds on the quiet reference
host.  Averaging ``1 / pass time`` (the rate) rather than the pass time
weights every sample by the wall time it stands for.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

# Per workload: padded grid shape, stencil radius in cells, and the time of
# one probe pass on the reference host (2-vCPU Xeon at 2.1 GHz, Python
# 3.11.7, numpy 2.4.6) at its quiet speed.
PROBES = {
    # 1D, offsets +-1..+-25 (K = 50) on 666 nodes: the stiff eps = 0.1 run
    "converge_p3": ((666,), 25, 130e-6),
    # 2D, offsets within radius 3 (K = 28) on the 116 x 116 padded grid
    "evolve_2d": ((116, 116), 3, 850e-6),
    # 1D, offsets +-1..+-12 (K = 24) on 116 nodes: most battery steps
    "battery": ((116,), 12, 50e-6),
}
# Timed passes per sample; one untimed pass before them warms the caches, so
# the sample does not depend on what the program left in them.
PASSES = 3


def _slice_pair(shape, offset):
    src, dst = [], []
    for n, d in zip(shape, offset):
        dst.append(slice(max(-d, 0), n - max(d, 0)))
        src.append(slice(max(d, 0), n + min(d, 0)))
    return tuple(src), tuple(dst)


class Probe:
    """The calibration kernel of one workload."""

    def __init__(self, workload: str):
        shape, radius, self.reference_s = PROBES[workload]
        offsets = [
            d for d in itertools.product(range(-radius, radius + 1), repeat=len(shape))
            if any(d) and sum(x * x for x in d) <= radius * radius
        ]
        self.terms = [
            (_slice_pair(shape, d), 1.0 / sum(x * x for x in d)) for d in offsets
        ]
        grid = np.indices(shape).sum(axis=0).astype(float)
        self.values = np.sin(0.05 * grid)

    def _pass(self) -> np.ndarray:
        out = np.zeros_like(self.values)
        for (src, dst), w in self.terms:
            diff = self.values[src] - self.values[dst]
            diff *= w
            out[dst] += diff
        return out

    def sample(self) -> float:
        """Seconds per pass, now."""
        self._pass()
        t = time.perf_counter()
        for _ in range(PASSES):
            self._pass()
        return (time.perf_counter() - t) / PASSES

    def speed(self, samples) -> float:
        """Host speed over ``samples`` relative to the quiet reference host."""
        return self.reference_s * statistics.fmean(1.0 / s for s in samples)

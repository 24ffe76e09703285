"""Machine-speed reference for the benchmark's timings.

Small shared machines run the same code at different speeds from one
minute to the next: on a 2-vCPU Xeon VM, the median pass of one workload
moved by up to 1.8x between runs a few minutes apart, far more than any
change worth measuring. Each run therefore also times a fixed piece of
reference work, which needs nothing from routeboost, after each stage of
a pass and each set-up. The mean reference duration says how fast the
machine ran during the run, and timings are reported at one fixed
reference speed:

    adjusted seconds = wall seconds * NOMINAL_S / mean reference duration

On that VM this cut the spread of 45-second windows of tree_grouped passes
from 25% to 3% of their median. Wall times are reported beside them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Reference duration the adjusted timings are expressed at: the mean of
# reference_work on the VM above.
NOMINAL_S = 0.0133
# Reference work is kept at about this share of the timed work it brackets.
SHARE = 0.05

_DATA = np.random.default_rng(0).normal(size=(3000, 4))


def reference_work() -> float:
    """Per-row interpreter work and NumPy sorting, as in a pass; its seconds."""
    start = time.perf_counter()
    total = 0.0
    for row in _DATA:
        values = {f"s{j}": float(v) for j, v in enumerate(row)}
        total += sum(values.values())
    for j in range(_DATA.shape[1]):
        for v in _DATA[np.argsort(_DATA[:, j], kind="stable"), j].tolist():
            total += v * v
    return time.perf_counter() - start


class Speed:
    """Reference timings of one run, spread over its timed work."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._timed = 0.0
        self._spent = 0.0

    def after(self, timed_s: float) -> None:
        """Time reference work after ``timed_s`` seconds of timed work."""
        self._timed += timed_s
        while True:
            self.samples.append(reference_work())
            self._spent += self.samples[-1]
            if self._spent >= SHARE * self._timed:
                return

    def mean_s(self) -> float:
        if not self.samples:  # no stage completed: sample once now
            self.after(0.0)
        return statistics.fmean(self.samples)

    def factor(self) -> float:
        """Multiplier from wall seconds to seconds at the reference speed."""
        return NOMINAL_S / self.mean_s()

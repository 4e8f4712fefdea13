"""The yardstick: a fixed piece of work timed next to every operation.

It is 10 000 scalar NumPy draws compared in a Python loop, the same kind of
work as the per-round kernels.  When neighbours on shared cores slow the
machine down, the yardstick slows with the operation next to it, so time ×
machine speed repeats from run to run where raw time does not (README.md).
"""

from __future__ import annotations

import time

import numpy as np

REF_DRAWS = 10_000
# The yardstick's time on the build machine when neighbours are idle (2-CPU
# x86-64 sandbox, Python 3.11, NumPy 2.4); it only sets the scale.
REF_NOMINAL_S = 0.0055


class Yardstick:
    """Times the reference loop; one per process, so its draws are fixed."""

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)

    def __call__(self) -> float:
        start = time.perf_counter()
        hits = 0
        for _ in range(REF_DRAWS):
            hits += self._rng.random() < 0.5
        return time.perf_counter() - start


def machine_speed(ref_samples: list[float]) -> float:
    """How fast the machine ran relative to REF_NOMINAL_S (1.0 = nominal,
    0.5 = everything took twice as long), over the given yardstick samples."""
    return REF_NOMINAL_S * len(ref_samples) / sum(ref_samples)

"""Drift calibration: a fixed ~30 ms slice of machine work.

On a shared host every execution path speeds up and slows down
together as neighbours come and go.  Timing this slice right before
each measured operation gives the host's momentary speed; dividing the
operation's time by it cancels the drift.  The slice imports nothing
from the program under test, so a change to the program cannot move
it — except by leaving work running while the program is idle (a
spinning thread, a busy worker), which the raw ``calib_s`` per-layer
metric exposes instead of crediting it as a speed-up.

The slice mixes the three resources the program's layers lean on:
small BLAS-3 (a 64 x 64 ``np.matmul`` loop, like the tile kernels),
interpreter dispatch (a dict-update loop, like the schedulers) and
memory bandwidth (an 8 MB ``np.copyto``, like tile staging).
"""

from __future__ import annotations

import time

import numpy as np

#: repetitions of each part, sized for ~10 ms each on a 2-vCPU Xeon
MATMUL_REPS = 1100
DICT_REPS = 72_000
COPY_REPS = 12
COPY_BYTES = 8 * 2**20


class Calibrator:
    """Owns the slice's buffers so each call measures only the work."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((64, 64))
        self._b = rng.standard_normal((64, 64))
        self._c = np.empty((64, 64))
        self._src = rng.standard_normal(COPY_BYTES // 8)
        self._dst = np.empty_like(self._src)

    def __call__(self) -> float:
        """Run the slice once; return its wall time in seconds."""
        a, b, c = self._a, self._b, self._c
        t0 = time.perf_counter()
        for _ in range(MATMUL_REPS):
            np.matmul(a, b, out=c)
        d: dict = {}
        for i in range(DICT_REPS):
            k = i & 1023
            d[k] = d.get(k, 0) + i
        for _ in range(COPY_REPS):
            np.copyto(self._dst, self._src)
        return time.perf_counter() - t0

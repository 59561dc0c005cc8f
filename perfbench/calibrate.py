"""A fixed reference computation that tracks the speed of a shared machine.

On a machine shared with other tenants the same catres call can take up to
2x longer in one spell than in the next.  The benchmark therefore times
this kernel between consecutive calls and reports each call's wall time
scaled by ``REF_S / (kernel time around the call)``: seconds on a machine
where one pass of the kernel takes ``REF_S``.  The kernel is independent of catres, so no
change to the library moves it.  It mixes what catres spends its time on:
small-matrix numpy elimination modulo a prime (rref over F_p) and
interpreter-bound ``Fraction`` arithmetic (everything over Q).
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import numpy as np

# about the time of one kernel pass on the machine of the baseline (README.md)
REF_S = 0.03


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20191030)
        self._mats = [rng.integers(0, 3, size=(24, 32), dtype=np.int64) for _ in range(32)]
        nums = rng.integers(-9, 10, size=(2, 48)).tolist()
        dens = rng.integers(1, 10, size=(2, 48)).tolist()
        self._rows = [[Fraction(n, d) for n, d in zip(nums[k], dens[k])] for k in range(2)]

    def _eliminate(self, a: np.ndarray) -> int:
        a = a.copy()
        r = 0
        for c in range(a.shape[1]):
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            a[[r, i]] = a[[i, r]]
            a[r] = (a[r] * int(a[r, c])) % 3  # x * x = 1 for x in {1, 2}
            col = a[:, c].copy()
            col[r] = 0
            a -= np.outer(col, a[r])
            a %= 3
            r += 1
            if r == a.shape[0]:
                break
        return r

    def _fractions(self) -> Fraction:
        u, v = self._rows
        acc = Fraction(0)
        for _ in range(2):
            for x in u:
                for y in v[:16]:
                    acc += x * y
        return acc

    def _pass(self) -> float:
        t0 = time.perf_counter()
        for a in self._mats:
            self._eliminate(a)
        self._fractions()
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """Median wall time of three passes of the kernel, so that a stall
        inside one pass does not set the scale of the calls around it."""
        gc.collect()
        return statistics.median(self._pass() for _ in range(3))

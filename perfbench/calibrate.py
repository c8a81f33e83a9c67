"""Calibration kernels: fixed pieces of work timed between ops.

The benchmark machine changes speed from one stretch of seconds to the next
(another tenant on the same core makes it run up to 1.5 times slower), and a
35-second run does not average that out.  Timing these kernels right before
and after every op tells how fast the machine was while the op ran, so the
benchmark can report each op at one reference speed:

    reference seconds = wall seconds / speed factor

The speed factor is the geometric mean, over the kernels, of each kernel's
time divided by its reference time, the way SPEC combines its ratios.  The
reference times are fixed constants, about what each kernel takes on an
unloaded 2-vCPU x86-64 VM, so reference seconds are about the wall seconds
of such a machine.  No kernel calls varcurves, so a faster varcurves gives
smaller reference seconds while a faster or slower machine does not.

A busy neighbour slows different kinds of work by different amounts, so the
kernels cover the three kinds a varcurves solve at N = 1000 spends its time
on: numpy calls on small (1001, 3) arrays, the Python interpreter, and
batched 3x3 SVDs (the SO(3) projection).  Over runs of the same code, each
kernel alone left spreads of up to 13% (the SVD kernel on sphere-solve) or
11% (the Python kernel on so3-solve) between runs; the three together left
at most 5% on every workload.
"""

from __future__ import annotations

import math
import time

import numpy as np

# kernel -> reference seconds
REFERENCE_S = {"numpy": 0.003, "python": 0.004, "svd": 0.0055}


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(1001, 3))
        self.m = rng.normal(size=(1001, 3, 3))
        self.kernels = {"numpy": self._numpy, "python": self._python, "svd": self._svd}
        self.factor()   # the first calls pay for lazy initialisation

    def _numpy(self) -> float:
        acc = 0.0
        for _ in range(40):
            y = self.x / np.linalg.norm(self.x, axis=1, keepdims=True)
            d = np.diff(y, axis=0)
            acc += float(np.einsum("ij,ij->", d, d)) + float(np.cross(y[:-1], y[1:]).sum())
        return acc

    def _python(self) -> float:
        acc = 0.0
        for i in range(60_000):
            acc += (i % 7) * 0.5
        return acc

    def _svd(self) -> float:
        acc = 0.0
        for _ in range(2):
            u, s, vt = np.linalg.svd(self.m)
            acc += float(s[:, 0].sum())
        return acc

    def factor(self) -> float:
        """Speed factor now: 1 at reference speed, 1.5 when 1.5 times slower."""
        logs = 0.0
        for name, kernel in self.kernels.items():
            start = time.perf_counter()
            kernel()
            logs += math.log((time.perf_counter() - start) / REFERENCE_S[name])
        return math.exp(logs / len(self.kernels))

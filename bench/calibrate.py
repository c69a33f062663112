"""Machine-speed calibration for timings taken on a shared host.

On a small shared machine the speed of the whole CPU steps up and down,
by 25-60% for tens of seconds to minutes at a time, so two runs of the
same code can differ by that much in every timing. A fixed reference
kernel, independent of the package, is timed just before every
operation, and the operation's time is scaled by NOMINAL_S / kernel
time: its time at the speed where the kernel takes NOMINAL_S. The kernel
mixes the kinds of work the workloads do: text parsed into floats in the
interpreter, and numpy and BLAS passes over an array. A change to the
program moves the scaled times as it moves the raw ones.
"""

import csv
import io
import time

import numpy as np

# Median kernel time on the 2-core reference machine in its fast state.
NOMINAL_S = 0.025


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20230515)
        self.text = "\n".join(",".join(map(repr, row)) for row in
                              rng.standard_normal((3000, 10)).tolist())
        self.arr = rng.standard_normal((20_000, 40))
        self.samples = []

    def measure(self):
        """Time the kernel once and return its seconds."""
        t0 = time.perf_counter()
        [[float(tok) for tok in row] for row in csv.reader(io.StringIO(self.text))]
        x = self.arr - self.arr.mean(axis=0)
        np.einsum("ij,ij->i", x, x)
        np.linalg.cholesky(x.T @ x)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def speed(before, after):
        """Factor scaling a time taken between two kernel timings to
        nominal speed."""
        return 2.0 * NOMINAL_S / (before + after)

"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the same job mix at the same seed runs
anywhere from 3.1 to 4.7 jobs/s from one run to the next (CPU time tracks
wall time, so this is the host getting slower, not the process waiting).
The bench therefore runs a fixed reference kernel, which uses neither the
package nor the bench's inputs, after every job, and scales each job's wall
time by REFERENCE_S / (median kernel time over the neighbouring jobs).
Reported times are seconds at the speed where the kernel takes REFERENCE_S;
the raw wall times are printed alongside.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.005  # kernel time that defines "reference speed"
WINDOW = 2           # jobs on each side in the local speed estimate


def kernel() -> float:
    """Seconds for a fixed mix of interpreter work and 3x3 eigensolves."""
    a = np.random.default_rng(0).standard_normal((200, 3, 3))
    mats = a @ a.transpose(0, 2, 1) + np.eye(3)
    t0 = time.perf_counter()
    acc = 0.0
    for m in mats:
        w, _ = np.linalg.eigh(m)
        acc += float(np.log(w).sum())
        table = {}
        for i in range(30):
            table[(i, i % 3)] = table.get((i % 7, 0), 0.0) + i * 0.5
    return time.perf_counter() - t0


def local_factors(kernel_s: list) -> list:
    """Per-job factor REFERENCE_S / median kernel time of nearby jobs."""
    out = []
    for i in range(len(kernel_s)):
        near = kernel_s[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(REFERENCE_S / statistics.median(near))
    return out

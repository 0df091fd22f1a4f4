"""How fast the machine runs right now, from a fixed pure-Python kernel.

The benchmark's sandbox shares its host with other tenants. On it, the wall
time of identical recipfm work swings by up to 2x within a minute, in
stretches that last seconds. The same happens to process CPU time, so the
slowdown cannot be filtered out by measuring CPU time instead. A short kernel
of the same kind of work (small tuples, float products, dict lookups, calls)
slows down by the same factor. The benchmark runs this kernel between
verdicts and divides each timing by the kernel's speed at that moment.
Timings are then expressed in *reference seconds*: seconds on a machine
where the kernel takes REFERENCE_S. This file is not part of recipfm, so
every version of recipfm is measured against the same kernel.
"""

import time

REFERENCE_S = 0.0025  # kernel wall time that defines one reference second
CALIBRATE_EVERY_S = 0.2  # longest stretch of verdicts between two kernel runs


def kernel() -> float:
    table = {i: float(i) for i in range(64)}
    acc = 0.0
    for i in range(1400):
        row = tuple(table[(i + k) & 63] * 1.0001 for k in range(8))
        acc += sum(a * b for a, b in zip(row, row[1:]))
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0

"""Time the benchmark's set-up in a fresh interpreter.

    python3 benchmarks/setup_probe.py WORKLOAD SEED

prints the set-up time in reference seconds (see calibrate.py), then in wall
seconds.  Set-up is everything before the first timed verdict: importing recipfm,
building the catalog, compiling fields and drawing the first round's sample
points.  ``run.py`` starts this probe several times, one after another, and
reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402

calibrate.kernel()
before = calibrate.kernel_seconds()
t0 = time.perf_counter()

import workloads  # noqa: E402  (imports recipfm)

workloads.setup(sys.argv[1], int(sys.argv[2]))
wall = time.perf_counter() - t0
after = calibrate.kernel_seconds()
print(wall * calibrate.REFERENCE_S / ((before + after) / 2.0), wall)

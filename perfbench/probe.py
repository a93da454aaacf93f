"""Time one fresh interpreter's set-up for a workload and print the seconds.

Set-up is everything before the first timed op: importing the package,
generating inputs and one untimed warm-up op.  ``run.py`` starts this
several times and reports the median as ``setup_s``.

    python3 perfbench/probe.py <workload> <seed>    (from the repository root)
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import make  # noqa: E402

wl = make(sys.argv[1], int(sys.argv[2]), Path.cwd())
wl.op(wl.inputs(0))
print(perf_counter() - T0)

"""Time one fresh-process set-up: import latmech, then generate a workload's inputs.

    python3 perfbench/setup_inputs.py WORKLOAD SEED WORKDIR

Prints the seconds from before the import to the last input file written.
"""

import sys
import time

started = time.perf_counter()

from run import SRC  # noqa: E402 - the import is part of what is timed

sys.path.insert(0, SRC)

import latmech  # noqa: E402,F401
import workloads  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.WORKLOADS[name][0](seed, workdir)
print(repr(time.perf_counter() - started))

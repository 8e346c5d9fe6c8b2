"""One timed set-up: start Python, import zwcalc, build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints, once the inputs are ready, the monotonic clock
(``time.perf_counter``, CLOCK_MONOTONIC on Linux, shared by all
processes; the caller reads its own just before starting this process)
and this process's CPU time since it started (``time.process_time``).
"""

import sys
import time

import workloads

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter(), time.process_time())

"""Time one workload's set-up in a fresh interpreter.

Prints the wall-clock seconds and the same time rescaled to the reference
machine speed (speed.py), sampled in this interpreter just before and just
after set-up.

    python3 perfbench/setup_probe.py <workload> <pool seed>

Set-up is importing towerdecomp and, for the library workloads, building and
validating the workload's towers; for cli-cold it is the bare import.
"""

import sys
import time

import run
import speed

if __name__ == "__main__":
    name = sys.argv[1]
    speed.sample()  # the first sample in a fresh interpreter is a little slower
    before = speed.sample()
    t0 = time.perf_counter()
    run.import_program()
    if name != "cli-cold":
        import workloads

        workloads.WORKLOADS[name][0](int(sys.argv[2]))
    wall = time.perf_counter() - t0
    print(wall, speed.scaled(wall, before))

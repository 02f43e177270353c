"""Set-up probe: a fresh process that does one workload's set-up and exits.

run.py starts it several times per call and takes, from just before the
process starts to the printed ready time, the import of setstat, the config
parsing and the building of the workload inputs.

Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import sys
import time

import env

if __name__ == "__main__":
    env.use_checkout_package()
    import workloads

    workloads.prepare(sys.argv[1], int(sys.argv[2]))
    print(f"ready {time.time()!r}", flush=True)

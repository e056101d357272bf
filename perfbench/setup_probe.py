"""Set up one workload in a fresh interpreter, then print "ready".

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

run.py times each probe from before it starts the process to the "ready"
line: interpreter start, `import ksets`, catalog loads and input building.
"""

import sys

import workloads

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
sys.stdout.write("ready\n")
sys.stdout.flush()

"""One set-up sample: a fresh interpreter imports repro and builds a workload.

Usage: ``python3 perfbench/probe.py <workload> <seed>`` with ``src`` on
``PYTHONPATH``.  Prints ``ready`` once the workload's objects are built; the
parent times the interval from process start to that line (``setup_s``).
"""

import sys

from workloads import WORKLOADS

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    print("ready", flush=True)

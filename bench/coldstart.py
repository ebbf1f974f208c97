"""Cold-start probe: one fresh interpreter imports ears.cli and loads the
inputs of one workload, then exits.  run.py times whole runs of it for
setup_s.

    python3 bench/coldstart.py <workload>
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ears.cli  # noqa: E402,F401

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.load_inputs(sys.argv[1])

"""Record the benchmark's fixtures from the program as it stands.

    python3 bench/record.py

Writes configs/<slug>.json for every acceptance-suite descriptor and
goldens.json with the SHA-256 digest (and verdict, where there is one) of
every report the workloads can produce, orbits on every window-1 root
included.  Run it only when report bytes are meant to change.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from ears.core import descriptor_to_config  # noqa: E402
from ears.examples import acceptance_suite  # noqa: E402

import check  # noqa: E402
import fixtures  # noqa: E402
import workloads  # noqa: E402


def main():
    os.makedirs(fixtures.CONFIG_DIR, exist_ok=True)
    for name, desc in acceptance_suite().items():
        with open(fixtures.config_path(name), "w") as fh:
            fh.write(fixtures.config_text(descriptor_to_config(desc)))
    goldens = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, random.Random(0), orbit_roots=None)
        for op in workload.ops:
            if op.command != "relations":
                goldens[op.key] = check.golden_entry(op, op.call())
    with open(fixtures.GOLDEN_PATH, "w") as fh:
        json.dump(goldens, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"{len(goldens)} goldens")


if __name__ == "__main__":
    main()

"""Set-up probe: a fresh interpreter imports ``repro`` and assembles one
workload, prints ``assembled`` and exits.

``run.py`` times it from process start to that line, which is the
``setup_s`` a command-line user pays on every run.  Usage::

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)


def main() -> None:
    from workloads import WORKLOADS

    name, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[name].assemble(seed)
    sys.stdout.write("assembled\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Time one cold set-up of an in-process workload: import dplap, then build
every ProblemSpec the workload uses (each runs check_consistency quadrature).

Usage: python3 setup_probe.py WORKLOAD SEED   (prints the seconds taken)
"""

import os
import sys
import time


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import dplap  # noqa: F401
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    for op in workloads.IN_PROCESS[name](seed).ops:
        op.build()
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()

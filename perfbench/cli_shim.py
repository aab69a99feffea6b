"""Traced `dplap` CLI: install the benchmark's wrappers, then run dplap.cli.main.

Usage: python3 cli_shim.py TRACE_OUT.json <dplap arguments...>
Exits with dplap.cli.main's return code and leaves the trace in TRACE_OUT.json.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    tracer = Tracer()
    install(tracer)
    import dplap.cli
    tracer.active = True
    try:
        return dplap.cli.main(sys.argv[2:])
    finally:
        tracer.active = False
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())

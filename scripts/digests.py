#!/usr/bin/env python3
"""Digest the outputs a refactor should keep: one ``name sha256`` line per item.

Usage: python3 scripts/digests.py [TREE]

TREE is a dplap checkout, by default the one holding this script.  The
script imports TREE's src/ and perfbench/workloads.py and digests:

- every SolveOutcome of workloads.solve(1) and solve(7) (u's bytes, energy,
  residual, iterations, stop_reason, positivity) and every SweepRow;
- first_eigenpair on a 33-cell (p, T) grid (lambda, residual, phi's bytes,
  or the error it raises);
- the six check-cli commands at seed 1 (stdout with the work directory
  masked, and the exit code);
- the five demos' stdout and exit code.

To list the outputs a change moved, run it on the parent commit and on the
change, on one machine, and diff the two outputs.  The digests depend on the
numpy and LAPACK builds, so they are not a golden file to compare across
machines.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

# the grid of tests/test_spectrum.py, whose last three cells raise
EIGEN_GRID = [(p, T) for p in (1.1, 1.5, 2.0, 3.0, 10.0) for T in (2, 3, 4, 9, 20, 200)]
EIGEN_GRID += [(1.5, 2000), (2.5, 5000), (3.0, 5000)]
CLI_SEED = 1


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def solve_items(workloads, seed: int):
    for op in workloads.solve(seed).ops:
        for i, out in enumerate(op.call(op.build())):
            name = f"solve({seed}) {op.label} [{i}]"
            if hasattr(out, "u"):  # a multistart's SolveOutcome
                yield name, digest(out.u.values.tobytes(), out.energy, out.residual,
                                   out.iterations, out.stop_reason, out.positivity)
            else:  # a sweep's SweepRow
                yield name, digest(out)


def eigen_items(dplap):
    for p, T in EIGEN_GRID:
        try:
            pair = dplap.first_eigenpair(p, T)
        except (ValueError, RuntimeError) as exc:
            value = digest(type(exc).__name__, str(exc))
        else:
            value = digest(pair.lambda_, pair.residual, pair.phi.values.tobytes())
        yield f"eigen p={p} T={T}", value


def cli_items(workloads, env: dict):
    with tempfile.TemporaryDirectory() as workdir:
        def runner(args):
            return workloads.run_cli([sys.executable, "-m", "dplap.cli"], args, env)

        for op in workloads.check_cli(CLI_SEED, workdir, runner).ops:
            run = op.call(op.build())
            yield f"cli {op.label}", digest(run.stdout.replace(workdir, "<workdir>"),
                                            run.returncode)


def demo_items(tree: str, env: dict):
    demos = os.path.join(tree, "demos")
    for name in sorted(os.listdir(demos)):
        if name.endswith(".py"):
            run = subprocess.run([sys.executable, os.path.join(demos, name)], env=env,
                                 capture_output=True, text=True, timeout=300)
            yield f"demo {name}", digest(run.stdout, run.returncode)


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tree = os.path.abspath(argv[0] if argv else here)
    src = os.path.join(tree, "src")
    sys.path[:0] = [src, os.path.join(tree, "perfbench")]
    import dplap
    import workloads
    if not os.path.abspath(dplap.__file__).startswith(src + os.sep):
        sys.exit(f"imported dplap from {dplap.__file__}, not from {src}")
    env = dict(os.environ, PYTHONPATH=src)
    items = [*solve_items(workloads, 1), *solve_items(workloads, 7), *eigen_items(dplap),
             *cli_items(workloads, env), *demo_items(tree, env)]
    for name, value in items:
        print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

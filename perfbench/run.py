#!/usr/bin/env python3
"""dplap benchmark.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 50 --trace 0

Runs one workload from a single process as a closed loop with one caller:
cycles through the workload's fixed operation list, the next operation
starting when the previous one returns, until --seconds have passed (at least
one full pass).  Every operation's output is checked.  The last stdout line
is a JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A traced run makes one untraced pass (for trace_overhead) and two traced
passes whose work counts must agree exactly.  The full record (with git rev,
nproc and library versions) and the spans go to perfbench/out/.

The program is imported from src/ next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
NAMES = ("solve", "check-cli")
TAIL_LADDER = (99, 95, 90, 75, 50)
# op_s.tail.  The complete passes of a run hold 25-40 operations, so p75 is
# the highest percentile with several samples beyond it; it is pinned rather
# than picked per run so that a faster program does not change which
# percentile is reported.
TAIL_PCT = 75
# counts that depend only on the inputs and the code; they must repeat exactly
EXACT = ("core.f_vec.calls", "core.F_vec.calls", "core.df_vec.calls", "core.quad.calls",
         "core.quad.memo_lookups", "core.quad.consistency_calls", "solver.iterations",
         "solver.started", "solver.converged", "solver.kept", "solutions",
         "spectrum.first_eigenpair.calls", "existence.chi.calls", "cli.main.calls")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DPLAP_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def percentile(values, pct: float) -> float:
    vals = sorted(values)
    pos = (len(vals) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def tail(values) -> tuple[int, float]:
    """Highest ladder percentile with at least 10 samples beyond it."""
    for pct in TAIL_LADDER:
        if len(values) * (100 - pct) / 100.0 >= 10:
            return pct, percentile(values, pct)
    return 50, percentile(values, 50)


def environment() -> dict:
    import numpy
    import scipy
    rev = "unknown"  # a checkout without .git is identified by src_digest alone
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_rev": rev, "src_digest": src_digest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "dplap")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def machine_speed() -> float:
    """Median seconds of a fixed pure-Python loop: recorded before and after
    the measured passes, so a run made during a slow spell of a shared
    machine can be recognised in its record."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- set-up --------------------------------------------------------------------

def setup_seconds(name: str, seed: int, env: dict) -> list[float]:
    """SETUP_REPEATS cold set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        if name == "check-cli":  # what every CLI call pays before main() runs
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import dplap.cli"], env=env, check=True,
                           timeout=120)
            times.append(time.perf_counter() - start)
        else:
            out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), name,
                                  str(seed)], env=env, check=True, capture_output=True,
                                 text=True, timeout=120).stdout
            times.append(float(out.strip().splitlines()[-1]))
    return times


# -- passes --------------------------------------------------------------------

def run_op(op, tracer=None, op_id: int = -1) -> tuple[float, int, list[str]]:
    """Run one operation and check it: (seconds, solutions found, problems).
    The time covers build and call, not the check."""
    inputs = result = None
    error = None
    if tracer is not None:
        tracer.op_id = op_id
        tracer.active = True
    start = time.perf_counter()
    try:
        if tracer is not None:
            inputs = tracer.span("bench.build", op.build)
            result = tracer.span("bench.call", op.call, inputs)
        else:
            inputs = op.build()
            result = op.call(inputs)
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
    if error:
        return elapsed, 0, [error]
    try:
        n, problems = op.check(inputs, result)
    except Exception as exc:  # a check that cannot run fails the operation
        return elapsed, 0, [f"check raised {type(exc).__name__}: {exc}"]
    return elapsed, n, problems


def run_pass(wl, tracer=None) -> dict:
    """One pass over the operation list (the traced run's unit of work)."""
    rec = {"op_s": [], "solutions": 0, "failed": 0, "problems": []}
    for i, op in enumerate(wl.ops):
        elapsed, n, problems = run_op(op, tracer, i)
        rec["op_s"].append(elapsed)
        rec["solutions"] += n
        if problems:
            rec["failed"] += 1
            rec["problems"].append({"op": op.label, "problems": problems})
    rec["wall_s"] = sum(rec["op_s"])
    return rec


def run_loop(wl, seconds: float) -> list[dict]:
    """Cycle through the operation list until `seconds` have passed, stopping
    at an operation boundary after at least one full pass.  Returns one
    record per operation with every sample it got, so the whole run is
    measured rather than only its complete passes."""
    recs = [{"op": op.label, "op_s": [], "solutions": [], "problems": []} for op in wl.ops]
    start = time.perf_counter()
    i = 0
    while i < len(wl.ops) or time.perf_counter() - start < seconds:
        k = i % len(wl.ops)
        elapsed, n, problems = run_op(wl.ops[k], None, k)
        recs[k]["op_s"].append(elapsed)
        recs[k]["solutions"].append(n)
        if problems:
            recs[k]["problems"].append(problems)
        i += 1
    return recs


def build_workload(name: str, seed: int, workdir: str, tracer=None):
    import workloads
    if name != "check-cli":
        return workloads.IN_PROCESS[name](seed)
    env = child_env()
    if tracer is None:
        def runner(args):
            return workloads.run_cli([sys.executable, "-m", "dplap.cli"], args, env)
    else:
        shim = os.path.join(HERE, "cli_shim.py")
        trace_path = os.path.join(workdir, "shim-trace.json")

        def runner(args):
            start = time.perf_counter()
            run = workloads.run_cli([sys.executable, shim, trace_path], args, env)
            idx = tracer.add_span("cli.process", start, time.perf_counter())
            tracer.merge(trace_path, idx)
            os.remove(trace_path)
            return run
    return workloads.check_cli(seed, workdir, runner)


# -- metrics -------------------------------------------------------------------

def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(name, recs, setup) -> tuple[dict, dict]:
    """wall_s is one pass built from each operation's mean time over the run.
    op_s.p50 and op_s.tail pool the samples of the complete passes, so that
    every operation weighs the same whatever the point the run stopped at."""
    full = min(len(r["op_s"]) for r in recs)
    op_s = [t for r in recs for t in r["op_s"][:full]]
    attempted = sum(len(r["op_s"]) for r in recs)
    failed = sum(len(r["problems"]) for r in recs)
    who = resource.RUSAGE_CHILDREN if name == "check-cli" else resource.RUSAGE_SELF
    metrics = {
        "wall_s": metric(sum(statistics.mean(r["op_s"]) for r in recs), "s"),
        "op_s.p50": metric(statistics.median(op_s), "s"),
        "op_s.tail": metric(percentile(op_s, TAIL_PCT), "s"),
        "ok_frac": metric((attempted - failed) / attempted, "1"),
        "solutions": metric(sum(statistics.median(r["solutions"]) for r in recs), "count"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    beyond = sum(t > metrics["op_s.tail"]["value"] for t in op_s)
    info = {"attempted": attempted, "op_samples": len(op_s), "full_passes": full,
            "tail_pct": TAIL_PCT, "tail_samples_beyond": beyond,
            "samples_per_op": [len(r["op_s"]) for r in recs], "setup_samples": setup}
    return metrics, info


def summarize_trace(tracer) -> dict:
    """Per-pass layer numbers from one traced pass: <span>.calls and <span>.s
    (inclusive seconds) for every span, <layer>.self_s, the counters, and the
    ratios derived from them.  A layer that did not run reads 0."""
    from tracer import LAYERS
    out = defaultdict(float)
    for name, (calls, incl, _) in tracer.stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = incl
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v[2] for k, v in tracer.stats.items()
                                     if k.startswith(layer + "."))
    out.update(tracer.counts)
    lookups = out["core.quad.memo_lookups"]
    starts = tracer.samples["solver.start_s"]
    out.update({
        "core.quad.memo_hit_ratio": 1.0 - out["core.quad.calls"] / lookups if lookups else 0.0,
        "core.quad.consistency_calls": out["core.quad.consistency.calls"],
        # the kernel runs exactly one F_vec per energy, one f_vec per gradient
        # and one df_vec per Jacobian
        "energy.evals": out["core.F_vec.calls"],
        "energy.grad_evals": out["core.f_vec.calls"],
        "energy.jac_evals": out["core.df_vec.calls"],
        "solver.converged_ratio": (out["solver.converged"] / out["solver.started"]
                                   if out["solver.started"] else 0.0),
        "solver.distinct_ratio": (out["solver.kept"] / out["solver.converged"]
                                  if out["solver.converged"] else 0.0),
        "cli.process_s": out["cli.process.s"],
        "cli.main_s": out["cli.main.s"],
    })
    if starts:
        out["solver.start_s.p50"] = statistics.median(starts)
        out["start_tail_pct"], out["solver.start_s.tail"] = tail(starts)
        out["solver.start_s.max"] = max(starts)
    return out


def per_layer(spec_names, summaries, untraced_wall) -> dict:
    """Counts and ratios from the first traced pass (the passes agree on
    them), times as the mean of the traced passes."""
    metrics = {}
    for name, unit in spec_names:
        if name == "trace_overhead":
            traced = statistics.mean(s["wall_s"] for s in summaries)
            metrics[name] = metric(traced / untraced_wall, unit)
        elif unit == "s":
            metrics[name] = metric(statistics.mean(s[name] for s in summaries), unit)
        else:
            metrics[name] = metric(summaries[0][name], unit)
    return metrics


def check_exact(name, seed, summaries) -> list[str]:
    """Exact counts must agree between the traced passes and with an earlier
    traced run of the same workload, seed and source."""
    problems = []
    counts = {k: summaries[0][k] for k in EXACT}
    for other in summaries[1:]:
        diff = [k for k in EXACT if other[k] != counts[k]]
        if diff:
            problems.append(f"counts differ between traced passes: {diff}")
    path = os.path.join(OUT, f"counts-{name}-seed{seed}-{src_digest()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        diff = [k for k in EXACT if earlier.get(k) != counts[k]]
        if diff:
            problems.append(f"counts differ from an earlier traced run: {diff}")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counts, fh, indent=1)
    return problems


# -- main ----------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dplap", "__init__.py")):
        print(f"perfbench: no dplap package at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("DPLAP_THREADS", None)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import dplap
    if not os.path.abspath(dplap.__file__).startswith(SRC + os.sep):
        print(f"perfbench: dplap imported from {dplap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            result, record = traced_run(args, spec, workdir)
        else:
            result, record = untraced_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(), result=result)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for p in record.get("problems", []):
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def untraced_run(args, workdir):
    env = child_env()
    setup = setup_seconds(args.workload, args.seed, env)
    wl = build_workload(args.workload, args.seed, workdir)
    speed_before = machine_speed()
    recs = run_loop(wl, args.seconds)
    metrics, info = end_to_end(args.workload, recs, setup)
    info["machine_speed_s"] = [speed_before, machine_speed()]
    problems = [{"op": r["op"], "problems": p} for r in recs for p in r["problems"]]
    attempted, failed = info["attempted"], len(problems)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, {"info": info, "ops": recs, "problems": problems}


def traced_run(args, spec, workdir):
    from tracer import Tracer, install
    untraced = run_pass(build_workload(args.workload, args.seed, workdir))
    tracer = Tracer()
    install(tracer)
    wl = build_workload(args.workload, args.seed, workdir, tracer)
    summaries, spans, passes = [], [], [untraced]
    for _ in range(2):
        tracer.reset()
        rec = run_pass(wl, tracer)
        summary = summarize_trace(tracer)
        summary.update(wall_s=rec["wall_s"], solutions=rec["solutions"])
        summaries.append(summary)
        spans.append(tracer.spans)
        passes.append(rec)
    attempted = len(passes) * len(wl.ops)
    failed = sum(p["failed"] for p in passes)
    problems = [p for ps in passes for p in ps["problems"]]
    exact_problems = check_exact(args.workload, args.seed, summaries)
    metrics = per_layer([(m["name"], m["unit"]) for m in spec["per_layer"]], summaries,
                        untraced["wall_s"])
    with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "passes": spans}, fh)
    result = {"correct": failed == 0 and not exact_problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"summaries": summaries, "untraced_wall_s": untraced["wall_s"],
              "problems": problems + exact_problems,
              "ops": [op.label for op in wl.ops]}
    return result, record


if __name__ == "__main__":
    sys.exit(main())

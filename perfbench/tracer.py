"""In-memory span tracer and the wrappers that time calls into dplap's layers.

The wrappers are installed from outside the package: every dplap module
global (and ``Nonlinearity`` method) that refers to a wrapped function is
replaced, so calls made through ``from .x import f`` aliases are seen too.
Nothing under ``src/`` changes.

Every wrapped call pushes a frame; on return its duration is added to its
parent's child time, so self time = duration - time in wrapped children.
Calls are aggregated per name (calls, inclusive s, self s).  All names
except the per-node kernel callbacks (``core.f_vec``/``F_vec``/``df_vec``,
hundreds of thousands of calls per pass) are also kept as span records
``(name, start, end, parent span index, operation id)``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (span name, module, attribute); the layer is the part before the first dot
FUNCTIONS = (
    ("core.quad", "dplap.core", "quad"),
    ("spectrum.first_eigenpair", "dplap.spectrum", "first_eigenpair"),
    ("existence.chi", "dplap.existence", "chi"),
    ("existence.check_thm_esistenza", "dplap.existence", "check_thm_esistenza"),
    ("existence.find_admissible_eps", "dplap.existence", "find_admissible_eps"),
    ("existence.check_three_solutions_window", "dplap.existence",
     "check_three_solutions_window"),
    ("existence.alpha_threshold", "dplap.existence", "alpha_threshold"),
    ("solver.solve_newton_p2", "dplap.solver", "solve_newton_p2"),
    ("solver.solve_descent", "dplap.solver", "solve_descent"),
    ("solver.minimize_on_sublevel", "dplap.solver", "minimize_on_sublevel"),
    ("solver.multistart_solve", "dplap.solver", "multistart_solve"),
    ("solver.sweep_alpha", "dplap.solver", "sweep_alpha"),
    ("solver.nontriviality_certificate", "dplap.solver", "nontriviality_certificate"),
    ("cli.main", "dplap.cli", "main"),
)
# Nonlinearity methods: (span name, attribute, keep span records)
METHODS = (
    ("core.f_vec", "f_vec", False),
    ("core.F_vec", "F_vec", False),
    ("core.df_vec", "df_vec", False),
    ("core.check_consistency", "check_consistency", True),
)
START_SPANS = ("solver.solve_newton_p2", "solver.solve_descent")
LAYERS = ("core", "spectrum", "existence", "solver", "cli")


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self._stack = []  # frames: [name, start, child_s, span index or None]
        self._in_consistency = 0
        self.reset()

    def reset(self):
        """Forget everything recorded so far (called at the start of a pass)."""
        self.spans = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive, self
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)

    def _parent_index(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return -1

    def call(self, name, record, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        idx = None
        if record:
            idx = len(self.spans)
            self.spans.append(None)
        parent = self._parent_index()
        frame = [name, time.perf_counter(), 0.0, idx]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[1]
            self._account(name, dur, dur - frame[2])
            if idx is not None:
                self.spans[idx] = (name, frame[1], end, parent, self.op_id)
            if name in START_SPANS:
                self.samples["solver.start_s"].append(dur)

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a recorded span that is not a wrapped dplap call."""
        return self.call(name, True, fn, args, kwargs)

    def add_span(self, name, start, end):
        """Record a span timed elsewhere (a subprocess) under the current frame."""
        if not self.active:
            return -1
        idx = len(self.spans)
        self.spans.append((name, start, end, self._parent_index(), self.op_id))
        self._account(name, end - start, end - start)
        return idx

    def _account(self, name, dur, self_s):
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += self_s
        if self._stack:
            self._stack[-1][2] += dur

    # -- moving a child process's trace into this one ---------------------
    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "stats": self.stats,
                       "counts": self.counts, "samples": self.samples}, fh)

    def merge(self, path, parent_idx):
        """Fold a dumped child trace in below the span at parent_idx, whose
        self time then keeps only the part outside the child's spans."""
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        base = len(self.spans)
        for name, start, end, parent, _ in child["spans"]:
            if parent < 0:
                self.stats[self.spans[parent_idx][0]][2] -= end - start
            self.spans.append((name, start, end,
                               parent_idx if parent < 0 else base + parent, self.op_id))
        for name, (calls, incl, self_s) in child["stats"].items():
            st = self.stats[name]
            st[0] += calls
            st[1] += incl
            st[2] += self_s
        for key, n in child["counts"].items():
            self.counts[key] += n
        for key, vals in child["samples"].items():
            self.samples[key].extend(vals)


def _wrap(tracer, name, record, fn):
    if name == "core.quad":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_consistency:
                return tracer.call("core.quad.consistency", True, fn, args, kwargs)
            return tracer.call(name, True, fn, args, kwargs)
        return wrapper

    if name == "spectrum.first_eigenpair":
        from dplap.spectrum import EigenConvergenceError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return tracer.call(name, record, fn, args, kwargs)
            except EigenConvergenceError:
                if tracer.active:
                    tracer.counts["spectrum.first_eigenpair.failed"] += 1
                raise
        return wrapper

    if name in START_SPANS:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name, record, fn, args, kwargs)
            if tracer.active:
                tracer.counts["solver.iterations"] += out.iterations
                tracer.counts["solver.started"] += 1
                tracer.counts["solver.converged"] += int(out.converged)
            return out
        return wrapper

    if name == "solver.multistart_solve":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name, record, fn, args, kwargs)
            if tracer.active:
                tracer.counts["solver.kept"] += len(out)
            return out
        return wrapper

    if name == "core.check_consistency":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._in_consistency += 1
            try:
                return tracer.call(name, record, fn, args, kwargs)
            finally:
                tracer._in_consistency -= 1
        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, record, fn, args, kwargs)
    return wrapper


def install(tracer: Tracer) -> None:
    """Replace every reference to a traced dplap function by its wrapper."""
    import importlib

    import dplap
    modules = [dplap] + [importlib.import_module(f"dplap.{m}") for m in
                         ("core", "energy", "spectrum", "existence", "solver",
                          "nonlinearities", "cli")]
    for name, module, attr in FUNCTIONS:
        orig = getattr(importlib.import_module(module), attr)
        wrapped = _wrap(tracer, name, True, orig)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)

    nl_cls = dplap.core.Nonlinearity
    for name, attr, record in METHODS:
        setattr(nl_cls, attr, _wrap(tracer, name, record, getattr(nl_cls, attr)))

    # A potential-less Nonlinearity answers F from its quad memo or calls quad:
    # each eval_F call with xi != 0 is one memo lookup.  Only those instances
    # get a counting eval_F, so closed-form kernels pay nothing for it.
    orig_init = nl_cls.__init__

    @functools.wraps(orig_init)
    def __init__(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        if self.potential is None:
            bound = nl_cls.eval_F.__get__(self)

            def eval_F(k, xi):
                if tracer.active and float(xi) != 0.0 and not tracer._in_consistency:
                    tracer.counts["core.quad.memo_lookups"] += 1
                return bound(k, xi)
            self.eval_F = eval_F
    nl_cls.__init__ = __init__

"""The package namespace: public names load their home module on first access;
the package source keeps its checks and its input rules where they belong;
every solver setting is one the CLI sets."""

import argparse
import dataclasses
import glob
import importlib
import os
import re
import subprocess
import sys

import dplap
from dplap.cli import build_parser
from dplap.solver import SolverOptions


def test_lazy_package_surface():
    for name in dplap.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"dplap.{dplap._HOME[name]}")
        obj = getattr(dplap, name)
        assert obj is getattr(home, name), name
        # classes and functions are defined in their home module
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name
    assert set(dplap.__all__) <= set(dir(dplap))
    star = {}
    exec("from dplap import *", star)
    assert set(star) - {"__builtins__"} == set(dplap.__all__)

    # in a fresh process: a bare import runs only core and energy; loading
    # dplap.energy again through dplap.solver leaves dplap.energy the function;
    # a submodule is an attribute without its own import
    src = os.path.dirname(os.path.dirname(os.path.abspath(dplap.__file__)))
    code = ("import sys, dplap\n"
            "print([m for m in ('solver', 'existence', 'nonlinearities', 'spectrum', 'cli')\n"
            "       if 'dplap.' + m in sys.modules])\n"
            "import dplap.solver\n"
            "print(callable(dplap.energy), dplap.existence is sys.modules['dplap.existence'])")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert run.stdout == "[]\nTrue True\n", run.stderr


# python -O strips assert statements: every check in the package must raise
_BARE_ASSERT = re.compile(r"^\s*assert ")
# the shared input rules (positive and finite, finite, whole counts, monotone
# sequences, a grid function on the problem's grid) are written once, in
# dplap.core; no other module, the CLI's ConfigError included, restates one
_INPUT_RULE = re.compile(r"(ValueError|ConfigError)\(.*(must be (positive and finite|finite|"
                         r"a positive integer|a non-negative integer)|"
                         r"strictly (in|de)creasing, positive|has T=)")


def test_no_bare_asserts_and_input_rules_only_in_core():
    package = os.path.dirname(os.path.abspath(dplap.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                if _BARE_ASSERT.match(line) or (name != "core.py" and _INPUT_RULE.search(line)):
                    found.append(f"{name}:{n}: {line.strip()}")
    assert not found, "\n".join(found)


def test_every_solver_option_is_a_solve_and_a_sweep_flag():
    # a SolverOptions field no command sets is a constant in disguise
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("solve", "sweep"):
        parser = sub.choices[command]
        dests = {a.dest for a in parser._actions}
        for field in dataclasses.fields(SolverOptions):
            assert field.name in dests, f"dplap {command} has no flag for {field.name}"
            assert parser.get_default(field.name) == field.default, (command, field.name)

"""Shared test setup.

pyproject.toml's filterwarnings turns a RuntimeWarning, a DeprecationWarning
or a FutureWarning into an error in the pytest process only.  The demos,
`python -m dplap.cli` and the import probes run in child processes that copy
os.environ, so the same rules reach them through PYTHONWARNINGS.
"""

import os

os.environ["PYTHONWARNINGS"] = ("error::RuntimeWarning,error::DeprecationWarning,"
                                "error::FutureWarning")

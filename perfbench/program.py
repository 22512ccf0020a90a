"""Locate and import the squeezesim sources of the checkout under test.

The benchmark runs the program from ``src/`` next to its own directory,
never an installed copy, and pins the BLAS thread pools to one thread so
that every workload is a single-threaded process.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(Exception):
    """The checkout holds no squeezesim sources to benchmark."""


def pin_threads() -> None:
    """One BLAS thread; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load():
    """Import squeezesim from this checkout's ``src/`` and return it."""
    if not (SRC / "squeezesim" / "__init__.py").is_file():
        raise ProgramMissing(f"no squeezesim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sq = importlib.import_module("squeezesim")
    where = Path(sq.__file__).resolve()
    if SRC not in where.parents:
        raise ProgramMissing(f"squeezesim imported from {where}, not {SRC}")
    # the package does not import its CLI; the workloads reach it as sq.cli
    importlib.import_module("squeezesim.cli")
    return sq

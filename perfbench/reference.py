#!/usr/bin/env python3
"""Reference figures of the engine at the benchmark's settings.

    python3 perfbench/reference.py [--repeats 5]

Prints microseconds per step for the homogeneous scenario, a thin sample
of 10 slices and thick stacks of 8 and 50 slices (unsampled apart from
step 0, at the figure presets' rates and tau = 1e-8 s), and the
milliseconds per eigen-solve of the 100x100 atomic block of a 50-slice
sample, with and without eigenvectors.  Each figure is the median of the
repeats, in one process pinned to one CPU with one BLAS thread, both as
measured and scaled to the benchmark's reference host speed (see
``hostspeed``).  The header names nproc and the Python and numpy
versions.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import program  # noqa: E402

program.pin_threads()

import hostspeed  # noqa: E402

TAU = 1e-8


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args(argv)
    sq = program.load()
    hostspeed.pin()
    import numpy as np
    from squeezesim.numerics import sym_eig_all

    rates = sq.CouplingRates(kappa_sq=1.83e6, eta=1.7577, epsilon=0.028)

    def scenario(kind, n, steps):
        t_end = steps * TAU
        every = steps + 1  # sample step 0 only
        if kind == "homogeneous":
            return sq.build_homogeneous(rates, TAU, t_end, sample_every=every)
        if kind == "thin":
            spread = sq.SpreadSpec(kappa0_sq=rates.kappa_sq, delta=0.1)
            return sq.build_thin_inhomogeneous(spread, n, rates, TAU, t_end,
                                               sample_every=every)
        slices = sq.SliceConfig.split(n, rates, per_slice_epsilon=0.028)
        return sq.build_thick(slices, TAU, t_end, sample_every=every)

    timer = hostspeed.Timer()

    def timed(fn, *a, **kw) -> tuple[float, float]:
        """Median seconds of the repeats: as measured, at reference speed."""
        raw, ref = [], []
        for _ in range(args.repeats):
            _, wall, factor = timer(fn, *a, **kw)
            raw.append(wall)
            ref.append(wall * factor)
        return statistics.median(raw), statistics.median(ref)

    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {np.__version__}, BLAS threads 1, {args.repeats} repeats; "
          "figures as measured / at reference speed")
    cases = (("homogeneous", 1, 50_000), ("thin", 10, 20_000),
             ("thick", 8, 10_000), ("thick", 50, 1_000))
    for kind, n, steps in cases:
        raw, ref = timed(sq.run, scenario(kind, n, steps), seed=0)
        print(f"{kind:12s} n = {n:3d}  {steps:6d} steps  "
              f"{raw / steps * 1e6:8.1f} / {ref / steps * 1e6:8.1f} us/step")

    spread = sq.SpreadSpec(kappa0_sq=rates.kappa_sq, delta=0.1)
    sc = sq.build_thin_inhomogeneous(spread, 50, rates, TAU, 1000 * TAU,
                                     sample_every=1000)
    _, traj = sq.run(sc, seed=0, record_cov=True)
    block = traj.cov_samples[-1][:100, :100]
    for vectors in (True, False):
        raw, ref = timed(sym_eig_all, block, vectors=vectors)
        print(f"eigen-solve 100x100 (n = 50), vectors={vectors!s:5s} "
              f"{raw * 1e3:8.1f} / {ref * 1e3:8.1f} ms/sample")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of squeezesim: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  The run repeats whole rounds of the workload until the timed
rounds add up to S seconds, checks every round's outputs against the
benchmark's own references, and prints as the last line of standard
output one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: set-up time
(median of several fresh processes that import the program and generate
the inputs), the median round wall time and the rates derived from it,
and the peak resident memory.  With ``--trace 1`` rounds alternate
between untraced and traced; the per-layer metrics come from the traced
rounds and ``trace.overhead_share`` compares the two medians.  Spans are
written to ``perfbench/out/<workload>/seed<N>/spans.json``.

Exits 0 when every check passed, 1 when one failed, 2 when the checkout
holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import program  # noqa: E402

program.pin_threads()

import hostspeed  # noqa: E402

#: Fresh processes timed for set-up; the median is reported.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # child process timed for setup_s
    return p.parse_args(argv)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def setup_seconds(args) -> float:
    """Median time from spawning a fresh process to its first timed call.

    Each probe starts the interpreter, imports numpy and squeezesim and
    generates the workload's inputs, then reports ready and exits.  Each
    probe is scaled to the reference host speed by the kernel samples
    taken just before and just after it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    before = hostspeed.calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        word, _, ready_at = out.partition(" ")
        if proc.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {out}")
        after = hostspeed.calibrate()
        times.append((float(ready_at) - t0) * hostspeed.scale(before + after))
        before = after
    return statistics.median(times)


def measure(wl, seconds: float, tracer=None) -> dict:
    """Whole rounds until the timed rounds reach ``seconds``.

    With a tracer, odd rounds are traced and the loop also goes on until
    it has at least one round of each kind.  Each round's wall time, less
    the kernel samples taken during it, is scaled to the reference host
    speed by the samples taken before, during and after it.
    """
    walls = {False: [], True: []}
    scales: dict[int, float] = {}
    attempted = failed = 0
    elapsed = 0.0
    r = 0
    timer = hostspeed.Timer()
    while elapsed < seconds or (tracer is not None and not walls[True]):
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install(r)
        try:
            out, wall, scales[r] = timer(wl.run_round, r)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall * scales[r])
        elapsed += wall
        res = wl.check_round(r, out)
        attempted += res.attempted
        failed += res.failed
        _log(f"round {r}{' traced' if traced else ''}: {wall:.4f} s as measured, "
             f"{wall * scales[r]:.4f} s at reference speed, "
             f"{res.attempted} ops, {res.failed} failed")
        for note in res.notes[:5]:
            _log(f"  FAIL {note}")
        r += 1
    return {"walls": walls, "scales": scales, "attempted": attempted,
            "failed": failed}


def main(argv=None) -> int:
    args = _args(argv)
    try:
        sq = program.load()
    except program.ProgramMissing as exc:
        _log(f"perfbench: {exc}")
        return 2
    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _log(f"perfbench: unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
        return 2
    make = workloads.WORKLOADS[args.workload]
    out_dir = HERE / "out" / args.workload / f"seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        make(sq, args.seed, out_dir / "probe").prepare()
        # the monotonic clock is system-wide, so the parent can compare it
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0

    hostspeed.pin()
    setup_s = setup_seconds(args) if args.trace == 0 else None
    wl = make(sq, args.seed, out_dir)
    wl.prepare()
    tracer = spans.Tracer() if args.trace else None
    got = measure(wl, args.seconds, tracer)

    correct = got["failed"] == 0
    try:
        for line in wl.finish():
            _log(line)
    except checks.CheckFailed as exc:
        _log(f"FAIL {exc}")
        correct = False

    plain = statistics.median(got["walls"][False])
    if args.trace == 0:
        per = wl.per_round
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (plain, "s"),
            "steps_per_s": (per["steps"] / plain, "1/s"),
            "samples_per_s": (per["samples"] / plain, "1/s"),
            "trajectories_per_s": (per["trajectories"] / plain, "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced = got["walls"][True]
        metrics = tracer.layer_metrics(len(traced), got["scales"])
        metrics["trace.overhead_share"] = (
            statistics.median(traced) / plain - 1.0, "ratio")
        tracer.write(out_dir / "spans.json")
    print(json.dumps({
        "correct": correct,
        "attempted": got["attempted"],
        "failed": got["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

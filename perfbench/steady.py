#!/usr/bin/env python3
"""Steadiness mode: repeat workloads over seeds and summarize every metric.

    python3 perfbench/steady.py                      # every workload, seeds 1-10
    python3 perfbench/steady.py --workloads fig1_homogeneous --seeds 1-5
    python3 perfbench/steady.py --seeds 1 --trace 1  # one traced run of each

Each run is a separate ``perfbench/run.py`` process, one after another.
For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
quartile distance as a share of the median.  For an end-to-end metric the
spread is set against the bound in BENCHMARK.json; a spread under a third
of the bound reads ``ok``.  It also prints the failed share of every run,
which must be the same in all of them.  Raw results go to
``perfbench/out/steady-trace<T>.json``.  Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int,
             log_dir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    log = log_dir / f"{workload}-seed{seed}-trace{trace}.log"
    with open(log, "w") as err:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=err, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["returncode"] = proc.returncode
    result["seed"] = seed
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="all")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = ([w["name"] for w in spec["workloads"]] if args.workloads == "all"
             else args.workloads.split(","))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log_dir = HERE / "out" / "steady-logs"
    log_dir.mkdir(parents=True, exist_ok=True)
    all_results = {}
    ok = True
    for name in names:
        results = []
        for seed in _seeds(args.seeds):
            res = run_once(name, seed, args.seconds, args.trace, log_dir)
            results.append(res)
            good = res["returncode"] == 0 and res["correct"]
            ok &= good
            print(f"{name} seed {seed}: {'ok' if good else 'FAILED'} "
                  f"rc={res['returncode']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
        all_results[name] = results
        shares = sorted({r["failed"] / r["attempted"] if r["attempted"] else -1.0
                         for r in results})
        print(f"\n{name}: failed share per run {shares} over {len(results)} runs")
        print(f"  {'metric':40s} {'unit':6s} {'median':>13s} {'q1':>13s} "
              f"{'q3':>13s} {'spread':>8s} {'bound':>6s}")
        metric_names = list(results[0]["metrics"]) if results else []
        for metric in metric_names:
            vals = [r["metrics"][metric]["value"] for r in results
                    if metric in r["metrics"]]
            unit = results[0]["metrics"][metric]["unit"]
            med, q1, q3, spread = summarize(vals)
            bound = bounds.get(metric) if args.trace == 0 else None
            verdict = ""
            if bound is not None:
                verdict = f"{bound:6.3f} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {metric:40s} {unit:6s} {med:13.6g} {q1:13.6g} "
                  f"{q3:13.6g} {spread:8.4f} {verdict}")
        print(flush=True)
    out = HERE / "out" / f"steady-trace{args.trace}.json"
    out.write_text(json.dumps(all_results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

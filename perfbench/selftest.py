#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs every workload once at a reduced size and requires its checks to pass
on the program's own outputs.  Then feeds the same checks corrupted copies
of those outputs -- a column scaled by 1.01, a dropped row, a covariance
column perturbed for one seed, an n = 1 curve off by 1e-9 relative, a
swapped stack order, an inflated spread of trajectory means -- and
requires every one of them to fail.  Corrupted CSVs are written next to
the originals with their digest updated, so each reaches the check it
targets rather than the digest check.  Exits 1 if any expectation is not
met.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import program  # noqa: E402

program.pin_threads()


def write_corrupt(out_dir: Path, entry: dict, change) -> dict:
    """Copy an output CSV with ``change(columns)`` applied; its new entry."""
    import numpy as np

    import checks

    src = out_dir / entry["path"]
    cols = checks.read_csv(src)
    cols = change({k: np.array(v) for k, v in cols.items()})
    names = list(cols)
    dst = src.with_name(src.stem + "_corrupt.csv")
    with open(dst, "w") as f:
        f.write(",".join(names) + "\n")
        for i in range(len(cols[names[0]])):
            f.write(",".join(format(float(cols[n][i]), ".17g") for n in names) + "\n")
    return dict(entry, path=dst.name, sha256=checks.sha256_file(dst))


def scale(column: str, factor: float):
    def change(cols):
        cols[column] = cols[column] * factor
        return cols
    return change


def drop_last_row(cols):
    return {k: v[:-1] for k, v in cols.items()}


def main() -> int:
    sq = program.load()
    import numpy as np

    import checks
    import workloads as wl
    from checks import CheckFailed

    base = HERE / "out" / "selftest"
    results = []

    def expect(label: str, fn, *args, fail: bool = True) -> None:
        try:
            fn(*args)
            failed, why = False, ""
        except CheckFailed as exc:
            failed, why = True, str(exc)
        good = failed == fail
        results.append(good)
        word = "rejected" if failed else "accepted"
        print(f"{'PASS' if good else 'FAIL'}  {label}: {word}"
              f"{' (' + why + ')' if why else ''}", flush=True)

    def clean_round(w):
        w.prepare()
        res = w.check_round(0, w.run_round(0))
        if res.failed or not res.attempted:
            raise CheckFailed("; ".join(res.notes) or "no operations")

    # figure 1: two homogeneous curves
    fig1 = wl.Fig1Homogeneous(sq, 1, base / "fig1", t_end=2e-5)
    expect("fig1 clean outputs", clean_round, fig1, fail=False)
    entries, _ = wl._manifest_entries(fig1.out, "fig1_manifest.json")
    c1, c2 = entries["fig1_curve1"], entries["fig1_curve2"]
    expect("fig1 noiseless var_p x 1.01", fig1._check_noiseless,
           write_corrupt(fig1.out, c1, scale("var_p", 1.01)))
    expect("fig1 noisy var_p x 1.01", fig1._check_noisy,
           write_corrupt(fig1.out, c2, scale("var_p", 1.01)))
    expect("fig1 noisy var_p_analytic x 1.01", fig1._check_noisy,
           write_corrupt(fig1.out, c2, scale("var_p_analytic", 1.01)))
    expect("fig1 dropped row", fig1._check_noisy,
           write_corrupt(fig1.out, c2, drop_last_row))
    expect("fig1 digest mismatch", fig1._check_noisy,
           dict(write_corrupt(fig1.out, c2, drop_last_row), sha256=c2["sha256"]))
    expect("fig1 CLI exit code 1", checks.check_exit, 1)

    # figure 3: six stacks; the n = 1 curve and the stack order
    fig3 = wl.Fig3ThickStack(sq, 1, base / "fig3")
    expect("fig3 clean outputs", clean_round, fig3, fail=False)
    entries, doc = wl._manifest_entries(fig3.out, "fig3_manifest.json")
    n1 = entries["fig3_curve1"]
    note = doc["notes"]["fig3_curve1"]
    expect("fig3 n = 1 curve x (1 + 1e-9)", fig3._check_curve, "fig3_curve1", 1,
           write_corrupt(fig3.out, n1, scale("min_eig_var", 1.0 + 1e-9)), note, {})
    expect("fig3 dropped row", fig3._check_curve, "fig3_curve1", 1,
           write_corrupt(fig3.out, n1, drop_last_row), note, {})
    finals = [float(checks.read_csv(fig3.out / entries[c]["path"])["min_eig_var"][-1])
              for c in fig3.curves]
    expect("fig3 final min_eig_var in order", checks.check_strictly_increasing,
           "finals", finals, fail=False)
    expect("fig3 two stacks swapped", checks.check_strictly_increasing, "finals",
           finals[:2] + [finals[3], finals[2]] + finals[4:])

    # thin 50-slice sample
    thin = wl.Thin50DenseSampling(sq, 1, base / "thin50", t_end=2e-6)
    expect("thin50 clean outputs", clean_round, thin, fail=False)
    entries, _ = wl._manifest_entries(thin.out, "manifest.json")
    e = entries["thin_inhomogeneous"]
    for column in ("min_eig_var", "var_P", "var_p_analytic"):
        expect(f"thin50 {column} x 1.01", thin._check,
               write_corrupt(thin.out, e, scale(column, 1.01)))
    expect("thin50 dropped row", thin._check,
           write_corrupt(thin.out, e, drop_last_row))
    cols = checks.read_csv(thin.out / e["path"])
    expect("thin50 min_eig_var x 1.01 over var_P_eff", checks.check_ordering,
           cols["min_eig_var"] * 1.01, cols["var_P_eff"])

    # trajectory ensemble
    ens = wl.TrajectoryEnsemble(sq, 1, base / "ensemble", runs_per_round=400)
    ens.prepare()
    runs = ens.run_round(0)
    res = ens.check_round(0, runs)

    def round_clean():
        if res.failed:
            raise CheckFailed("; ".join(res.notes[:3]))

    expect("ensemble clean round", round_clean, fail=False)
    expect("ensemble law of total variance", ens.finish, fail=False)
    seed, (ts, traj) = runs[7]
    ts.columns["var_p"] = ts.columns["var_p"].copy()
    ts.columns["var_p"][-1] = np.nextafter(ts.columns["var_p"][-1], 1.0)
    expect("ensemble covariance column perturbed for one seed", ens._check_run,
           seed, (ts, traj))
    expect("ensemble means x 1.5", checks.check_total_variance,
           np.array(ens.means) * 1.5, float(ens.ref_var_p[-1]), checks.VAR0)

    bad = results.count(False)
    print(f"{len(results) - bad}/{len(results)} expectations met")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

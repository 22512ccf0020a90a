"""The benchmark's workloads: inputs from the seed, one timed round, checks.

A workload is built from the benchmark seed (``prepare``: input
generation, counted in set-up), runs one round of program calls
(``run_round``: the timed part) and then checks that round's outputs
(``check_round``, untimed).  ``finish`` makes the checks that span rounds.

An operation is one CLI command's curve or one seeded scenario run.  It
fails if the call raises, the CLI exits non-zero, or its check fails.
Each round attempts the same operations, so the failed share of a run
does not depend on how many rounds fit in it.
"""

from __future__ import annotations

import json
import math
import traceback
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed

TAU = 1e-8  # step duration of the figure presets, s
PRESET_RATES = {"kappa_sq": checks.KAPPA_SQ, "eta": checks.ETA,
                "epsilon": checks.EPSILON}


class RoundResult:
    """Operations attempted and failed in one round, with failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, name: str, check, *args) -> None:
        self.attempted += 1
        try:
            check(*args)
        except CheckFailed as exc:
            self.failed += 1
            self.notes.append(f"{name}: {exc}")

    def fail_all(self, names, why: str) -> None:
        for name in names:
            self.attempted += 1
            self.failed += 1
            self.notes.append(f"{name}: {why}")


def _call_cli(sq, argv) -> object:
    """Run one CLI command in-process; the exit code, or the exception."""
    try:
        return sq.cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a bench crash
        return exc


def _manifest_entries(out_dir: Path, manifest: str) -> tuple[dict, dict]:
    """Manifest outputs keyed by file stem, and the whole manifest."""
    doc = checks.read_manifest(out_dir / manifest)
    return {Path(e["path"]).stem: e for e in doc["outputs"]}, doc


class Fig1Homogeneous:
    """``squeezesim figure 1`` at a shortened t_end: two homogeneous curves."""

    name = "fig1_homogeneous"
    curves = ("fig1_curve1", "fig1_curve2")
    sample_every = 1000

    def __init__(self, sq, seed: int, out_dir: Path, t_end: float = 1e-4):
        self.sq = sq
        self.out = Path(out_dir)
        self.n_steps = int(round(t_end / TAU))
        self.n_rows = checks.expected_rows(t_end, TAU, self.sample_every)
        self.argv = ["figure", "1", "--t-end", repr(t_end),
                     "--out", str(self.out), "--seed", str(seed)]
        self.per_round = {"steps": 2 * self.n_steps, "samples": 2 * self.n_rows,
                          "trajectories": 2}

    def prepare(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)

    def run_round(self, r: int):
        return _call_cli(self.sq, self.argv)

    def check_round(self, r: int, rc) -> RoundResult:
        res = RoundResult()
        try:
            checks.check_exit(rc)
            entries, _ = _manifest_entries(self.out, "fig1_manifest.json")
        except CheckFailed as exc:
            res.fail_all(self.curves, str(exc))
            return res
        res.op(self.curves[0], self._check_noiseless, entries.get(self.curves[0]))
        res.op(self.curves[1], self._check_noisy, entries.get(self.curves[1]))
        return res

    def _columns(self, entry) -> dict:
        if entry is None:
            raise CheckFailed("curve missing from manifest")
        cols = checks.check_output_file(self.out, entry, self.n_rows)
        checks.check_times(entry["path"], cols["t_seconds"], TAU, self.sample_every)
        return cols

    def _check_noiseless(self, entry) -> None:
        cols = self._columns(entry)
        checks.check_noiseless_curve("var_p (no decay)", cols["var_p"],
                                     checks.KAPPA_SQ, TAU, self.n_steps,
                                     self.sample_every)
        checks.check_close(
            "var_p_analytic (no decay)", cols["var_p_analytic"],
            checks.conditional_variance(cols["t_seconds"], eta=0.0, epsilon=0.0),
            1e-9)

    def _check_noisy(self, entry) -> None:
        cols = self._columns(entry)
        ref = checks.conditional_variance(cols["t_seconds"])
        checks.check_close("var_p (decay + absorption)", cols["var_p"], ref, 0.01)
        checks.check_close("var_p_analytic (decay + absorption)",
                           cols["var_p_analytic"], ref, 1e-9)

    def finish(self) -> list[str]:
        return []


class Fig3ThickStack:
    """``squeezesim figure 3`` at a shortened t_end: six slice stacks."""

    name = "fig3_thick_stack"
    stacks = (1, 4, 8, 13, 25, 50)
    sample_every = 2000

    def __init__(self, sq, seed: int, out_dir: Path, t_end: float = 2e-5):
        self.sq = sq
        self.out = Path(out_dir)
        self.t_end = t_end
        self.n_steps = int(round(t_end / TAU))
        self.n_rows = checks.expected_rows(t_end, TAU, self.sample_every)
        self.curves = tuple(f"fig3_curve{i + 1}" for i in range(len(self.stacks)))
        self.argv = ["figure", "3", "--t-end", repr(t_end),
                     "--out", str(self.out), "--seed", str(seed)]
        n = len(self.stacks)
        self.per_round = {"steps": n * self.n_steps, "samples": n * self.n_rows,
                          "trajectories": n}
        self._n1_ref = None

    def prepare(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)

    def run_round(self, r: int):
        return _call_cli(self.sq, self.argv)

    def n1_reference(self) -> np.ndarray:
        """Smallest eigenvalue of the 2x2 atomic block of a homogeneous run.

        The one-slice stack and the homogeneous scenario at the same
        settings are the same physics; the eigenvalue is taken in closed
        form from the covariances the homogeneous run records.
        """
        if self._n1_ref is None:
            sq = self.sq
            sc = sq.build_homogeneous(sq.CouplingRates(**PRESET_RATES), tau=TAU,
                                      t_end=self.t_end,
                                      sample_every=self.sample_every)
            _, traj = sq.run(sc, seed=0, record_cov=True)
            self._n1_ref = np.array([checks.min_eig_2x2(c[:2, :2])
                                     for c in traj.cov_samples])
        return self._n1_ref

    def check_round(self, r: int, rc) -> RoundResult:
        res = RoundResult()
        try:
            checks.check_exit(rc)
            entries, doc = _manifest_entries(self.out, "fig3_manifest.json")
        except CheckFailed as exc:
            res.fail_all(self.curves, str(exc))
            return res
        finals = {}
        for name, n in zip(self.curves, self.stacks):
            res.op(name, self._check_curve, name, n, entries.get(name),
                   doc["notes"].get(name, {}), finals)
        if len(finals) == len(self.stacks):
            # a stack-order fault is charged to the curves it concerns
            try:
                checks.check_strictly_increasing(
                    "final min_eig_var over n", [finals[n] for n in self.stacks])
            except CheckFailed as exc:
                res.failed += len(self.stacks)
                res.notes.append(str(exc))
        return res

    def _check_curve(self, name, n, entry, note, finals) -> None:
        if entry is None:
            raise CheckFailed("curve missing from manifest")
        if note.get("n_slices") != n:
            raise CheckFailed(f"manifest n_slices {note.get('n_slices')} != {n}")
        cols = checks.check_output_file(self.out, entry, self.n_rows)
        checks.check_times(name, cols["t_seconds"], TAU, self.sample_every)
        curve = cols["min_eig_var"]
        if n == 1:
            checks.check_close("n = 1 min_eig_var vs homogeneous 2x2 eigenvalue",
                               curve, self.n1_reference(), 1e-12)
        finals[n] = float(curve[-1])

    def finish(self) -> list[str]:
        return []


class Thin50DenseSampling:
    """``squeezesim run`` on a thin 50-slice sample, sampled every 100 steps."""

    name = "thin50_dense_sampling"
    n_slices = 50
    delta = 0.1
    sample_every = 100

    def __init__(self, sq, seed: int, out_dir: Path, t_end: float = 5e-6):
        self.sq = sq
        self.out = Path(out_dir)
        self.n_rows = checks.expected_rows(t_end, TAU, self.sample_every)
        self.config = {
            "scenario": "thin_inhomogeneous",
            "rates": dict(PRESET_RATES),
            "n_slices": self.n_slices,
            "delta": self.delta,
            "spread_mode": "grid",
            "tau": TAU,
            "t_end": t_end,
            "sample_every": self.sample_every,
            "seed": seed,
            "output_dir": str(self.out),
        }
        self.config_path = self.out / "config.json"
        self.argv = ["run", "--config", str(self.config_path)]
        self.per_round = {"steps": int(round(t_end / TAU)),
                          "samples": self.n_rows, "trajectories": 1}
        self.kappas = checks.grid_kappas(checks.KAPPA_SQ, self.delta, self.n_slices)

    def prepare(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")

    def run_round(self, r: int):
        return _call_cli(self.sq, self.argv)

    def check_round(self, r: int, rc) -> RoundResult:
        res = RoundResult()
        try:
            checks.check_exit(rc)
            entries, _ = _manifest_entries(self.out, "manifest.json")
        except CheckFailed as exc:
            res.fail_all(["thin_inhomogeneous"], str(exc))
            return res
        res.op("thin_inhomogeneous", self._check, entries.get("thin_inhomogeneous"))
        return res

    def _check(self, entry) -> None:
        if entry is None:
            raise CheckFailed("curve missing from manifest")
        cols = checks.check_output_file(self.out, entry, self.n_rows)
        t = cols["t_seconds"]
        checks.check_times(entry["path"], t, TAU, self.sample_every)
        ref = checks.conditional_variance(t)
        checks.check_close("min_eig_var vs closed form", cols["min_eig_var"], ref, 0.01)
        checks.check_ordering(cols["min_eig_var"], cols["var_P_eff"])
        a = checks.mixing_factor(self.kappas)
        checks.check_close("var_P vs a^2 V + (1 - a^2)/2", cols["var_P"],
                           a * a * ref + (1.0 - a * a) / 2.0, 0.01)
        checks.check_close("var_p_analytic", cols["var_p_analytic"], ref, 1e-9)

    def finish(self) -> list[str]:
        return []


class TrajectoryEnsemble:
    """Many seeds of a 150-step noiseless homogeneous run via squeezesim.run."""

    name = "trajectory_ensemble"
    n_steps = 150
    runs_per_round = 25

    def __init__(self, sq, seed: int, out_dir: Path,
                 runs_per_round: int = runs_per_round):
        # out_dir is unused: the runs write no files
        self.sq = sq
        self.seed = seed
        self.k = runs_per_round
        self.per_round = {"steps": self.k * self.n_steps, "samples": 2 * self.k,
                          "trajectories": self.k}
        self.means: list[float] = []
        self.ref_var_p = None
        self.scenario = None

    def seeds(self, r: int) -> range:
        base = self.seed * 1_000_000 + r * self.k
        return range(base, base + self.k)

    def prepare(self) -> None:
        sq = self.sq
        rates = sq.CouplingRates(kappa_sq=checks.KAPPA_SQ, eta=0.0, epsilon=0.0)
        self.scenario = sq.build_homogeneous(rates, tau=TAU,
                                             t_end=self.n_steps * TAU,
                                             sample_every=self.n_steps)

    def run_round(self, r: int):
        out = []
        for s in self.seeds(r):
            try:
                out.append((s, self.sq.run(self.scenario, seed=s)))
            except Exception:
                out.append((s, traceback.format_exc(limit=2)))
        return out

    def check_round(self, r: int, runs) -> RoundResult:
        res = RoundResult()
        for s, result in runs:
            res.op(f"seed {s}", self._check_run, s, result)
        return res

    def _check_run(self, s, result) -> None:
        if isinstance(result, str):
            raise CheckFailed(f"run raised: {result.strip().splitlines()[-1]}")
        ts, traj = result
        var_p = np.asarray(ts.columns["var_p"])
        if self.ref_var_p is None:
            checks.check_noiseless_curve("var_p", var_p, checks.KAPPA_SQ, TAU,
                                         self.n_steps, self.n_steps)
            self.ref_var_p = var_p.copy()
        checks.check_bitwise_equal(f"seed {s} var_p", var_p, self.ref_var_p)
        mean_p = float(traj.samples[-1][1][1])
        if not math.isfinite(mean_p):
            raise CheckFailed(f"seed {s}: non-finite conditional mean")
        self.means.append(mean_p)

    def finish(self) -> list[str]:
        if self.ref_var_p is None:
            raise CheckFailed("no trajectory passed its checks")
        # noiseless probing leaves the probed momentum's prior at var0
        summary = checks.check_total_variance(
            np.array(self.means), float(self.ref_var_p[-1]), checks.VAR0)
        return [summary]


WORKLOADS = {w.name: w for w in (Fig1Homogeneous, Fig3ThickStack,
                                 Thin50DenseSampling, TrajectoryEnsemble)}

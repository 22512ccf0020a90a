"""Command-line interface: config parsing, runs, figure data, manifests.

Config files are JSON (UTF-8).  Unknown keys are rejected with their path;
exactly one of "rates" (direct engine rates) or "physical" (laboratory
parameters fed through physics.derive_rates) must be present.  Every run
writes full-precision CSV plus a manifest echoing the configuration, the
library version, and sha256 digests of the outputs, so identical
config+seed reproduce byte-identical data files.

Subcommands:

* run --config cfg.json          one scenario -> CSV + manifest
* figure N --out dir             bundled data sets, one CSV per curve
* rates --config cfg.json        print derived coupling/noise rates
* sweep --config cfg.json        grid over delta / n_slices / seeds
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, analytic, physics, scenarios
from .analytic import EstimationParams, SqueezeCurveParams, collective_decomposition
from .errors import SqueezesimError

ENV_OUTPUT_DIR = "SQUEEZESIM_OUTPUT_DIR"

SCENARIOS = ("homogeneous", "thin_inhomogeneous", "thick", "estimation")

#: Operating point used by the bundled figure presets: cesium D1 probing at
#: 2 mm^2, 2e12 atoms, 5e14 photons/s, angular detuning 2*pi*10 GHz.
PRESET_RATES = {"kappa_sq": 1.83e6, "eta": 1.7577, "epsilon": 0.028}

PRESETS = {
    "fig1_noiseless": {
        "scenario": "homogeneous",
        "rates": {"kappa_sq": PRESET_RATES["kappa_sq"], "eta": 0.0, "epsilon": 0.0},
        "t_end": 3e-3,
    },
    "fig1": {
        "scenario": "homogeneous",
        "rates": dict(PRESET_RATES),
        "t_end": 3e-3,
    },
    "fig2": {
        "scenario": "thin_inhomogeneous",
        "rates": dict(PRESET_RATES),
        "n_slices": 10,
        "delta": 0.1,
        "t_end": 3e-3,
    },
    "fig3": {
        "scenario": "thick",
        "rates": dict(PRESET_RATES),
        "n_slices": 8,
        "per_slice_epsilon": 0.028,
        "t_end": 3e-3,
    },
    "fig5": {
        "scenario": "estimation",
        "rates": dict(PRESET_RATES),
        "n_slices": 10,
        "delta": 0.1,
        "t_end": 2e-3,
        "estimation": {
            "t1": 3e-5,
            "t2": 4e-5,
            "alpha": 0.2236,
            "alphas_track_coupling": True,
            "var_theta0": 0.5,
            "theta_true": 0.0,
        },
    },
}


class _Seed:
    """Schema type of a seed: a non-negative integer."""


#: Value types by key; a one-element list types every entry of a list.
_SCHEMA = {
    "preset": str,
    "scenario": str,
    "rates": {"kappa_sq": float, "eta": float, "epsilon": float},
    "physical": {
        "n_atoms": float,
        "photon_flux": float,
        "area": float,
        "detuning": float,
        "linewidth": float,
        "wavelength": float,
        "dipole": float,
        "tau": float,
        "omega": float,
        "form": str,
    },
    "tau": float,
    "t_end": float,
    "seed": _Seed,
    "sample_every": int,
    "n_slices": int,
    "delta": float,
    "spread_mode": str,
    "eta_mode": str,
    "per_slice_epsilon": float,
    "estimation": {
        "t1": float,
        "t2": float,
        "alpha": float,
        "alphas": [float],
        "alphas_track_coupling": bool,
        "var_theta0": float,
        "theta_true": float,
    },
    "output_dir": str,
    "sweep": {"deltas": [float], "n_slices": [int], "seeds": [_Seed]},
}


class ParseError(SqueezesimError):
    """Config text is malformed or violates the schema."""


@dataclass
class RunConfig:
    """Validated run configuration with defaults resolved."""

    scenario: str
    rates: physics.CouplingRates
    tau: float = 1e-8
    t_end: float = 3e-3
    seed: int = 0
    sample_every: int = 1000
    n_slices: int = 10
    delta: float = 0.0
    spread_mode: str = "grid"
    eta_mode: str = "uniform"
    per_slice_epsilon: float | None = None
    estimation: dict = field(default_factory=dict)
    output_dir: Path = Path(".")
    sweep: dict = field(default_factory=dict)
    physical: physics.PhysicalParams | None = None
    raw: dict = field(default_factory=dict)


#: RunConfig fields a config sets by the key of the same name, with the
#: conversion each takes (None: as given); a key the config leaves out keeps
#: the field's default.
_RUN_FIELDS = {"tau": float, "t_end": float, "seed": int, "sample_every": int,
               "n_slices": int, "delta": float, "spread_mode": None,
               "eta_mode": None, "per_slice_epsilon": None, "estimation": dict,
               "sweep": dict}


def _check_keys(tree: dict, schema: dict, path: str = ""):
    for key, val in tree.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ParseError(f"unknown key {here!r}")
        _check_value(val, schema[key], here)


def _check_value(val, want, here: str):
    if isinstance(want, dict):
        if not isinstance(val, dict):
            raise ParseError(f"{here!r} must be an object")
        _check_keys(val, want, here)
    elif isinstance(want, list):
        if not isinstance(val, list):
            raise ParseError(f"{here!r} must be a list")
        for i, item in enumerate(val):
            _check_value(item, want[0], f"{here}[{i}]")
    elif want is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ParseError(f"{here!r} must be a number")
        try:
            finite = math.isfinite(val)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ParseError(f"{here!r} must be finite, got {val!r}")
    elif want in (int, _Seed):
        if not isinstance(val, int) or isinstance(val, bool):
            raise ParseError(f"{here!r} must be an integer")
        if want is _Seed and val < 0:
            raise ParseError(f"{here!r} must be a non-negative integer, got {val}")
    elif want is bool:
        if not isinstance(val, bool):
            raise ParseError(f"{here!r} must be a boolean")
    elif want is str:
        if not isinstance(val, str):
            raise ParseError(f"{here!r} must be a string")


def default_output_dir() -> Path:
    return Path(os.environ.get(ENV_OUTPUT_DIR, "squeezesim_out"))


def _reject_constant(name: str):
    raise ParseError(f"config contains the non-finite constant {name}")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config, resolving presets and defaults.

    NaN and Infinity, which Python's json module accepts by default, are
    refused, as is a number too large to be finite.
    """
    try:
        tree = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from None
    if not isinstance(tree, dict):
        raise ParseError("config root must be an object")
    _check_keys(tree, _SCHEMA)
    if "preset" in tree:
        name = tree["preset"]
        if name not in PRESETS:
            raise ParseError(
                f"unknown preset {name!r}; available: {sorted(PRESETS)}"
            )
        merged = json.loads(json.dumps(PRESETS[name]))  # deep copy
        for key, val in tree.items():
            if key == "preset":
                continue
            if key in merged and isinstance(merged[key], dict) and isinstance(val, dict):
                merged[key].update(val)
            else:
                merged[key] = val
        tree = merged
    for key, conv in (("deltas", float), ("n_slices", int), ("seeds", int)):
        first: dict = {}
        for i, val in enumerate(tree.get("sweep", {}).get(key, [])):
            j = first.setdefault(conv(val), i)
            if j != i:  # one grid point, run twice under one or two names
                raise ParseError(f"'sweep.{key}[{i}]' repeats 'sweep.{key}[{j}]' "
                                 f"({val!r})")
    if "scenario" not in tree:
        raise ParseError("missing required key 'scenario'")
    if tree["scenario"] not in SCENARIOS:
        raise ParseError(
            f"'scenario' must be one of {SCENARIOS}, got {tree['scenario']!r}"
        )
    has_rates = "rates" in tree
    has_physical = "physical" in tree
    if has_rates == has_physical:
        raise ParseError("exactly one of 'rates' or 'physical' must be given")
    physical = None
    if has_physical:
        p = dict(tree["physical"])
        form = p.pop("form", "lorentzian")
        for req in ("n_atoms", "photon_flux", "area", "detuning",
                    "linewidth", "wavelength", "dipole"):
            if req not in p:
                raise ParseError(f"missing key physical.{req}")
        physical = physics.PhysicalParams(**p)
        rates = physics.derive_rates(physical, form=form)
    else:
        r = tree["rates"]
        for req in ("kappa_sq", "eta", "epsilon"):
            if req not in r:
                raise ParseError(f"missing key rates.{req}")
        rates = physics.CouplingRates(**r)
    if tree["scenario"] == "estimation":
        est = tree.get("estimation", {})
        for req in ("t1", "t2"):
            if req not in est:
                raise ParseError(f"missing key estimation.{req}")
    out_dir = Path(tree["output_dir"]) if "output_dir" in tree else default_output_dir()
    given = {key: tree[key] if conv is None else conv(tree[key])
             for key, conv in _RUN_FIELDS.items() if key in tree}
    return RunConfig(scenario=tree["scenario"], rates=rates, physical=physical,
                     output_dir=out_dir, raw=tree, **given)


def _estimation_alphas(est_block: dict, kappas_sq: np.ndarray):
    """Resolve rotation lever arms from the estimation config block.

    With "alphas_track_coupling" the per-slice lever arm scales with the
    slice coupling (an atom-number-driven spread), normalized so the
    root-mean-square equals the configured alpha; this keeps the collective
    lever arm independent of the spread.
    """
    if est_block.get("alphas") is not None:
        return tuple(float(a) for a in est_block["alphas"])
    alpha = est_block.get("alpha")
    if alpha is None:
        return None
    if est_block.get("alphas_track_coupling"):
        kap = np.sqrt(kappas_sq)
        return tuple(float(alpha) * kap / math.sqrt(float(np.mean(kappas_sq))))
    return tuple(np.full(len(kappas_sq), float(alpha)))


def build_scenario(cfg: RunConfig) -> scenarios.Scenario:
    """Construct the scenario described by a RunConfig.

    An estimation run wraps the thin inhomogeneous scenario of the same
    config, whose drawn slice couplings also set the lever arms.
    """
    if cfg.scenario == "homogeneous":
        return scenarios.build_homogeneous(
            cfg.rates, cfg.tau, cfg.t_end, sample_every=cfg.sample_every
        )
    if cfg.scenario == "thin_inhomogeneous":
        spread = scenarios.SpreadSpec(
            kappa0_sq=cfg.rates.kappa_sq, delta=cfg.delta, mode=cfg.spread_mode
        )
        return scenarios.build_thin_inhomogeneous(
            spread, cfg.n_slices, cfg.rates, cfg.tau, cfg.t_end,
            sample_every=cfg.sample_every, eta_mode=cfg.eta_mode,
            rng=np.random.default_rng(cfg.seed),
        )
    if cfg.scenario == "thick":
        slices = scenarios.SliceConfig.split(
            cfg.n_slices, cfg.rates, per_slice_epsilon=cfg.per_slice_epsilon
        )
        return scenarios.build_thick(
            slices, cfg.tau, cfg.t_end, sample_every=cfg.sample_every
        )
    base = build_scenario(replace(cfg, scenario="thin_inhomogeneous"))
    est_block = cfg.estimation
    kappas_sq = np.asarray(base.meta["slice_kappas_sq"])
    est = EstimationParams(
        t1=float(est_block["t1"]),
        t2=float(est_block["t2"]),
        alphas=_estimation_alphas(est_block, kappas_sq),
        var_theta0=float(est_block.get("var_theta0", 0.5)),
        theta_true=float(est_block.get("theta_true", 0.0)),
    )
    return scenarios.build_estimation(base, est)


def _analytic_var_p(cfg: RunConfig, times: np.ndarray) -> np.ndarray:
    """Closed-form squeezing curve matching the configured rates."""
    r = cfg.rates
    if r.eta == 0.0 and r.epsilon == 0.0:
        return analytic.var_p_noiseless(times, r.kappa_sq)
    params = SqueezeCurveParams(kappa_sq=r.kappa_sq, eta=r.eta, epsilon=r.epsilon)
    return analytic.var_p_noisy(times, params)


def _format(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path: Path, times: np.ndarray, columns: dict) -> int:
    """Write t_seconds plus named columns at full precision; returns rows."""
    names = list(columns)
    with open(path, "w", newline="") as f:
        f.write(",".join(["t_seconds"] + names) + "\n")
        for i, t in enumerate(times):
            row = [_format(t)] + [_format(columns[name][i]) for name in names]
            f.write(",".join(row) + "\n")
    return len(times)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(path: Path, config_echo: dict, outputs: list[dict],
                   notes: dict, wall_clock: float, derived: dict | None = None):
    doc = {
        "library_version": __version__,
        "config": config_echo,
        "derived_rates": derived,
        "wall_clock_seconds": wall_clock,
        "outputs": outputs,
        "notes": notes,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_outputs(out_dir: Path, manifest: str, curves, notes: dict,
                   config_echo: dict, t0: float, derived: dict | None = None) -> int:
    """Write one CSV per (file name, times, columns) of ``curves``, then a
    manifest listing them; 0 on success.

    ``curves`` is consumed lazily and may run the scenarios behind it;
    ``notes`` is read only once it is exhausted, so it may fill them in.
    ``out_dir`` is made just before the first file is written, so a run
    refused before its first output leaves no directory.  On a
    SqueezesimError or OSError every file this call started, a half-written
    one included, is removed, the error printed and 1 returned.
    """
    out_dir = Path(out_dir)
    started: list[Path] = []
    outputs = []
    try:
        for name, times, columns in curves:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / name
            started.append(path)
            rows = write_csv(path, times, columns)
            outputs.append({"path": name, "sha256": _sha256(path), "rows": rows})
        out_dir.mkdir(parents=True, exist_ok=True)
        started.append(out_dir / manifest)
        write_manifest(out_dir / manifest, config_echo, outputs, notes,
                       wall_clock=time.perf_counter() - t0, derived=derived)
        return 0
    except (OSError, SqueezesimError) as exc:
        for path in started:
            if path.is_file():
                path.unlink()
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_to_columns(cfg: RunConfig, sc: scenarios.Scenario):
    """Run a scenario; its sampled columns, then the closed-form curve of a
    homogeneous or thin sample."""
    ts, _ = scenarios.run(sc, seed=cfg.seed)
    cols = dict(ts.columns)
    if cfg.scenario in ("homogeneous", "thin_inhomogeneous"):
        cols["var_p_analytic"] = _analytic_var_p(cfg, ts.times)
    return ts, cols


def run_command(cfg: RunConfig) -> int:
    """Execute one configured scenario; write CSV + manifest; 0 on success."""
    t0 = time.perf_counter()
    notes: dict = {}

    def curves():
        sc = build_scenario(cfg)
        ts, cols = _run_to_columns(cfg, sc)
        notes.update(sc.meta)
        yield f"{cfg.scenario}.csv", ts.times, cols

    derived = {"kappa_sq": cfg.rates.kappa_sq, "eta": cfg.rates.eta,
               "epsilon": cfg.rates.epsilon}
    return _write_outputs(cfg.output_dir, "manifest.json", curves(), notes,
                          cfg.raw, t0, derived)


def rates_command(cfg: RunConfig) -> int:
    """Print the coupling and noise rates in effect for a config."""
    print(f"kappa_sq = {cfg.rates.kappa_sq:.6g} 1/s")
    print(f"eta      = {cfg.rates.eta:.6g} 1/s")
    print(f"epsilon  = {cfg.rates.epsilon:.6g}")
    if cfg.physical is not None:
        far = physics.derive_rates(cfg.physical, form="far_detuned")
        print("far-detuned form (factor-4 larger Lorentzian):")
        print(f"  eta     = {far.eta:.6g} 1/s")
        print(f"  epsilon = {far.epsilon:.6g}")
        ft, mf = physics.flux_requirement(cfg.physical)
        print(f"flux * t_min  >~ {ft:.3g}")
        print(f"flux floor    >~ {mf:.3g} 1/s (t_min capped at 1 ms)")
    return 0


# ---------------------------------------------------------------------------
# Figure data sets


@dataclass(frozen=True)
class _ReferenceLine:
    """A constant level of the angle-estimation figure, from t2 to t_end.

    ``kind`` is "sym_line" for the symmetric-variable prediction at spread
    ``delta`` and "eff_line" for the probed-variable limit.
    """

    kind: str
    delta: float
    t_end: float


def _figure_curves(fig_id: int, tau: float | None, t_end: float | None):
    """Yield (name, description, curve, columns) per curve of a bundled figure.

    A curve is a RunConfig to run, whose sampled ``columns`` are written
    (all of the scenario's when None), or a _ReferenceLine.
    """
    rates = physics.CouplingRates(**PRESET_RATES)
    noiseless = physics.CouplingRates(PRESET_RATES["kappa_sq"], 0.0, 0.0)
    tau = 1e-8 if tau is None else tau
    if t_end is None:
        t_end = 2e-3 if fig_id == 5 else 3e-3
    if fig_id == 1:
        for i, (label, r) in enumerate(
            [("no decay", noiseless), ("decay + absorption", rates)]
        ):
            cfg = RunConfig(scenario="homogeneous", rates=r, tau=tau, t_end=t_end)
            yield f"fig1_curve{i + 1}", {"curve": label, "rates": vars(r)}, cfg, None
    elif fig_id == 2:
        i = 0
        for col in ("min_eig_var", "var_P"):
            for delta in (0.1, 0.5):
                i += 1
                cfg = RunConfig(
                    scenario="thin_inhomogeneous", rates=rates, tau=tau,
                    t_end=t_end, n_slices=10, delta=delta,
                )
                desc = {"curve": f"{col} at delta={delta}", "delta": delta,
                        "column": col}
                yield f"fig2_curve{i}", desc, cfg, (col,)
    elif fig_id == 3:
        for i, n in enumerate((1, 4, 8, 13, 25, 50)):
            cfg = RunConfig(
                scenario="thick", rates=rates, tau=tau, t_end=t_end,
                n_slices=n, per_slice_epsilon=0.028, sample_every=2000,
            )
            absorbed = 1.0 - math.exp(-0.028 * n)
            desc = {"curve": f"n={n} slices", "n_slices": n,
                    "total_absorption": absorbed, "column": "min_eig_var"}
            yield f"fig3_curve{i + 1}", desc, cfg, ("min_eig_var",)
    elif fig_id == 4:
        i = 0
        for n in (4, 50):
            for col in ("min_eig_var", "var_P_eff"):
                i += 1
                cfg = RunConfig(
                    scenario="thick", rates=rates, tau=tau, t_end=t_end,
                    n_slices=n, per_slice_epsilon=0.028, sample_every=2000,
                )
                desc = {"curve": f"{col} at n={n}", "n_slices": n, "column": col}
                yield f"fig4_curve{i}", desc, cfg, (col,)
    elif fig_id == 5:
        deltas = (0.0, 0.02, 0.1, 0.2, 0.3, 0.4, 0.5)
        for i, delta in enumerate(deltas):
            cfg = RunConfig(
                scenario="estimation", rates=rates, tau=tau, t_end=t_end,
                n_slices=10, delta=delta, sample_every=500,
                estimation=dict(PRESETS["fig5"]["estimation"]),
            )
            desc = {"curve": f"delta={delta}", "delta": delta,
                    "column": "var_theta"}
            yield f"fig5_curve{i + 1}", desc, cfg, ("var_theta",)
        # constant reference lines: symmetric-variable predictions for the
        # smallest and largest spread, and the probed-variable limit
        for j, delta in enumerate((0.0, 0.5)):
            yield f"fig5_curve{8 + j}", {
                "curve": f"symmetric-variable limit, delta={delta}",
                "delta": delta, "column": "var_theta_limit_sym",
            }, _ReferenceLine("sym_line", delta, t_end), None
        yield "fig5_curve10", {
            "curve": "probed-variable limit (spread independent)",
            "column": "var_theta_limit_eff",
        }, _ReferenceLine("eff_line", 0.0, t_end), None
    else:
        raise SqueezesimError(f"unknown figure id {fig_id}; expected 1..5")


def _fig5_line(line: _ReferenceLine):
    """Times and level of a reference line of the angle-estimation figure."""
    est = PRESETS["fig5"]["estimation"]
    rates = physics.CouplingRates(**PRESET_RATES)
    spread = scenarios.SpreadSpec(kappa0_sq=rates.kappa_sq, delta=line.delta)
    ksq = spread.slice_kappas_sq(10)
    kap = np.sqrt(ksq)
    alphas = np.asarray(_estimation_alphas(est, ksq))
    params = SqueezeCurveParams(
        kappa_sq=rates.kappa_sq, eta=rates.eta, epsilon=rates.epsilon
    )
    var_eff_t1 = analytic.var_p_noisy(est["t1"], params)
    if line.kind == "eff_line":
        level = analytic.var_theta_inhom(var_eff_t1, kap, alphas)
    else:
        a, _, _ = collective_decomposition(kap)
        var_p_sym = analytic.var_symmetric(var_eff_t1, a)
        level = analytic.var_theta_inhom_symmetric(var_p_sym, alphas)
    times = np.linspace(est["t2"], line.t_end, 51)
    return times, {"var_theta": np.full_like(times, level)}


def reproduce_figure(
    fig_id: int, out_dir: Path, tau: float | None = None,
    t_end: float | None = None, seed: int = 0,
) -> int:
    """Write one CSV per curve of a bundled figure, plus a manifest."""
    t0 = time.perf_counter()
    notes: dict = {}

    def curves():
        run_cache: dict[str, tuple] = {}
        for name, desc, cfg, cols in _figure_curves(fig_id, tau, t_end):
            if isinstance(cfg, _ReferenceLine):
                times, data = _fig5_line(cfg)
            else:
                cfg.seed = seed
                key = repr(cfg)  # every field, so none can be left out
                if key not in run_cache:
                    sc = build_scenario(cfg)
                    run_cache[key] = _run_to_columns(cfg, sc)
                ts, data = run_cache[key]
                if cols is not None:
                    data = {c: ts.columns[c] for c in cols}
                times = ts.times
                desc = dict(desc, **{"tau": cfg.tau, "t_end": cfg.t_end,
                                     "seed": seed})
            notes[name] = desc
            yield f"{name}.csv", times, data

    echo = {"figure": fig_id, "tau": tau, "t_end": t_end, "seed": seed}
    return _write_outputs(out_dir, f"fig{fig_id}_manifest.json", curves(),
                          notes, echo, t0, dict(PRESET_RATES))


def sweep_command(cfg: RunConfig) -> int:
    """Grid of runs over delta / n_slices / seeds; one CSV per combination."""
    t0 = time.perf_counter()
    deltas = cfg.sweep.get("deltas", [cfg.delta])
    slice_counts = cfg.sweep.get("n_slices", [cfg.n_slices])
    seeds = cfg.sweep.get("seeds", [cfg.seed])
    notes: dict = {}

    def curves():
        for delta in deltas:
            for n in slice_counts:
                for seed in seeds:
                    sub = RunConfig(**{**vars(cfg), "delta": float(delta),
                                       "n_slices": int(n), "seed": int(seed)})
                    sc = build_scenario(sub)
                    ts, cols = _run_to_columns(sub, sc)
                    name = f"sweep_d{delta}_n{n}_s{seed}.csv"
                    notes[name] = {"delta": delta, "n_slices": n, "seed": seed}
                    yield name, ts.times, cols

    return _write_outputs(cfg.output_dir, "sweep_manifest.json", curves(),
                          notes, cfg.raw, t0)


def _flag(convert, ok, want: str):
    """argparse type: ``convert`` the text and refuse a value failing ``ok``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"{text!r} is not {want}")
        return value
    return parse


def _load_config(path: str) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="squeezesim",
        description="Gaussian-state spin-squeezing and angle-estimation runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured scenario")
    p_run.add_argument("--config", required=True, help="JSON config path")

    p_fig = sub.add_parser("figure", help="write bundled figure data sets")
    p_fig.add_argument("fig_id", type=int, choices=range(1, 6))
    p_fig.add_argument("--out", default=None, help="output directory")
    p_fig.add_argument("--tau", default=None, help="override the step duration (s)",
                       type=_flag(float, lambda v: v > 0, "a positive number"))
    p_fig.add_argument("--t-end", default=None,
                       help="override the probing duration (s)",
                       type=_flag(float, lambda v: v >= 0, "a non-negative number"))
    p_fig.add_argument("--seed", default=0,
                       type=_flag(int, lambda v: v >= 0, "a non-negative integer"))

    p_rates = sub.add_parser("rates", help="print derived rates for a config")
    p_rates.add_argument("--config", required=True)

    p_sweep = sub.add_parser("sweep", help="grid over delta / n_slices / seeds")
    p_sweep.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "figure":
            out = Path(args.out) if args.out else default_output_dir()
            return reproduce_figure(
                args.fig_id, out, tau=args.tau, t_end=args.t_end, seed=args.seed
            )
        cfg = _load_config(args.config)
        if args.command == "run":
            return run_command(cfg)
        if args.command == "rates":
            return rates_command(cfg)
        return sweep_command(cfg)
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, SqueezesimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

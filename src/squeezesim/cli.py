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

A figure is a row of FIGURES: runs of one of the PRESETS over one key, each
keeping one column (figure 1: all).  A sweep refuses an axis its scenario
does not read: delta for homogeneous and thick, n_slices for homogeneous,
and seeds unless the run reads a mean (estimation) or draws its couplings
(a thin sample with spread_mode "random").
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time
from collections.abc import Callable
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


def _write_runs(out_dir: Path, manifest: str, echo: dict, curves,
                derived: dict | None = None) -> int:
    """Write one CSV per curve, then a manifest listing them; 0 on success.

    ``curves`` yields (file name, curve, column, notes).  A curve is a
    RunConfig, run once however many curves share it (runs are cached by
    every field), or a ready (times, columns) pair.  ``column`` names the
    one column written; None writes all, with the closed-form curve of a
    homogeneous or thin run.  ``notes`` update the manifest's notes; None
    puts the scenario's meta there.  ``curves`` is consumed lazily and
    ``out_dir`` made just before the first file, so a run refused before its
    first output leaves no directory.  On a SqueezesimError or OSError every
    file this call started, a half-written one included, is removed, the
    error printed and 1 returned.
    """
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    started: list[Path] = []
    outputs, notes, runs = [], {}, {}
    try:
        for name, curve, column, note in curves:
            meta = {}
            if isinstance(curve, RunConfig):
                key = repr(curve)
                if key not in runs:
                    sc = build_scenario(curve)
                    ts, _ = scenarios.run(sc, seed=curve.seed)
                    cols = dict(ts.columns)
                    if curve.scenario in ("homogeneous", "thin_inhomogeneous"):
                        cols["var_p_analytic"] = _analytic_var_p(curve, ts.times)
                    runs[key] = ts.times, cols, sc.meta
                times, cols, meta = runs[key]
            else:
                times, cols = curve
            if column is not None:
                cols = {column: cols[column]}
            notes.update(meta if note is None else note)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / name
            started.append(path)
            rows = write_csv(path, times, cols)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            outputs.append({"path": name, "sha256": digest, "rows": rows})
        out_dir.mkdir(parents=True, exist_ok=True)
        started.append(out_dir / manifest)
        write_manifest(out_dir / manifest, echo, outputs, notes,
                       wall_clock=time.perf_counter() - t0, derived=derived)
        return 0
    except (OSError, SqueezesimError) as exc:
        for path in started:
            if path.is_file():
                path.unlink()
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_command(cfg: RunConfig) -> int:
    """Execute one configured scenario; write CSV + manifest; 0 on success."""
    return _write_runs(cfg.output_dir, "manifest.json", cfg.raw,
                       [(f"{cfg.scenario}.csv", cfg, None, None)], vars(cfg.rates))


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


def _limit_lines(cfg: RunConfig):
    """The constant levels of the angle-estimation figure, from t2 to t_end.

    Yields (note, (times, columns)) for the symmetric-variable prediction at
    the figure's smallest and largest spread, then for the probed-variable
    limit, from the rates, slice count and estimation block of ``cfg``.
    """
    est, r = cfg.estimation, cfg.rates
    var_eff_t1 = _analytic_var_p(cfg, est["t1"])
    times = np.linspace(est["t2"], cfg.t_end, 51)
    for delta, symmetric in ((0.0, True), (0.5, True), (0.0, False)):
        ksq = scenarios.SpreadSpec(r.kappa_sq, delta).slice_kappas_sq(cfg.n_slices)
        kap = np.sqrt(ksq)
        alphas = np.asarray(_estimation_alphas(est, ksq))
        if symmetric:
            a, _, _ = collective_decomposition(kap)
            var_p_sym = analytic.var_symmetric(var_eff_t1, a)
            level = analytic.var_theta_inhom_symmetric(var_p_sym, alphas)
            note = {"curve": f"symmetric-variable limit, delta={delta}",
                    "delta": delta, "column": "var_theta_limit_sym"}
        else:
            level = analytic.var_theta_inhom(var_eff_t1, kap, alphas)
            note = {"curve": "probed-variable limit (spread independent)",
                    "column": "var_theta_limit_eff"}
        yield note, (times, {"var_theta": np.full_like(times, level)})


@dataclass(frozen=True)
class Figure:
    """A bundled figure: runs of a preset, one per curve.

    ``config`` names the preset (plus any figure-wide override).  ``axes``
    are (key, values) pairs; each point of their product, in order, is one
    curve, with the key "column" naming the column it keeps (None: all).
    ``note(cfg, column)`` describes the curve in the manifest.  ``lines``
    adds closed-form curves after the runs, from the last run's config.
    """

    config: dict
    axes: tuple
    note: Callable
    lines: Callable | None = None


FIGURES = {
    1: Figure({"preset": "fig1"},
              (("preset", ("fig1_noiseless", "fig1")), ("column", (None,))),
              lambda c, col: {"curve": "decay + absorption" if c.rates.eta
                              else "no decay", "rates": vars(c.rates)}),
    2: Figure({"preset": "fig2"},
              (("column", ("min_eig_var", "var_P")), ("delta", (0.1, 0.5))),
              lambda c, col: {"curve": f"{col} at delta={c.delta}",
                              "delta": c.delta, "column": col}),
    3: Figure({"preset": "fig3", "sample_every": 2000},
              (("n_slices", (1, 4, 8, 13, 25, 50)), ("column", ("min_eig_var",))),
              lambda c, col: {"curve": f"n={c.n_slices} slices",
                              "n_slices": c.n_slices, "column": col,
                              "total_absorption":
                                  1.0 - math.exp(-c.per_slice_epsilon * c.n_slices)}),
    4: Figure({"preset": "fig3", "sample_every": 2000},
              (("n_slices", (4, 50)), ("column", ("min_eig_var", "var_P_eff"))),
              lambda c, col: {"curve": f"{col} at n={c.n_slices}",
                              "n_slices": c.n_slices, "column": col}),
    5: Figure({"preset": "fig5", "sample_every": 500},
              (("delta", (0.0, 0.02, 0.1, 0.2, 0.3, 0.4, 0.5)),
               ("column", ("var_theta",))),
              lambda c, col: {"curve": f"delta={c.delta}", "delta": c.delta,
                              "column": col},
              lines=_limit_lines),
}


def _figure_runs(fig_id: int, tau: float | None, t_end: float | None,
                 seed: int = 0):
    """Yield (RunConfig, kept column) for each run curve of a figure."""
    fig = FIGURES[fig_id]
    over = {key: val for key, val in (("tau", tau), ("t_end", t_end))
            if val is not None}
    keys = [key for key, _ in fig.axes]
    for values in itertools.product(*(vals for _, vals in fig.axes)):
        point = dict(zip(keys, values))
        column = point.pop("column")
        tree = {**fig.config, **over, **point, "seed": seed}
        yield parse_config(json.dumps(tree)), column


def reproduce_figure(fig_id: int, out_dir: Path, tau: float | None = None,
                     t_end: float | None = None, seed: int = 0) -> int:
    """Write one CSV per curve of a bundled figure, plus a manifest."""
    if fig_id not in FIGURES:
        raise SqueezesimError(f"unknown figure id {fig_id}; expected 1..5")
    fig = FIGURES[fig_id]

    def curves():
        for cfg, column in _figure_runs(fig_id, tau, t_end, seed):
            note = dict(fig.note(cfg, column), tau=cfg.tau, t_end=cfg.t_end,
                        seed=seed)
            yield note, cfg, column
        for note, line in fig.lines(cfg) if fig.lines else ():
            yield note, line, None

    named = ((f"fig{fig_id}_curve{i}.csv", curve, column,
              {f"fig{fig_id}_curve{i}": note})
             for i, (note, curve, column) in enumerate(curves(), 1))
    echo = {"figure": fig_id, "tau": tau, "t_end": t_end, "seed": seed}
    return _write_runs(out_dir, f"fig{fig_id}_manifest.json", echo, named,
                       dict(PRESET_RATES))


def sweep_command(cfg: RunConfig) -> int:
    """Grid of runs over delta / n_slices / seeds; one CSV per combination."""
    # an axis the scenario does not read would only repeat its runs; a seed
    # is read only through a mean (estimation) or randomly drawn couplings
    unread = {"homogeneous": ("deltas", "n_slices"), "thick": ("deltas",)}
    seeded = cfg.scenario == "estimation" or (
        cfg.scenario == "thin_inhomogeneous" and cfg.spread_mode == "random")
    for key in unread.get(cfg.scenario, ()) + (() if seeded else ("seeds",)):
        if key in cfg.sweep:
            raise ParseError(f"the {cfg.scenario} scenario does not read "
                             f"'sweep.{key}'")

    def curves():
        for delta, n, seed in itertools.product(
                cfg.sweep.get("deltas", [cfg.delta]),
                cfg.sweep.get("n_slices", [cfg.n_slices]),
                cfg.sweep.get("seeds", [cfg.seed])):
            name = f"sweep_d{delta}_n{n}_s{seed}.csv"
            sub = replace(cfg, delta=float(delta), n_slices=int(n), seed=int(seed))
            yield name, sub, None, {name: {"delta": delta, "n_slices": n,
                                           "seed": seed}}

    return _write_runs(cfg.output_dir, "sweep_manifest.json", cfg.raw, curves())


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="squeezesim",
        description="Gaussian-state spin-squeezing and angle-estimation runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured scenario")
    p_run.add_argument("--config", required=True, help="JSON config path")

    p_fig = sub.add_parser("figure", help="write bundled figure data sets")
    p_fig.add_argument("fig_id", type=int, choices=sorted(FIGURES))
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
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
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

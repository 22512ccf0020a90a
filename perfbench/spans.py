"""Spans around the calls into each squeezesim layer, from outside it.

The tracer replaces module attributes with timing wrappers for the length
of one round and puts the originals back afterwards.  A function is
wrapped where its caller looks it up: ``sym_eig_all`` and ``symmetrize``
as ``squeezesim.scenarios`` imported them, ``run`` both in ``scenarios``
(reached from the CLI) and in the package namespace (reached from library
users).  An attribute that a later version no longer has is skipped, so a
call path that vanishes reads as zero calls.

Spans are kept in memory as (name, start, end, parent, round, count) and
written out when the run ends.  A layer's self time is its span duration
minus the part covered by its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path


def _steps(args, kwargs, result):
    scenario = args[0] if args else kwargs["scenario"]
    return int(scenario.total_steps)


def _rows(args, kwargs, result):
    return int(result)


#: (module, attribute, span name, per-call count or None)
TARGETS = (
    ("squeezesim.cli", "main", "cli.main", None),
    ("squeezesim.cli", "write_csv", "cli.write_csv", _rows),
    ("squeezesim.cli", "write_manifest", "cli.write_manifest", None),
    ("squeezesim.analytic", "var_p_noiseless", "analytic.closed_form", None),
    ("squeezesim.analytic", "var_p_noisy", "analytic.closed_form", None),
    ("squeezesim.scenarios", "build_homogeneous", "scenarios.build", None),
    ("squeezesim.scenarios", "build_thin_inhomogeneous", "scenarios.build", None),
    ("squeezesim.scenarios", "build_thick", "scenarios.build", None),
    ("squeezesim.scenarios", "build_estimation", "scenarios.build", None),
    ("squeezesim.scenarios", "run", "scenarios.run", _steps),
    ("squeezesim", "run", "scenarios.run", _steps),
    ("squeezesim.scenarios", "sym_eig_all", "numerics.sym_eig_all", None),
    ("squeezesim.scenarios", "symmetrize", "numerics.symmetrize", None),
)

NAME, START, END, PARENT, ROUND, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._round = -1

    def _wrap(self, orig, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._round, 0]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            return result

        return traced

    def install(self, round_index: int) -> None:
        self._round = round_index
        for mod_name, attr, name, count in TARGETS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, count))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "round", "count"],
             "spans": self.spans}) + "\n")

    def layer_metrics(self, n_rounds: int, scales: dict) -> dict:
        """Per-layer figures over the traced rounds.

        Counts are per round, so they repeat exactly; times are per call,
        per step or per row, each reported next to its count, and scaled
        to the reference host speed by their round's factor in ``scales``.
        """
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        counted: dict[str, int] = {}
        child: dict[str, float] = {}
        for name, start, end, parent, rnd, count in self.spans:
            dur = (end - start) * scales[rnd]
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            counted[name] = counted.get(name, 0) + count
            if parent >= 0:
                pname = self.spans[parent][NAME]
                child[pname] = child.get(pname, 0.0) + dur

        def per_round(value):
            return value / n_rounds

        def per(name, unit_scale, denom):
            return total.get(name, 0.0) * unit_scale / denom if denom else 0.0

        run_s = total.get("scenarios.run", 0.0)
        steps = counted.get("scenarios.run", 0)
        rows = counted.get("cli.write_csv", 0)
        cli_calls = calls.get("cli.main", 0)
        eig = "numerics.sym_eig_all"
        sym = "numerics.symmetrize"
        return {
            "cli.main.calls": (per_round(cli_calls), "count"),
            "cli.main.self_ms": (
                (total.get("cli.main", 0.0) - child.get("cli.main", 0.0))
                * 1e3 / cli_calls if cli_calls else 0.0, "ms"),
            "scenarios.build.calls": (per_round(calls.get("scenarios.build", 0)), "count"),
            "scenarios.build.ms": (per("scenarios.build", 1e3, calls.get("scenarios.build", 0)), "ms"),
            "scenarios.run.calls": (per_round(calls.get("scenarios.run", 0)), "count"),
            "scenarios.run.steps": (per_round(steps), "count"),
            "scenarios.run.s": (per_round(run_s), "s"),
            "scenarios.run.self_us_per_step": (
                (run_s - child.get("scenarios.run", 0.0)) * 1e6 / steps
                if steps else 0.0, "us"),
            f"{eig}.calls": (per_round(calls.get(eig, 0)), "count"),
            f"{eig}.ms_per_call": (per(eig, 1e3, calls.get(eig, 0)), "ms"),
            f"{eig}.share_of_run": (
                total.get(eig, 0.0) / run_s if run_s else 0.0, "ratio"),
            f"{sym}.calls": (per_round(calls.get(sym, 0)), "count"),
            f"{sym}.us_per_call": (per(sym, 1e6, calls.get(sym, 0)), "us"),
            "cli.write_csv.calls": (per_round(calls.get("cli.write_csv", 0)), "count"),
            "cli.write_csv.rows": (per_round(rows), "count"),
            "cli.write_csv.us_per_row": (per("cli.write_csv", 1e6, rows), "us"),
            "cli.write_manifest.calls": (per_round(calls.get("cli.write_manifest", 0)), "count"),
            "cli.write_manifest.ms": (per("cli.write_manifest", 1e3, calls.get("cli.write_manifest", 0)), "ms"),
            "analytic.closed_form.calls": (per_round(calls.get("analytic.closed_form", 0)), "count"),
            "analytic.closed_form.ms": (per("analytic.closed_form", 1e3, calls.get("analytic.closed_form", 0)), "ms"),
        }

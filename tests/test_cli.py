import hashlib
import json
import re

import numpy as np
import pytest

from squeezesim import cli
from squeezesim.cli import (
    ParseError,
    main,
    parse_config,
    reproduce_figure,
    run_command,
)


def cfg_text(**over):
    base = {
        "scenario": "homogeneous",
        "rates": {"kappa_sq": 1.83e6, "eta": 1.7577, "epsilon": 0.028},
        "t_end": 2e-5,
        "sample_every": 200,
    }
    base.update(over)
    return json.dumps(base)


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(cfg_text())
        assert cfg.tau == 1e-8
        assert cfg.seed == 0
        assert cfg.rates.kappa_sq == 1.83e6

    def test_rates_physical_exclusive(self):
        with pytest.raises(ParseError, match="exactly one"):
            parse_config(cfg_text(physical={
                "n_atoms": 2e12, "photon_flux": 5e14, "area": 2e-6,
                "detuning": 6.28e10, "linewidth": 3.1e7,
                "wavelength": 852e-9, "dipole": 2.61e-29,
            }))

    def test_unknown_key_path_reported(self):
        with pytest.raises(ParseError, match="estimation.t3"):
            parse_config(cfg_text(estimation={"t1": 0.0, "t2": 1.0, "t3": 2.0}))
        with pytest.raises(ParseError, match="'frobnicate'"):
            parse_config(cfg_text(frobnicate=1))

    def test_type_mismatch(self):
        with pytest.raises(ParseError, match="'tau' must be a number"):
            parse_config(cfg_text(tau="fast"))

    def test_missing_scenario(self):
        with pytest.raises(ParseError, match="scenario"):
            parse_config(json.dumps({"rates": {"kappa_sq": 1, "eta": 0, "epsilon": 0}}))

    def test_preset_carries_operating_point(self):
        cfg = parse_config(json.dumps({"preset": "fig1"}))
        assert cfg.rates.kappa_sq == 1.83e6
        assert cfg.rates.eta == 1.7577
        assert cfg.rates.epsilon == 0.028
        assert cfg.scenario == "homogeneous"

    def test_preset_overrides(self):
        cfg = parse_config(json.dumps({"preset": "fig1", "t_end": 1e-4, "seed": 3}))
        assert cfg.t_end == 1e-4
        assert cfg.seed == 3

    def test_physical_route(self):
        cfg = parse_config(json.dumps({
            "scenario": "homogeneous",
            "physical": {
                "n_atoms": 2e12, "photon_flux": 5e14, "area": 2e-6,
                "detuning": 2 * np.pi * 1e10, "linewidth": 3.1e7,
                "wavelength": 852e-9, "dipole": 2.61e-29,
            },
            "t_end": 1e-5,
        }))
        assert cfg.rates.kappa_sq == pytest.approx(1.83e6, rel=0.01)

    def test_physical_tau_refused(self):
        """The step is the top-level tau; a physical one would go unread."""
        with pytest.raises(ParseError, match=r"unknown key 'physical\.tau'"):
            parse_config(json.dumps({"scenario": "homogeneous", "physical": {
                "n_atoms": 2e12, "photon_flux": 5e14, "area": 2e-6,
                "detuning": 6.28e10, "linewidth": 3.1e7,
                "wavelength": 852e-9, "dipole": 2.61e-29, "tau": 5e-8,
            }}))

    def test_estimation_requires_times(self):
        with pytest.raises(ParseError, match="estimation.t1"):
            parse_config(cfg_text(scenario="estimation"))

    @pytest.mark.parametrize("over, match", [
        ({"sweep": {"deltas": ["x"]}}, r"'sweep.deltas\[0\]' must be a number"),
        ({"sweep": {"n_slices": [2.5]}}, r"'sweep.n_slices\[0\]' must be an integer"),
        ({"sweep": {"n_slices": [True]}}, r"'sweep.n_slices\[0\]' must be an integer"),
        ({"sweep": {"seeds": [0, -1]}}, r"'sweep.seeds\[1\]' must be a non-negative"),
        ({"estimation": {"t1": 0.0, "t2": 1e-6, "alphas": [True, 1.0]}},
         r"'estimation.alphas\[0\]' must be a number"),
        ({"seed": -1}, r"'seed' must be a non-negative integer"),
    ])
    def test_malformed_list_entries_and_seeds_rejected(self, over, match):
        with pytest.raises(ParseError, match=match):
            parse_config(cfg_text(**over))

    def test_not_json(self):
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_config("t_end: y")

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400",
                                        "1" + "0" * 400])
    def test_non_finite_numbers_rejected(self, number):
        text = cfg_text().replace("1.83e6", number).replace("1830000.0", number)
        assert number in text
        with pytest.raises(ParseError, match="finite"):
            parse_config(text)

    def test_every_figure_and_preset_duration_is_whole_steps(self):
        """Default and shortened figure runs and every preset still build."""
        from squeezesim.cli import FIGURES, PRESETS, _figure_runs, build_scenario

        assert sorted(FIGURES) == [1, 2, 3, 4, 5]
        for fig_id in FIGURES:
            for t_end in (None, 1e-4, 2e-5, 5e-6):
                if fig_id == 5 and t_end is not None and t_end <= 4e-5:
                    continue  # the angle is probed only after t2 = 4e-5 s
                for cfg, _column in _figure_runs(fig_id, None, t_end):
                    build_scenario(cfg)
        for name in PRESETS:
            build_scenario(parse_config(json.dumps({"preset": name})))


class TestRunCommand:
    def test_homogeneous_run_agrees_with_analytic_column(self, tmp_path):
        cfg = parse_config(cfg_text(output_dir=str(tmp_path)))
        assert run_command(cfg) == 0
        data = np.genfromtxt(tmp_path / "homogeneous.csv", delimiter=",", names=True)
        assert data["t_seconds"][-1] == pytest.approx(2e-5)
        mask = data["t_seconds"] > 0
        rel = np.abs(data["var_p"][mask] - data["var_p_analytic"][mask])
        rel /= data["var_p_analytic"][mask]
        assert rel.max() < 1e-3

    def test_row_count_contract(self, tmp_path):
        cfg = parse_config(cfg_text(output_dir=str(tmp_path)))
        run_command(cfg)
        rows = (tmp_path / "homogeneous.csv").read_text().strip().split("\n")
        assert len(rows) - 1 == 2000 // 200 + 1

    #: The CSV header of each scenario, as the README states it.
    HEADERS = {
        "homogeneous": "t_seconds,var_p,var_p_analytic",
        "thin_inhomogeneous": "t_seconds,min_eig_var,var_P_eff,var_P,var_p_analytic",
        "thick": "t_seconds,min_eig_var,var_P_eff",
        "estimation": "t_seconds,var_theta,mean_theta",
    }

    @pytest.mark.parametrize("scenario", HEADERS)
    def test_zero_duration_header_only(self, tmp_path, scenario):
        """Each scenario writes the README's header.  An estimation run must
        probe past t2, so it is the one that cannot be header-only."""
        header = self.HEADERS[scenario]
        est = {"t1": 0.0, "t2": 0.0, "alpha": 1.0}
        t_end = 1e-6 if scenario == "estimation" else 0.0
        cfg = parse_config(cfg_text(scenario=scenario, t_end=t_end, n_slices=3,
                                    estimation=est, output_dir=str(tmp_path)))
        assert run_command(cfg) == 0
        content = (tmp_path / f"{scenario}.csv").read_text()
        if t_end == 0.0:
            assert content == header + "\n"
        else:
            assert content.split("\n")[0] == header

    def test_invalid_tau_nonzero_exit(self, tmp_path, capsys):
        cfg = parse_config(cfg_text(tau=1e-6, output_dir=str(tmp_path)))
        assert run_command(cfg) == 1
        assert "validity bound" in capsys.readouterr().err
        assert not (tmp_path / "homogeneous.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = parse_config(cfg_text(output_dir=str(tmp_path / "a"), seed=4))
        cfg2 = parse_config(cfg_text(output_dir=str(tmp_path / "b"), seed=4))
        run_command(cfg1)
        run_command(cfg2)
        a = (tmp_path / "a" / "homogeneous.csv").read_bytes()
        b = (tmp_path / "b" / "homogeneous.csv").read_bytes()
        assert a == b

    def test_manifest_digests_validate(self, tmp_path):
        cfg = parse_config(cfg_text(output_dir=str(tmp_path)))
        run_command(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for out in manifest["outputs"]:
            digest = hashlib.sha256((tmp_path / out["path"]).read_bytes()).hexdigest()
            assert digest == out["sha256"]
        assert manifest["library_version"]
        assert manifest["config"]["scenario"] == "homogeneous"

    def test_unknown_eta_mode_exits_nonzero_without_output(self, tmp_path, capsys):
        cfg = parse_config(json.dumps({"preset": "fig5", "eta_mode": "bogus",
                                       "t_end": 1e-4, "output_dir": str(tmp_path)}))
        assert run_command(cfg) == 1
        assert "eta_mode" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_random_spread_lever_arms_follow_the_drawn_couplings(self):
        cfg = parse_config(json.dumps({"preset": "fig5", "spread_mode": "random",
                                       "delta": 0.3, "seed": 7, "t_end": 1e-4}))
        meta = cli.build_scenario(cfg).meta
        assert meta["spread_mode"] == "random"
        ratios = np.array(meta["alphas"]) / np.sqrt(meta["slice_kappas_sq"])
        assert np.allclose(ratios, ratios[0], rtol=1e-12, atol=0.0)

    def test_estimation_run(self, tmp_path):
        cfg = parse_config(cfg_text(
            scenario="estimation",
            t_end=6e-5,
            estimation={"t1": 2e-5, "t2": 3e-5, "alpha": 5.0},
            n_slices=2,
            delta=0.1,
            output_dir=str(tmp_path),
        ))
        assert run_command(cfg) == 0
        data = np.genfromtxt(tmp_path / "estimation.csv", delimiter=",", names=True)
        assert data["var_theta"][-1] < 0.5


class TestFigures:
    def test_figure_2_curve_files(self, tmp_path):
        assert reproduce_figure(2, tmp_path, tau=2e-8, t_end=4e-5) == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == [f"fig2_curve{i}.csv" for i in range(1, 5)]
        manifest = json.loads((tmp_path / "fig2_manifest.json").read_text())
        assert len(manifest["outputs"]) == 4
        for out in manifest["outputs"]:
            digest = hashlib.sha256((tmp_path / out["path"]).read_bytes()).hexdigest()
            assert digest == out["sha256"]

    def test_figure_3_six_stack_depths(self, tmp_path):
        assert reproduce_figure(3, tmp_path, tau=5e-8, t_end=2e-5) == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert len(names) == 6
        manifest = json.loads((tmp_path / "fig3_manifest.json").read_text())
        depths = [v["n_slices"] for k, v in sorted(manifest["notes"].items())]
        assert depths == [1, 4, 8, 13, 25, 50]

    def test_figure_5_numeric_plus_reference_curves(self, tmp_path):
        assert reproduce_figure(5, tmp_path, tau=2e-8, t_end=1e-4) == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert len(names) == 10
        levels = {}
        for i in (8, 9, 10):
            const = np.genfromtxt(tmp_path / f"fig5_curve{i}.csv",
                                  delimiter=",", names=True)
            assert np.all(const["var_theta"] == const["var_theta"][0])
            levels[i] = const["var_theta"][0]
        # symmetric-variable prediction grows with the spread and touches
        # the probed-variable limit at zero spread
        assert levels[8] < levels[9]
        assert levels[8] == pytest.approx(levels[10], rel=1e-12)

    def test_figure_1_two_curves(self, tmp_path):
        assert reproduce_figure(1, tmp_path, t_end=1e-5) == 0
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            "fig1_curve1.csv", "fig1_curve2.csv",
        ]
        a = np.genfromtxt(tmp_path / "fig1_curve1.csv", delimiter=",", names=True)
        b = np.genfromtxt(tmp_path / "fig1_curve2.csv", delimiter=",", names=True)
        assert not np.array_equal(a["var_p"], b["var_p"])  # decay included
        assert np.all(b["var_p"][1:] >= a["var_p"][1:])

    def test_figure_4_two_depths_two_columns(self, tmp_path):
        assert reproduce_figure(4, tmp_path, tau=5e-8, t_end=2e-5) == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == [f"fig4_curve{i}.csv" for i in range(1, 5)]
        manifest = json.loads((tmp_path / "fig4_manifest.json").read_text())
        cols = {v["column"] for v in manifest["notes"].values()}
        assert cols == {"min_eig_var", "var_P_eff"}

    def test_curves_differing_only_in_sampling_run_separately(
            self, tmp_path, monkeypatch):
        figure = cli.Figure({"preset": "fig1", "tau": 1e-8, "t_end": 1e-5},
                            (("sample_every", (100, 250)), ("column", (None,))),
                            lambda cfg, col: {"sample_every": cfg.sample_every})
        monkeypatch.setitem(cli.FIGURES, 1, figure)
        assert reproduce_figure(1, tmp_path) == 0
        for i, rows in ((1, 11), (2, 5)):
            t = np.genfromtxt(tmp_path / f"fig1_curve{i}.csv", delimiter=",",
                              names=True)["t_seconds"]
            assert len(t) == rows

    @pytest.mark.parametrize("fig_id, tau, t_end", [(2, 2e-8, 4e-5),
                                                    (4, 5e-8, 2e-5)])
    def test_curves_sharing_a_run_run_once(self, tmp_path, monkeypatch,
                                           fig_id, tau, t_end):
        calls = []
        run = cli.scenarios.run

        def spy(sc, **kw):
            calls.append(sc)
            return run(sc, **kw)

        monkeypatch.setattr(cli.scenarios, "run", spy)
        assert reproduce_figure(fig_id, tmp_path, tau=tau, t_end=t_end) == 0
        assert len(list(tmp_path.glob("*.csv"))) == 4
        assert len(calls) == 2


    #: Each figure's run curves in order, as (config over a preset, kept
    #: column; None keeps all), restated here apart from cli.FIGURES.
    RUN_CURVES = {
        1: [({"preset": "fig1_noiseless"}, None), ({"preset": "fig1"}, None)],
        2: [({"preset": "fig2", "delta": d}, col)
            for col in ("min_eig_var", "var_P") for d in (0.1, 0.5)],
        3: [({"preset": "fig3", "n_slices": n, "sample_every": 2000}, "min_eig_var")
            for n in (1, 4, 8, 13, 25, 50)],
        4: [({"preset": "fig3", "n_slices": n, "sample_every": 2000}, col)
            for n in (4, 50) for col in ("min_eig_var", "var_P_eff")],
        5: [({"preset": "fig5", "delta": d, "sample_every": 500}, "var_theta")
            for d in (0.0, 0.02, 0.1, 0.2, 0.3, 0.4, 0.5)],
    }

    @pytest.mark.parametrize("fig_id", RUN_CURVES)
    def test_run_curves_are_preset_runs(self, tmp_path, fig_id):
        """Each run curve is, bit for bit, its column of a run of the preset."""
        over = {"tau": 2e-8, "t_end": 1e-4, "seed": 3}
        assert reproduce_figure(fig_id, tmp_path, **over) == 0
        for i, (tree, col) in enumerate(self.RUN_CURVES[fig_id], 1):
            cfg = parse_config(json.dumps({**tree, **over}))
            ts, _ = cli.scenarios.run(cli.build_scenario(cfg), seed=3)
            header, *rows = (tmp_path / f"fig{fig_id}_curve{i}.csv").read_text().split()
            data = dict(zip(header.split(","), np.array(
                [[float(x) for x in row.split(",")] for row in rows]).T))
            assert list(data) == ["t_seconds"] + (
                [*ts.columns, "var_p_analytic"] if col is None else [col])
            assert np.array_equal(data["t_seconds"], ts.times)
            for name in ts.columns if col is None else (col,):
                assert np.array_equal(data[name], ts.columns[name])

    def test_figure_4_curves_are_figure_3_runs(self, tmp_path):
        for fig_id in (3, 4):
            assert reproduce_figure(fig_id, tmp_path, tau=2e-8, t_end=1e-4) == 0
        for fig4, fig3 in ((1, 2), (3, 6)):  # min_eig_var at n = 4 and n = 50
            assert ((tmp_path / f"fig4_curve{fig4}.csv").read_bytes()
                    == (tmp_path / f"fig3_curve{fig3}.csv").read_bytes())

    def test_output_error_removes_every_started_file(self, tmp_path, capsys):
        """An unwritable curve leaves neither earlier curves nor a manifest."""
        (tmp_path / "fig1_curve2.csv").mkdir()
        assert reproduce_figure(1, tmp_path, t_end=1e-5) == 1
        assert "Is a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["fig1_curve2.csv"]
        assert (tmp_path / "fig1_curve2.csv").is_dir()

    def test_half_written_file_removed(self, tmp_path, monkeypatch):
        write_csv = cli.write_csv

        def fail_second(path, times, columns):
            if path.name == "fig1_curve2.csv":
                path.write_text("t_seconds,var_p\n0")
                raise OSError("No space left on device")
            return write_csv(path, times, columns)

        monkeypatch.setattr(cli, "write_csv", fail_second)
        assert reproduce_figure(1, tmp_path, t_end=1e-5) == 1
        assert list(tmp_path.iterdir()) == []

    def test_explicit_zero_t_end_is_used(self, tmp_path):
        assert reproduce_figure(1, tmp_path, t_end=0.0) == 0
        for name in ("fig1_curve1.csv", "fig1_curve2.csv"):
            assert (tmp_path / name).read_text() == "t_seconds,var_p,var_p_analytic\n"
        manifest = json.loads((tmp_path / "fig1_manifest.json").read_text())
        assert manifest["config"]["t_end"] == 0.0
        assert {n["t_end"] for n in manifest["notes"].values()} == {0.0}


class TestMain:
    def test_run_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_text(output_dir=str(tmp_path / "out")))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "homogeneous.csv").exists()

    def test_nan_rate_exits_nonzero_without_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        text = cfg_text(output_dir=str(tmp_path / "out"))
        cfg_path.write_text(text.replace("1830000.0", "NaN"))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "homogeneous.csv").exists()

    def test_var0_key_exit_2_without_output(self, tmp_path, capsys):
        """The simulated state is the coherent spin state; var0 has no say."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_text(var0=0.25, output_dir=str(tmp_path / "out")))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "unknown key 'var0'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, values, i, j", [
        ("deltas", [0.1, 0.1], 1, 0),
        ("deltas", [0.2, 0, 0.0], 2, 1),
        ("n_slices", [2, 3, 2], 2, 0),
        ("seeds", [4, 4], 1, 0),
    ])
    def test_repeated_sweep_entry_exit_2_without_output(self, tmp_path, capsys,
                                                         key, values, i, j):
        """A repeated grid value would run one point twice and clash in the manifest."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_text(
            scenario="thin_inhomogeneous", n_slices=3, t_end=5e-6,
            output_dir=str(tmp_path / "sweep"), sweep={key: values},
        ))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"'sweep.{key}[{i}]' repeats 'sweep.{key}[{j}]'" in err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("scenario, key, values", [
        ("homogeneous", "deltas", [0.1, 0.5]),
        ("homogeneous", "n_slices", [2, 3]),
        ("thick", "deltas", [0.1, 0.5]),
        # no mean is read and no coupling is drawn from the seed
        ("thick", "seeds", [0, 1, 2]),
        ("thin_inhomogeneous", "seeds", [0, 1, 2]),
    ])
    def test_unread_sweep_axis_exit_2_without_output(self, tmp_path, capsys,
                                                     scenario, key, values):
        """An axis the scenario ignores would write one run under many names."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_text(
            scenario=scenario, n_slices=3, t_end=5e-6,
            output_dir=str(tmp_path / "sweep"), sweep={key: values},
        ))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'sweep.{key}'" in err
        assert not (tmp_path / "sweep").exists()

    def test_seed_axis_of_a_random_spread_accepted(self, tmp_path):
        """Each seed draws other couplings, so each CSV differs."""
        out = tmp_path / "sweep"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_text(
            scenario="thin_inhomogeneous", n_slices=3, delta=0.3,
            spread_mode="random", t_end=5e-6, output_dir=str(out),
            sweep={"seeds": [0, 1, 2]},
        ))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        texts = {p.read_text() for p in out.glob("*.csv")}
        assert len(texts) == 3

    def test_failed_eigen_solve_exit_1_without_output(self, tmp_path, capsys):
        """At eta t_end = 1000, far outside the model, a sample's eigen-solve
        fails; the run names the sample time instead of a traceback."""
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_text(
            scenario="thick", n_slices=3, t_end=1e-3, output_dir=str(out),
            rates={"kappa_sq": 1.83e6, "eta": 1e6, "epsilon": 0.028},
        ))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert re.fullmatch(r"error: the eigen-solve of the sample at "
                            r"t = \d\.\d{6}e-\d\d s failed: .+\n", err)
        assert not out.exists()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{\"scenario\": \"waffles\"}")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_sweep_exit_2_without_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_text(
            scenario="thin_inhomogeneous", n_slices=3, t_end=5e-6,
            output_dir=str(tmp_path / "sweep"), sweep={"n_slices": [2.5]},
        ))
        assert main(["sweep", "--config", str(cfg_path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--seed", "1.5"), ("--tau", "0"), ("--tau", "-1e-8"),
        ("--tau", "nan"), ("--tau", "inf"), ("--t-end", "-1e-5"),
        ("--t-end", "nan"), ("--t-end", "inf"),
    ])
    def test_bad_figure_flag_exit_2_without_output(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["figure", "1", "--out", str(out), f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}: {value!r} is not a" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("over", [
        {"preset": "fig1", "tau": -1e-8},
        {"preset": "fig1", "sample_every": 0},
        {"preset": "fig2", "n_slices": 0},
        {"preset": "fig5", "estimation": {"t1": 4e-5, "t2": 3e-5}},
        {"preset": "fig1", "rates": {"kappa_sq": 0.0, "eta": 1.0}},
        {"preset": "fig3", "rates": {"kappa_sq": 0.0}},
    ], ids=["negative_tau", "zero_sample_every", "zero_slices", "t1_after_t2",
            "zero_coupling", "zero_coupling_thick"])
    def test_refused_run_leaves_no_output_dir(self, tmp_path, capsys, over):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**over, "t_end": 1e-4,
                                        "output_dir": str(out)}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_sweep_failure_removes_earlier_files(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_text(
            scenario="thin_inhomogeneous", t_end=5e-6,
            output_dir=str(tmp_path / "sweep"), sweep={"n_slices": [3, 0]},
        ))
        assert main(["sweep", "--config", str(cfg_path)]) == 1
        assert "slice" in capsys.readouterr().err
        assert list((tmp_path / "sweep").iterdir()) == []

    def test_rates_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_text())
        assert main(["rates", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "kappa_sq" in out and "1.83e+06" in out

    def test_output_dir_env_var(self, tmp_path, monkeypatch):
        from squeezesim.cli import default_output_dir

        monkeypatch.setenv("SQUEEZESIM_OUTPUT_DIR", str(tmp_path / "envout"))
        assert default_output_dir() == tmp_path / "envout"

    def test_sweep(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_text(
            scenario="thin_inhomogeneous",
            n_slices=3,
            spread_mode="random",
            t_end=5e-6,
            output_dir=str(tmp_path / "sweep"),
            sweep={"deltas": [0.1, 0.5], "seeds": [0, 1]},
        ))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        files = sorted(p.name for p in (tmp_path / "sweep").glob("*.csv"))
        assert len(files) == 4
        manifest = json.loads((tmp_path / "sweep" / "sweep_manifest.json").read_text())
        assert len(manifest["outputs"]) == 4

import hashlib
import json

import numpy as np
import pytest

from squeezesim import cli
from squeezesim.cli import (
    ParseError,
    RunConfig,
    main,
    parse_config,
    reproduce_figure,
    run_command,
)
from squeezesim.physics import CouplingRates


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
        assert cfg.var0 == 0.5
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
        from squeezesim.cli import PRESETS, _figure_curves, build_scenario

        for fig_id in range(1, 6):
            for t_end in (None, 1e-4, 2e-5, 5e-6):
                if fig_id == 5 and t_end is not None and t_end <= 4e-5:
                    continue  # the angle is probed only after t2 = 4e-5 s
                for _name, _desc, cfg, _cols in _figure_curves(fig_id, None, t_end):
                    if isinstance(cfg, RunConfig):
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

    def test_zero_duration_header_only(self, tmp_path):
        cfg = parse_config(cfg_text(t_end=0.0, output_dir=str(tmp_path)))
        assert run_command(cfg) == 0
        content = (tmp_path / "homogeneous.csv").read_text()
        assert content == "t_seconds,var_p,var_p_analytic\n"

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
        rates = CouplingRates(kappa_sq=1.83e6, eta=1.7577, epsilon=0.028)

        def curves(fig_id, tau, t_end):
            for i, every in enumerate((100, 250)):
                cfg = RunConfig(scenario="homogeneous", rates=rates, tau=1e-8,
                                t_end=1e-5, sample_every=every)
                yield f"fig1_curve{i + 1}", {"sample_every": every}, cfg, None

        monkeypatch.setattr(cli, "_figure_curves", curves)
        assert reproduce_figure(1, tmp_path) == 0
        for i, rows in ((1, 11), (2, 5)):
            t = np.genfromtxt(tmp_path / f"fig1_curve{i}.csv", delimiter=",",
                              names=True)["t_seconds"]
            assert len(t) == rows


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
            t_end=5e-6,
            output_dir=str(tmp_path / "sweep"),
            sweep={"deltas": [0.1, 0.5], "seeds": [0, 1]},
        ))
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        files = sorted(p.name for p in (tmp_path / "sweep").glob("*.csv"))
        assert len(files) == 4
        manifest = json.loads((tmp_path / "sweep" / "sweep_manifest.json").read_text())
        assert len(manifest["outputs"]) == 4

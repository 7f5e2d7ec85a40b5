import json

import numpy as np
import pytest

from nvzeno.cli import main, parse_config, run_command
from nvzeno.errors import OutOfRange, ParseError, UnknownExperiment, UnknownKey
from nvzeno.experiments import EXPERIMENTS


class TestParseConfig:
    def test_empty_object_gives_defaults(self):
        config = parse_config("{}")
        assert config.experiment is None
        assert config.fixed == {} and config.axes == {}
        assert config.dt is None and config.format == "csv"

    def test_ratio_sweep_config(self):
        config = parse_config(
            '{"experiment":"ratio_sweep",'
            '"omega_over_g":{"from":0.005,"to":0.25,"points":50}}'
        )
        assert config.experiment == "ratio_sweep"
        grid = config.axes["omega_over_g"].values()
        assert grid.size == 50
        assert grid[0] == pytest.approx(0.005) and grid[-1] == pytest.approx(0.25)

    def test_negative_rate_rejected(self):
        with pytest.raises(OutOfRange):
            parse_config('{"gamma_nv_over_g": -0.1}')

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownKey):
            parse_config('{"omega": 0.1}')

    def test_malformed_json_has_context(self):
        with pytest.raises(ParseError) as err:
            parse_config('{"experiment": }')
        assert "line" in str(err.value)

    def test_grid_field_validation(self):
        with pytest.raises(ParseError):
            parse_config('{"omega_over_g": {"from": 0.1, "to": 0.2}}')
        with pytest.raises(UnknownKey):
            parse_config('{"omega_over_g": {"from": 0.1, "to": 0.2, "points": 3, "step": 1}}')
        with pytest.raises(OutOfRange):
            parse_config('{"omega_over_g": {"from": 0.1, "to": 0.2, "points": 0}}')

    def test_scalar_validation(self):
        with pytest.raises(OutOfRange):
            parse_config('{"omega_over_g": 0.0}')
        with pytest.raises(OutOfRange):
            parse_config('{"format": "xml"}')
        for removed in ('{"threads": 2}', '{"n_nuclei": 2}', '{"deterministic": true}'):
            with pytest.raises(UnknownKey):
                parse_config(removed)
        with pytest.raises(ParseError):
            parse_config('{"experiment": 4}')
        with pytest.raises(ParseError):
            parse_config("[1, 2]")


class TestRunCommand:
    def test_requires_experiment_and_out(self, tmp_path):
        with pytest.raises(UnknownExperiment):
            run_command(parse_config("{}"))
        config = parse_config('{"experiment": "ratio_sweep"}')
        with pytest.raises(OutOfRange):
            run_command(config)

    def test_csv_shape_for_small_ratio_sweep(self, tmp_path):
        out = tmp_path / "ratio.csv"
        config = parse_config(json.dumps({
            "experiment": "ratio_sweep",
            "omega_over_g": {"from": 0.05, "to": 0.25, "points": 3},
            "out": str(out),
        }))
        record = run_command(config)
        assert record.columns == ["omega_over_g", "fidelity_avg", "fidelity_superposition"]
        lines = out.read_text(encoding="utf-8").splitlines()
        meta = [line for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        assert meta and body[0] == "omega_over_g,fidelity_avg,fidelity_superposition"
        assert len(body) == 4  # header + 3 data rows
        assert all(len(line.split(",")) == 3 for line in body[1:])

    def test_survival_map_row_count(self, tmp_path):
        out = tmp_path / "survival.csv"
        config = parse_config(json.dumps({
            "experiment": "survival_map",
            "t_over_T": {"from": 0.0, "to": 1.0, "points": 50},
            "omega_over_g": {"from": 0.005, "to": 0.25, "points": 50},
            "out": str(out),
        }))
        record = run_command(config)
        assert record.columns == ["t_over_T", "omega_over_g", "p0"]
        assert record.rows.shape == (2500, 3)

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = {
            "experiment": "ratio_sweep",
            "omega_over_g": {"from": 0.05, "to": 0.25, "points": 4},
        }
        run_command(parse_config(json.dumps({**base, "out": str(out1)})))
        run_command(parse_config(json.dumps({**base, "out": str(out2)})))
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "data.json"
        config = parse_config(json.dumps({
            "experiment": "survival_map",
            "t_over_T": {"from": 0.0, "to": 1.0, "points": 4},
            "omega_over_g": {"from": 0.05, "to": 0.25, "points": 3},
            "out": str(out),
            "format": "json",
        }))
        run_command(config)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["columns"] == ["t_over_T", "omega_over_g", "p0"]
        assert len(payload["data"]["p0"]) == 12
        assert payload["metadata"]["experiment"] == "survival_map"

    def test_failed_run_leaves_no_file(self, tmp_path):
        out = tmp_path / "never.csv"
        config = parse_config(json.dumps({
            "experiment": "ratio_sweep",
            "gamma_nv_over_g": {"from": 0.0, "to": 0.001, "points": 3},
            "out": str(out),
        }))
        with pytest.raises(OutOfRange):
            run_command(config)  # gamma is not an axis of ratio_sweep
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []


class TestMain:
    def test_run_exit_codes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        cfg.write_text(json.dumps({
            "experiment": "ratio_sweep",
            "omega_over_g": {"from": 0.05, "to": 0.25, "points": 3},
            "out": str(out),
        }))
        assert main(["run", "--config", str(cfg)]) == 0
        assert out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"gamma_nv_over_g": -1}')
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"] == "OutOfRange"

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "step.json"
        cfg.write_text(json.dumps({
            "experiment": "decay_trajectory",
            "t_over_T": {"from": 0.0, "to": 1.0, "points": 3},
            "dt": 0.1,
            "out": str(tmp_path / "x.csv"),
        }))
        code = main(["run", "--config", str(cfg)])
        assert code == 3
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "StepTooLarge"

    def test_removed_knobs_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "survival_map", "out": out}))
        for argv in (
            ["run", "--config", str(cfg), "--threads", "2"],
            ["sweep", "--experiment", "survival_map", "--out", out, "--threads", "2"],
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
        assert "--threads" in capsys.readouterr().err
        for key, value in (("threads", 2), ("n_nuclei", 2), ("deterministic", True)):
            cfg.write_text(json.dumps({"experiment": "survival_map", "out": out, key: value}))
            assert main(["run", "--config", str(cfg)]) == 2
            assert json.loads(capsys.readouterr().err.strip())["error"] == "UnknownKey"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unnormalized_transfer_input_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for name in ("systematic_omega_g", "qst_decoherence_n"):
            cfg.write_text(json.dumps({
                "experiment": name, "alpha": 0.9, "beta": 0.9, "out": str(tmp_path / "x.csv"),
            }))
            assert main(["run", "--config", str(cfg)]) == 2
            assert json.loads(capsys.readouterr().err.strip())["error"] == "NotNormalizedInput"

    def test_unread_input_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for doc in (
            {"experiment": "systematic_omega_g", "gamma_nv_over_g": 0.5, "dt": 0.3},
            {"experiment": "detuning_population", "delta_over_g": 5.0},
            {"experiment": "survival_map", "alpha": 0.6},
        ):
            cfg.write_text(json.dumps({**doc, "out": str(tmp_path / "x.csv")}))
            assert main(["run", "--config", str(cfg)]) == 2
            assert json.loads(capsys.readouterr().err.strip())["error"] == "UnknownKey"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_sweep_subcommand(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--experiment", "ratio_sweep",
            "--param", "omega_over_g", "--from", "0.05", "--to", "0.25", "--points", "3",
            "--out", str(out),
        ])
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 4

    def test_sweep_with_fixed_flag_collapses_axis(self, tmp_path):
        out = tmp_path / "qst.csv"
        code = main([
            "sweep", "--experiment", "qst_decoherence_nv",
            "--param", "gamma_nv_over_g", "--from", "0.0", "--to", "0.002", "--points", "2",
            "--delta-over-g", "0.0",
            "--out", str(out),
        ])
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 3  # header + 2 grid points (delta axis pinned)

    def test_list_experiments_covers_registry(self, capsys):
        assert main(["list-experiments"]) == 0
        text = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in text

    def test_every_experiment_reachable_from_cli(self, tmp_path):
        tiny_axes = {
            "ratio_sweep": {"omega_over_g": {"from": 0.05, "to": 0.25, "points": 2}},
            "detuning_population": {
                "delta_over_omega": {"from": 0.0, "to": 0.2, "points": 2},
                "t_over_T": {"from": 0.0, "to": 1.0, "points": 3},
            },
            "decay_trajectory": {"t_over_T": {"from": 0.0, "to": 1.0, "points": 3}},
            "decay_surface": {
                "gamma_nv_over_g": {"from": 0.0, "to": 0.002, "points": 2},
                "gamma_n_over_g": {"from": 0.0, "to": 0.002, "points": 2},
            },
            "systematic_omega_g": {
                "delta_g_over_g": {"from": 0.0, "to": 0.1, "points": 2},
                "delta_omega_over_omega": {"from": 0.0, "to": 0.1, "points": 2},
            },
            "systematic_t_g": {
                "delta_g_over_g": {"from": 0.0, "to": 0.1, "points": 2},
                "delta_t_over_t": {"from": 0.0, "to": 0.1, "points": 2},
            },
            "survival_map": {
                "t_over_T": {"from": 0.0, "to": 1.0, "points": 3},
                "omega_over_g": {"from": 0.05, "to": 0.25, "points": 3},
            },
            "survival_map_full": {
                "t_over_T": {"from": 0.0, "to": 1.0, "points": 3},
                "omega_over_g": {"from": 0.05, "to": 0.25, "points": 2},
            },
            "qst_decoherence_n": {
                "gamma_n_over_g": {"from": 0.0, "to": 0.01, "points": 2},
                "delta_over_g": {"from": 0.0, "to": 0.01, "points": 2},
            },
            "qst_decoherence_nv": {
                "gamma_nv_over_g": {"from": 0.0, "to": 0.01, "points": 2},
                "delta_over_g": {"from": 0.0, "to": 0.01, "points": 2},
            },
        }
        assert set(tiny_axes) == set(EXPERIMENTS)
        for name, axes in tiny_axes.items():
            out = tmp_path / f"{name}.csv"
            config = parse_config(json.dumps({"experiment": name, "out": str(out), **axes}))
            record = run_command(config)
            assert out.exists(), name
            assert record.rows.size > 0, name

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        text = capsys.readouterr().out
        assert "FAIL" not in text

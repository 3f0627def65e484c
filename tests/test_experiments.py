import ast
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rydsim import dynamics, experiments, preset
from rydsim.cli import main
from rydsim.experiments import (
    PRESETS,
    ConfigError,
    config_from_dict,
    list_presets,
    load_config,
    preset_info,
    run_experiment,
)
from rydsim.atoms import AtomParams
from rydsim.blockade import TwoAtomParams
from rydsim.fitting import FitResult
from rydsim.montecarlo import EnsembleResult, measured_outcomes, run_ensemble
from rydsim.pulses import SystemModel

SRC = Path(__file__).resolve().parent.parent / "src"
QUICK_RABI = {
    "preset": "rabi",
    "scan": {"start": 0.05, "stop": 1.55, "points": 16},
    "n_shots": 3,
    "master_seed": 4,
}


def quick_config(tmp_path, extra=None, **overrides):
    data = dict(QUICK_RABI)
    data.update(overrides)
    if extra:
        data.update(extra)
    data["output_dir"] = str(tmp_path / "out")
    return config_from_dict(data)


class TestConfigValidation:
    def test_defaults_fill_from_preset(self):
        cfg = config_from_dict({"preset": "ramsey"})
        info = preset_info("ramsey")
        assert cfg.scan == info.default_scan
        assert cfg.n_shots == info.default_shots

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"preset": "rabi", "shots": 10})

    def test_unknown_preset_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'ramsey'"):
            config_from_dict({"preset": "ramsey_scan"})

    def test_unknown_sequence_parameter(self):
        with pytest.raises(ConfigError, match="sequence parameters"):
            config_from_dict({"preset": "rabi", "sequence": {"fringe_mhz": 1.0}})

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            config_from_dict({"preset": "rabi", "mode": "exact"})

    def test_bad_scan(self):
        with pytest.raises(ConfigError):
            config_from_dict({"preset": "rabi", "scan": {"points": 0}})
        with pytest.raises(ConfigError):
            config_from_dict({"preset": "rabi", "scan": {"start": 2.0, "stop": 1.0}})
        with pytest.raises(ConfigError, match="scan.stop must be finite"):
            config_from_dict({"preset": "rabi", "scan": {"start": 0.1, "stop": math.inf}})

    @pytest.mark.parametrize("value", [2.7, True, "3"])
    def test_n_shots_must_be_integral(self, value):
        with pytest.raises(ConfigError, match="n_shots must be an integer"):
            config_from_dict({"preset": "rabi", "n_shots": value})

    @pytest.mark.parametrize("value", [3.9, False])
    def test_scan_points_must_be_integral(self, value):
        with pytest.raises(ConfigError, match="scan.points must be an integer"):
            config_from_dict({"preset": "rabi", "scan": {"points": value}})

    @pytest.mark.parametrize("value", [0.5, True])
    def test_master_seed_must_be_integral(self, value):
        with pytest.raises(ConfigError, match="master_seed must be an integer"):
            config_from_dict({"preset": "rabi", "master_seed": value})

    @pytest.mark.parametrize("value", [1.5, True])
    def test_n_workers_must_be_integral(self, value):
        with pytest.raises(ConfigError, match="n_workers must be an integer"):
            config_from_dict({"preset": "rabi", "n_workers": value})

    def test_integral_floats_accepted(self):
        cfg = config_from_dict(
            {"preset": "rabi", "n_shots": 4.0, "scan": {"points": 3.0},
             "master_seed": 7.0, "n_workers": 2.0}
        )
        values = (cfg.n_shots, cfg.scan[2], cfg.master_seed, cfg.n_workers)
        assert values == (4, 3, 7, 2)
        assert all(type(v) is int for v in values)

    def test_truncating_value_exits_1_from_cli(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text("preset: rabi\nn_shots: 2.7\n")
        assert main(["run", str(config)]) == 1
        assert "n_shots must be an integer" in capsys.readouterr().err

    def test_detection_table_roundtrip(self):
        cfg = config_from_dict(
            {
                "preset": "rabi",
                "detection": {"f_r": 0.96, "f_g_table": [[0, 0.99], [4, 0.99], [8, 0.955]]},
                "scan": {"stop": 8.0},  # the table must cover every trap-off time
            }
        )
        assert cfg.detection.fg_at(6.0) == pytest.approx(0.9725)

    def test_detection_null_disables_channel(self):
        cfg = config_from_dict({"preset": "rabi", "detection": None})
        assert cfg.detection is None

    def test_bad_atom_parameter(self):
        with pytest.raises(ConfigError, match="atom"):
            config_from_dict({"preset": "rabi", "atom": {"temperature_uk": -1}})

    @pytest.mark.parametrize("build", [
        lambda: AtomParams(gamma_blue_scatter=math.nan),
        lambda: AtomParams(gamma_red_scatter=math.nan),
        lambda: TwoAtomParams(separation_um=math.nan),
        lambda: TwoAtomParams(interaction_u_mhz=math.nan),
        lambda: SystemModel(atom=AtomParams(), gamma_laser=math.nan),
    ], ids=["blue_scatter", "red_scatter", "separation", "interaction", "gamma_laser"])
    def test_range_checks_reject_nan(self, build):
        with pytest.raises(ValueError):
            build()

    def test_infinite_blackbody_time_accepted(self):
        cfg = config_from_dict({"preset": "rabi", "atom": {"t_blackbody_us": math.inf}})
        assert cfg.atom.t_blackbody_us == math.inf

    def test_projected_model_with_blackbody_flagged_for_two_atoms(self):
        cfg = config_from_dict(
            {"preset": "w_echo", "blockade_model": "projected"}
        )
        # blackbody is automatically dropped for the projected level set
        assert cfg.system().blackbody is False


class TestPresetCatalog:
    def test_contains_all_nine_presets(self):
        names = {entry["name"] for entry in list_presets()}
        assert names == {
            "rabi", "t1", "ramsey", "spin_echo", "phase_gate_echo",
            "blockade_rabi", "parity_scan", "w_lifetime", "w_echo",
        }

    def test_entries_documented(self):
        for entry in list_presets():
            assert entry["description"]
            assert entry["scan_variable"]
            assert entry["default_scan"]["points"] >= 1

    def test_lookup_error_suggests_name(self):
        with pytest.raises(ValueError, match="did you mean"):
            preset_info("w_echoo")

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_record_matches_its_builder(self, name):
        info = preset_info(name)
        cfg = config_from_dict({"preset": name})
        build = cfg.ensemble_spec().build
        start, stop, _ = info.default_scan
        assert [build(v).n_atoms for v in (start, stop)] == [info.n_atoms] * 2
        assert info.scan_variable == next(iter(inspect.signature(info.build).parameters))
        assert preset(name, **{info.scan_variable: stop}) == build(stop)


class TestRunExperiment:
    def test_writes_csv_and_manifest(self, tmp_path):
        cfg = quick_config(tmp_path)
        manifest = run_experiment(cfg)
        csv_path = tmp_path / "out" / "rabi.csv"
        manifest_path = tmp_path / "out" / "rabi_manifest.json"
        assert csv_path.exists() and manifest_path.exists()

        header = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")][0]
        assert header.split(",")[:3] == ["t_us", "P_g", "P_g_ci_lo"]

        stored = json.loads(manifest_path.read_text())
        assert stored["preset"] == "rabi"
        assert stored["config"]["n_shots"] == 3
        names = {d["name"] for d in stored["derived"]}
        assert "rabi_frequency_mhz" in names
        for d in stored["derived"]:
            assert d["rule"]

    def test_rerun_reproduces_data_bytes(self, tmp_path):
        cfg = quick_config(tmp_path)
        run_experiment(cfg)
        first = (tmp_path / "out" / "rabi.csv").read_bytes()
        run_experiment(quick_config(tmp_path))
        second = (tmp_path / "out" / "rabi.csv").read_bytes()
        assert first == second

    def test_no_decay_flagged(self, tmp_path):
        cfg = quick_config(
            tmp_path,
            extra={
                "n_shots": 1,
                "detection": None,
                "noise": {"doppler": False, "positions": False,
                          "scattering": False, "blackbody": False},
                "scan": {"start": 0.05, "stop": 1.3, "points": 41},
            },
        )
        manifest = run_experiment(cfg)
        scalar = {d.name: d for d in manifest.derived}["coherence_time_us"]
        assert math.isinf(scalar.value)
        assert scalar.note == "no decay detected"

    def test_parity_scan_reports_fidelity(self, tmp_path):
        cfg = config_from_dict(
            {
                "preset": "parity_scan",
                "scan": {"start": 0.0, "stop": 0.4, "points": 17},
                "n_shots": 20,
                "output_dir": str(tmp_path / "out"),
            }
        )
        manifest = run_experiment(cfg)
        scalars = {d.name: d.value for d in manifest.derived}
        assert 0.8 < scalars["parity_contrast"] <= 1.0
        assert 0.85 < scalars["bell_fidelity"] <= 1.0
        assert scalars["bell_fidelity_corrected"] > scalars["bell_fidelity"]

    def test_bell_prep_draws_noise_apart_from_parity_point_0(self, monkeypatch):
        from rydsim import montecarlo

        draws = []
        sample_noise = montecarlo.sample_noise

        def recording(*args):
            draws.append(sample_noise(*args))
            return draws[-1]

        monkeypatch.setattr(montecarlo, "sample_noise", recording)
        cfg = config_from_dict({"preset": "parity_scan", "n_shots": 3})
        run_ensemble(cfg.ensemble_spec(), cfg.scan_values()[:1], 3,
                     master_seed=cfg.master_seed)
        experiments._bell_prep_probabilities(cfg)
        assert len(draws) == 6
        parity_point_0, bell_prep = draws[:3], draws[3:]
        assert all(a != b for a, b in zip(parity_point_0, bell_prep))

    def test_t1_manifest_passes_its_rule(self, tmp_path):
        cfg = config_from_dict(
            {
                "preset": "t1",
                "scan": {"start": 0.0, "stop": 150.0, "points": 10},
                "n_shots": 40,
                "detection": None,
                "output_dir": str(tmp_path / "out"),
            }
        )
        manifest = run_experiment(cfg)
        scalar = {d.name: d for d in manifest.derived}["t1_lifetime_us"]
        assert scalar.passed is True


class TestCli:
    def test_list_exits_clean(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "w_echo" in out and "blockade_rabi" in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert len(parsed) == 9

    def test_run_quick_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "preset: rabi\n"
            "scan: {start: 0.05, stop: 1.55, points: 16}\n"
            "n_shots: 2\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", str(config)]) == 0
        assert (tmp_path / "out" / "rabi.csv").exists()

    def test_run_missing_file_is_validation_error(self, capsys):
        assert main(["run", "/nonexistent/config.yaml"]) == 1

    def test_run_invalid_config_is_validation_error(self, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text("preset: rabi\nshots: 5\n")
        assert main(["run", str(config)]) == 1

    def test_numerical_blow_up_exits_2_without_traceback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "rk4_map", lambda m, dt: np.full_like(m, np.nan))
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "preset: rabi\n"
            "n_shots: 1\n"
            "n_workers: 1\n"
            "scan: {start: 0.1, stop: 0.2, points: 2}\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "Traceback" not in err

        # rounding over 1e11 steps moves the trace by ~4e-7: inside the
        # integrator's TRACE_TOL, outside the per-shot 1e-9 sum check
        monkeypatch.undo()
        config.write_text(config.read_text() + "dt_max: 1.0e-12\n")
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "Traceback" not in err

        # without noise the same rounding leaves a population above
        # 1 + POSITIVITY_TOL, which the stacked range check reports
        config.write_text(
            "preset: rabi\n"
            "n_shots: 1\n"
            "n_workers: 1\n"
            "scan: {start: 0.5, stop: 0.5, points: 1}\n"
            "dt_max: 1.0e-12\n"
            "noise: {doppler: false, positions: false, scattering: false, blackbody: false}\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: population of 'g'")
        assert "Traceback" not in err

    @pytest.mark.parametrize("preset_name, section, key, value", [
        ("rabi", "sequence", "rabi_mhz", "1.0e+300"),
        ("ramsey", "atom", "temperature_uk", "1.0e+300"),
        ("rabi", "atom", "t_blackbody_us", "1.0e-300"),
        ("rabi", "noise", "gamma_laser", "1.0e+300"),
    ])
    def test_huge_rate_exits_2_instead_of_hanging(self, tmp_path, preset_name, section, key,
                                                   value):
        # each once ran for minutes: a step count past 2**63 wrapped negative and
        # the powering never ended; a child with a timeout fails instead of hanging
        config = tmp_path / "cfg.yaml"
        config.write_text(
            f"preset: {preset_name}\n"
            "n_shots: 1\n"
            "n_workers: 1\n"
            "scan: {start: 0.1, stop: 0.2, points: 2}\n"
            f"{section}: {{{key}: {value}}}\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-m", "rydsim.cli", "run", str(config)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("numerical failure: a segment needs")
        assert "Traceback" not in proc.stderr

    def test_strong_dephasing_converges(self, tmp_path):
        # the step cap counts the dissipator, so RK4 stays stable at this rate
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "preset: rabi\n"
            "n_shots: 1\n"
            "n_workers: 1\n"
            "scan: {start: 0.1, stop: 0.2, points: 2}\n"
            "noise: {gamma_laser: 3000}\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", str(config)]) == 0

        spec = load_config(config).ensemble_spec()
        channels, dim = spec.system.channels(True), spec.system.dim
        d_norm = np.linalg.norm(dynamics.liouvillian(np.zeros((dim, dim)), channels), np.inf)
        cap = dynamics.STEP_NORM_PRODUCT / d_norm
        assert cap < spec.dt_max  # the dissipator sets the step
        results = [
            run_ensemble(dataclasses.replace(spec, dt_max=dt), [0.1, 0.2], 1).raw_probabilities
            for dt in (spec.dt_max, cap / 2)
        ]
        assert np.all(np.isfinite(results[0]))
        assert np.abs(results[0] - results[1]).max() < 1e-6

    @pytest.mark.parametrize("preset_name, line", [
        ("rabi", "sequence: {crosstalk_fraction: 0.1}"),
        ("rabi", "scan: {start: -0.2, stop: 0.2, points: 2}"),
        ("phase_gate_echo", "scan: {start: 0, stop: 1.5, points: 2}"),
        ("rabi", "detection: {f_g_table: [[0, 0.99], [0.05, 0.98]]}"),
        ("parity_scan", "detection: {f_g_table: [[0.2, 0.99], [0.8, 0.98]]}"),
    ], ids=["unknown_parameter", "negative_duration", "gate_exceeds_arm", "short_f_g_table",
            "f_g_table_misses_bell_prep"])
    def test_bad_sequence_exits_1_without_traceback(self, tmp_path, capsys, preset_name, line):
        config = tmp_path / "cfg.yaml"
        config.write_text(
            f"preset: {preset_name}\n{line}\nn_shots: 1\nn_workers: 1\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("preset_name, line", [
        ("rabi", "noise: {gamma_laser: .nan}"),
        ("rabi", "atom: {gamma_red_scatter: .nan}"),
        ("blockade_rabi", "two_atom: {interaction_u_mhz: .nan}"),
        ("rabi", "noise: {sigma_position_um: -1.0}"),
        ("rabi", "noise: {sigma_position_um: .nan}"),
        ("rabi", "n_workers: 0"),
        ("rabi", "n_workers: -4"),
        ("rabi", "atom: {temperature_uk: .inf}"),
        ("blockade_rabi", "two_atom: {positions_um: [0, .inf]}"),
        ("blockade_rabi", "two_atom: {positions_um: [0]}"),
        ("blockade_rabi", "two_atom: {positions_um: [[0], 1]}"),
        ("rabi", "noise: {gamma_laser: .inf}"),
        ("rabi", 'noise: {doppler: "false"}'),
        ("rabi", 'atom: {counter_propagating: "false"}'),
        ("rabi", 'dt_max: "1e-3"'),
        ("rabi", "atom: {t_blackbody_us: .inf, t_radiative_us: .inf}"),
        ("rabi", "master_seed: 10000000000000000000"),
        ("rabi", "blockade_model: projected"),
        ("blockade_rabi", "blockade_model: infinite"),
        ("rabi", "dt_max: 1" + "0" * 400),
    ], ids=["nan_gamma_laser", "nan_red_scatter", "nan_interaction", "negative_sigma_position",
            "nan_sigma_position", "zero_workers", "negative_workers", "inf_temperature",
            "inf_position", "one_position", "nested_position", "inf_gamma_laser",
            "string_doppler", "string_counter_propagating", "string_dt_max",
            "both_lifetimes_infinite", "master_seed_beyond_64_bits", "projected_one_atom",
            "unknown_blockade_model", "int_dt_max_beyond_float_range"])
    def test_bad_number_exits_1_without_traceback(self, tmp_path, capsys, preset_name, line):
        workers = "" if line.startswith("n_workers") else "n_workers: 1\n"
        config = tmp_path / "cfg.yaml"
        config.write_text(
            f"preset: {preset_name}\n{line}\n{workers}scan: {{points: 2}}\nn_shots: 1\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("preset_name, line", [
        ("rabi", "sequence: {rabi_mhz: 1.0e+308}"),
        ("blockade_rabi", "two_atom: {interaction_u_mhz: 1.0e+308}"),
        ("phase_gate_echo", "sequence: {light_shift_mhz: 1.0e+308}"),
        ("ramsey", "sequence: {fringe_mhz: 1.0e+308}"),
    ], ids=["rabi_mhz", "interaction_u_mhz", "light_shift_mhz", "fringe_mhz"])
    def test_bad_number_found_during_the_run_exits_1(self, tmp_path, capsys, preset_name, line):
        # each value is finite, but the Hamiltonian built from it is not: the
        # config is refused before the run, with one line and no numpy warnings,
        # and no output directory is made
        config = tmp_path / "cfg.yaml"
        config.write_text(
            f"preset: {preset_name}\n{line}\nn_workers: 1\nscan: {{points: 2}}\nn_shots: 1\n"
            f"output_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", str(config)]) == 1
        assert capsys.readouterr().err == "error: hamiltonian has non-finite entries\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, code", [
        (["bogus"], 1), (["run"], 1), (["run", "a.yaml", "b.yaml"], 1), (["list", "--yaml"], 1),
        (["--help"], 0), (["--version"], 0),
    ])
    def test_usage_errors_exit_1_and_help_exits_0(self, capsys, argv, code):
        # exit 2 is kept for numerical failure, so argparse's own 2 is not used
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert ("usage: rydsim" in capsys.readouterr().err) == (code == 1)

    def test_only_the_cli_prints(self):
        printers = {
            path.name
            for path in (SRC / "rydsim").glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
        }
        assert printers == {"cli.py"}

    def test_output_dir_that_is_a_file_exits_1_before_simulating(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "preset: rabi\nscan: {points: 2}\nn_shots: 1\nn_workers: 1\n"
            f"output_dir: {blocker}\n"
        )
        assert main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_workers_env_validated(self, tmp_path, monkeypatch):
        config = tmp_path / "cfg.yaml"
        config.write_text("preset: rabi\nscan: {points: 2}\nn_shots: 1\n")
        for value in ("not-a-number", "0", "-3"):
            monkeypatch.setenv("RYDSIM_WORKERS", value)
            assert main(["run", str(config)]) == 1, value


def unfittable_result(cfg, shape):
    """A scan whose column follows ``shape`` scaled so far up that the squared
    residuals overflow: no fit of it can converge."""
    t = cfg.scan_values()
    outcomes = measured_outcomes(preset_info(cfg.preset).n_atoms)
    column = 1e160 * shape(t)
    probs = np.column_stack([column] * len(outcomes))
    return EnsembleResult(t, outcomes, probs, probs, probs, np.zeros_like(probs),
                          cfg.n_shots, cfg.mode, cfg.master_seed)


class TestFitHealth:
    # Each analyzer would otherwise read its start values as a passing scalar:
    # the spectral-peak frequency, the scan span as the echo time, the
    # configured light shift.
    @pytest.mark.parametrize("preset, scalar, shape", [
        ("rabi", "rabi_frequency_mhz", lambda t: np.cos(2 * np.pi * 2.0 * t)),
        ("spin_echo", "t2_echo_us", lambda t: np.exp(-t / 50.0)),
        ("phase_gate_echo", "phase_gate_frequency_mhz", lambda t: np.cos(2 * np.pi * 5.0 * t)),
    ], ids=["damped_cosine", "decay", "cosine"])
    def test_unconverged_fit_cannot_pass(self, preset, scalar, shape):
        cfg = config_from_dict({"preset": preset})
        with np.errstate(all="ignore"):
            derived = {d.name: d for d in preset_info(preset).analyze(cfg, unfittable_result(cfg, shape))}
        assert derived[scalar].passed is False
        assert derived[scalar].note == "fit did not converge"

    @pytest.mark.parametrize("noise, passed", [({}, False), ({"scattering": False}, None)],
                             ids=["full_noise", "no_scattering"])
    def test_undamped_rabi_fails_only_under_full_noise(self, noise, passed):
        cfg = config_from_dict({"preset": "rabi", "noise": noise})
        t = cfg.scan_values()
        p_r = 0.5 - 0.5 * np.cos(2 * np.pi * cfg.params["rabi_mhz"] * t)
        probs = np.column_stack([1.0 - p_r, p_r])
        result = EnsembleResult(t, ("g", "r"), probs, probs, probs, np.zeros_like(probs),
                                cfg.n_shots, cfg.mode, cfg.master_seed)
        derived = {d.name: d for d in preset_info("rabi").analyze(cfg, result)}
        assert derived["coherence_time_us"].passed is passed
        assert derived["coherence_time_us"].note == "no decay detected"

    def test_nan_echo_time_fails(self, monkeypatch):
        nan_fit = FitResult({"tau_us": math.nan}, {}, 0.0, True, 1)
        monkeypatch.setattr(experiments, "fit_decay", lambda *args, **kwargs: nan_fit)
        cfg = config_from_dict({"preset": "spin_echo"})
        # the analyzer reads only the (patched) fit, so any scan will do
        result = unfittable_result(cfg, np.ones_like)
        derived = {d.name: d for d in preset_info("spin_echo").analyze(cfg, result)}
        assert derived["t2_echo_us"].passed is False

import math
import re

import numpy as np
import pytest

from rydsim.atoms import (
    DEFAULT_FG_TABLE,
    PERFECT_DETECTION,
    AtomParams,
    DetectionModel,
    detection_probabilities,
    doppler_sigma,
)
from rydsim import montecarlo, preset
from rydsim.blockade import TwoAtomParams
from rydsim.experiments import config_from_dict
from rydsim.fitting import fit_damped_cosine
from rydsim.montecarlo import (
    STACK_SHOTS,
    EnsembleSpec,
    apply_detection,
    measured_outcomes,
    run_ensemble,
    sample_noise,
    shot_seed,
    wilson_interval,
)
from rydsim.pulses import (
    SystemModel,
    compile_sequence,
    run_compiled,
    zero_noise,
)


def make_spec(preset_name, scan_var, system, **kwargs):
    return EnsembleSpec(
        build=lambda v: preset(preset_name, **{scan_var: v}),
        system=system,
        **kwargs,
    )


class TestSampleNoise:
    def test_zero_width_gives_zeros(self):
        rng = np.random.default_rng(0)
        sample = sample_noise(0.0, 0.0, 2, rng)
        assert sample.doppler_krad_s == (0.0, 0.0)
        assert sample.position_um == (0.0, 0.0)

    def test_deterministic_given_state(self):
        a = sample_noise(100.0, 0.2, 2, np.random.default_rng(5))
        b = sample_noise(100.0, 0.2, 2, np.random.default_rng(5))
        assert a == b

    def test_sample_std_matches_width(self):
        rng = np.random.default_rng(12)
        sigma = 2 * math.pi * 43.5
        draws = np.array(
            [sample_noise(sigma, 0.0, 1, rng).doppler_krad_s[0] for _ in range(100000)]
        )
        assert abs(draws.std() - sigma) / sigma < 0.01

    def test_negative_width_rejected(self):
        # the draws it returns skip NoiseSample's checks, so the widths are checked here
        for widths in [(-1.0, 0.0), (math.inf, 0.0), (0.0, math.nan)]:
            with pytest.raises(ValueError, match="noise widths must be nonnegative and finite"):
                sample_noise(*widths, 1, np.random.default_rng(0))


class TestShotSeed:
    def test_stable_value(self):
        assert shot_seed(1, 2, 3) == shot_seed(1, 2, 3)

    def test_distinct_across_indices(self):
        seeds = {shot_seed(0, i, j) for i in range(50) for j in range(50)}
        assert len(seeds) == 2500


class TestApplyDetection:
    def test_pure_rydberg_loss(self):
        d = DetectionModel(f_g=0.99, f_r=0.96)
        out = apply_detection({"g": 0.0, "r": 1.0, "r'": 0.0}, d)
        assert abs(out["r"] - 0.96) < 1e-12

    def test_pure_ground_recapture(self):
        d = DetectionModel(f_g=0.99, f_r=0.96)
        out = apply_detection({"g": 1.0, "r": 0.0, "r'": 0.0}, d)
        assert abs(out["g"] - 0.99) < 1e-12

    def test_identity_detection_marginalizes_dark_state(self):
        out = apply_detection({"g": 0.25, "r": 0.5, "r'": 0.25}, None)
        assert out == {"g": 0.25, "r": 0.75}

    def test_output_normalized(self):
        d = DetectionModel(f_g=0.97, f_r=0.9)
        dist = {"gg": 0.1, "gr": 0.2, "rg": 0.3, "rr": 0.15, "gr'": 0.25}
        out = apply_detection(dist, d)
        assert abs(sum(out.values()) - 1.0) < 1e-12
        assert set(out) == set(measured_outcomes(2))

    def test_malformed_distribution_rejected(self):
        with pytest.raises(ValueError, match="sums"):
            apply_detection({"g": 0.5, "r": 0.2}, None)


def label_parsing_detection(probabilities, d, trap_off_time_us):
    """Detection by parsing each label and summing pattern probabilities."""
    out = {}
    for label, prob in probabilities.items():
        levels = tuple(c + "'" if label[i + 1 : i + 2] == "'" else c
                       for i, c in enumerate(label) if c != "'")
        for pattern, p_pattern in detection_probabilities(d, levels, trap_off_time_us).items():
            measured = "".join("g" if recaptured else "r" for recaptured in pattern)
            out[measured] = out.get(measured, 0.0) + prob * p_pattern
    return out


TABLE_MODEL = DetectionModel(f_r=0.96, f_g=None, f_g_table=DEFAULT_FG_TABLE)


class TestDetectionMatrix:
    @pytest.mark.parametrize("system", [
        SystemModel(atom=AtomParams(), n_atoms=1),
        SystemModel(atom=AtomParams(), n_atoms=2),
        SystemModel(atom=AtomParams(), n_atoms=2, blockade_model="projected", blackbody=False),
    ], ids=["one_atom", "full", "projected"])
    @pytest.mark.parametrize("model, times", [
        (PERFECT_DETECTION, [0.0, 3.0]),
        (DetectionModel(f_g=0.97, f_r=0.9), [0.0, 60.0]),
        (TABLE_MODEL, [0.0, 2.5, 4.0, 6.0, 8.0]),
    ], ids=["perfect", "fixed_fg", "table_fg"])
    def test_matches_label_parsing(self, system, model, times):
        rng = np.random.default_rng(2)
        labels = system.basis_labels
        for t in times:
            c = model.confusion_matrix(system.level_tuples, t)
            assert c.shape == (2 ** system.n_atoms, system.dim)
            np.testing.assert_allclose(c.sum(axis=0), 1.0, rtol=0, atol=1e-15)
            for p in [np.eye(system.dim)[0], rng.dirichlet(np.ones(system.dim))]:
                dist = dict(zip(labels, p))
                ref = label_parsing_detection(dist, model, t)
                by_matrix = dict(zip(measured_outcomes(system.n_atoms), c @ p))
                by_function = apply_detection(dist, model, t)
                for o in measured_outcomes(system.n_atoms):
                    assert abs(by_matrix[o] - ref[o]) <= 1e-15
                    assert abs(by_function[o] - ref[o]) <= 1e-15

    def test_table_out_of_range_raises(self):
        levels = SystemModel(atom=AtomParams(), n_atoms=2).level_tuples
        with pytest.raises(ValueError, match="outside table range"):
            TABLE_MODEL.confusion_matrix(levels, 8.5)
        with pytest.raises(ValueError, match="outside table range"):
            apply_detection({"gg": 1.0}, TABLE_MODEL, -0.1)

    def test_malformed_label_rejected(self):
        with pytest.raises(ValueError, match="malformed label"):
            apply_detection({"gx": 1.0}, None)


class TestWilson:
    def test_half_width_at_even_odds(self):
        lo, hi = wilson_interval(0.5, 100)
        assert abs((hi - lo) / 2 - 0.05) < 0.01

    def test_bounded(self):
        lo, hi = wilson_interval(0.0, 10)
        assert lo <= 1e-12 and hi > 0.0
        lo, hi = wilson_interval(1.0, 10)
        assert hi >= 1.0 - 1e-12 and lo < 1.0


class TestRunEnsemble:
    def test_single_shot_no_noise_matches_direct_evolution(self):
        system = SystemModel(atom=AtomParams(), n_atoms=1)
        spec = make_spec(
            "rabi", "drive_time", system,
            sigma_doppler_krad_s=0.0, sigma_position_um=0.0,
        )
        res = run_ensemble(spec, [0.3], n_shots=1)
        compiled = compile_sequence(preset("rabi", drive_time=0.3), system, zero_noise(1))
        rho = run_compiled(compiled, system.initial_state())
        expected_r = rho.population("r") + rho.population("r'")
        assert abs(res.column("r")[0] - expected_r) < 1e-12

    def test_ramsey_contrast_decays_at_thermal_width(self):
        # Doppler only: ensemble average of e^{i delta t} is a Gaussian with
        # 1/e time sqrt(2)/sigma
        atom = AtomParams()
        system = SystemModel(atom=atom, n_atoms=1, scattering=False, blackbody=False)
        spec = make_spec("ramsey", "gap", system)
        scan = np.linspace(0.05, 12.05, 25)
        res = run_ensemble(spec, scan, n_shots=500, master_seed=3)
        fit = fit_damped_cosine(scan, res.column("g"), "gauss_envelope")
        target = math.sqrt(2.0) / (doppler_sigma(atom) * 1e-3)
        assert abs(fit.params["tau_us"] - target) < 0.3

    def test_sampled_mode_interval_width(self):
        system = SystemModel(atom=AtomParams(), n_atoms=1, scattering=False,
                             blackbody=False)
        spec = make_spec(
            "rabi", "drive_time", system,
            sigma_doppler_krad_s=0.0, sigma_position_um=0.0,
        )
        res = run_ensemble(spec, [0.125], n_shots=100, mode="sampled", master_seed=1)
        j = res.outcomes.index("r")
        half_width = (res.ci_high[0, j] - res.ci_low[0, j]) / 2
        assert abs(half_width - 0.05) < 0.01

    def test_spin_echo_refocuses_every_shot(self):
        system = SystemModel(atom=AtomParams(), n_atoms=1, scattering=False,
                             blackbody=False)
        spec = make_spec("spin_echo", "gap", system, ideal_pulses=True)
        res = run_ensemble(spec, [4.0, 16.0], n_shots=30)
        p_g = res.per_shot[:, :, res.outcomes.index("g")]
        assert np.all(p_g >= 1.0 - 1e-6)

    def test_w_echo_refocuses_every_shot_projected(self):
        system = SystemModel(
            atom=AtomParams(), n_atoms=2, two_atom=TwoAtomParams(),
            blockade_model="projected", scattering=False, blackbody=False,
        )
        spec = make_spec("w_echo", "gap", system, ideal_pulses=True)
        res = run_ensemble(spec, [6.0], n_shots=25)
        p_gg = res.per_shot[:, :, res.outcomes.index("gg")]
        assert np.all(p_gg >= 1.0 - 1e-5)

    def test_bit_identical_reruns(self):
        system = SystemModel(atom=AtomParams(), n_atoms=1)
        spec = make_spec("ramsey", "gap", system)
        a = run_ensemble(spec, [1.0, 3.0], n_shots=8, master_seed=11, mode="sampled")
        b = run_ensemble(spec, [1.0, 3.0], n_shots=8, master_seed=11, mode="sampled")
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        np.testing.assert_array_equal(a.ci_low, b.ci_low)

    def test_points_with_different_steps_share_a_block(self):
        # a rabi point has one step and a t1 point three; one block holds both
        # kinds, and every shot equals its run in a block of its own point
        system = SystemModel(atom=AtomParams(), n_atoms=1)
        spec = EnsembleSpec(
            build=lambda t: preset("rabi", drive_time=0.1) if t < 0.5 else preset("t1", gap=t),
            system=system,
        )
        values = [0.2, 0.6, 0.3, 0.9]
        one_block = run_ensemble(spec, values, n_shots=3)
        alone = run_ensemble(spec, values, n_shots=STACK_SHOTS)  # a block per point
        np.testing.assert_array_equal(one_block.per_shot, alone.per_shot[:, :3])

    def test_seed_changes_results(self):
        system = SystemModel(atom=AtomParams(), n_atoms=1)
        spec = make_spec("ramsey", "gap", system)
        a = run_ensemble(spec, [3.0], n_shots=8, master_seed=11)
        b = run_ensemble(spec, [3.0], n_shots=8, master_seed=12)
        assert not np.array_equal(a.probabilities, b.probabilities)

    def test_seed_outside_64_bits_is_refused(self):
        system = SystemModel(atom=AtomParams(), n_atoms=1)
        spec = make_spec("ramsey", "gap", system)
        for seed in (2**63, -2**63 - 1):
            with pytest.raises(ValueError, match="master_seed must be a signed 64-bit integer"):
                run_ensemble(spec, [3.0], n_shots=1, master_seed=seed)

    def test_empty_scan_is_refused(self):
        system = SystemModel(atom=AtomParams(), n_atoms=1)
        spec = make_spec("ramsey", "gap", system)
        with pytest.raises(ValueError, match="scan_values is empty"):
            run_ensemble(spec, [], n_shots=3)

    def test_detection_shifts_probabilities(self):
        system = SystemModel(atom=AtomParams(), n_atoms=1)
        spec_raw = make_spec(
            "rabi", "drive_time", system,
            sigma_doppler_krad_s=0.0, sigma_position_um=0.0,
        )
        spec_det = make_spec(
            "rabi", "drive_time", system,
            detection=DetectionModel(f_g=0.99, f_r=0.96),
            sigma_doppler_krad_s=0.0, sigma_position_um=0.0,
        )
        raw = run_ensemble(spec_raw, [0.25], n_shots=1)
        det = run_ensemble(spec_det, [0.25], n_shots=1)
        # near-pure r: measured loss limited by f_r
        assert raw.column("r")[0] > 0.995
        assert abs(det.column("r")[0] - 0.96) < 5e-3
        np.testing.assert_allclose(det.raw_probabilities, raw.probabilities, atol=1e-12)

    @pytest.mark.parametrize("count", [0, -1, 1.5, True])
    def test_fewer_than_one_worker_is_refused(self, count):
        # both counts are refused here by name, not later by the task split
        spec = make_spec("rabi", "drive_time", SystemModel(atom=AtomParams(), n_atoms=1))
        for name in ("n_shots", "n_workers"):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= 1, "
                                                           f"got {count!r}")):
                run_ensemble(spec, [0.1], **{"n_shots": 1, "n_workers": 1, name: count})

    @pytest.mark.parametrize("n_atoms", [1, 2])
    def test_sampled_pick_is_generator_choice(self, n_atoms, monkeypatch):
        # random end states with zero populations stand in for the propagation;
        # each pick must be what the shot's generator, after its noise draws,
        # picks with choice(k, p=...) from that shot's distribution
        fake = np.random.default_rng(n_atoms)

        def end_states(compiled, rho0, dt_max):
            p = fake.dirichlet(np.ones(rho0.dim), len(compiled))
            p[fake.random(p.shape) < 0.5] = 0.0
            p[np.arange(len(p)), fake.integers(rho0.dim, size=len(p))] = 1.0
            return np.eye(rho0.dim) * (p / p.sum(axis=1, keepdims=True))[:, None]

        monkeypatch.setattr(montecarlo, "run_compiled", end_states)
        build = "rabi" if n_atoms == 1 else "blockade_rabi"
        spec = make_spec(build, "drive_time", SystemModel(atom=AtomParams(), n_atoms=n_atoms))
        for seed in range(6):
            res = run_ensemble(spec, [0.1, 0.2, 0.3], n_shots=30, mode="sampled",
                               master_seed=seed)
            assert (res.per_shot == 0).any()
            for i in range(3):
                counts = np.zeros(len(res.outcomes))
                for shot, v in enumerate(res.per_shot[i]):
                    rng = np.random.default_rng(shot_seed(seed, i, shot))
                    sample_noise(spec.doppler_width(), spec.sigma_position_um, n_atoms, rng)
                    counts[rng.choice(len(v), p=v)] += 1
                assert np.array_equal(res.probabilities[i], counts / 30)

    def test_invalid_mode_rejected(self):
        system = SystemModel(atom=AtomParams(), n_atoms=1)
        spec = make_spec("rabi", "drive_time", system)
        with pytest.raises(ValueError):
            run_ensemble(spec, [0.1], n_shots=1, mode="bogus")
        with pytest.raises(ValueError):
            run_ensemble(spec, [0.1], n_shots=0)


class TestReplay:
    """Each shot rebuilt from the public pieces, one at a time."""

    @pytest.mark.parametrize("preset_name", ["rabi", "blockade_rabi"])
    @pytest.mark.parametrize("mode", ["expectation", "sampled"])
    @pytest.mark.parametrize("detection", [{}, {"detection": None}], ids=["detected", "null"])
    def test_matches_shot_by_shot_replay(self, preset_name, mode, detection):
        n_shots, seed = 4, 5
        cfg = config_from_dict({"preset": preset_name, "mode": mode, "n_shots": n_shots,
                                "master_seed": seed, "scan": {"points": 3}, **detection})
        spec, values = cfg.ensemble_spec(), cfg.scan_values()
        res = run_ensemble(spec, values, n_shots, mode=mode, master_seed=seed)
        system = spec.system
        model = spec.detection or PERFECT_DETECTION
        for i, value in enumerate(values):
            seq = spec.build(value)
            raw, shots = [], []
            counts = np.zeros(len(res.outcomes))
            for shot in range(n_shots):
                rng = np.random.Generator(np.random.PCG64(shot_seed(seed, i, shot)))
                noise = sample_noise(spec.doppler_width(), spec.sigma_position_um,
                                     system.n_atoms, rng)
                compiled = compile_sequence(seq, system, noise, ideal_pulses=spec.ideal_pulses)
                rho = run_compiled(compiled, system.initial_state(), dt_max=spec.dt_max)
                p = np.clip(rho.matrix.diagonal().real, 0.0, 1.0)
                t = compiled.total_duration
                raw.append(PERFECT_DETECTION.confusion_matrix(system.level_tuples, t) @ p)
                vec = model.confusion_matrix(system.level_tuples, t) @ p
                vec /= vec.sum()
                shots.append(vec)
                if mode == "sampled":
                    counts[rng.choice(len(vec), p=vec)] += 1
            expected = counts / n_shots if mode == "sampled" else sum(shots) / n_shots
            assert np.array_equal(res.per_shot[i], np.array(shots))
            assert np.array_equal(res.probabilities[i], expected)
            assert np.array_equal(res.raw_probabilities[i], sum(raw) / n_shots)


class TestWorkerDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self):
        from rydsim.experiments import preset_info

        system = SystemModel(atom=AtomParams(), n_atoms=1)
        spec = EnsembleSpec(
            build=preset_info("ramsey").build,
            system=system,
        )
        scan = [1.0, 3.0, 5.0]
        serial = run_ensemble(spec, scan, n_shots=10, master_seed=9, mode="sampled")
        parallel = run_ensemble(
            spec, scan, n_shots=10, master_seed=9, mode="sampled", n_workers=2
        )
        np.testing.assert_array_equal(serial.probabilities, parallel.probabilities)
        np.testing.assert_array_equal(
            serial.raw_probabilities, parallel.raw_probabilities
        )

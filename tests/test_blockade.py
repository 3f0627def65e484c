import math

import numpy as np
import pytest

from rydsim.atoms import AtomParams, DetectionModel, PERFECT_DETECTION
from rydsim.blockade import (
    TWO_ATOM_BASIS,
    BellRecord,
    TwoAtomParams,
    bell_fidelity,
    blockaded_pi_unitary,
    dark_state,
    detection_corrected_fidelity,
    local_phase_unitary,
    parity_amplitude,
    w_state,
)
from rydsim.dynamics import DensityMatrix
from rydsim.units import TWO_PI


def plain_w():
    return w_state(TwoAtomParams(positions_um=(0.0, 0.0)))


def random_density_matrix(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestWState:
    def test_zero_positions(self):
        expected = np.array([0, 1, 1, 0]) / math.sqrt(2)
        np.testing.assert_allclose(plain_w(), expected, atol=1e-15)

    def test_relative_phase_pi_gives_dark_state(self):
        p = TwoAtomParams(positions_um=(0.0, math.pi / 8.757358))  # k*x2 = pi
        vec = w_state(p)
        overlap = abs(np.vdot(dark_state(), vec))
        assert abs(overlap - 1.0) < 1e-6

    def test_normalized_for_random_positions(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = TwoAtomParams(positions_um=tuple(rng.normal(0, 1, 2)))
            assert abs(np.linalg.norm(w_state(p)) - 1.0) < 1e-12


class TestCollectivePiUnitary:
    def test_matrix_elements(self):
        x = blockaded_pi_unitary()
        s = 1j / math.sqrt(2)
        assert x[0, 1] == s and x[0, 2] == s
        assert x[1, 1] == 0.5 and x[2, 2] == 0.5
        assert x[1, 2] == -0.5 and x[3, 3] == 1.0

    def test_unitary(self):
        x = blockaded_pi_unitary()
        np.testing.assert_allclose(x @ x.conj().T, np.eye(4), atol=1e-12)

    def test_maps_ground_to_w(self):
        x = blockaded_pi_unitary()
        gg = np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(x @ gg, 1j * plain_w(), atol=1e-12)

    def test_square_gives_global_minus(self):
        x = blockaded_pi_unitary()
        gg = np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(x @ (x @ gg), -gg, atol=1e-12)

    def test_dark_state_uncoupled(self):
        x = blockaded_pi_unitary()
        np.testing.assert_allclose(x @ dark_state(), dark_state(), atol=1e-12)


class TestLocalPhaseUnitary:
    def test_zero_phase_is_identity(self):
        np.testing.assert_allclose(local_phase_unitary(5.0, 0.0), np.eye(4), atol=1e-15)

    def test_phase_pi(self):
        u = local_phase_unitary(1.0, 0.5)  # 2*pi*1.0*0.5 = pi
        np.testing.assert_allclose(u, np.diag([-1, -1, 1, 1]), atol=1e-12)

    def test_unitary(self):
        u = local_phase_unitary(5.0, 0.123)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    def test_rotates_w_into_dark_state(self):
        u = local_phase_unitary(1.0, 0.5)
        rotated = u @ plain_w()
        overlap = abs(np.vdot(dark_state(), rotated))
        assert abs(overlap - 1.0) < 1e-12


class TestBellFidelity:
    def test_perfect_w(self):
        rho = DensityMatrix.from_state_vector(plain_w(), TWO_ATOM_BASIS)
        record = bell_fidelity(rho)
        assert abs(record.fidelity - 1.0) < 1e-12
        assert abs(record.diag_sum - 1.0) < 1e-12
        assert abs(record.offdiag_amp - 1.0) < 1e-12

    def test_incoherent_mixture(self):
        rho = DensityMatrix(np.diag([0, 0.5, 0.5, 0]).astype(complex), TWO_ATOM_BASIS)
        record = bell_fidelity(rho)
        assert record.fidelity == 0.5
        assert record.offdiag_amp == 0.0

    def test_measured_combination(self):
        record = BellRecord.from_measured(0.94, 0.88)
        assert abs(record.fidelity - 0.91) < 1e-12

    def test_cauchy_schwarz_guard(self):
        with pytest.raises(ValueError, match="Cauchy"):
            BellRecord.from_measured(0.5, 0.8)

    def test_works_on_nine_level_states(self):
        labels = tuple(a + b for a in ("g", "r", "r'") for b in ("g", "r", "r'"))
        m = np.zeros((9, 9), dtype=complex)
        gr, rg = labels.index("gr"), labels.index("rg")
        m[gr, gr] = m[rg, rg] = 0.5
        m[gr, rg] = m[rg, gr] = 0.45
        record = bell_fidelity(DensityMatrix(m, labels))
        assert abs(record.fidelity - 0.95) < 1e-12


class TestParityAmplitude:
    times = np.linspace(0.0, 0.4, 41)

    def test_perfect_w(self):
        rho = DensityMatrix.from_state_vector(plain_w(), TWO_ATOM_BASIS)
        alpha, theta, offset = parity_amplitude(rho, 5.0, self.times)
        assert abs(alpha - 0.5) < 1e-10
        assert abs(theta) < 1e-9
        assert abs(offset - 0.5) < 1e-10

    def test_mixture_has_zero_amplitude(self):
        rho = DensityMatrix(np.diag([0, 0.5, 0.5, 0]).astype(complex), TWO_ATOM_BASIS)
        alpha, _, _ = parity_amplitude(rho, 5.0, self.times)
        assert alpha < 1e-9

    def test_partial_coherence_contrast(self):
        alpha_true = 0.44
        m = np.diag([0, 0.5, 0.5, 0]).astype(complex)
        m[1, 2] = m[2, 1] = alpha_true
        rho = DensityMatrix(m, TWO_ATOM_BASIS)
        alpha, _, _ = parity_amplitude(rho, 5.0, self.times)
        assert abs(2 * alpha - 0.88) < 1e-9  # oscillation contrast 2*alpha

    def test_oracle_equivalence_on_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            rho = DensityMatrix(random_density_matrix(rng), TWO_ATOM_BASIS)
            alpha, theta, _ = parity_amplitude(rho, 5.0, self.times)
            direct = rho.coherence("gr", "rg")
            assert abs(alpha - abs(direct)) <= 1e-9
            if abs(direct) > 1e-6:
                phase_error = (theta - np.angle(direct) + math.pi) % TWO_PI - math.pi
                assert abs(phase_error) < 1e-6

    def test_degenerate_grid_rejected(self):
        rho = DensityMatrix.from_state_vector(plain_w(), TWO_ATOM_BASIS)
        with pytest.raises(ValueError):
            parity_amplitude(rho, 5.0, [0.0, 0.01, 0.02])
        with pytest.raises(ValueError):
            parity_amplitude(rho, 5.0, np.linspace(0, 0.04, 10))


class TestBlockadeDynamics:
    """Swap and leakage properties of the driven two-atom system."""

    @staticmethod
    def projected_two_pi_unitary(doppler=(0.0, 0.0)):
        from rydsim.pulses import (
            GlobalDrive,
            NoiseSample,
            SystemModel,
            collective_pi_time,
            compile_sequence,
            PulseSequence,
        )

        system = SystemModel(
            atom=AtomParams(), n_atoms=2,
            two_atom=TwoAtomParams(positions_um=(0.0, 0.0)),
            blockade_model="projected", scattering=False, blackbody=False,
        )
        seq = PulseSequence(
            (GlobalDrive(2 * collective_pi_time(2.0), 2.0),), n_atoms=2
        )
        compiled = compile_sequence(
            seq, system, NoiseSample(doppler, (0.0, 0.0)), ideal_pulses=True
        )
        return compiled.steps[0].unitary, system

    def test_projected_two_pi_swaps_amplitudes(self):
        u, system = self.projected_two_pi_unitary()
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / norm, b / norm
            state = np.array([0, a, b], dtype=complex)  # gg, gr, rg
            swapped = u @ state
            expected = -np.array([0, b, a], dtype=complex)
            np.testing.assert_allclose(swapped, expected, atol=1e-12)

    def test_full_model_swap_fidelity(self):
        from rydsim.pulses import (
            GlobalDrive,
            SystemModel,
            ZERO_NOISE_2,
            collective_pi_time,
            compile_sequence,
            run_compiled,
            PulseSequence,
        )

        system = SystemModel(
            atom=AtomParams(), n_atoms=2,
            two_atom=TwoAtomParams(interaction_u_mhz=30.0, positions_um=(0.0, 0.0)),
            scattering=False, blackbody=False,
        )
        a, b = 0.8, 0.6
        vec = np.zeros(9, dtype=complex)
        vec[system.basis_labels.index("gr")] = a
        vec[system.basis_labels.index("rg")] = b
        rho0 = DensityMatrix.from_state_vector(vec, system.basis_labels)
        seq = PulseSequence(
            (GlobalDrive(2 * collective_pi_time(2.0), 2.0),), n_atoms=2
        )
        rho = run_compiled(compile_sequence(seq, system, ZERO_NOISE_2), rho0)
        target = np.zeros(9, dtype=complex)
        target[system.basis_labels.index("gr")] = -b
        target[system.basis_labels.index("rg")] = -a
        fidelity = float(np.real(target.conj() @ rho.matrix @ target))
        assert 1.0 - fidelity < 5e-3

    def test_blockade_leakage_under_pi_pulse(self):
        from rydsim.dynamics import evolve
        from rydsim.pulses import (
            GlobalDrive,
            SystemModel,
            ZERO_NOISE_2,
            collective_pi_time,
            compile_sequence,
            PulseSequence,
        )

        system = SystemModel(
            atom=AtomParams(), n_atoms=2,
            two_atom=TwoAtomParams(interaction_u_mhz=30.0, positions_um=(0.0, 0.0)),
            scattering=False, blackbody=False,
        )
        seq = PulseSequence((GlobalDrive(collective_pi_time(2.0), 2.0),), n_atoms=2)
        compiled = compile_sequence(seq, system, ZERO_NOISE_2)
        traj = evolve(
            system.initial_state(), compiled.segments, compiled.steps[0].channels,
            sample_dt=0.005,
        )
        max_prr = max(dm.population("rr") for _, dm in traj)
        assert max_prr < 5e-3


class TestDetectionCorrection:
    def test_paper_point(self):
        d = DetectionModel(f_g=0.99, f_r=0.96)
        corrected = detection_corrected_fidelity(0.91, d)
        assert abs(corrected - 0.968) < 0.01
        assert abs(corrected - 0.97) <= 0.01

    def test_perfect_detection_is_identity(self):
        assert detection_corrected_fidelity(0.91, PERFECT_DETECTION) == pytest.approx(0.91, abs=1e-9)

    def test_measured_at_ceiling_gives_unity(self):
        d = DetectionModel(f_g=0.99, f_r=0.96)
        f_max = detection_corrected_fidelity(1.0, d)  # 1/F_max
        ceiling = 1.0 / f_max
        assert detection_corrected_fidelity(ceiling, d) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            detection_corrected_fidelity(1.5, PERFECT_DETECTION)


class TestTwoAtomStepConvergence:
    """The stiff step cap 0.04/||H||inf is converged for the pair presets."""

    @pytest.mark.parametrize("preset, value, tol", [
        ("blockade_rabi", 1.6, 1e-8),  # measured 5.3e-10
        ("w_echo", 60.0, 1e-7),  # measured 6.1e-8, over a 1.4e5-step hold at U = 30 MHz
    ])
    def test_halving_the_capped_step_is_converged(self, preset, value, tol):
        from rydsim.dynamics import DEFAULT_DT_MAX
        from rydsim.experiments import config_from_dict
        from rydsim.pulses import NoiseSample, compile_sequence, run_compiled

        cfg = config_from_dict({"preset": preset})  # every channel on, U = 30 MHz
        system = cfg.system()
        noise = NoiseSample((35.0, -20.0), (0.15, -0.1))
        compiled = compile_sequence(cfg.ensemble_spec().build(value), system, noise)
        caps = [
            min(DEFAULT_DT_MAX, 0.04 / np.linalg.norm(seg.hamiltonian, np.inf))
            for seg in compiled.segments
        ]
        assert max(caps) < DEFAULT_DT_MAX  # the cap, not dt_max, sets every step
        fine = min(caps) / 2
        rho0 = system.initial_state()
        p1 = run_compiled(compiled, rho0).populations()
        p2 = run_compiled(compiled, rho0, dt_max=fine).populations()
        for label in system.basis_labels:
            assert abs(p1[label] - p2[label]) < tol, label

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

from rydsim.atoms import AtomParams, effective_wavevector, rydberg_lifetime
from rydsim.blockade import TwoAtomParams
from rydsim import preset
from rydsim.dynamics import coherence, population
from rydsim.pulses import (
    GlobalDrive,
    LocalPhaseGate,
    NoiseSample,
    PulseSequence,
    SystemModel,
    Wait,
    collective_pi_time,
    compile_sequence,
    pi_time,
    run_compiled,
    zero_noise,
)


def bare_system(n_atoms=1, **kwargs):
    """System with all decay channels off, for purely coherent checks."""
    defaults = dict(scattering=False, blackbody=False)
    defaults.update(kwargs)
    if n_atoms == 2:
        defaults.setdefault("two_atom", TwoAtomParams(positions_um=(0.0, 5.7)))
    return SystemModel(atom=AtomParams(), n_atoms=n_atoms, **defaults)


class TestPulseTimings:
    def test_pi_time_at_2_mhz(self):
        assert abs(pi_time(2.0) - 0.25) < 1e-12

    def test_blockaded_pi_time(self):
        assert abs(collective_pi_time(2.0) - 0.17678) < 1e-4


class TestCompile:
    def test_total_duration_matches_sequence_exactly(self):
        seq = preset("spin_echo", gap=3.0)
        compiled = compile_sequence(seq, bare_system())
        assert compiled.total_duration == seq.total_duration

    def test_two_half_pi_pulses_equal_one_pi(self):
        seq = PulseSequence(
            (GlobalDrive(0.125, 2.0), GlobalDrive(0.125, 2.0)), n_atoms=1
        )
        system = bare_system()
        rho = run_compiled(compile_sequence(seq, system), system.initial_state())
        assert abs(rho.population("r") - 1.0) < 1e-8

    def test_phase_gate_imparts_relative_phase_pi(self):
        # 5 MHz light shift for 0.1 us -> phase 2*pi*5*0.1 = pi on g
        system = bare_system()
        prep = PulseSequence((GlobalDrive(0.125, 2.0),), n_atoms=1)  # pi/2
        rho = run_compiled(compile_sequence(prep, system), system.initial_state())
        before = coherence(rho, "g", "r")

        gate = PulseSequence(
            (GlobalDrive(0.125, 2.0), LocalPhaseGate(0.1, light_shift_mhz=5.0)),
            n_atoms=1,
        )
        rho2 = run_compiled(compile_sequence(gate, system), system.initial_state())
        after = coherence(rho2, "g", "r")
        assert abs(after + before) < 1e-7  # e^{i pi} = -1 on the g side

    def test_phase_gate_commutes_with_wait(self):
        system = bare_system()
        noise = NoiseSample((50.0,), (0.1,))  # finite Doppler draw
        prep = GlobalDrive(0.125, 2.0)
        a = PulseSequence((prep, LocalPhaseGate(0.3), Wait(1.0)), n_atoms=1)
        b = PulseSequence((prep, Wait(1.0), LocalPhaseGate(0.3)), n_atoms=1)
        rho_a = run_compiled(compile_sequence(a, system, noise), system.initial_state())
        rho_b = run_compiled(compile_sequence(b, system, noise), system.initial_state())
        np.testing.assert_allclose(rho_a.matrix, rho_b.matrix, rtol=0, atol=1e-10)

    def test_channel_gating_blue_only_during_drive(self):
        system = SystemModel(atom=AtomParams(), n_atoms=1)
        seq = PulseSequence((GlobalDrive(0.25, 2.0), Wait(1.0)), n_atoms=1)
        compiled = compile_sequence(seq, system)
        drive_step, wait_step = compiled.steps
        # blue projector channel present only while the drive is on
        assert len(drive_step.channels) == len(wait_step.channels) + 1

    def test_atom_count_mismatch(self):
        with pytest.raises(ValueError, match="atom"):
            compile_sequence(preset("blockade_rabi", drive_time=0.5), bare_system())

    def test_noise_sample_size_checked(self):
        with pytest.raises(ValueError):
            compile_sequence(preset("rabi", drive_time=0.5), bare_system(), zero_noise(2))
        with pytest.raises(ValueError):  # ideal pulses draw the Doppler-free sample from it
            compile_sequence(preset("rabi", drive_time=0.5), bare_system(), zero_noise(2),
                             ideal_pulses=True)

    def test_noise_sample_rules_hold_where_it_is_used(self):
        # NoiseSample checks nothing itself: a non-finite draw gives a non-finite H,
        # refused by evolve (a segment) or compile_sequence (an ideal pulse)
        system, seq = bare_system(), preset("ramsey", gap=0.5)
        rho0 = system.initial_state()
        for noise, ideal in [(NoiseSample((math.nan,), (0.0,)), False),
                             (NoiseSample((0.0,), (math.nan,)), True)]:
            with pytest.raises(ValueError, match="hamiltonian has non-finite entries"):
                run_compiled(compile_sequence(seq, system, noise, ideal_pulses=ideal), rho0)
        drive = PulseSequence((GlobalDrive(0.25, 2.0),), n_atoms=1)
        for noise in [NoiseSample((0.0, 0.0), (0.0,)), NoiseSample((0.0,), (0.0, 0.0))]:
            with pytest.raises(ValueError):
                compile_sequence(drive, system, noise)

    def test_projected_model_rejects_blackbody(self):
        with pytest.raises(ValueError, match="projected"):
            SystemModel(
                atom=AtomParams(), n_atoms=2, two_atom=TwoAtomParams(),
                blockade_model="projected", blackbody=True,
            )

    def test_doppler_enters_as_static_detuning(self):
        system = bare_system()
        sigma = 200.0  # krad/s -> 0.2 rad/us
        noise = NoiseSample((sigma,), (0.0,))
        seq = PulseSequence((GlobalDrive(0.0625, 2.0), Wait(5.0)), n_atoms=1)
        rho = run_compiled(compile_sequence(seq, system, noise), system.initial_state())
        phase = np.angle(coherence(rho, "g", "r"))
        rho0 = run_compiled(compile_sequence(seq, system), system.initial_state())
        phase0 = np.angle(coherence(rho0, "g", "r"))
        accumulated = (phase - phase0) % (2 * math.pi)
        wrapped = min(accumulated, 2 * math.pi - accumulated)
        assert abs(wrapped - (0.2 * 5.0)) < 1e-2

    @pytest.mark.parametrize("n_atoms", [1, 2])
    def test_drive_phase_uses_the_atoms_wavevector(self, n_atoms):
        # co-propagating beams: k = 21.16 rad/um, not the default atom's 8.757
        atom = AtomParams(counter_propagating=False)
        assert SystemModel(atom=atom, n_atoms=n_atoms).wavevector() == effective_wavevector(atom)


class TestIdealPulses:
    def test_ideal_drive_is_instantaneous_unitary(self):
        system = bare_system()
        seq = PulseSequence((GlobalDrive(0.25, 2.0),), n_atoms=1)
        compiled = compile_sequence(seq, system, ideal_pulses=True)
        assert compiled.steps[0].unitary is not None
        rho = run_compiled(compiled, system.initial_state())
        assert abs(rho.population("r") - 1.0) < 1e-12


class TestRunCompiledList:
    def test_mixed_list_equals_each_shot_alone(self):
        # step counts (rabi 1, ramsey 3, spin echo 5), kinds (ideal pulses are
        # unitaries) and channels (with and without scattering) mixed in one list
        rng = np.random.default_rng(21)
        systems = [SystemModel(atom=AtomParams()), bare_system()]
        seqs = [preset("rabi", drive_time=0.3), preset("ramsey", gap=1.5),
                preset("spin_echo", gap=2.0), preset("phase_gate_echo", gate_time=0.2)]
        shots = []
        for seq, system, ideal in [(seqs[0], 0, False), (seqs[0], 0, False), (seqs[1], 0, False),
                                   (seqs[1], 0, True), (seqs[1], 1, False), (seqs[0], 1, False),
                                   (seqs[2], 0, True), (seqs[2], 0, False), (seqs[3], 0, False),
                                   (seqs[1], 0, False), (seqs[1], 0, False)]:
            noise = NoiseSample(rng.normal(0.0, 300.0, 1), rng.normal(0.0, 0.2, 1))
            shots.append(compile_sequence(seq, systems[system], noise, ideal_pulses=ideal))
        rho0 = systems[0].initial_state()
        stacked = run_compiled(shots, rho0)
        assert stacked.shape == (len(shots), 3, 3)
        for shot, end in zip(shots, stacked):
            alone = run_compiled(shot, rho0).matrix
            assert np.array_equal(end, alone) and not alone.flags.writeable


class TestPresets:
    def test_ramsey_structure(self):
        seq = preset("ramsey", gap=2.0)
        kinds = [type(el).__name__ for el in seq.elements]
        assert kinds == ["GlobalDrive", "Wait", "GlobalDrive"]
        assert seq.elements[1].duration == 2.0
        assert abs(seq.elements[0].duration - 0.125) < 1e-12

    def test_spin_echo_structure(self):
        seq = preset("spin_echo", gap=2.0)
        durations = [el.duration for el in seq.elements]
        assert durations[1] == durations[3] == 1.0  # symmetric arms
        assert abs(seq.elements[2].duration - 0.25) < 1e-12  # central pi

    def test_w_echo_structure(self):
        seq = preset("w_echo", gap=10.0)
        assert seq.n_atoms == 2
        durations = [el.duration for el in seq.elements]
        t_pi = collective_pi_time(2.0)
        np.testing.assert_allclose(
            durations, [t_pi, 5.0, 2 * t_pi, 5.0, t_pi], atol=1e-12
        )

    def test_unknown_preset_suggests_name(self):
        with pytest.raises(ValueError, match="w_echo"):
            preset("w_ech", gap=1.0)

    def test_all_presets_build(self):
        for name, kwargs in [
            ("rabi", {"drive_time": 1.0}),
            ("t1", {"gap": 1.0}),
            ("ramsey", {"gap": 1.0}),
            ("spin_echo", {"gap": 1.0}),
            ("phase_gate_echo", {"gate_time": 0.3}),
            ("blockade_rabi", {"drive_time": 1.0}),
            ("parity_scan", {"gate_time": 0.1}),
            ("w_lifetime", {"gap": 1.0}),
            ("w_echo", {"gap": 1.0}),
        ]:
            seq = preset(name, **kwargs)
            assert seq.total_duration > 0

    def test_phase_gate_echo_balanced_arms(self):
        seq = preset("phase_gate_echo", gate_time=0.4, arm_us=1.0)
        # gate + padding in arm one equals the plain second arm
        gate, pad, arm2 = seq.elements[1], seq.elements[2], seq.elements[4]
        assert abs((gate.duration + pad.duration) - arm2.duration) < 1e-12

    def test_phase_gate_echo_rejects_oversize_gate(self):
        with pytest.raises(ValueError, match="arm"):
            preset("phase_gate_echo", gate_time=1.5, arm_us=1.0)

    def test_elements_reject_bad_durations(self):
        # compiled segments skip Segment's checks, so a duration is checked where it enters
        for make in (lambda t: GlobalDrive(t, 2.0), Wait, LocalPhaseGate):
            for duration in (-1.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="duration must be nonnegative and finite"):
                    make(duration)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            PulseSequence((), n_atoms=1)

    def test_zero_duration_sequence_rejected(self):
        with pytest.raises(ValueError):
            PulseSequence((Wait(0.0),), n_atoms=1)


class TestBlockadePhysics:
    def test_collective_oscillation_sqrt2_speedup(self):
        system = bare_system(n_atoms=2)
        seq = PulseSequence((GlobalDrive(collective_pi_time(2.0), 2.0),), n_atoms=2)
        rho = run_compiled(compile_sequence(seq, system, zero_noise(2)), system.initial_state())
        p_single = rho.population("gr") + rho.population("rg")
        assert p_single > 0.995

    def test_position_phases_cancel_between_prep_and_readout(self):
        system = bare_system(n_atoms=2)
        noise = NoiseSample((0.0, 0.0), (0.31, -0.24))
        t_pi = collective_pi_time(2.0)
        seq = PulseSequence(
            (GlobalDrive(t_pi, 2.0), GlobalDrive(t_pi, 2.0)), n_atoms=2
        )
        rho = run_compiled(compile_sequence(seq, system, noise), system.initial_state())
        # prep and readout share the same static positions, so the second pi
        # pulse fully de-excites the pair despite the random drive phases
        assert rho.population("gg") > 0.995


def _reference_level_operator(levels, atom, frm, to):
    """|to><frm| on one atom, built from the level tuples one entry at a time."""
    op = np.zeros((len(levels), len(levels)), dtype=complex)
    for i, t in enumerate(levels):
        if t[atom] == frm and t[:atom] + (to,) + t[atom + 1 :] in levels:
            op[levels.index(t[:atom] + (to,) + t[atom + 1 :]), i] = 1.0
    return op


@pytest.mark.parametrize("system", [
    SystemModel(atom=AtomParams(), n_atoms=1, gamma_laser=0.1),
    SystemModel(atom=AtomParams(), n_atoms=2, gamma_laser=0.1),
    SystemModel(atom=AtomParams(), n_atoms=2, blockade_model="projected", blackbody=False),
], ids=["one_atom", "full", "projected"])
class TestOperatorTable:
    def test_levels_and_labels(self, system):
        levels = system.level_tuples
        expected = {1: [("g",), ("r",), ("r'",)],
                    2: [(a, b) for a in ("g", "r", "r'") for b in ("g", "r", "r'")]}
        if system.blockade_model == "projected":
            expected[2] = [("g", "g"), ("g", "r"), ("r", "g")]
        assert list(levels) == expected[system.n_atoms]
        assert system.basis_labels == tuple("".join(t) for t in levels)
        assert system.dim == len(levels)

    def test_level_operators_and_projectors(self, system):
        levels = list(system.level_tuples)
        for atom in range(system.n_atoms):
            for frm in ("g", "r", "r'"):
                for to in ("g", "r", "r'"):
                    ref = _reference_level_operator(levels, atom, frm, to)
                    np.testing.assert_array_equal(system.level_operator(atom, frm, to), ref)
                np.testing.assert_array_equal(
                    system.projector(atom, frm), _reference_level_operator(levels, atom, frm, frm)
                )
        with pytest.raises(ValueError):
            system.level_operator(0, "g", "x")

    def test_double_excitation_projector(self, system):
        ref = np.diag([float(all(lvl == "r" for lvl in t)) for t in system.level_tuples])
        np.testing.assert_array_equal(system.double_excitation_projector(), ref)

    def test_channels(self, system):
        levels = list(system.level_tuples)
        atom = system.atom

        def ref_channels(drive_on):
            ops = []
            for a in range(system.n_atoms):
                if system.scattering:
                    if drive_on:
                        ops.append(math.sqrt(atom.gamma_blue_scatter)
                                   * _reference_level_operator(levels, a, "g", "g"))
                    ops.append(math.sqrt(atom.gamma_red_scatter)
                               * _reference_level_operator(levels, a, "r", "g"))
                if system.blackbody:
                    ops.append(math.sqrt(1.0 / rydberg_lifetime(atom))
                               * _reference_level_operator(levels, a, "r", "r'"))
            if system.gamma_laser > 0:
                collective = sum(_reference_level_operator(levels, a, "r", "r")
                                 for a in range(system.n_atoms))
                ops.append(math.sqrt(2.0 * system.gamma_laser) * collective)
            return ops

        for drive_on in (True, False):
            got = [ch.operator for ch in system.channels(drive_on)]
            ref = ref_channels(drive_on)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                np.testing.assert_array_equal(g, r)
        assert system.channels(True) is system.channels(True)

    def test_equal_models_share_read_only_level_operators(self, system):
        twin = dataclasses.replace(system)
        assert twin is not system and twin == system
        for atom in range(system.n_atoms):
            for frm, to in itertools.product(("g", "r", "r'"), repeat=2):
                op = system.level_operator(atom, frm, to)
                assert twin.level_operator(atom, frm, to) is op
                assert not op.flags.writeable
        double = system.double_excitation_projector()
        assert twin.double_excitation_projector() is double
        assert not double.flags.writeable

    def test_unpickled_model_builds_equal_hamiltonians_and_channels(self, system):
        # a fresh copy carries nothing it built, so the unpickled model rebuilds all
        twin = pickle.loads(pickle.dumps(dataclasses.replace(system)))
        noise = NoiseSample((37.0, -12.5)[: system.n_atoms], (0.08, -0.03)[: system.n_atoms])
        for element in (
            GlobalDrive(0.3, 2.0, detuning_mhz=0.4, phase=1.1),
            Wait(0.5),
            LocalPhaseGate(0.2, target_atom=system.n_atoms - 1, crosstalk_fraction=0.1),
        ):
            assert np.array_equal(twin.hamiltonian(element, noise),
                                  system.hamiltonian(element, noise))
        for drive_on in (True, False):
            got, ref = twin.channels(drive_on), system.channels(drive_on)
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert np.array_equal(g.operator, r.operator)

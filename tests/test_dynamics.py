import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rydsim import dynamics
from rydsim.dynamics import (
    DensityMatrix,
    LindbladChannel,
    Segment,
    apply_unitary,
    coherence,
    evolve,
    hermiticity_defect,
    liouvillian,
    population,
    tensor,
)
from rydsim.units import TWO_PI

SRC = Path(__file__).resolve().parent.parent / "src"
GR_BASIS = ("g", "r")
ATOM_BASIS = ("g", "r", "r'")
PAIR_BASIS = ("gg", "gr", "rg", "rr")

SX = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def drive_hamiltonian(rabi_mhz, dim=3):
    omega = TWO_PI * rabi_mhz
    h = np.zeros((dim, dim), dtype=complex)
    h[0, 1] = h[1, 0] = omega / 2
    return h


def w_vector():
    return np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)


class TestTensor:
    def test_identity(self):
        np.testing.assert_array_equal(tensor(I2, I2), np.eye(4))

    def test_projector_bookkeeping(self):
        # |r><r| on atom 1: eigenvalue 1 for rg, 0 for gr
        proj = tensor(np.diag([0.0, 1.0]), I2)
        rg = PAIR_BASIS.index("rg")
        gr = PAIR_BASIS.index("gr")
        assert proj[rg, rg] == 1.0
        assert proj[gr, gr] == 0.0

    def test_sigma_x_square_against_direct_product(self):
        sxx = tensor(SX, SX)
        direct = sxx @ sxx  # 4x4 multiplication oracle
        np.testing.assert_allclose(direct, np.eye(4), atol=1e-15)
        np.testing.assert_allclose(sxx @ sxx, direct, atol=0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            tensor(np.ones((2, 3)), I2)


class TestEvolve:
    def test_pi_pulse_inverts_population(self):
        rho0 = DensityMatrix.pure("g", ATOM_BASIS)
        h = drive_hamiltonian(2.0)
        traj = evolve(rho0, [Segment(h, 0.25)])
        assert abs(traj[-1][1].population("r") - 1.0) < 1e-6

    def test_exponential_decay(self):
        rho0 = DensityMatrix.pure("r", ATOM_BASIS)
        jump = np.zeros((3, 3), dtype=complex)
        jump[2, 1] = 1.0  # r -> r'
        ch = LindbladChannel.from_rate(1.0 / 146.0, jump)
        traj = evolve(rho0, [Segment(np.zeros((3, 3), complex), 146.0)], [ch])
        assert abs(traj[-1][1].population("r") - math.exp(-1)) < 1e-4

    def test_pure_dephasing_coherence(self):
        gamma = 0.08
        t = 12.0
        rho0 = DensityMatrix.from_state_vector(np.array([1, 1]) / math.sqrt(2), GR_BASIS)
        ch = LindbladChannel.from_rate(gamma, np.diag([0.0, 1.0]).astype(complex))
        traj = evolve(rho0, [Segment(np.zeros((2, 2), complex), t)], [ch])
        expected = 0.5 * math.exp(-gamma * t / 2)
        assert abs(abs(coherence(traj[-1][1], "g", "r")) - expected) < 1e-6

    def test_trajectory_includes_boundaries(self):
        rho0 = DensityMatrix.pure("g", GR_BASIS)
        h = np.zeros((2, 2), complex)
        traj = evolve(rho0, [Segment(h, 1.0), Segment(h, 2.5)])
        times = [t for t, _ in traj]
        np.testing.assert_allclose(times, [0.0, 1.0, 3.5])

    def test_sample_dt_produces_interior_points(self):
        rho0 = DensityMatrix.pure("g", GR_BASIS)
        traj = evolve(rho0, [Segment(drive_hamiltonian(2.0, 2), 1.0)], sample_dt=0.25)
        assert len(traj) >= 5

    @pytest.mark.parametrize("sample_dt", [None, 0.25])
    def test_zero_duration_segment_repeats_the_boundary(self, sample_dt):
        rho0 = DensityMatrix.pure("g", GR_BASIS)
        h = drive_hamiltonian(2.0, 2)
        traj = evolve(rho0, [Segment(h, 1.0), Segment(h, 0.0), Segment(h, 0.5)],
                      sample_dt=sample_dt)
        times = [t for t, _ in traj]
        i = times.index(1.0)
        assert times[i + 1] == 1.0 and times[-1] == 1.5
        assert traj[i + 1][1] is traj[i][1]

    def test_dimension_mismatch_raises(self):
        rho0 = DensityMatrix.pure("g", GR_BASIS)
        with pytest.raises(ValueError):
            evolve(rho0, [Segment(np.zeros((3, 3), complex), 1.0)])

    def test_non_hermitian_hamiltonian_raises(self):
        h = np.zeros((2, 2), complex)
        h[0, 1] = 1.0  # no conjugate partner
        with pytest.raises(ValueError):
            Segment(h, 1.0)

    def test_bad_dt_raises(self):
        rho0 = DensityMatrix.pure("g", GR_BASIS)
        with pytest.raises(ValueError):
            evolve(rho0, [Segment(np.zeros((2, 2), complex), 1.0)], dt_max=0.0)


class TestEvolveInvariants:
    def setup_method(self):
        self.h = drive_hamiltonian(2.0)
        jump = np.zeros((3, 3), complex)
        jump[0, 1] = 1.0
        self.channels = [
            LindbladChannel.from_rate(1 / 80.0, jump),
            LindbladChannel.from_rate(1 / 40.0, np.diag([1.0, 0, 0]).astype(complex)),
        ]
        self.rho0 = DensityMatrix.pure("g", ATOM_BASIS)

    def test_trace_drift_bound(self):
        dt = 1e-3
        traj = evolve(self.rho0, [Segment(self.h, 10.0)], self.channels, dt_max=dt)
        for t, dm in traj:
            drift = abs(float(np.real(np.trace(dm.matrix))) - 1.0)
            assert drift < 1e-9 * (t / dt + 1)

    def test_hermiticity_and_positivity(self):
        traj = evolve(
            self.rho0, [Segment(self.h, 8.0)], self.channels, sample_dt=1.0
        )
        for _, dm in traj:
            assert hermiticity_defect(dm.matrix) <= 1e-10
            assert dm.min_eigenvalue() >= -1e-8

    def test_halving_dt_is_converged(self):
        # drive for the default scan horizon of the Rabi preset
        seg = [Segment(self.h, 12.0)]
        p1 = evolve(self.rho0, seg, self.channels, dt_max=1e-3)[-1][1]
        p2 = evolve(self.rho0, seg, self.channels, dt_max=5e-4)[-1][1]
        for label in ATOM_BASIS:
            assert abs(p1.population(label) - p2.population(label)) < 1e-8

    def test_matches_matrix_exponential_without_channels(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = (a + a.conj().T) / 2
            vec = rng.normal(size=3) + 1j * rng.normal(size=3)
            rho0 = DensityMatrix.from_state_vector(vec, ATOM_BASIS)
            t = 1.3
            final = evolve(rho0, [Segment(h, t)])[-1][1].matrix
            w, v = np.linalg.eigh(h)
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            np.testing.assert_allclose(final, u @ rho0.matrix @ u.conj().T, atol=1e-8)


real_block = dynamics._real_block


def full_space(pattern, operators, support):
    """``_real_block`` closed from an all-true support: every vec(rho) entry."""
    return real_block(pattern, operators, b"\x01" * len(support))


def operator_bytes(channels):
    """The jump operators' key of ``_real_block``, as ``_step_maps`` builds it."""
    return b"".join(ch.operator.tobytes() for ch in channels)


def compiled_shot(preset, value, **config):
    """One shot of a preset with every channel on and a nonzero noise draw."""
    from rydsim.experiments import config_from_dict
    from rydsim.pulses import NoiseSample, compile_sequence

    cfg = config_from_dict({"preset": preset, **config})
    system = cfg.system()
    n = system.n_atoms
    noise = NoiseSample((35.0, -20.0)[:n], (0.15, -0.1)[:n])
    return system, compile_sequence(cfg.ensemble_spec().build(value), system, noise)


class TestInvariantSubspace:
    @staticmethod
    def trajectory(system, compiled, sample_dt):
        rho = system.initial_state()
        states = []
        for step in compiled.steps:
            if step.unitary is not None:
                rho = apply_unitary(rho, step.unitary)
                continue
            traj = evolve(rho, [step.segment], step.channels, sample_dt=sample_dt)
            states += [dm.matrix for _, dm in traj[1:]]
            rho = traj[-1][1]
        return np.array(states)

    @pytest.mark.parametrize("sample_dt", [None, 0.05])
    @pytest.mark.parametrize("preset, value", [
        ("spin_echo", 6.0), ("w_echo", 4.0), ("parity_scan", 0.2),
    ])
    def test_matches_full_space_propagation(self, monkeypatch, preset, value, sample_dt):
        system, compiled = compiled_shot(preset, value, noise={"gamma_laser": 0.1})
        restricted = self.trajectory(system, compiled, sample_dt)
        monkeypatch.setattr(dynamics, "_real_block", full_space)
        full = self.trajectory(system, compiled, sample_dt)
        assert restricted.shape == full.shape
        assert len(full) > len(compiled.segments) or sample_dt is None
        assert np.abs(restricted - full).max() <= 1e-12

    @pytest.mark.parametrize("preset, config, kept, total", [
        ("spin_echo", {}, 5, 9),
        ("w_echo", {}, 25, 81),
        ("w_echo", {"blockade_model": "projected"}, 9, 9),
    ])
    def test_subspace_size(self, preset, config, kept, total):
        system, compiled = compiled_shot(preset, 4.0, noise={"gamma_laser": 0.1}, **config)
        rho = system.initial_state()
        sizes = set()
        for step in compiled.steps:
            h, vec = step.segment.hamiltonian, rho.matrix.reshape(-1)
            _, read, _, _ = real_block((h != 0).tobytes(), operator_bytes(step.channels),
                                       (vec != 0).tobytes())
            sizes.add((len(read), vec.size))
            rho = evolve(rho, [step.segment], step.channels)[-1][1]
        assert sizes == {(kept, total)}


def complex_full_space(system, compiled, sample_dt):
    """The same states from the complex full-space RK4 map, powered by
    ``matrix_power``: the reference for the real-coordinate propagation."""
    vec = system.initial_state().matrix.reshape(-1)
    states = []
    for step in compiled.steps:
        seg, channels = step.segment, tuple(step.channels)
        d_norm = np.linalg.norm(liouvillian(np.zeros_like(seg.hamiltonian), channels), np.inf)
        rate = max(np.linalg.norm(seg.hamiltonian, np.inf), d_norm)
        n_steps = math.ceil(seg.duration / min(dynamics.DEFAULT_DT_MAX, dynamics.STEP_NORM_PRODUCT / rate))
        h = seg.duration / n_steps
        r = dynamics.rk4_map(liouvillian(seg.hamiltonian, channels), h)
        chunk = n_steps if sample_dt is None else max(1, round(sample_dt / h))
        done = 0
        while done < n_steps:
            k = min(chunk, n_steps - done)
            vec = np.linalg.matrix_power(r, k) @ vec
            done += k
            states.append(vec.reshape(system.dim, system.dim))
    return np.array(states)


class TestRealCoordinates:
    @pytest.mark.parametrize("sample_dt", [None, 0.05])
    @pytest.mark.parametrize("preset, value", [
        ("spin_echo", 6.0), ("w_echo", 4.0), ("parity_scan", 0.2),
    ])
    def test_matches_complex_full_space(self, preset, value, sample_dt):
        system, compiled = compiled_shot(preset, value, noise={"gamma_laser": 0.1})
        real = TestInvariantSubspace.trajectory(system, compiled, sample_dt)
        reference = complex_full_space(system, compiled, sample_dt)
        assert real.shape == reference.shape
        assert np.abs(real - reference).max() <= 1e-12

    def test_generator_is_real_and_states_hermitian(self):
        system, compiled = compiled_shot("w_echo", 4.0, noise={"gamma_laser": 0.1})
        step = compiled.steps[0]
        h, channels = step.segment.hamiltonian, step.channels
        m = liouvillian(h, channels)
        vec = system.initial_state().matrix.reshape(-1)
        gather, read, generator, _ = real_block((h != 0).tobytes(), operator_bytes(channels),
                                                (vec != 0).tobytes())
        k = len(read)
        # Havel's basis: E_b is 1 (Re) or i (Im) where read puts b, Hermitian
        upper = np.zeros((k, 2 * vec.size))
        upper[np.arange(k), read] = 1
        upper = upper.view(complex).reshape(k, 9, 9)
        basis = upper + np.triu(upper, 1).conj().transpose(0, 2, 1)

        def state(x):
            return x @ basis.reshape(k, -1)

        gen = generator(h[None])[0]
        assert gen.dtype == np.float64 and gen.shape == (k, k)
        # the gather from H rounds like the commutator it replaces
        g_d = generator(np.zeros((1, 9, 9), dtype=complex))[0]
        commutator = (-1j * (h @ basis - basis @ h)).reshape(k, -1).view(np.float64)[:, read].T
        np.testing.assert_array_equal(gen, commutator + g_d)
        x = vec.view(np.float64)[read]
        # one Euler step in real coordinates is M vec read in real coordinates
        np.testing.assert_allclose(state(gen @ x), m @ vec, atol=1e-14)
        rho = state(np.arange(k, dtype=float)).reshape(9, 9)
        np.testing.assert_array_equal(rho, rho.conj().T)
        # the gather builds sum_b x_b E_b bit for bit, the signs of its zeros included
        x = np.stack([x, dynamics.rk4_map(gen, 1e-3) @ x, np.where(x == 0, -0.0, x)])
        exact = np.einsum("mb,bs->ms", x, basis.reshape(k, -1)).reshape(-1, 9, 9)
        assert dynamics._states(x[..., None], gather, "").tobytes() == exact.tobytes()

    def test_unpickled_spec_hits_the_block_cache(self):
        # a pool task gets its spec pickled, so its channels are new objects
        import pickle

        from rydsim.experiments import config_from_dict
        from rydsim.montecarlo import _run_block

        cfg = config_from_dict({"preset": "blockade_rabi"})
        # a block task of scan points 1 and 2, 2 shots each
        spec, values = cfg.ensemble_spec(), cfg.scan_values()[1:3].tolist()
        first = _run_block(spec, values, 1, 2, "expectation", 0)
        misses = real_block.cache_info().misses
        spec = pickle.loads(pickle.dumps(spec))
        second = _run_block(spec, values, 1, 2, "expectation", 0)
        assert real_block.cache_info().misses == misses
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestStateAccessors:
    def test_population_examples(self):
        assert population(DensityMatrix.pure("g", GR_BASIS), "g") == 1.0
        w = DensityMatrix.from_state_vector(w_vector(), PAIR_BASIS)
        assert abs(population(w, "gr") - 0.5) < 1e-12
        mixed = DensityMatrix(np.eye(4) / 4, PAIR_BASIS)
        assert abs(population(mixed, "rr") - 0.25) < 1e-12

    def test_trace_check_enforces_trace_tol(self):
        assert dynamics.TRACE_TOL == 1e-6
        DensityMatrix(np.diag([1.0 + 0.5 * dynamics.TRACE_TOL, 0.0]), GR_BASIS)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([1.0 + 2.0 * dynamics.TRACE_TOL, 0.0]), GR_BASIS)

    def test_population_unknown_label(self):
        with pytest.raises(ValueError, match="unknown basis label"):
            population(DensityMatrix.pure("g", GR_BASIS), "x")

    def test_coherence_examples(self):
        w = DensityMatrix.from_state_vector(w_vector(), PAIR_BASIS)
        assert abs(coherence(w, "gr", "rg") - 0.5) < 1e-12

        mixture = DensityMatrix(np.diag([0, 0.5, 0.5, 0]).astype(complex), PAIR_BASIS)
        assert coherence(mixture, "gr", "rg") == 0

    def test_coherence_phase_shifted_state(self):
        # mixed single-excitation state with coherence alpha * e^{i phi}
        alpha, phi = 0.5, math.pi
        m = np.diag([0, 0.5, 0.5, 0]).astype(complex)
        m[1, 2] = alpha * np.exp(1j * phi)
        m[2, 1] = np.conj(m[1, 2])
        rho = DensityMatrix(m, PAIR_BASIS)
        assert abs(coherence(rho, "gr", "rg") - (-0.5)) < 1e-12

    def test_coherence_requires_distinct_labels(self):
        w = DensityMatrix.from_state_vector(w_vector(), PAIR_BASIS)
        with pytest.raises(ValueError):
            coherence(w, "gr", "gr")

    def test_apply_unitary(self):
        rho = DensityMatrix.pure("g", GR_BASIS)
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        assert apply_unitary(rho, u).population("r") == 1.0


class TestNonFiniteArguments:
    """NaN, infinite and non-positive arguments fail where they enter, naming the argument."""

    def test_segment_rejects_nan_hamiltonian(self):
        with pytest.raises(ValueError, match="hamiltonian has non-finite entries"):
            Segment(np.full((2, 2), np.nan), 1.0)
        with pytest.raises(ValueError, match="duration must be nonnegative and finite, got inf"):
            Segment(np.zeros((2, 2)), math.inf)

    def test_evolve_checks_unchecked_segments(self):
        # compile_sequence builds its segments without Segment's checks, so
        # evolve checks each call's Hamiltonians, on the stack path and the trajectory path
        rho0 = DensityMatrix.pure("g", GR_BASIS)
        good = Segment(drive_hamiltonian(2.0, 2), 0.01)
        for h, match in [(np.full((2, 2), np.nan), "hamiltonian has non-finite entries"),
                         (np.array([[0, 1], [0, 0]], dtype=complex), "not Hermitian")]:
            bad = dynamics._trusted(Segment, h, 0.01)
            with pytest.raises(ValueError, match=match):
                evolve(np.repeat(rho0.matrix[None], 2, axis=0), [good, bad])
            with pytest.raises(ValueError, match=match):
                evolve(rho0, [good, bad])

    def test_density_matrix_rejects_nan(self):
        with pytest.raises(ValueError, match="density matrix has non-finite entries"):
            DensityMatrix(np.full((2, 2), np.nan), GR_BASIS)

    def test_channel_rejects_nan_rate(self):
        for rate in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"rate must be nonnegative and finite, got {rate}"):
                LindbladChannel.from_rate(rate, np.diag([1.0, 0.0]))

    def test_evolve_rejects_bad_sample_dt(self):
        rho0 = DensityMatrix.pure("g", GR_BASIS)
        for sample_dt in (-1.0, math.inf):
            with pytest.raises(ValueError, match=f"sample_dt must be positive and finite, got {sample_dt}"):
                evolve(rho0, [Segment(drive_hamiltonian(2.0, 2), 0.01)], sample_dt=sample_dt)
        # a stack of states returns only end states, so it has nothing to sample
        with pytest.raises(ValueError, match="sample_dt needs a single DensityMatrix"):
            evolve(rho0.matrix[None], [Segment(drive_hamiltonian(2.0, 2), 0.01)], sample_dt=0.005)

    def test_evolve_rejects_nan_dt_max(self):
        rho0 = DensityMatrix.pure("g", GR_BASIS)
        with pytest.raises(ValueError, match="dt_max must be positive, got nan"):
            evolve(rho0, [Segment(drive_hamiltonian(2.0, 2), 0.01)], dt_max=math.nan)

    def test_huge_rate_raises_instead_of_hanging(self):
        # ceil(duration / step) past 2**63 once wrapped to a negative step count,
        # and the binary powering never ended: run it in a child with a timeout,
        # so that a regression fails here instead of hanging the suite
        code = (
            "from rydsim.dynamics import DensityMatrix, Segment, evolve\n"
            "rho = DensityMatrix.pure('g', ('g', 'r'))\n"
            "seg = Segment([[0, 1e300], [1e300, 0]], 1.0)\n"
            "for start in (rho, rho.matrix[None]):  # a trajectory, then a stack\n"
            "    try:\n"
            "        evolve(start, [seg])\n"
            "    except FloatingPointError as exc:\n"
            "        print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout.splitlines()
        assert out == ["a segment needs 2.5e+301 RK4 steps; its rate 1e+300/us is too large "
                       "to integrate"] * 2


class TestMatrixHelpers:
    def test_density_matrix_rejects_bad_input(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(3), ("a", "b"))  # label count mismatch
        with pytest.raises(ValueError):
            DensityMatrix(2 * np.eye(2), ("a", "b"))  # trace 4
        m = np.array([[0.5, 0.5], [0.2, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(m, ("a", "b"))  # not Hermitian

    def test_density_matrix_is_immutable(self):
        dm = DensityMatrix.pure("g", GR_BASIS)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 0.0

"""Property test: ``evolve`` against the complex full-space RK4 reference.

Random Hermitian Hamiltonians with random zero patterns, random subsets of
a SystemModel's channels plus one jump operator whose L^dag L is not
diagonal, and random sparse initial states. The reference is
``test_dynamics.complex_full_space``: the full d^2 x d^2 ``liouvillian``,
its RK4 map and ``matrix_power``. Runs derandomized with a capped example
count; needs the test-only dependency ``hypothesis``.

The same cases also check that ``sample_dt`` leaves every segment's end
state bit for bit as it is without sampling and in a stack of one.
"""

from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rydsim.atoms import AtomParams  # noqa: E402
from rydsim.dynamics import TRACE_TOL, DensityMatrix, LindbladChannel, Segment, evolve  # noqa: E402
from rydsim.pulses import SystemModel  # noqa: E402
import test_dynamics  # noqa: E402

SYSTEMS = {
    3: SystemModel(atom=AtomParams(), n_atoms=1, gamma_laser=0.1),
    9: SystemModel(atom=AtomParams(), n_atoms=2, gamma_laser=0.1),
}

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def cases(draw):
    dim = draw(st.sampled_from(sorted(SYSTEMS)))
    system = SYSTEMS[dim]
    channels = system.channels(drive_on=True)
    kept = draw(st.sets(st.integers(0, len(channels) - 1)))
    a, b, c = draw(st.permutations(range(dim)))[:3]
    jump = np.zeros((dim, dim))
    jump[a, b] = jump[a, c] = 1.0  # L^dag L couples b and c
    extra = LindbladChannel.from_rate(draw(st.floats(0.05, 5.0, **finite)), jump)
    channels = tuple(channels[i] for i in sorted(kept)) + (extra,)

    def hamiltonian():
        mask = draw(st.lists(st.booleans(), min_size=dim * dim, max_size=dim * dim))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        upper = np.triu(np.reshape(mask, (dim, dim)))
        h = upper * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        h = h + h.conj().T
        h[0, 0] += 0.5  # never all zero
        return draw(st.floats(1.0, 100.0, **finite)) * h / np.abs(h).sum(axis=1).max()

    durations = st.floats(0.01, 0.3, **finite)
    segments = [Segment(hamiltonian(), draw(durations)) for _ in range(draw(st.integers(1, 3)))]
    support = draw(st.lists(st.booleans(), min_size=dim, max_size=dim).filter(any))
    psi = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=dim) * support
    rho0 = DensityMatrix.from_state_vector(psi, system.basis_labels)
    sample_dt = draw(st.sampled_from([None, 0.05]))
    return rho0, segments, channels, sample_dt


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(cases())
def test_evolve_matches_complex_full_space(case):
    rho0, segments, channels, sample_dt = case
    steps = [SimpleNamespace(segment=s, channels=channels, unitary=None) for s in segments]
    system = SimpleNamespace(dim=rho0.dim, initial_state=lambda: rho0)
    compiled = SimpleNamespace(steps=steps)
    states = test_dynamics.TestInvariantSubspace.trajectory(system, compiled, sample_dt)
    reference = test_dynamics.complex_full_space(system, compiled, sample_dt)
    assert states.shape == reference.shape
    assert np.abs(states - reference).max() <= 1e-12
    for m in states:
        np.testing.assert_array_equal(m, m.conj().T)
        assert abs(m.trace().real - 1.0) <= TRACE_TOL
        assert np.linalg.eigvalsh(m)[0] >= -1e-6


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(cases())
def test_sampling_leaves_segment_ends_unchanged(case):
    rho0, segments, channels, _ = case
    unsampled = evolve(rho0, segments, channels)
    # the last sample at each boundary time, which is the segment's end
    sampled = dict(evolve(rho0, segments, channels, sample_dt=0.05))
    for seg, (_, start), (t, end) in zip(segments, unsampled, unsampled[1:]):
        np.testing.assert_array_equal(sampled[t].matrix, end.matrix)
        stacked = evolve(start.matrix[None], [seg], channels)[0]
        np.testing.assert_array_equal(stacked, end.matrix)

"""Property test: SystemModel.hamiltonian against a term-by-term reference.

The reference builds every operator one entry at a time from the level
tuples (``test_pulses._reference_level_operator``) and writes each term of
the element Hamiltonian out in full. Runs derandomized with a capped
example count; needs the test-only dependency ``hypothesis``.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rydsim.atoms import AtomParams  # noqa: E402
from rydsim.pulses import (  # noqa: E402
    GlobalDrive, LocalPhaseGate, NoiseSample, PulseSequence, SystemModel, Wait, compile_sequence,
)
from test_pulses import _reference_level_operator  # noqa: E402

SYSTEMS = {
    "one_atom": SystemModel(atom=AtomParams(), n_atoms=1),
    "full": SystemModel(atom=AtomParams(), n_atoms=2),
    "projected": SystemModel(atom=AtomParams(), n_atoms=2, blockade_model="projected",
                             blackbody=False),
}


def reference_hamiltonian(system, element, noise):
    levels = list(system.level_tuples)

    def op(atom, frm, to):
        return _reference_level_operator(levels, atom, frm, to)

    n = system.n_atoms
    detuning = element.detuning_mhz if isinstance(element, GlobalDrive) else 0.0
    h = np.zeros((len(levels), len(levels)), dtype=complex)
    for a in range(n):
        h -= (1e-3 * noise.doppler_krad_s[a] + 2 * math.pi * detuning) * op(a, "r", "r")
    if n == 2:
        u = 2 * math.pi * system.two_atom.interaction_u_mhz
        h += u * op(0, "r", "r") @ op(1, "r", "r")
    if isinstance(element, GlobalDrive):
        for a in range(n):
            x = system.nominal_positions()[a] + noise.position_um[a]
            coupling = math.pi * element.rabi_mhz * np.exp(
                1j * (system.wavevector() * x + element.phase))
            raising = op(a, "g", "r")
            h += coupling * raising + np.conj(coupling) * raising.T
    elif isinstance(element, LocalPhaseGate):
        shift = 2 * math.pi * element.light_shift_mhz
        h -= shift * op(element.target_atom, "g", "g")
        if n == 2:
            h -= element.crosstalk_fraction * shift * op(1 - element.target_atom, "g", "g")
    return h


finite = dict(allow_nan=False, allow_infinity=False)
durations = st.floats(0.0, 2.0, **finite)


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    system = SYSTEMS[name]
    n = system.n_atoms
    element = draw(st.one_of(
        st.builds(GlobalDrive, durations, st.floats(0.1, 5.0, **finite),
                  st.floats(-5.0, 5.0, **finite), st.floats(-7.0, 7.0, **finite)),
        st.builds(Wait, durations),
        st.builds(LocalPhaseGate, durations, st.integers(0, n - 1),
                  st.floats(-10.0, 10.0, **finite), st.floats(0.0, 0.99, **finite)),
    ))
    per_atom = st.lists(st.floats(-1.0, 1.0, **finite), min_size=n, max_size=n)
    noise = NoiseSample([500.0 * v for v in draw(per_atom)], draw(per_atom))
    return system, element, noise


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(cases())
def test_element_hamiltonian_matches_reference(case):
    system, element, noise = case
    h = system.hamiltonian(element, noise)
    np.testing.assert_allclose(h, reference_hamiltonian(system, element, noise),
                               rtol=0, atol=1e-12)

    if isinstance(element, GlobalDrive) and element.duration > 0:
        # an ideal pulse is exp(-i H t) of the Doppler-free H
        seq = PulseSequence((element,), n_atoms=system.n_atoms)
        (step,) = compile_sequence(seq, system, noise, ideal_pulses=True).steps
        doppler_free = NoiseSample((0.0,) * system.n_atoms, noise.position_um)
        w, v = np.linalg.eigh(reference_hamiltonian(system, element, doppler_free))
        expected = (v * np.exp(-1j * w * element.duration)) @ v.conj().T
        np.testing.assert_allclose(step.unitary, expected, rtol=0, atol=1e-10)

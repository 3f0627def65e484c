"""Declarative pulse sequences and their compilation to dynamics segments.

A sequence is an ordered list of timed elements:

* ``GlobalDrive``: the two-photon drive on all atoms, with Rabi frequency,
  two-photon detuning and phase.
* ``Wait``: free evolution (detunings and interaction only).
* ``LocalPhaseGate``: an off-resonant beam focused on one atom that light
  shifts its ground state, accumulating phase on g relative to r.

``compile_sequence`` turns a sequence plus a physical system description
and one Monte Carlo noise draw into piecewise-constant Hamiltonian
segments with per-segment Lindblad channels. The red laser stays on for
the whole sequence while the blue laser is pulsed, so red scattering and
blackbody loss run during every element and blue scattering only during
drive elements.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .atoms import (SINGLE_ATOM_LEVELS, AtomParams, _product_index, effective_wavevector,
                    rydberg_lifetime)
from .blockade import TwoAtomParams
from .dynamics import DEFAULT_DT_MAX, DensityMatrix, LindbladChannel, Segment, _kron, _trusted
from .units import TWO_PI, krad_s_to_angular, mhz_to_angular

__all__ = [
    "GlobalDrive",
    "Wait",
    "LocalPhaseGate",
    "PulseSequence",
    "NoiseSample",
    "SystemModel",
    "CompiledStep",
    "CompiledSequence",
    "compile_sequence",
    "run_compiled",
    "pi_time",
    "collective_pi_time",
]


@dataclass(frozen=True)
class GlobalDrive:
    duration: float  # us
    rabi_mhz: float
    detuning_mhz: float = 0.0  # two-photon detuning
    phase: float = 0.0  # rad, common drive phase

    def __post_init__(self):
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"duration must be nonnegative and finite, got {self.duration}")
        if self.rabi_mhz <= 0:
            raise ValueError(f"drive needs a positive Rabi frequency, got {self.rabi_mhz}")


@dataclass(frozen=True)
class Wait:
    duration: float

    def __post_init__(self):
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"duration must be nonnegative and finite, got {self.duration}")


@dataclass(frozen=True)
class LocalPhaseGate:
    duration: float
    target_atom: int = 0
    light_shift_mhz: float = 5.0
    crosstalk_fraction: float = 0.0

    def __post_init__(self):
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"duration must be nonnegative and finite, got {self.duration}")
        if not 0 <= self.crosstalk_fraction < 1:
            raise ValueError(f"crosstalk fraction {self.crosstalk_fraction} outside [0, 1)")


@dataclass(frozen=True)
class PulseSequence:
    elements: tuple
    n_atoms: int

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("empty pulse sequence")
        if self.n_atoms not in (1, 2):
            raise ValueError(f"n_atoms must be 1 or 2, got {self.n_atoms}")
        if self.total_duration <= 0:
            raise ValueError("sequence must have a positive total duration")
        for el in self.elements:
            if isinstance(el, LocalPhaseGate) and not 0 <= el.target_atom < self.n_atoms:
                raise ValueError(
                    f"phase-gate target {el.target_atom} invalid for {self.n_atoms} atom(s)"
                )

    @property
    def total_duration(self) -> float:
        return sum(el.duration for el in self.elements)


@dataclass(frozen=True)
class NoiseSample:
    """One Monte Carlo draw: per-atom Doppler detuning and position offset.

    Doppler detunings are in krad/s (static within a shot); positions are
    offsets in um from the nominal array positions.
    """

    doppler_krad_s: tuple[float, ...]
    position_um: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "doppler_krad_s", tuple(map(float, self.doppler_krad_s)))
        object.__setattr__(self, "position_um", tuple(map(float, self.position_um)))
        if len(self.doppler_krad_s) != len(self.position_um):
            raise ValueError("doppler and position lengths differ")
        values = self.doppler_krad_s + self.position_um
        if not all(math.isfinite(v) for v in values):
            raise ValueError("non-finite noise sample")


def zero_noise(n_atoms: int) -> NoiseSample:
    return NoiseSample((0.0,) * n_atoms, (0.0,) * n_atoms)


@dataclass(frozen=True)
class SystemModel:
    """Physical system a sequence is compiled against.

    ``blockade_model`` selects the two-atom level set: "full" keeps all
    product states of (g, r, r'); "projected" removes the doubly excited
    state entirely (blockade taken as infinite), leaving (gg, gr, rg) with
    no blackbody channel.

    Every operator is a single-atom 3x3 operator placed on the product
    basis by a Kronecker product (the first atom is the left factor) and
    restricted to the kept states. These depend only on ``n_atoms`` and
    ``blockade_model``, so equal models share one read-only copy; the
    Hamiltonian terms and the jump operators are built once per instance.
    """

    atom: AtomParams
    n_atoms: int = 1
    two_atom: TwoAtomParams | None = None
    blockade_model: str = "full"
    scattering: bool = True  # blue (drive-gated) and red (always-on) channels
    blackbody: bool = True
    gamma_laser: float = 0.0  # 1/us, added dephasing rate of each g-r coherence

    def __post_init__(self):
        if self.n_atoms not in (1, 2):
            raise ValueError(f"n_atoms must be 1 or 2, got {self.n_atoms}")
        if self.blockade_model not in ("full", "projected"):
            raise ValueError(f"unknown blockade model {self.blockade_model!r}")
        if self.blockade_model == "projected" and self.n_atoms != 2:
            raise ValueError(f"the projected blockade model needs two atoms, got {self.n_atoms}")
        if self.n_atoms == 2 and self.two_atom is None:
            object.__setattr__(self, "two_atom", TwoAtomParams())
        if not (self.gamma_laser >= 0):
            raise ValueError(f"negative gamma_laser {self.gamma_laser}")
        if self.blockade_model == "projected" and self.blackbody:
            raise ValueError(
                "the projected two-atom model has no r' state; disable blackbody "
                "or use the full model"
            )

    @property
    def level_tuples(self) -> tuple[tuple[str, ...], ...]:
        return _level_operators(self.n_atoms, self.blockade_model)[0]

    @property
    def basis_labels(self) -> tuple[str, ...]:
        return tuple("".join(t) for t in self.level_tuples)

    @property
    def dim(self) -> int:
        return len(self.level_tuples)

    def initial_state(self) -> DensityMatrix:
        return DensityMatrix.pure("g" * self.n_atoms, self.basis_labels)

    def nominal_positions(self) -> tuple[float, ...]:
        return (0.0,) if self.n_atoms == 1 else self.two_atom.positions_um

    def wavevector(self) -> float:
        return effective_wavevector(self.atom)

    def level_operator(self, atom: int, frm: str, to: str) -> np.ndarray:
        """|to><frm| on one atom, zero where the target state is projected out."""
        try:
            return _level_operators(self.n_atoms, self.blockade_model)[1][atom, frm, to]
        except KeyError:
            raise ValueError(f"no level operator |{to}><{frm}| on atom {atom}") from None

    def projector(self, atom: int, level: str) -> np.ndarray:
        return self.level_operator(atom, level, level)

    def double_excitation_projector(self) -> np.ndarray:
        return _level_operators(self.n_atoms, self.blockade_model)[2]

    @functools.cached_property
    def _hamiltonian_terms(self):
        # per atom (P_r, |r><g|, nominal position), the wavevector, and
        # U * P_rr in rad/us (two atoms only); kept so a shot's compile
        # neither rebuilds them nor hashes the whole model
        atoms = tuple(
            (self.projector(atom, "r"), self.level_operator(atom, "g", "r"), position)
            for atom, position in enumerate(self.nominal_positions())
        )
        interaction = None
        if self.n_atoms == 2:
            u = mhz_to_angular(self.two_atom.interaction_u_mhz)
            interaction = u * self.double_excitation_projector()
            interaction.setflags(write=False)
        return atoms, self.wavevector(), interaction

    def hamiltonian(self, element, noise: NoiseSample) -> np.ndarray:
        """H (rad/us) of one pulse element under one noise draw.

        Every element carries the detunings (Doppler plus a drive's
        two-photon detuning) and the interaction; a GlobalDrive adds the
        coupling with position-dependent phases, a LocalPhaseGate the
        ground-state light shift on its target (and a crosstalk fraction of
        it on the other atom).
        """
        atoms, wavevector, interaction = self._hamiltonian_terms
        detuning_mhz = element.detuning_mhz if isinstance(element, GlobalDrive) else 0.0
        h = np.zeros(atoms[0][0].shape, dtype=complex)
        for (proj, _, _), doppler in zip(atoms, noise.doppler_krad_s, strict=True):
            delta = krad_s_to_angular(doppler) + mhz_to_angular(detuning_mhz)
            h -= delta * proj
        if interaction is not None:
            h += interaction
        if isinstance(element, GlobalDrive):
            omega = mhz_to_angular(element.rabi_mhz)
            for (_, raising, nominal), offset in zip(atoms, noise.position_um, strict=True):
                phase = wavevector * (nominal + offset) + element.phase
                coupling = 0.5 * omega * np.exp(1j * phase)
                h = h + coupling * raising + np.conj(coupling) * raising.conj().T
        elif isinstance(element, LocalPhaseGate):
            shift = mhz_to_angular(element.light_shift_mhz)
            h -= shift * self.projector(element.target_atom, "g")
            if element.crosstalk_fraction and self.n_atoms == 2:
                other = 1 - element.target_atom
                h -= element.crosstalk_fraction * shift * self.projector(other, "g")
        elif not isinstance(element, Wait):
            raise ValueError(f"unknown pulse element {element!r}")
        return h

    # -- Lindblad channels --------------------------------------------------

    def channels(self, drive_on: bool) -> tuple[LindbladChannel, ...]:
        """Jump operators active during an element (blue scattering is
        gated on the drive; everything else runs for the whole sequence)."""
        return self._channels_by_drive[bool(drive_on)]

    @functools.cached_property
    def _channels_by_drive(self) -> tuple[tuple[LindbladChannel, ...], ...]:
        # (idle, drive); the idle tuple is the drive tuple without blue scattering
        params, chans = self.atom, []  # (drive-gated, channel)
        for a in range(self.n_atoms):
            if self.scattering:
                if params.gamma_blue_scatter > 0:
                    chans.append((True, LindbladChannel.from_rate(
                        params.gamma_blue_scatter, self.level_operator(a, "g", "g"))))
                if params.gamma_red_scatter > 0:
                    chans.append((False, LindbladChannel.from_rate(
                        params.gamma_red_scatter, self.level_operator(a, "r", "g"))))
            if self.blackbody:
                chans.append((False, LindbladChannel.from_rate(
                    1.0 / rydberg_lifetime(params), self.level_operator(a, "r", "r'"))))
        if self.gamma_laser > 0:
            collective = sum(self.projector(a, "r") for a in range(self.n_atoms))
            chans.append((False, LindbladChannel.from_rate(2.0 * self.gamma_laser, collective)))
        return tuple(ch for gated, ch in chans if not gated), tuple(ch for _, ch in chans)


@functools.lru_cache(maxsize=None)
def _level_operators(n_atoms: int, blockade_model: str):
    """The kept level tuples, every read-only |to><from| keyed by
    (atom, from, to), and the projector on the all-r state."""
    levels = tuple(itertools.product(SINGLE_ATOM_LEVELS, repeat=n_atoms))
    if blockade_model == "projected":
        # infinite blockade: no doubly excited state, and no r' to decay to
        levels = tuple(t for t in levels if "r'" not in t and t.count("r") < 2)
    kept = (...,) + np.ix_(*[[_product_index(t) for t in levels]] * 2)
    eye = np.eye(3)
    units = np.eye(9).reshape(3, 3, 3, 3)  # [to, from] -> |to><from|

    def placed(factors):
        op = functools.reduce(_kron, factors)[kept].astype(complex, order="C")
        op.setflags(write=False)
        return op

    ops = {}
    for atom in range(n_atoms):
        # all nine |to><from| of one atom at once, as a (3, 3, d, d) stack
        stack = placed([units if k == atom else eye for k in range(n_atoms)])
        for (i, to), (j, frm) in itertools.product(enumerate(SINGLE_ATOM_LEVELS), repeat=2):
            ops[atom, frm, to] = stack[i, j]
    r = SINGLE_ATOM_LEVELS.index("r")
    return levels, ops, placed([units[r, r]] * n_atoms)


@dataclass(frozen=True)
class CompiledStep:
    """Either a finite-duration segment or an instantaneous unitary."""

    channels: tuple[LindbladChannel, ...]
    segment: Segment | None = None
    unitary: np.ndarray | None = None


@dataclass(frozen=True)
class CompiledSequence:
    steps: tuple[CompiledStep, ...]

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(s.segment for s in self.steps if s.segment is not None)

    @property
    def total_duration(self) -> float:
        """Time spent in segments; instantaneous unitaries take none."""
        return sum((seg.duration for seg in self.segments), 0.0)


def compile_sequence(
    seq: PulseSequence,
    system: SystemModel,
    noise: NoiseSample | None = None,
    ideal_pulses: bool = False,
) -> CompiledSequence:
    """Compile a pulse sequence against a system and one noise draw.

    With ``ideal_pulses`` every GlobalDrive becomes an instantaneous
    unitary exp(-i H_drive * duration) built with the Doppler detunings
    zeroed but the position phases kept (the limit of pulses much faster
    than any detuning); waits and phase gates are unaffected. Useful for
    isolating free-evolution physics, e.g. echo refocusing checks.
    """
    if seq.n_atoms != system.n_atoms:
        raise ValueError(
            f"sequence is for {seq.n_atoms} atom(s) but the system has {system.n_atoms}"
        )
    if noise is None:
        noise = zero_noise(system.n_atoms)

    steps: list[CompiledStep] = []
    for el in seq.elements:
        drive = isinstance(el, GlobalDrive)
        if drive and ideal_pulses:
            doppler_free = NoiseSample((0.0,) * system.n_atoms, noise.position_um)
            w, v = np.linalg.eigh(system.hamiltonian(el, doppler_free))
            u = (v * np.exp(-1j * w * el.duration)) @ v.conj().T
            steps.append(CompiledStep(channels=(), unitary=u))
        else:
            # Hermitian by construction; evolve checks each stack it gets
            h = system.hamiltonian(el, noise)
            h.setflags(write=False)
            segment = _trusted(Segment, h, el.duration)
            steps.append(CompiledStep(system.channels(drive_on=drive), segment=segment))
    return CompiledSequence(tuple(steps))


def run_compiled(compiled, rho0: DensityMatrix, dt_max: float = DEFAULT_DT_MAX):
    """Evolve an initial state through a compiled sequence, returning the end state.

    Given a list of compiled shots, returns their (n_shots, d, d) end states. Runs of
    consecutive shots whose steps agree in kind and channels walk them once as a stack (a
    stacked U rho U^dagger, or one ``evolve`` call); one sequence is a batch of one.
    """
    # evolve is looked up at call time, so a wrapped dynamics.evolve is used
    from .dynamics import apply_unitary, evolve

    if isinstance(compiled, CompiledSequence):
        end = run_compiled([compiled], rho0, dt_max)[0]
        return _trusted(DensityMatrix, end, rho0.basis_labels)
    stacks = []
    for _, shots in itertools.groupby(compiled, lambda c: [(s.unitary is None, s.channels)
                                                          for s in c.steps]):
        shots = list(shots)
        states = np.repeat(rho0.matrix[None], len(shots), axis=0)
        for steps in zip(*(shot.steps for shot in shots)):
            if steps[0].unitary is not None:
                states = apply_unitary(states, np.array([s.unitary for s in steps]))
            else:
                states = evolve(states, [s.segment for s in steps], steps[0].channels, dt_max)
        stacks.append(states)
    return stacks[0] if len(stacks) == 1 else np.concatenate(stacks)


# -- presets ---------------------------------------------------------------
# Each _preset_* builder takes its scanned variable first; experiments.PRESETS
# registers them by name.


def pi_time(rabi_mhz: float) -> float:
    """Duration of a resonant single-atom pi pulse, us."""
    return math.pi / mhz_to_angular(rabi_mhz)


def collective_pi_time(rabi_mhz: float) -> float:
    """Duration of a blockaded pi pulse at the sqrt(2)-enhanced rate, us."""
    return math.pi / (math.sqrt(2.0) * mhz_to_angular(rabi_mhz))


def _drive(rabi_mhz: float, angle: float, phase: float = 0.0, collective: bool = False):
    t_pi = collective_pi_time(rabi_mhz) if collective else pi_time(rabi_mhz)
    return GlobalDrive(duration=angle / math.pi * t_pi, rabi_mhz=rabi_mhz, phase=phase)


def _preset_rabi(drive_time: float, rabi_mhz: float = 2.0) -> PulseSequence:
    return PulseSequence((GlobalDrive(drive_time, rabi_mhz),), n_atoms=1)


def _preset_t1(gap: float, rabi_mhz: float = 2.0) -> PulseSequence:
    pi = _drive(rabi_mhz, math.pi)
    return PulseSequence((pi, Wait(gap), pi), n_atoms=1)


def _preset_ramsey(gap: float, rabi_mhz: float = 2.0, fringe_mhz: float = 0.5) -> PulseSequence:
    """pi/2 - wait - pi/2 with a synthetic fringe.

    The second pi/2 phase advances as 2*pi*fringe*gap, which draws fringes
    at ``fringe_mhz`` on the scan without detuning the pulses themselves.
    """
    first = _drive(rabi_mhz, math.pi / 2)
    second = _drive(rabi_mhz, math.pi / 2, phase=TWO_PI * fringe_mhz * gap)
    return PulseSequence((first, Wait(gap), second), n_atoms=1)


def _preset_spin_echo(gap: float, rabi_mhz: float = 2.0) -> PulseSequence:
    half = _drive(rabi_mhz, math.pi / 2)
    return PulseSequence(
        (half, Wait(gap / 2), _drive(rabi_mhz, math.pi), Wait(gap / 2), half),
        n_atoms=1,
    )


def _preset_phase_gate_echo(
    gate_time: float,
    rabi_mhz: float = 2.0,
    light_shift_mhz: float = 5.0,
    arm_us: float = 1.0,
    crosstalk_fraction: float = 0.0,
) -> PulseSequence:
    """Spin echo with a ground-state phase gate inside the first arm.

    Both arms keep a fixed duration ``arm_us`` so the echo stays balanced
    while the gate time is scanned.
    """
    if gate_time > arm_us:
        raise ValueError(f"gate time {gate_time} exceeds the echo arm {arm_us}")
    half = _drive(rabi_mhz, math.pi / 2)
    gate = LocalPhaseGate(
        gate_time, target_atom=0, light_shift_mhz=light_shift_mhz,
        crosstalk_fraction=crosstalk_fraction,
    )
    return PulseSequence(
        (
            half,
            gate,
            Wait(arm_us - gate_time),
            _drive(rabi_mhz, math.pi),
            Wait(arm_us),
            half,
        ),
        n_atoms=1,
    )


def _preset_blockade_rabi(drive_time: float, rabi_mhz: float = 2.0) -> PulseSequence:
    return PulseSequence((GlobalDrive(drive_time, rabi_mhz),), n_atoms=2)


def _preset_parity_scan(
    gate_time: float,
    rabi_mhz: float = 2.0,
    light_shift_mhz: float = 5.0,
    crosstalk_fraction: float = 0.0,
) -> PulseSequence:
    pi_w = _drive(rabi_mhz, math.pi, collective=True)
    gate = LocalPhaseGate(
        gate_time, target_atom=0, light_shift_mhz=light_shift_mhz,
        crosstalk_fraction=crosstalk_fraction,
    )
    return PulseSequence((pi_w, gate, pi_w), n_atoms=2)


def _preset_w_lifetime(gap: float, rabi_mhz: float = 2.0) -> PulseSequence:
    pi_w = _drive(rabi_mhz, math.pi, collective=True)
    return PulseSequence((pi_w, Wait(gap), pi_w), n_atoms=2)


def _preset_w_echo(gap: float, rabi_mhz: float = 2.0) -> PulseSequence:
    """Entangled-state echo: a blockaded 2*pi pulse halfway through the gap
    swaps the two single-excitation amplitudes and refocuses per-atom
    Doppler phases."""
    pi_w = _drive(rabi_mhz, math.pi, collective=True)
    two_pi_w = _drive(rabi_mhz, 2 * math.pi, collective=True)
    return PulseSequence(
        (pi_w, Wait(gap / 2), two_pi_w, Wait(gap / 2), pi_w), n_atoms=2
    )

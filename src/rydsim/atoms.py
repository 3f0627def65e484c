"""Physical parameters of the two-photon Rydberg drive and derived scalars.

The drive couples the ground state g to a Rydberg state r through a far
detuned intermediate level. The intermediate level is never simulated as a
dynamical state: it only enters through the effective two-photon Rabi
frequency and through scattering channels (a g -> g projector for blue
scattering, a r -> g jump for red scattering). Blackbody transfer moves r
into a dark neighbor state r' that is detected identically to r.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .units import TWO_PI, angular_to_krad_s

# CODATA values, hard-coded.
K_B = 1.380649e-23  # J/K (exact)
RB87_MASS = 1.443160648e-25  # kg

__all__ = [
    "K_B",
    "RB87_MASS",
    "SINGLE_ATOM_LEVELS",
    "AtomParams",
    "DetectionModel",
    "PERFECT_DETECTION",
    "DEFAULT_FG_TABLE",
    "two_photon_rabi",
    "effective_wavevector",
    "doppler_sigma",
    "doppler_sigma_khz",
    "rydberg_lifetime",
    "combined_t1",
    "pure_dephasing",
    "cavity_suppression",
    "detection_probabilities",
]


@dataclass(frozen=True)
class AtomParams:
    """Laser and atom parameters. Frequencies are ordinary (MHz), rates 1/us."""

    omega_blue_mhz: float = 60.0
    omega_red_mhz: float = 40.0
    delta_intermediate_mhz: float = 600.0
    temperature_uk: float = 10.0
    lambda_blue_nm: float = 420.0
    lambda_red_nm: float = 1013.0
    gamma_blue_scatter: float = 1.0 / 40.0  # g -> g projector rate while blue is on
    gamma_red_scatter: float = 1.0 / 80.0  # r -> g jump rate while red is on
    t_blackbody_us: float = 230.0
    t_radiative_us: float = 410.0
    counter_propagating: bool = True

    def __post_init__(self):
        for name in (
            "omega_blue_mhz",
            "omega_red_mhz",
            "delta_intermediate_mhz",
            "temperature_uk",
            "lambda_blue_nm",
            "lambda_red_nm",
            "t_blackbody_us",
            "t_radiative_us",
        ):
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("gamma_blue_scatter", "gamma_red_scatter"):
            if not (getattr(self, name) >= 0):
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.t_blackbody_us == self.t_radiative_us == math.inf:
            raise ValueError("t_blackbody_us and t_radiative_us cannot both be infinite")
        if self.delta_intermediate_mhz < 5 * max(self.omega_blue_mhz, self.omega_red_mhz):
            warnings.warn(
                "intermediate detuning is not large compared to the single-photon "
                "Rabi frequencies; the adiabatic elimination is questionable",
                stacklevel=2,
            )


def two_photon_rabi(p: AtomParams) -> float:
    """Effective g-r Rabi frequency Omega_blue*Omega_red/(2*Delta), in MHz."""
    if p.delta_intermediate_mhz == 0:
        raise ValueError("intermediate detuning must be nonzero")
    return p.omega_blue_mhz * p.omega_red_mhz / (2.0 * p.delta_intermediate_mhz)


def effective_wavevector(p: AtomParams) -> float:
    """Two-photon wavevector along the beam axis, rad/um.

    Counter-propagating beams subtract (|k_blue - k_red|); co-propagating
    beams add.
    """
    k_blue = TWO_PI / (p.lambda_blue_nm * 1e-3)  # rad/um
    k_red = TWO_PI / (p.lambda_red_nm * 1e-3)
    return abs(k_blue - k_red) if p.counter_propagating else k_blue + k_red


def doppler_sigma(p: AtomParams) -> float:
    """Std dev of the shot-to-shot two-photon Doppler detuning, in krad/s.

    sigma = k_eff * sqrt(k_B T / m) for a thermal velocity distribution.
    """
    sigma_v = math.sqrt(K_B * p.temperature_uk * 1e-6 / RB87_MASS)  # m/s
    k_eff = effective_wavevector(p) * 1e6  # rad/m
    return angular_to_krad_s(k_eff * sigma_v * 1e-6)  # rad/s -> rad/us -> krad/s


def doppler_sigma_khz(p: AtomParams) -> float:
    """Same width quoted as an ordinary frequency in kHz (i.e. sigma/2pi)."""
    return doppler_sigma(p) / TWO_PI


def rydberg_lifetime(p: AtomParams) -> float:
    """Total effective r lifetime in us, blackbody and radiative combined."""
    return 1.0 / (1.0 / p.t_blackbody_us + 1.0 / p.t_radiative_us)


def combined_t1(p: AtomParams) -> float:
    """Excited-state 1/e time in us including red-laser scattering.

    (1/T_ryd + gamma_red)^-1 with T_ryd the combined blackbody/radiative
    lifetime; this is what a pi - wait - pi sequence measures.
    """
    return 1.0 / (1.0 / rydberg_lifetime(p) + p.gamma_red_scatter)


def pure_dephasing(t2_us: float, t1_us: float, excited_fraction: float) -> float:
    """Pure dephasing time (1/T2 - excited_fraction/T1)^-1 in us.

    ``excited_fraction`` is 0.5 for a single-atom superposition and 1.0 for
    a shared single excitation (one atom is always excited).
    """
    if not 0 < excited_fraction <= 1:
        raise ValueError(f"excited_fraction must be in (0, 1], got {excited_fraction}")
    rate = 1.0 / t2_us - excited_fraction / t1_us
    if rate <= 0:
        raise ValueError("T2 exceeds lifetime limit")
    return 1.0 / rate


def cavity_suppression(noise_offset_mhz: float, fwhm_mhz: float) -> float:
    """Amplitude suppression of a Lorentzian filter at a given offset.

    The filter transmits the carrier unattenuated and suppresses a noise
    sideband at ``noise_offset`` by sqrt(1 + (2*offset/fwhm)^2).
    """
    if fwhm_mhz <= 0:
        raise ValueError(f"fwhm must be positive, got {fwhm_mhz}")
    return math.sqrt(1.0 + (2.0 * noise_offset_mhz / fwhm_mhz) ** 2)


DEFAULT_FG_TABLE = ((0.0, 0.99), (4.0, 0.99), (8.0, 0.955))

# Per-atom level alphabet. r' is the blackbody product state, dark to the
# drive and detected like r.
SINGLE_ATOM_LEVELS = ("g", "r", "r'")


@dataclass(frozen=True)
class DetectionModel:
    """Per-atom binary recapture/loss channel.

    f_g is the probability that a ground-state atom is recaptured; f_r the
    probability that a Rydberg atom is lost. f_g may instead be a table of
    (trap-off time us, f_g) points, linearly interpolated with no
    extrapolation outside the listed range. The blackbody product state r'
    is anti-trapped like r and uses f_r.
    """

    f_r: float = 0.96
    f_g: float | None = 0.99
    f_g_table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if (self.f_g is None) == (self.f_g_table is None):
            raise ValueError("provide exactly one of f_g or f_g_table")
        if not 0 <= self.f_r <= 1:
            raise ValueError(f"f_r must be in [0, 1], got {self.f_r}")
        if self.f_g is not None and not 0 <= self.f_g <= 1:
            raise ValueError(f"f_g must be in [0, 1], got {self.f_g}")
        if self.f_g_table is not None:
            table = tuple((float(t), float(f)) for t, f in self.f_g_table)
            object.__setattr__(self, "f_g_table", table)
            times = [t for t, _ in table]
            if len(times) < 2 or any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("f_g table times must be strictly increasing")
            if any(not 0 <= f <= 1 for _, f in table):
                raise ValueError("f_g table values must be in [0, 1]")

    def fg_at(self, trap_off_time_us: float) -> float:
        if self.f_g is not None:
            return self.f_g
        table = self.f_g_table
        if not table[0][0] <= trap_off_time_us <= table[-1][0]:
            raise ValueError(
                f"trap-off time {trap_off_time_us} us outside table range "
                f"[{table[0][0]}, {table[-1][0]}] (no extrapolation)"
            )
        for (t0, f0), (t1, f1) in zip(table, table[1:]):
            if trap_off_time_us <= t1:
                break
        return f0 + (f1 - f0) * (trap_off_time_us - t0) / (t1 - t0)

    def recapture_probability(self, level: str, trap_off_time_us: float = 0.0) -> float:
        if level == "g":
            return self.fg_at(trap_off_time_us)
        if level in ("r", "r'"):
            return 1.0 - self.f_r
        raise ValueError(f"unknown level {level!r}")

    def confusion_matrix(
        self, level_tuples: tuple[tuple[str, ...], ...], trap_off_time_us: float = 0.0
    ) -> np.ndarray:
        """Matrix from basis states to measured recapture patterns.

        Column j is the distribution of basis state ``level_tuples[j]`` over
        the patterns of per-atom (recaptured, lost), atom 1 most significant.
        Raises ``ValueError`` when a tabulated f_g does not cover the
        trap-off time.
        """
        return _confusion_matrix(level_tuples, self.fg_at(trap_off_time_us), self.f_r)


@functools.lru_cache(maxsize=256)
def _confusion_matrix(
    level_tuples: tuple[tuple[str, ...], ...], f_g: float, f_r: float
) -> np.ndarray:
    # Kronecker product of the per-atom 2x3 matrices whose rows are
    # (recaptured, lost) and whose columns are (g, r, r'), restricted to
    # the columns of the basis states the system keeps
    n_atoms = len(level_tuples[0])
    per_atom = np.array([[f_g, 1.0 - f_r, 1.0 - f_r], [1.0 - f_g, f_r, f_r]])
    full = functools.reduce(np.kron, [per_atom] * n_atoms)
    columns = [
        sum(SINGLE_ATOM_LEVELS.index(lvl) * 3 ** (n_atoms - 1 - k) for k, lvl in enumerate(t))
        for t in level_tuples
    ]
    c = np.ascontiguousarray(full[:, columns])
    c.setflags(write=False)
    return c


PERFECT_DETECTION = DetectionModel(f_g=1.0, f_r=1.0)


def detection_probabilities(
    d: DetectionModel,
    true_state,
    trap_off_time_us: float = 0.0,
) -> dict[tuple[bool, ...], float]:
    """Distribution over recapture patterns for a definite per-atom state.

    ``true_state`` is a sequence of per-atom labels in {g, r, r'}. Each atom
    passes independently through the binary channel; the returned dict maps
    recapture patterns (True = recaptured) to probabilities and sums to 1.
    """
    per_atom = [d.recapture_probability(level, trap_off_time_us) for level in true_state]
    out: dict[tuple[bool, ...], float] = {(): 1.0}
    for p_rec in per_atom:
        nxt: dict[tuple[bool, ...], float] = {}
        for pattern, prob in out.items():
            nxt[pattern + (True,)] = prob * p_rec
            nxt[pattern + (False,)] = prob * (1.0 - p_rec)
        out = nxt
    return out

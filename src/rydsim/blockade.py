"""Two-atom blockade analytics: entangled states, gate unitaries, fidelity.

Everything here lives in the four-state basis gg, gr, rg, rr of a pair of
atoms whose doubly excited state is shifted far out of resonance, so a
global drive couples gg only to the symmetric single-excitation (W) state
at an enhanced rate sqrt(2)*Omega. The antisymmetric combination D is dark
to the drive, which is what makes the parity scan work: a local phase gate
rotates W into D, and a closing collective pi pulse maps only the W part
back to gg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atoms import AtomParams, DetectionModel, TwoAtomParams, effective_wavevector
from .dynamics import DensityMatrix
from .fitting import fit_cosine
from .units import TWO_PI

TWO_ATOM_BASIS = ("gg", "gr", "rg", "rr")
_TWO_ATOM_LEVELS = tuple(tuple(label) for label in TWO_ATOM_BASIS)

__all__ = [
    "TWO_ATOM_BASIS",
    "TwoAtomParams",
    "BellRecord",
    "w_state",
    "dark_state",
    "blockaded_pi_unitary",
    "local_phase_unitary",
    "bell_fidelity",
    "parity_amplitude",
    "detection_corrected_fidelity",
]


@dataclass(frozen=True)
class BellRecord:
    """Bell-state figures of merit from populations and one coherence.

    fidelity = (rho_gr,gr + rho_rg,rg)/2 + Re rho_gr,rg, and offdiag_amp is
    the parity-scan contrast 2*|rho_gr,rg|.
    """

    diag_sum: float
    offdiag_amp: float
    fidelity: float

    def __post_init__(self):
        if not -1e-9 <= self.diag_sum <= 1 + 1e-9:
            raise ValueError(f"diag_sum {self.diag_sum} outside [0, 1]")
        if self.offdiag_amp < -1e-9:
            raise ValueError(f"negative offdiag_amp {self.offdiag_amp}")
        if self.offdiag_amp > self.diag_sum + 1e-9:
            raise ValueError(
                f"offdiag_amp {self.offdiag_amp} exceeds diag_sum {self.diag_sum}; "
                "violates Cauchy-Schwarz on the single-excitation block"
            )

    @classmethod
    def from_measured(cls, diag_sum: float, offdiag_amp: float) -> "BellRecord":
        """Combine a measured population sum and parity contrast."""
        return cls(diag_sum, offdiag_amp, 0.5 * diag_sum + 0.5 * offdiag_amp)


def w_state(p: TwoAtomParams | None = None) -> np.ndarray:
    """Symmetric single-excitation state vector in the gg, gr, rg, rr basis.

    (e^{i k x1} |rg> + e^{i k x2} |gr>) / sqrt(2), with k the default
    atom's effective wavevector; with both positions at zero this is the
    phase-free (|gr> + |rg>)/sqrt(2).
    """
    if p is None:
        phi1 = phi2 = 0.0
    else:
        k = effective_wavevector(AtomParams())
        phi1, phi2 = k * p.positions_um[0], k * p.positions_um[1]
    vec = np.zeros(4, dtype=complex)
    vec[2] = np.exp(1j * phi1) / math.sqrt(2)  # rg
    vec[1] = np.exp(1j * phi2) / math.sqrt(2)  # gr
    return vec


def dark_state() -> np.ndarray:
    """Antisymmetric combination (|gr> - |rg>)/sqrt(2), dark to the drive."""
    vec = np.zeros(4, dtype=complex)
    vec[1] = 1 / math.sqrt(2)
    vec[2] = -1 / math.sqrt(2)
    return vec


def blockaded_pi_unitary() -> np.ndarray:
    """Collective pi pulse in the blockade regime, basis gg, gr, rg, rr.

    Maps gg -> i*W, leaves the dark state and rr untouched.
    """
    s = 1j / math.sqrt(2)
    return np.array(
        [
            [0.0, s, s, 0.0],
            [s, 0.5, -0.5, 0.0],
            [s, -0.5, 0.5, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )


def local_phase_unitary(delta_mhz: float, t_us: float) -> np.ndarray:
    """Light shift of -delta on the ground state of atom 1 for time t.

    diag(e^{i phi}, e^{i phi}, 1, 1) with phi = 2*pi*delta*t: atom-1-ground
    components acquire the phase, so W rotates toward D as phi grows.
    """
    phi = TWO_PI * delta_mhz * t_us
    phase = np.exp(1j * phi)
    return np.diag([phase, phase, 1.0, 1.0]).astype(complex)


def _single_excitation_elements(rho: DensityMatrix) -> tuple[float, float, complex]:
    p_gr = float(np.real(rho.matrix[rho.index("gr"), rho.index("gr")]))
    p_rg = float(np.real(rho.matrix[rho.index("rg"), rho.index("rg")]))
    coh = complex(rho.matrix[rho.index("gr"), rho.index("rg")])
    return p_gr, p_rg, coh


def bell_fidelity(rho: DensityMatrix) -> BellRecord:
    """Overlap with the phase-free W state from rho's matrix elements.

    F = (rho_gr,gr + rho_rg,rg)/2 + (rho_gr,rg + rho_rg,gr)/2. Works on any
    state whose basis contains the gr and rg labels (4- or 9-dimensional).
    """
    p_gr, p_rg, coh = _single_excitation_elements(rho)
    diag_sum = p_gr + p_rg
    fidelity = 0.5 * diag_sum + float(np.real(coh))
    return BellRecord(diag_sum=diag_sum, offdiag_amp=2.0 * abs(coh), fidelity=fidelity)


def _parity_scan(rho: np.ndarray, delta_mhz: float, times) -> np.ndarray:
    """Populations after the phase gate for each time and the closing
    collective pi pulse; one row per time, columns in the basis order."""
    x_pi = blockaded_pi_unitary()
    gates = [x_pi @ local_phase_unitary(delta_mhz, float(t)) for t in times]
    return np.array([(u @ rho @ u.conj().T).diagonal().real for u in gates])


def parity_amplitude(
    rho0: DensityMatrix,
    delta_mhz: float,
    times_us,
) -> tuple[float, float, float]:
    """Extract |rho_gr,rg| from a simulated parity scan.

    Applies the local phase gate for each listed duration followed by the
    collective pi pulse, records P_gg, and fits
    P_gg(t) = alpha*cos(2*pi*delta*t + theta) + C. For any initial state the
    oscillation amplitude equals |<gr|rho0|rg>| and theta its argument; the
    fit is cross-checked against the direct matrix element and a mismatch
    beyond 1e-9 raises.

    Returns (alpha, theta, offset).
    """
    times = np.asarray(list(times_us), dtype=float)
    if times.size < 4:
        raise ValueError("parity scan needs at least 4 time points")
    if delta_mhz <= 0:
        raise ValueError("phase-gate light shift must be positive")
    span = float(times.max() - times.min())
    if span < 0.5 / (2.0 * delta_mhz):
        raise ValueError("parity scan must span at least half an oscillation period")

    p_gg = _parity_scan(rho0.matrix, delta_mhz, times)[:, rho0.index("gg")]
    _, _, coh = _single_excitation_elements(rho0)
    direct = abs(coh)
    if direct < 1e-12 and np.ptp(p_gg) < 1e-12:
        # statistical mixture: the scan is flat and the phase is undefined
        return 0.0, 0.0, float(np.mean(p_gg))

    fit = fit_cosine(times, p_gg, freq_guess_mhz=delta_mhz)
    alpha = abs(fit.params["amplitude"])
    theta = fit.params["phase_rad"]
    offset = fit.params["offset"]
    if abs(alpha - direct) > 1e-9:
        raise ArithmeticError(
            f"parity amplitude {alpha} disagrees with the direct matrix "
            f"element {direct}; fit did not converge to the identity"
        )
    return alpha, theta, offset


def detection_corrected_fidelity(
    f_meas: float,
    d: DetectionModel,
    delta_mhz: float = 5.0,
    trap_off_time_us: float = 1.0,
) -> float:
    """Divide out the detection ceiling from a measured Bell fidelity.

    The ceiling F_max is what the fidelity pipeline would report for a
    perfect W state seen through the binary detection channel: diagonal
    elements pass through the per-atom confusion channel, and the parity
    contrast is read off a simulated scan with perfect dynamics and
    detection errors only.
    """
    if not 0 <= f_meas <= 1:
        raise ValueError(f"measured fidelity {f_meas} outside [0, 1]")

    # Column j of c is the distribution of basis state TWO_ATOM_BASIS[j] over
    # the measured patterns measured_outcomes(2) = (gg, gr, rg, rr).
    c = d.confusion_matrix(_TWO_ATOM_LEVELS, trap_off_time_us)

    # Diagonal ceiling: perfect W has P_gr = P_rg = 1/2; sum the measured
    # single-excitation patterns (one recaptured, one lost).
    diag_max = 0.5 * float(c[1:3, 1:3].sum())

    # Off-diagonal ceiling: parity scan of the perfect W with detection.
    rho_w = np.outer(w_state(), w_state().conj())
    times = np.linspace(0.0, 2.0 / delta_mhz, 41)
    p_gg_meas = _parity_scan(rho_w, delta_mhz, times) @ c[0]

    fit = fit_cosine(times, p_gg_meas, freq_guess_mhz=delta_mhz)
    offdiag_max = 2.0 * abs(fit.params["amplitude"])

    f_max = 0.5 * diag_max + 0.5 * offdiag_max
    if f_max <= 0:
        raise ZeroDivisionError("detection ceiling is zero; channel destroys all signal")
    return f_meas / f_max

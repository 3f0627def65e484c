"""Simulator and analysis toolkit for two-photon Rydberg qubit experiments.

Submodules:

* ``dynamics``: density matrices, Lindblad channels, RK4 master-equation
  integrator.
* ``atoms``: laser/atom parameters, derived scalars, detection channel.
* ``pulses``: pulse-sequence model, compiler, preset sequence builders.
* ``blockade``: two-atom analytics (entangled states, gate unitaries,
  Bell fidelity, parity scans).
* ``montecarlo``: seeded noise ensembles over Doppler and position draws.
* ``fitting``: damped-cosine and decay fits with analytic Jacobians.
* ``experiments``: the preset registry, config ingestion, CSV/manifest output.
* ``acceptance``: the built-in verification suite (also ``rydsim check``).
"""

__version__ = "0.1.0"

from .atoms import (
    AtomParams,
    DetectionModel,
    cavity_suppression,
    combined_t1,
    detection_probabilities,
    doppler_sigma,
    pure_dephasing,
    two_photon_rabi,
)
from .blockade import (
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
from .dynamics import (
    DensityMatrix,
    LindbladChannel,
    Segment,
    apply_unitary,
    coherence,
    evolve,
    population,
    tensor,
)
from .fitting import FitResult, fit_cosine, fit_damped_cosine, fit_decay, spectral_peak
from .montecarlo import (
    EnsembleResult,
    EnsembleSpec,
    NoiseSample,
    apply_detection,
    run_ensemble,
    sample_noise,
    shot_seed,
)
from .pulses import (
    GlobalDrive,
    LocalPhaseGate,
    PulseSequence,
    SystemModel,
    Wait,
    compile_sequence,
    run_compiled,
)
from .experiments import preset

__all__ = [
    "__version__",
    "AtomParams",
    "DetectionModel",
    "cavity_suppression",
    "combined_t1",
    "detection_probabilities",
    "doppler_sigma",
    "pure_dephasing",
    "two_photon_rabi",
    "BellRecord",
    "TwoAtomParams",
    "bell_fidelity",
    "blockaded_pi_unitary",
    "dark_state",
    "detection_corrected_fidelity",
    "local_phase_unitary",
    "parity_amplitude",
    "w_state",
    "DensityMatrix",
    "LindbladChannel",
    "Segment",
    "apply_unitary",
    "coherence",
    "evolve",
    "population",
    "tensor",
    "FitResult",
    "fit_cosine",
    "fit_damped_cosine",
    "fit_decay",
    "spectral_peak",
    "EnsembleResult",
    "EnsembleSpec",
    "NoiseSample",
    "apply_detection",
    "run_ensemble",
    "sample_noise",
    "shot_seed",
    "GlobalDrive",
    "LocalPhaseGate",
    "PulseSequence",
    "SystemModel",
    "Wait",
    "compile_sequence",
    "preset",
    "run_compiled",
]

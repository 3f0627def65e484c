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

Importing rydsim before numpy sets ``OPENBLAS_NUM_THREADS=1`` unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is already set: rydsim's
matrices are too small for BLAS threads to pay, and their start-up costs CPU.
"""

import os as _os
import sys as _sys

# numpy reads it once, when it loads OpenBLAS; pool workers inherit it
if "numpy" not in _sys.modules and "OMP_NUM_THREADS" not in _os.environ:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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

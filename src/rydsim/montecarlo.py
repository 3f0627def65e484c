"""Monte Carlo ensembles over Doppler and position noise.

Each shot draws a static per-atom Doppler detuning and position offset,
compiles the scan point's sequence against that draw, integrates the
master equation, and pushes the final populations through the detection
channel. Shots are seeded individually from (master_seed, scan_index,
shot_index) with a stable hash, so results are bit-identical regardless of
execution order or worker count.

Detection is ``DetectionModel.confusion_matrix``, from basis states to
measured recapture patterns. A shot's detected distribution is that matrix
times its populations; ``apply_detection`` applies the same matrix to a
labeled distribution.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .atoms import SINGLE_ATOM_LEVELS, DetectionModel, PERFECT_DETECTION, doppler_sigma
from .dynamics import DEFAULT_DT_MAX, population_vector
from .pulses import (
    NoiseSample,
    PulseSequence,
    SystemModel,
    compile_sequence,
    run_compiled,
)

__all__ = [
    "NoiseSample",
    "shot_seed",
    "sample_noise",
    "EnsembleSpec",
    "EnsembleResult",
    "run_ensemble",
    "apply_detection",
    "measured_outcomes",
    "wilson_interval",
]

DEFAULT_SIGMA_POSITION_UM = 0.2


def shot_seed(master_seed: int, scan_index: int, shot_index: int) -> int:
    """Stable 64-bit seed for one shot, independent of scheduling."""
    packed = struct.pack("<qqq", master_seed, scan_index, shot_index)
    digest = hashlib.blake2b(packed, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def sample_noise(
    sigma_doppler_krad_s: float,
    sigma_position_um: float,
    n_atoms: int,
    rng: np.random.Generator,
) -> NoiseSample:
    """Independent Gaussian draws per atom; deterministic given the rng state."""
    if sigma_doppler_krad_s < 0 or sigma_position_um < 0:
        raise ValueError("noise widths must be nonnegative")
    doppler = rng.normal(0.0, 1.0, size=n_atoms) * sigma_doppler_krad_s
    position = rng.normal(0.0, 1.0, size=n_atoms) * sigma_position_um
    return NoiseSample(tuple(doppler), tuple(position))


def measured_outcomes(n_atoms: int) -> tuple[str, ...]:
    """Composite measured labels: recaptured -> g, lost -> r."""
    return tuple("".join(c) for c in itertools.product("gr", repeat=n_atoms))


def apply_detection(
    probabilities: Mapping[str, float],
    d: DetectionModel | None,
    trap_off_time_us: float = 0.0,
) -> dict[str, float]:
    """Push a basis-state distribution through the per-atom detection channel.

    Input keys are true basis labels (may include r'); output keys are
    measured labels over {g, r} per atom, with recapture reported as g.
    ``d=None`` means perfect detection (r' still reads as r since it is
    anti-trapped).
    """
    p = np.array(list(probabilities.values()), dtype=float)
    _check_distribution(p)
    try:
        levels = tuple(_LEVELS_BY_LABEL[label] for label in probabilities)
    except KeyError as exc:
        raise ValueError(f"malformed label {exc.args[0]!r}") from None
    n_atoms = len(levels[0])
    if any(len(t) != n_atoms for t in levels):
        raise ValueError("labels mix different numbers of atoms")
    c = (PERFECT_DETECTION if d is None else d).confusion_matrix(levels, trap_off_time_us)
    return dict(zip(measured_outcomes(n_atoms), (c @ p).tolist()))


# composite label -> per-atom levels, e.g. "gr'" -> ("g", "r'")
_LEVELS_BY_LABEL = {
    "".join(t): t
    for n in (1, 2)
    for t in itertools.product(SINGLE_ATOM_LEVELS, repeat=n)
}


def _check_distribution(p: np.ndarray, error: type[Exception] = ValueError) -> None:
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise error(f"distribution sums to {total}, not 1")


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything one ensemble run needs besides the scan grid.

    ``build`` maps a scan value to a PulseSequence. ``sigma_doppler_krad_s``
    defaults to the thermal width of the system's atom parameters; pass 0
    to switch Doppler noise off.
    """

    build: Callable[[float], PulseSequence]
    system: SystemModel
    detection: DetectionModel | None = None
    sigma_doppler_krad_s: float | None = None
    sigma_position_um: float = DEFAULT_SIGMA_POSITION_UM
    dt_max: float = DEFAULT_DT_MAX
    ideal_pulses: bool = False

    def doppler_width(self) -> float:
        if self.sigma_doppler_krad_s is not None:
            return self.sigma_doppler_krad_s
        return doppler_sigma(self.system.atom)


@dataclass
class EnsembleResult:
    """Scan-resolved outcome probabilities with 68% Wilson intervals.

    ``probabilities`` are detection-adjusted (what the experiment reports);
    ``raw_probabilities`` are the shot-averaged model populations before
    the detection channel, with r' counted as r.
    """

    scan_values: np.ndarray
    outcomes: tuple[str, ...]
    probabilities: np.ndarray  # (n_scan, n_outcomes)
    ci_low: np.ndarray
    ci_high: np.ndarray
    raw_probabilities: np.ndarray
    n_shots: int
    mode: str
    master_seed: int
    per_shot: np.ndarray | None = None  # (n_scan, n_shots, n_outcomes) if requested

    def column(self, outcome: str) -> np.ndarray:
        return self.probabilities[:, self.outcomes.index(outcome)]

    def raw_column(self, outcome: str) -> np.ndarray:
        return self.raw_probabilities[:, self.outcomes.index(outcome)]


def wilson_interval(p_hat: float, n: int, z: float = 1.0) -> tuple[float, float]:
    """Wilson score interval; z = 1 gives the 68% band used for error bars."""
    if n <= 0:
        raise ValueError("need at least one shot")
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * np.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _run_scan_point(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    (spec, value, scan_index, n_shots, mode, master_seed) = args
    system = spec.system
    levels = system.level_tuples
    n_outcomes = 2 ** system.n_atoms
    sigma_d = spec.doppler_width()
    rho0 = system.initial_state()
    seq = spec.build(value)

    shots = np.empty((n_shots, n_outcomes))
    raw_sum = np.zeros(n_outcomes)
    counts = np.zeros(n_outcomes)
    for shot in range(n_shots):
        rng = np.random.Generator(
            np.random.PCG64(shot_seed(master_seed, scan_index, shot))
        )
        noise = sample_noise(sigma_d, spec.sigma_position_um, system.n_atoms, rng)
        compiled = compile_sequence(seq, system, noise, ideal_pulses=spec.ideal_pulses)
        duration = compiled.total_duration
        rho = run_compiled(compiled, rho0, dt_max=spec.dt_max)
        populations = population_vector(rho)
        # a state within evolve's looser TRACE_TOL can still fail this check
        _check_distribution(populations, FloatingPointError)
        raw = PERFECT_DETECTION.confusion_matrix(levels, duration) @ populations
        raw_sum += raw
        if spec.detection is None:
            vec = raw
        else:
            vec = spec.detection.confusion_matrix(levels, duration) @ populations
        # tiny negatives can appear at the populations' clamp boundary
        vec = np.clip(vec, 0.0, None)
        vec /= vec.sum()
        shots[shot] = vec
        if mode == "sampled":
            drawn = rng.choice(n_outcomes, p=vec)
            counts[drawn] += 1.0
    if mode == "sampled":
        probs = counts / n_shots
    else:
        probs = shots.mean(axis=0)
    return probs, raw_sum / n_shots, shots


def run_ensemble(
    spec: EnsembleSpec,
    scan_values,
    n_shots: int,
    mode: str = "expectation",
    master_seed: int = 0,
    n_workers: int = 1,
    return_shots: bool = False,
) -> EnsembleResult:
    """Run the scan: one noise draw and evolution per (scan value, shot).

    ``expectation`` averages detection-adjusted probabilities over shots;
    ``sampled`` draws one measured outcome per shot and reports frequencies.
    Results are reduced in scan order and are bit-identical for a given
    (master_seed, spec) regardless of ``n_workers``.
    """
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    if mode not in ("expectation", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    values = np.asarray(list(scan_values), dtype=float)
    outcomes = measured_outcomes(spec.system.n_atoms)

    tasks = [
        (spec, float(v), i, n_shots, mode, master_seed) for i, v in enumerate(values)
    ]
    if n_workers > 1 and len(tasks) > 1:
        # imported here: loading the pool machinery costs every run time and
        # memory, and most runs use one worker
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_run_scan_point, tasks))
    else:
        results = [_run_scan_point(task) for task in tasks]

    probs = np.vstack([r[0] for r in results])
    raw = np.vstack([r[1] for r in results])
    ci_low = np.empty_like(probs)
    ci_high = np.empty_like(probs)
    for i in range(probs.shape[0]):
        for j in range(probs.shape[1]):
            ci_low[i, j], ci_high[i, j] = wilson_interval(probs[i, j], n_shots)

    per_shot = None
    if return_shots:
        per_shot = np.stack([r[2] for r in results])
    return EnsembleResult(
        scan_values=values,
        outcomes=outcomes,
        probabilities=probs,
        ci_low=ci_low,
        ci_high=ci_high,
        raw_probabilities=raw,
        n_shots=n_shots,
        mode=mode,
        master_seed=master_seed,
        per_shot=per_shot,
    )

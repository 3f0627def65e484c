"""Monte Carlo ensembles over Doppler and position noise.

Each shot draws a static per-atom Doppler detuning and position offset
and compiles its scan point's sequence against that draw. Blocks of
ceil(STACK_SHOTS / n_shots) consecutive points, fewer where a worker would
get none, are the tasks; each block makes one ``run_compiled`` call, which
stacks the shots it can, each getting the numbers it gets alone. Shots are
seeded individually from (master_seed, scan_index, shot_index) with a
stable hash, so results are bit-identical regardless of block size,
execution order or worker count.

Everything after the propagation runs once per block on the stacked
(n_points, n_shots, d) final populations: the range and sum checks (a
failure raises ``FloatingPointError``), detection, normalisation, the
sampled-mode picks (``Generator.choice``'s, one uniform per shot) and the
shot averages. Detection is each point's ``DetectionModel.confusion_matrix``
(basis states to measured recapture patterns) times each shot's
populations; ``apply_detection`` applies it to a labeled distribution.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
import struct
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .atoms import SINGLE_ATOM_LEVELS, DetectionModel, PERFECT_DETECTION, doppler_sigma
from .dynamics import DEFAULT_DT_MAX, POSITIVITY_TOL, _trusted
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

# Shots per propagated stack. The stack holds every shot's step maps: a 40-shot
# two-atom stack raised a run's peak RSS by under 1%, a 400-shot one by a quarter.
STACK_SHOTS = 40


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
    if not (0 <= sigma_doppler_krad_s < math.inf and 0 <= sigma_position_um < math.inf):
        raise ValueError("noise widths must be nonnegative and finite")
    doppler = rng.normal(0.0, 1.0, size=n_atoms) * sigma_doppler_krad_s
    position = rng.normal(0.0, 1.0, size=n_atoms) * sigma_position_um
    # finite floats by construction, so the NoiseSample checks are skipped
    return _trusted(NoiseSample, tuple(doppler.tolist()), tuple(position.tolist()))


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
    totals = np.atleast_1d(p.sum(axis=-1))  # one total per distribution
    total = totals[np.argmax(np.abs(totals - 1.0))]
    if not abs(total - 1.0) <= 1e-9:
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
    # (n_scan, n_shots, n_outcomes), detection-adjusted; always set by run_ensemble
    per_shot: np.ndarray | None = None

    def column(self, outcome: str) -> np.ndarray:
        return self.probabilities[:, self.outcomes.index(outcome)]

    def raw_column(self, outcome: str) -> np.ndarray:
        return self.raw_probabilities[:, self.outcomes.index(outcome)]


def wilson_interval(p_hat: float | np.ndarray, n: int):
    """Elementwise 68% (z = 1) Wilson score interval, the band for error bars."""
    if n <= 0:
        raise ValueError("need at least one shot")
    denom = 1.0 + 1.0 / n
    center = (p_hat + 1.0 / (2 * n)) / denom
    half = np.sqrt(p_hat * (1 - p_hat) / n + 1.0 / (4 * n * n)) / denom
    return np.maximum(center - half, 0.0), np.minimum(center + half, 1.0)


def _run_block(spec, values, first_index, n_shots, mode, master_seed):
    """Consecutive scan points, propagated by one ``run_compiled`` call: (points, ...) results."""
    system, sigma_doppler = spec.system, spec.doppler_width()  # one width for every shot

    compiled, uniforms = [], []  # the shot loop only draws and compiles
    for scan_index, value in enumerate(values, first_index):
        seq = spec.build(value)
        for shot in range(n_shots):
            rng = np.random.default_rng(shot_seed(master_seed, scan_index, shot))
            noise = sample_noise(sigma_doppler, spec.sigma_position_um, system.n_atoms, rng)
            if mode == "sampled":  # the uniform rng.choice(p=...) would draw next
                uniforms.append(rng.random())
            compiled.append(compile_sequence(seq, system, noise, ideal_pulses=spec.ideal_pulses))
    p = run_compiled(compiled, system.initial_state(), spec.dt_max).diagonal(axis1=1, axis2=2).real

    bad = (p < -POSITIVITY_TOL) | (p > 1.0 + POSITIVITY_TOL)
    if bad.any():
        shot, i = np.argwhere(bad)[0]
        raise FloatingPointError(
            f"population of {system.basis_labels[i]!r} is {p[shot, i]}, outside tolerance"
        )
    p = np.clip(p, 0.0, 1.0)
    # a state within evolve's looser TRACE_TOL can still fail this check
    _check_distribution(p, FloatingPointError)
    # a point's shots share its segment durations; C @ p per shot rounds
    # like a single shot's product (p @ C.T does not)
    levels, p = system.level_tuples, p.reshape(len(values), n_shots, -1, 1)
    times = [c.total_duration for c in compiled[::n_shots]]
    raw, shots = ((np.array([d.confusion_matrix(levels, t) for t in times])[:, None] @ p)[..., 0]
                  for d in (PERFECT_DETECTION, spec.detection or PERFECT_DETECTION))
    shots /= shots.sum(axis=2, keepdims=True)
    if mode == "sampled":
        cdf = shots.cumsum(2)
        drawn = (cdf / cdf[..., -1:] <= np.reshape(uniforms, (*shots.shape[:2], 1))).sum(2)
        probs = (drawn[..., None] == np.arange(shots.shape[2])).mean(1)
    else:
        probs = shots.mean(axis=1)
    return probs, raw.mean(axis=1), shots


def run_ensemble(
    spec: EnsembleSpec,
    scan_values,
    n_shots: int,
    mode: str = "expectation",
    master_seed: int = 0,
    n_workers: int = 1,
) -> EnsembleResult:
    """Run the scan: one noise draw and evolution per (scan value, shot).

    ``expectation`` averages detection-adjusted probabilities over shots;
    ``sampled`` draws one measured outcome per shot and reports frequencies.
    Results are reduced in scan order and are bit-identical for a given
    (master_seed, spec) regardless of ``n_workers``.
    """
    for name, count in (("n_shots", n_shots), ("n_workers", n_workers)):
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
    if mode not in ("expectation", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if not -2**63 <= master_seed < 2**63:
        raise ValueError(f"master_seed must be a signed 64-bit integer, got {master_seed}")
    values = np.asarray(list(scan_values), dtype=float)
    if not values.size:
        raise ValueError("scan_values is empty; a scan needs at least one value")

    size = max(1, min(-(-STACK_SHOTS // n_shots), len(values) // n_workers))
    tasks = [(spec, values[i:i + size].tolist(), i, n_shots, mode, master_seed)
             for i in range(0, len(values), size)]
    if n_workers > 1 and len(tasks) > 1:
        # imported here: loading the pool machinery costs every run time and
        # memory, and most runs use one worker
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(_run_block, *zip(*tasks)))
    else:
        results = [_run_block(*task) for task in tasks]

    probs, raw, per_shot = (np.concatenate(r) for r in zip(*results))
    ci_low, ci_high = wilson_interval(probs, n_shots)
    return EnsembleResult(
        scan_values=values,
        outcomes=measured_outcomes(spec.system.n_atoms),
        probabilities=probs,
        ci_low=ci_low,
        ci_high=ci_high,
        raw_probabilities=raw,
        n_shots=n_shots,
        mode=mode,
        master_seed=master_seed,
        per_shot=per_shot,
    )

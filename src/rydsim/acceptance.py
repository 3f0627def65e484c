"""Built-in verification suite.

Each check exercises one quantitative requirement end to end at a pinned
tolerance and reports a single pass/fail line. The preset checks (3-7 and
10) run a preset's config at seed 7 without detection errors and pass iff
that preset's analyzer reports at least one scalar with a pass/fail rule
and every such scalar passes, so each rule lives in one place, the
analyzer. The same checks back the pytest acceptance module and the
``rydsim check`` CLI subcommand.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .atoms import AtomParams, DetectionModel, doppler_sigma, two_photon_rabi
from .blockade import BellRecord, detection_corrected_fidelity, parity_amplitude
from .dynamics import (
    DensityMatrix,
    LindbladChannel,
    Segment,
    coherence,
    evolve,
    tensor,
)
from .experiments import config_from_dict, preset_info
from .montecarlo import apply_detection, run_ensemble
from .units import TWO_PI

__all__ = ["CheckResult", "ALL_CHECKS", "run_all"]


@dataclass
class CheckResult:
    criterion: int
    title: str
    passed: bool
    detail: str
    seconds: float


def _run(config: dict):
    """A preset's config at seed 7 without detection errors, and its scan."""
    cfg = config_from_dict({"master_seed": 7, "detection": None, **config})
    res = run_ensemble(cfg.ensemble_spec(), cfg.scan_values(), cfg.n_shots,
                       master_seed=cfg.master_seed)
    return cfg, res


def _rules_pass(*configs: dict) -> tuple[bool, str]:
    """Each config's run through its preset's own analyzer: passes iff every
    config yields a scalar with a pass/fail rule and all of those pass. Each
    config's entries are tagged with the top-level overrides it differs in."""
    ok, parts = True, []
    apart = sorted({k for c in configs for k in c if any(d.get(k) != c[k] for d in configs)})
    for config in configs:
        cfg, res = _run(config)
        tag = "".join(f"[{k}: {config.get(k, 'default')}] " for k in apart)
        ruled = [s for s in preset_info(cfg.preset).analyze(cfg, res) if s.passed is not None]
        ok = ok and bool(ruled) and all(s.passed is True for s in ruled)
        parts += [f"{tag}{s.name} = {s.value:.6g} [{s.target}{f'; {s.note}' if s.note else ''}]"
                  for s in ruled] or [f"{tag}{cfg.preset}: no scalar with a pass/fail rule"]
    return ok, "; ".join(parts)


def check_two_photon_rabi() -> tuple[bool, str]:
    value = two_photon_rabi(AtomParams(omega_blue_mhz=60, omega_red_mhz=40,
                                       delta_intermediate_mhz=600))
    return value == 2.0, f"Omega = {value} MHz (expected exactly 2.0)"


def check_doppler_width() -> tuple[bool, str]:
    sigma = doppler_sigma(AtomParams())  # krad/s
    target = TWO_PI * 43.5  # 2*pi * 43.5 kHz in krad/s
    rel = abs(sigma - target) / target
    return rel < 0.02, f"sigma = {sigma:.2f} krad/s vs 2pi*43.5 kHz ({rel * 100:.2f}% off)"


def check_fidelity_pipeline() -> tuple[bool, str]:
    d = DetectionModel(f_g=0.99, f_r=0.96)
    # perfect W through detection: gr and rg populations 1/2 each
    detected = apply_detection({"gg": 0.0, "gr": 0.5, "rg": 0.5, "rr": 0.0}, d, 1.0)
    diag_ceiling = detected["gr"] + detected["rg"]
    ok_diag = abs(diag_ceiling - 0.95) <= 0.01

    record = BellRecord.from_measured(0.94, 0.88)
    ok_eq1 = abs(record.fidelity - 0.910) < 1e-12

    corrected = detection_corrected_fidelity(0.91, d)
    ok_corr = abs(corrected - 0.97) <= 0.01
    ok = ok_diag and ok_eq1 and ok_corr
    return ok, (
        f"diag ceiling = {diag_ceiling:.4f} (0.95 +- 0.01); "
        f"F(0.94, 0.88) = {record.fidelity:.3f} (= 0.910); "
        f"corrected = {corrected:.4f} (0.97 +- 0.01)"
    )


def _random_density_matrix(rng, dim=4) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def check_parity_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(2024)
    times = np.linspace(0.0, 0.4, 41)
    worst = 0.0
    for _ in range(100):
        rho = DensityMatrix(_random_density_matrix(rng), ("gg", "gr", "rg", "rr"))
        alpha, _, _ = parity_amplitude(rho, 5.0, times)
        direct = abs(coherence(rho, "gr", "rg"))
        worst = max(worst, abs(alpha - direct))
    return worst <= 1e-9, f"max |alpha_fit - |rho_gr,rg|| = {worst:.2e} over 100 states (<= 1e-9)"


def check_w_echo() -> tuple[bool, str]:
    # refocusing: Doppler + position noise only, projected model, fast pulses
    _, res = _run({"preset": "w_echo", "blockade_model": "projected",
                   "noise": {"scattering": False, "blackbody": False}, "ideal_pulses": True,
                   "scan": {"start": 4.0, "stop": 20.0, "points": 2}, "n_shots": 50})
    worst = float(1.0 - res.per_shot[:, :, 0].min())
    ok_immune = worst <= 1e-5

    # full noise model: decay-limited lifetime
    ok_echo, echo = _rules_pass({"preset": "w_echo"})

    # without the swap pulse the lifetime collapses to the Doppler scale
    cfg, res = _run({"preset": "w_lifetime"})
    tau_plain = next(s.value for s in preset_info("w_lifetime").analyze(cfg, res)
                     if s.name == "w_lifetime_us")
    ok_plain = tau_plain < 8.0

    ok = ok_immune and ok_echo and ok_plain
    return ok, (
        f"per-shot refocusing error = {worst:.2e} (<= 1e-5); {echo}; "
        f"without swap pulse = {tau_plain:.1f} us (< 8)"
    )


def check_decoherence_free_subspace() -> tuple[bool, str]:
    gamma = 0.05  # 1/us
    basis = ("gg", "gr", "rg", "rr")
    proj_r = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    collective = tensor(proj_r, eye2) + tensor(eye2, proj_r)
    channel = LindbladChannel.from_rate(gamma, collective)

    w = np.zeros(4, complex)
    w[1] = w[2] = 1 / math.sqrt(2)
    rho0 = DensityMatrix.from_state_vector(w, basis)
    h = np.zeros((4, 4), dtype=complex)
    traj = evolve(rho0, [Segment(h, 20.0)], [channel], sample_dt=2.0)
    drift = max(abs(coherence(dm, "gr", "rg") - 0.5) for _, dm in traj)
    ok_dfs = drift <= 1e-9

    # single atom: same gamma decays the g-r coherence at gamma/2
    single = DensityMatrix.from_state_vector(np.array([1, 1]) / math.sqrt(2), ("g", "r"))
    chan1 = LindbladChannel.from_rate(gamma, proj_r)
    final = evolve(single, [Segment(np.zeros((2, 2), complex), 20.0)], [chan1])[-1][1]
    measured = abs(coherence(final, "g", "r"))
    expected = 0.5 * math.exp(-gamma * 20.0 / 2.0)
    rel = abs(measured - expected) / expected
    ok_single = rel < 0.01
    return ok_dfs and ok_single, (
        f"pair coherence drift = {drift:.2e} over 20 us (<= 1e-9); single-atom "
        f"coherence decay off by {rel * 100:.3f}% from exp(-gamma t/2)"
    )


def check_integrator_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    basis = ("a", "b", "c", "d")
    worst = 0.0
    for _ in range(50):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (a + a.conj().T) / 2.0
        rho0 = DensityMatrix(_random_density_matrix(rng), basis)
        t = 1.0
        final = evolve(rho0, [Segment(h, t)])[-1][1].matrix
        # independent oracle: eigendecomposition propagator
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        exact = u @ rho0.matrix @ u.conj().T
        worst = max(worst, float(np.max(np.abs(final - exact))))
    return worst <= 1e-8, f"max |evolve - expm| = {worst:.2e} over 50 Hamiltonians (<= 1e-8)"


ALL_CHECKS: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "two-photon Rabi frequency", check_two_photon_rabi),
    (2, "Doppler width", check_doppler_width),
    (3, "excited-state lifetime preset", partial(_rules_pass, {"preset": "t1"})),
    (4, "Ramsey dephasing preset", partial(_rules_pass, {"preset": "ramsey"})),
    (5, "spin-echo preset", partial(
        _rules_pass, {"preset": "spin_echo"},
        {"preset": "spin_echo", "noise": {"gamma_laser": 1.0 / (2 * 47.0)}})),
    (6, "Rabi coherence preset", partial(_rules_pass, {"preset": "rabi"})),
    (7, "blockaded collective oscillation", partial(
        _rules_pass, {"preset": "blockade_rabi", "n_shots": 1,
                      "noise": {"doppler": False, "positions": False}})),
    (8, "Bell fidelity pipeline", check_fidelity_pipeline),
    (9, "parity-scan oracle equivalence", check_parity_oracle),
    (10, "entangled-state echo", check_w_echo),
    (11, "decoherence-free subspace", check_decoherence_free_subspace),
    (12, "integrator vs matrix exponential", check_integrator_oracle),
]


def run_all() -> list[CheckResult]:
    results = []
    for num, title, fn in ALL_CHECKS:
        start = time.perf_counter()
        passed, detail = fn()
        result = CheckResult(num, title, passed, detail, time.perf_counter() - start)
        results.append(result)
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {num:2d} {title}: {detail} ({result.seconds:.1f}s)")
    return results

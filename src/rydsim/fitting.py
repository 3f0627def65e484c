"""Nonlinear least-squares fits for the functional forms used in the scans.

A damped Gauss-Newton loop (Levenberg-style diagonal damping, analytic
Jacobians) covers three model families:

* damped cosine: offset + A*cos(2*pi*f*t + phi) * env(t/tau)
* plain decay:   floor + A * env(t/tau)
* plain cosine:  offset + A*cos(2*pi*f*t + phi)

with env either exp(-x) or exp(-x^2). Decays are parameterized internally
by the rate 1/tau so that "no decay" is the well-behaved point rate = 0.
Times are in us and frequencies in MHz (cycles/us), so no conversion
factors appear anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import TWO_PI

__all__ = [
    "FitResult",
    "fit_damped_cosine",
    "fit_decay",
    "fit_cosine",
    "spectral_peak",
]

MAX_ITERATIONS = 200
GRADIENT_TOL = 1e-12
STEP_TOL = 1e-10
NO_DECAY_RATE = 1e-9  # 1/us; fitted rates at or below this mean tau -> inf


def _snap_undetectable_rate(rate: float, span: float) -> float:
    # envelopes a million times longer than the scan are indistinguishable
    # from no decay; report them as exactly zero
    return 0.0 if rate <= 1e-6 / span else rate


@dataclass
class FitResult:
    """Estimated parameters with linearized variances and diagnostics."""

    params: dict[str, float]
    covariance_diag: dict[str, float]
    residual_norm: float
    converged: bool
    n_iterations: int

    @property
    def tau_us(self) -> float:
        return self.params.get("tau_us", math.inf)

    @property
    def no_decay(self) -> bool:
        rate = self.params.get("rate_per_us")
        return rate is not None and rate <= NO_DECAY_RATE


def _validate_xy(t, y, min_points: int):
    t = np.asarray(t, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if t.size != y.size:
        raise ValueError(f"t and y lengths differ: {t.size} vs {y.size}")
    if t.size < min_points:
        raise ValueError(f"need at least {min_points} points, got {t.size}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in fit data")
    return t, y


def _gauss_newton(model_jac, p0, max_iter=MAX_ITERATIONS):
    """Minimize ||w*(model(p) - y)||^2 by damped Gauss-Newton.

    ``model_jac(p)`` returns (residual, jacobian) already weighted. Returns
    (p, cov_diag, residual_norm, converged, iterations).
    """
    p = np.asarray(p0, dtype=float)
    r, jac = model_jac(p)
    cost = 0.5 * float(r @ r)
    lam = 1e-6
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = jac.T @ r
        gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
        if gnorm < GRADIENT_TOL * (1.0 + cost):
            converged = True
            break
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
        step = None
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam = max(lam, 1e-12) * 10
                continue
            p_try = p + step
            r_try, jac_try = model_jac(p_try)
            cost_try = 0.5 * float(r_try @ r_try)
            if np.isfinite(cost_try) and cost_try <= cost:
                break
            lam = max(lam, 1e-12) * 10
            step = None
        if step is None:
            break
        rel_step = float(np.max(np.abs(step) / (np.abs(p) + 1.0)))
        p, r, jac, cost = p_try, r_try, jac_try, cost_try
        lam = max(lam / 3.0, 1e-14)
        if rel_step < STEP_TOL:
            converged = True
            break

    # Linearized covariance: sigma^2 * (J^T J)^-1 on the diagonal.
    n, k = jac.shape
    cov = np.full(k, np.nan)
    if n > k:
        sigma2 = (2.0 * cost) / (n - k)
        try:
            cov = sigma2 * np.diag(np.linalg.inv(jac.T @ jac + 1e-300 * np.eye(k)))
        except np.linalg.LinAlgError:
            pass
    return p, cov, math.sqrt(2.0 * cost), converged, iterations


def spectral_peak(t, y) -> float:
    """Frequency (MHz) of the dominant nonzero bin of the discrete transform.

    Requires uniform sampling. A constant signal has no dominant bin and
    raises.
    """
    t, y = _validate_xy(t, y, 4)
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(abs(dt[0]), 1e-12):
        raise ValueError("spectral peak requires uniform sampling")
    centered = y - np.mean(y)
    spectrum = np.abs(np.fft.rfft(centered))
    if spectrum.size < 2:
        raise ValueError("too few samples for a spectral estimate")
    peak_bin = int(np.argmax(spectrum[1:])) + 1
    if spectrum[peak_bin] <= 1e-12 * (np.max(np.abs(centered)) * y.size + 1e-300):
        raise ValueError("no dominant frequency: signal is constant")
    return float(peak_bin / (y.size * dt[0]))


def _phase_amplitude_guess(t, y, f_mhz):
    """Least-squares cosine/sine quadratures at a fixed frequency."""
    w = TWO_PI * f_mhz
    c = np.cos(w * t)
    s = np.sin(w * t)
    centered = y - np.mean(y)
    a = 2.0 * float(centered @ c) / t.size
    b = 2.0 * float(centered @ s) / t.size
    amp = math.hypot(a, b)
    phase = math.atan2(-b, a)
    return amp, phase


def _envelope_rate_guess(t, y, gaussian: bool) -> float:
    """Initial decay rate from the oscillation RMS in the first vs last third."""
    span = float(t.max() - t.min())
    order = np.argsort(t)
    n = t.size // 3
    detrended = y - np.mean(y)
    head, tail = order[:n], order[-n:]
    r_head = float(np.sqrt(np.mean(detrended[head] ** 2)))
    r_tail = float(np.sqrt(np.mean(detrended[tail] ** 2)))
    t_head = float(np.mean(t[head]))
    t_tail = float(np.mean(t[tail]))
    floor = 1e-3 / span
    if r_head <= 0 or r_tail <= 0 or r_tail >= r_head:
        return floor
    log_ratio = math.log(r_head / r_tail)
    if gaussian:
        rate = math.sqrt(log_ratio / (t_tail**2 - t_head**2))
    else:
        rate = log_ratio / (t_tail - t_head)
    return min(max(rate, floor), 20.0 / span)


def _normalize_cosine(params: dict[str, float], raw_frequency: float) -> None:
    # canonical form: positive frequency and amplitude, phase in (-pi, pi]
    if raw_frequency < 0:
        params["phase_rad"] = -params["phase_rad"]
    if params["amplitude"] < 0:
        params["amplitude"] = -params["amplitude"]
        params["phase_rad"] += math.pi
    phase = math.remainder(params["phase_rad"], TWO_PI)
    if phase <= -math.pi:
        phase += TWO_PI
    params["phase_rad"] = phase


def fit_damped_cosine(t, y, model: str = "exp_envelope", weights=None) -> FitResult:
    """Fit offset + A*cos(2*pi*f*t + phi)*env(t/tau).

    ``model`` selects the envelope: "exp_envelope" for exp(-t/tau) or
    "gauss_envelope" for exp(-(t/tau)^2). The frequency is initialized from
    the spectral peak of the mean-subtracted data, so the scan must cover
    at least one oscillation period. Optional ``weights`` multiply the
    residuals (e.g. inverse confidence intervals).
    """
    if model not in ("exp_envelope", "gauss_envelope"):
        raise ValueError(f"unknown envelope model {model!r}")
    gaussian = model == "gauss_envelope"
    t, y = _validate_xy(t, y, 6)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)

    f0 = spectral_peak(t, y)
    span = float(t.max() - t.min())
    if span * f0 < 1.0:
        raise ValueError("scan must span at least one oscillation period")
    amp0, phase0 = _phase_amplitude_guess(t, y, f0)
    rate0 = _envelope_rate_guess(t, y, gaussian)
    p0 = np.array([np.mean(y), amp0, f0, phase0, rate0])

    def model_jac(p):
        offset, amp, f, phase, rate = p
        arg = TWO_PI * f * t + phase
        x = rate * t
        env = np.exp(-(x**2)) if gaussian else np.exp(-x)
        cosarg = np.cos(arg)
        osc = cosarg * env
        resid = (offset + amp * osc - y) * w
        denv_drate = env * (-2.0 * x * t) if gaussian else env * (-t)
        jac = np.column_stack(
            [
                np.ones_like(t),
                osc,
                amp * env * -np.sin(arg) * TWO_PI * t,
                amp * env * -np.sin(arg),
                amp * cosarg * denv_drate,
            ]
        ) * w[:, None]
        return resid, jac

    p, cov, rnorm, converged, iters = _gauss_newton(model_jac, p0)
    offset, amp, f, phase, rate = p
    # a gaussian envelope is even in the rate; an exponential fit only ends
    # up negative when the data carry no decay at all
    rate = _snap_undetectable_rate(abs(rate) if gaussian else max(rate, 0.0), span)
    params = {
        "offset": float(offset),
        "amplitude": float(amp),
        "frequency_mhz": float(abs(f)),
        "phase_rad": float(phase),
        "rate_per_us": float(rate),
        "tau_us": float(1.0 / rate) if rate > NO_DECAY_RATE else math.inf,
    }
    _normalize_cosine(params, float(f))
    names = ["offset", "amplitude", "frequency_mhz", "phase_rad", "rate_per_us"]
    return FitResult(params, dict(zip(names, map(float, cov))), rnorm, converged, iters)


def fit_decay(t, y, model: str = "exponential", floor: float | None = None,
              weights=None) -> FitResult:
    """Fit floor + A*env(t/tau) with env exp(-x) or exp(-x^2).

    ``floor`` fixes the asymptote when given (echo-contrast fits use 0.5);
    otherwise it is a free parameter.
    """
    if model not in ("exponential", "gaussian"):
        raise ValueError(f"unknown decay model {model!r}")
    gaussian = model == "gaussian"
    t, y = _validate_xy(t, y, 4)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    span = float(t.max() - t.min())
    if span <= 0:
        raise ValueError("degenerate time axis")

    free_floor = floor is None
    c0 = float(np.min(y)) if free_floor else float(floor)
    a0 = float(y[np.argmin(t)] - c0) or 1.0
    p0 = [a0, 1.0 / span] + ([c0] if free_floor else [])

    def model_jac(p):
        amp, rate = p[0], p[1]
        c = p[2] if free_floor else c0
        x = rate * t
        env = np.exp(-(x**2)) if gaussian else np.exp(-x)
        resid = (c + amp * env - y) * w
        denv_drate = env * (-2.0 * x * t) if gaussian else env * (-t)
        cols = [env, amp * denv_drate]
        if free_floor:
            cols.append(np.ones_like(t))
        jac = np.column_stack(cols) * w[:, None]
        return resid, jac

    p, cov, rnorm, converged, iters = _gauss_newton(model_jac, np.array(p0))
    rate = _snap_undetectable_rate(
        abs(float(p[1])) if gaussian else max(float(p[1]), 0.0), span
    )
    params = {
        "amplitude": float(p[0]),
        "rate_per_us": rate,
        "tau_us": float(1.0 / rate) if rate > NO_DECAY_RATE else math.inf,
        "offset": float(p[2]) if free_floor else c0,
    }
    names = ["amplitude", "rate_per_us"] + (["offset"] if free_floor else [])
    return FitResult(params, dict(zip(names, map(float, cov))), rnorm, converged, iters)


def fit_cosine(t, y, freq_guess_mhz: float | None = None, weights=None) -> FitResult:
    """Fit offset + A*cos(2*pi*f*t + phi) with no envelope.

    The frequency starts from ``freq_guess_mhz`` when the drive frequency
    is known (e.g. a phase-gate scan) and from the spectral peak otherwise.
    """
    t, y = _validate_xy(t, y, 4)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    f0 = freq_guess_mhz if freq_guess_mhz is not None else spectral_peak(t, y)
    amp0, phase0 = _phase_amplitude_guess(t, y, f0)
    p0 = np.array([np.mean(y), amp0, f0, phase0])

    def model_jac(p):
        offset, amp, f, phase = p
        arg = TWO_PI * f * t + phase
        cosarg = np.cos(arg)
        resid = (offset + amp * cosarg - y) * w
        jac = np.column_stack(
            [
                np.ones_like(t),
                cosarg,
                amp * -np.sin(arg) * TWO_PI * t,
                amp * -np.sin(arg),
            ]
        ) * w[:, None]
        return resid, jac

    p, cov, rnorm, converged, iters = _gauss_newton(model_jac, p0)
    params = {
        "offset": float(p[0]),
        "amplitude": float(p[1]),
        "frequency_mhz": float(abs(p[2])),
        "phase_rad": float(p[3]),
    }
    _normalize_cosine(params, float(p[2]))
    names = ["offset", "amplitude", "frequency_mhz", "phase_rad"]
    return FitResult(params, dict(zip(names, map(float, cov))), rnorm, converged, iters)

"""Nonlinear least-squares fits for the functional forms used in the scans.

A damped Gauss-Newton loop (Levenberg-style diagonal damping, analytic
Jacobian) fits one model,

    offset + A*cos(2*pi*f*t + phi) * env(t/tau)

with env either exp(-x) or exp(-x^2), and each public fit holds some of
its parameters fixed: ``fit_damped_cosine`` frees all five, ``fit_decay``
holds f = phi = 0 (and optionally the offset), ``fit_cosine`` holds the
decay rate at 0. Decays are parameterized internally by the rate 1/tau so
that "no decay" is the well-behaved point rate = 0.
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
_PARAMS = ("offset", "amplitude", "frequency_mhz", "phase_rad", "rate_per_us")


@dataclass
class FitResult:
    """Estimated parameters with linearized variances and diagnostics."""

    params: dict[str, float]
    covariance_diag: dict[str, float]
    residual_norm: float
    converged: bool
    n_iterations: int

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
    """Minimize ||model(p) - y||^2 by damped Gauss-Newton.

    ``model_jac(p)`` returns (residual, jacobian). Returns
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
        gnorm = float(np.max(np.abs(grad)))
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


def _fit(t, y, guess: dict[str, float], free: tuple[str, ...], gaussian: bool):
    """Fit offset + A*cos(2*pi*f*t + phi)*env(rate*t), varying only ``free``.

    ``guess`` sets all five parameters; those not named in ``free`` stay
    fixed there. The Jacobian columns, and so the covariance, follow the
    order of ``free``. Returns the fitted parameters and the diagnostics
    (covariance by name, residual norm, converged, iterations).
    """
    held = np.array([guess[name] for name in _PARAMS], dtype=float)
    cols = [_PARAMS.index(name) for name in free]

    def model_jac(p):
        full = held.copy()
        full[cols] = p
        offset, amp, f, phase, rate = full
        arg = TWO_PI * f * t + phase
        x = rate * t
        env = np.exp(-(x**2)) if gaussian else np.exp(-x)
        cosarg = np.cos(arg)
        osc = cosarg * env
        dosc_dphase = amp * env * -np.sin(arg)
        denv_drate = env * (-2.0 * x * t) if gaussian else env * (-t)
        jac = (np.ones_like(t), osc, dosc_dphase * TWO_PI * t, dosc_dphase,
               amp * cosarg * denv_drate)
        return offset + amp * osc - y, np.column_stack([jac[i] for i in cols])

    p, cov, rnorm, converged, iters = _gauss_newton(model_jac, held[cols])
    held[cols] = p
    return dict(zip(_PARAMS, map(float, held))), (
        dict(zip(free, map(float, cov))), rnorm, converged, iters)


def _cosine_params(fitted: dict[str, float]) -> dict[str, float]:
    # canonical form: positive frequency and amplitude, phase in (-pi, pi]
    amplitude, phase = fitted["amplitude"], fitted["phase_rad"]
    if fitted["frequency_mhz"] < 0:
        phase = -phase
    if amplitude < 0:
        amplitude = -amplitude
        phase += math.pi
    phase = math.remainder(phase, TWO_PI)
    if phase <= -math.pi:
        phase += TWO_PI
    return {"amplitude": amplitude, "frequency_mhz": abs(fitted["frequency_mhz"]),
            "phase_rad": phase}


def _decay_params(rate: float, gaussian: bool, span: float) -> dict[str, float]:
    # a gaussian envelope is even in the rate; an exponential fit only ends
    # up negative when the data carry no decay at all
    rate = abs(rate) if gaussian else max(rate, 0.0)
    # envelopes a million times longer than the scan are indistinguishable
    # from no decay; report them as exactly zero
    if rate <= 1e-6 / span:
        rate = 0.0
    return {"rate_per_us": rate, "tau_us": 1.0 / rate if rate > NO_DECAY_RATE else math.inf}


def fit_damped_cosine(t, y, model: str = "exp_envelope") -> FitResult:
    """Fit offset + A*cos(2*pi*f*t + phi)*env(t/tau).

    ``model`` selects the envelope: "exp_envelope" for exp(-t/tau) or
    "gauss_envelope" for exp(-(t/tau)^2). The frequency is initialized from
    the spectral peak of the mean-subtracted data, so the scan must cover
    at least one oscillation period.
    """
    if model not in ("exp_envelope", "gauss_envelope"):
        raise ValueError(f"unknown envelope model {model!r}")
    gaussian = model == "gauss_envelope"
    t, y = _validate_xy(t, y, 6)

    f0 = spectral_peak(t, y)
    span = float(t.max() - t.min())
    if span * f0 < 1.0:
        raise ValueError("scan must span at least one oscillation period")
    amp0, phase0 = _phase_amplitude_guess(t, y, f0)
    guess = dict(zip(_PARAMS, (np.mean(y), amp0, f0, phase0,
                               _envelope_rate_guess(t, y, gaussian))))
    fitted, diagnostics = _fit(t, y, guess, _PARAMS, gaussian)
    params = {"offset": fitted["offset"], **_cosine_params(fitted),
              **_decay_params(fitted["rate_per_us"], gaussian, span)}
    return FitResult(params, *diagnostics)


def fit_decay(t, y, model: str = "exponential", floor: float | None = None) -> FitResult:
    """Fit floor + A*env(t/tau) with env exp(-x) or exp(-x^2).

    This is the damped cosine held at zero frequency and phase. ``floor``
    fixes the asymptote when given (echo-contrast fits use 0.5); otherwise
    it is a free parameter.
    """
    if model not in ("exponential", "gaussian"):
        raise ValueError(f"unknown decay model {model!r}")
    gaussian = model == "gaussian"
    t, y = _validate_xy(t, y, 4)
    span = float(t.max() - t.min())
    if span <= 0:
        raise ValueError("degenerate time axis")

    c0 = float(np.min(y)) if floor is None else float(floor)
    guess = {"offset": c0, "amplitude": float(y[np.argmin(t)] - c0) or 1.0,
             "frequency_mhz": 0.0, "phase_rad": 0.0, "rate_per_us": 1.0 / span}
    free = ("amplitude", "rate_per_us") + (("offset",) if floor is None else ())
    fitted, diagnostics = _fit(t, y, guess, free, gaussian)
    params = {"amplitude": fitted["amplitude"],
              **_decay_params(fitted["rate_per_us"], gaussian, span),
              "offset": fitted["offset"]}
    return FitResult(params, *diagnostics)


def fit_cosine(t, y, freq_guess_mhz: float | None = None) -> FitResult:
    """Fit offset + A*cos(2*pi*f*t + phi) with no envelope.

    This is the damped cosine held at zero rate. The frequency starts from
    ``freq_guess_mhz`` when the drive frequency is known (e.g. a phase-gate
    scan) and from the spectral peak otherwise.
    """
    t, y = _validate_xy(t, y, 4)
    f0 = freq_guess_mhz if freq_guess_mhz is not None else spectral_peak(t, y)
    amp0, phase0 = _phase_amplitude_guess(t, y, f0)
    guess = dict(zip(_PARAMS, (np.mean(y), amp0, f0, phase0, 0.0)))
    fitted, diagnostics = _fit(t, y, guess, _PARAMS[:4], gaussian=False)
    return FitResult({"offset": fitted["offset"], **_cosine_params(fitted)}, *diagnostics)

"""Named experiment presets, config ingestion, and result persistence.

``PRESETS`` is the one table of presets: each ``Preset`` record holds a
pulse-sequence builder from :mod:`rydsim.pulses`, a default scan grid and
shot count, and the analyzer that extracts the figures of merit (fitted
lifetimes, frequencies, Bell fidelity) together with their pass/fail
rules. ``run_experiment`` executes a validated config, writes a
plot-ready CSV plus a JSON manifest, and returns the manifest; the
acceptance suite scores its preset checks with the same analyzers. All
external units are us, MHz and probabilities.
"""

from __future__ import annotations

import dataclasses
import difflib
import functools
import inspect
import json
import math
import numbers
import time
from dataclasses import MISSING, dataclass, field, asdict
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, pulses
from .atoms import AtomParams, DetectionModel, doppler_sigma
from .blockade import BellRecord, TwoAtomParams, detection_corrected_fidelity
from .dynamics import DEFAULT_DT_MAX, _check_hamiltonians
from .fitting import fit_cosine, fit_damped_cosine, fit_decay
from .montecarlo import (
    DEFAULT_SIGMA_POSITION_UM, EnsembleResult, EnsembleSpec, run_ensemble, shot_seed,
)
from .pulses import PulseSequence, SystemModel, collective_pi_time, compile_sequence

__all__ = [
    "ExperimentConfig",
    "RunManifest",
    "DerivedScalar",
    "Preset",
    "PRESETS",
    "list_presets",
    "preset",
    "preset_info",
    "run_experiment",
    "load_config",
]


# -- configuration -----------------------------------------------------------

# The ExperimentConfig fields that a config nests under ``noise:``.
_NOISE_KEYS = {"doppler", "positions", "scattering", "blackbody", "gamma_laser",
               "sigma_position_um"}
# The only numbers that may be infinite: .inf switches that decay off.
_MAY_BE_INFINITE = {"atom.t_blackbody_us", "atom.t_radiative_us"}
_SCAN_KEYS = ("start", "stop", "points")  # a config's scan: keys, in ExperimentConfig.scan order


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    preset: str
    scan: tuple[float, float, int]
    n_shots: int
    mode: str = "expectation"
    master_seed: int = 0
    output_dir: str = "runs"
    dt_max: float = DEFAULT_DT_MAX
    atom: AtomParams = field(default_factory=AtomParams)
    two_atom: TwoAtomParams = field(default_factory=TwoAtomParams)
    detection: DetectionModel | None = field(default_factory=DetectionModel)
    doppler: bool = True
    positions: bool = True
    scattering: bool = True
    blackbody: bool = True
    gamma_laser: float = 0.0
    sigma_position_um: float = DEFAULT_SIGMA_POSITION_UM
    sequence: dict = field(default_factory=dict)
    blockade_model: str = "full"
    ideal_pulses: bool = False
    n_workers: int = 1
    raw: dict = field(default_factory=dict)  # validated config echo

    def system(self) -> SystemModel:
        info = preset_info(self.preset)
        return SystemModel(
            atom=self.atom,
            n_atoms=info.n_atoms,
            two_atom=self.two_atom if info.n_atoms == 2 else None,
            blockade_model=self.blockade_model,
            scattering=self.scattering,
            blackbody=self.blackbody and self.blockade_model != "projected",
            gamma_laser=self.gamma_laser,
        )

    def scan_values(self) -> np.ndarray:
        start, stop, points = self.scan
        return np.linspace(start, stop, points)

    @property
    def params(self) -> dict:
        """Sequence parameters: the preset's defaults updated by ``sequence``."""
        return {**preset_info(self.preset).sequence_defaults, **self.sequence}

    def ensemble_spec(self) -> EnsembleSpec:
        # a partial over a module-level builder stays picklable for workers
        return EnsembleSpec(
            build=functools.partial(preset_info(self.preset).build, **self.sequence),
            system=self.system(),
            detection=self.detection,
            sigma_doppler_krad_s=(None if self.doppler else 0.0),
            sigma_position_um=(self.sigma_position_um if self.positions else 0.0),
            dt_max=self.dt_max,
            ideal_pulses=self.ideal_pulses,
        )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _integer(value, name: str) -> int:
    """An integral config value; int() alone would run 2.7 as 2 and true as 1."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    _require(integral and not isinstance(value, bool),
             f"{name} must be an integer, got {value!r}")
    return int(value)


def worker_count(value, name: str) -> int:
    """A number of worker processes: an integer >= 1."""
    workers = _integer(value, name)
    _require(workers >= 1, f"{name} must be >= 1, got {workers}")
    return workers


def _number(value, name: str) -> float:
    """A finite int or float. PyYAML reads 1e-3 (no dot) as a string, refused here."""
    _require(isinstance(value, numbers.Real) and not isinstance(value, bool),
             f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be finite, got an integer past the float range") from None
    _require(math.isfinite(value) or (value == math.inf and name in _MAY_BE_INFINITE),
             f"{name} must be finite, got {value}")
    return value


def _read(value, default, name: str):
    """One config value, read as the kind of value its ``default`` is."""
    if isinstance(default, bool):
        _require(isinstance(value, bool), f"{name} must be true or false, got {value!r}")
    elif isinstance(default, int):
        value = _integer(value, name)
    elif isinstance(default, float):
        value = _number(value, name)
    elif isinstance(default, str):
        _require(isinstance(value, str), f"{name} must be a string, got {value!r}")
    elif isinstance(default, dict):
        value = _fields(value, default, name)
    elif dataclasses.is_dataclass(default):
        value = _section(type(default), value, name)
    else:  # a default of None: positions_um and f_g_table take (nested) lists of numbers
        _require(isinstance(value, (list, tuple)), f"{name} must be a list, got {value!r}")
        value = tuple(
            _read(v, None if isinstance(v, (list, tuple)) else 0.0, f"{name}[{i}]")
            for i, v in enumerate(value)
        )
    return value


def _fields(data, defaults: dict, name: str, nullable=()) -> dict:
    """The entries of config mapping ``name``, each read as the kind of its
    default; null is read as None where a key is ``nullable``."""
    _require(isinstance(data, dict), f"{name or 'config'} must be a mapping, got {data!r}")
    unknown = set(data) - set(defaults)
    _require(not unknown, f"unknown {f'{name} parameters' if name else 'config keys'}: "
                          f"{sorted(unknown)} (allowed: {sorted(defaults)})")
    return {
        key: None if value is None and key in nullable
        else _read(value, defaults[key], f"{name}.{key}" if name else key)
        for key, value in data.items()
    }


def _schema(cls) -> tuple[dict, set]:
    """The defaults of the fields of dataclass ``cls`` that have one, and the
    names of the fields whose annotation admits None."""
    fields = [f for f in dataclasses.fields(cls)
              if f.default is not MISSING or f.default_factory is not MISSING]
    defaults = {f.name: f.default if f.default is not MISSING else f.default_factory()
                for f in fields}
    return defaults, {f.name for f in fields if "None" in str(f.type)}


def _section(cls, data, name: str):
    """Dataclass ``cls`` from config mapping ``name``: its fields are the schema."""
    defaults, nullable = _schema(cls)
    values = _fields(data, defaults, name, nullable)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a parsed config mapping against its preset.

    ExperimentConfig's fields are the schema: each field with a default is a
    key read as the kind of that default, and the ``_NOISE_KEYS`` nest under
    ``noise``. The preset supplies the scan, shot and sequence defaults.
    """
    _require(isinstance(data, dict), "config must be a mapping")
    _require("preset" in data, "config needs a 'preset' name")
    info = preset_info(_read(data["preset"], "", "preset"))
    defaults, nullable = _schema(ExperimentConfig)
    del defaults["raw"]
    defaults["noise"] = {key: defaults.pop(key) for key in _NOISE_KEYS}
    defaults.update(
        preset="",
        scan=dict(zip(_SCAN_KEYS, info.default_scan)),
        n_shots=info.default_shots,
        sequence=info.sequence_defaults,
    )
    given = data
    if isinstance(data.get("detection"), dict) and "f_g_table" in data["detection"]:
        given = {**data, "detection": {"f_g": None, **data["detection"]}}  # table replaces f_g

    values = _fields(given, defaults, "", nullable)
    values.update(values.pop("noise", {}))
    scan = {**defaults["scan"], **values.pop("scan", {})}
    cfg = ExperimentConfig(
        **{"n_shots": info.default_shots, **values},
        scan=tuple(scan[key] for key in _SCAN_KEYS),
        raw=data,
    )

    start, stop, points = cfg.scan
    _require(points >= 1, "scan needs at least one point")
    _require(stop >= start, "scan stop must be >= start")
    _require(cfg.n_shots >= 1, "n_shots must be >= 1")
    _require(-2**63 <= cfg.master_seed < 2**63,
             f"master_seed must be a signed 64-bit integer, got {cfg.master_seed}")
    _require(cfg.mode in ("expectation", "sampled"), f"unknown mode {cfg.mode!r}")
    _require(cfg.dt_max > 0, "dt_max must be positive")
    _require(cfg.sigma_position_um >= 0,
             f"noise.sigma_position_um must be >= 0, got {cfg.sigma_position_um}")
    worker_count(cfg.n_workers, "n_workers")
    try:  # surface builder errors (negative durations, overlong gates) now
        sequences = [info.build(value, **cfg.sequence) for value in (start, stop)]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sequence for preset {info.name!r}: {exc}") from None
    system = cfg.system()  # surface inconsistent model/noise combinations now
    if info.name == "parity_scan":  # its analysis also runs the Bell-prep pulse
        sequences.append(_bell_prep(cfg))
    try:  # finite values can still overflow a Hamiltonian: refused once, here
        with np.errstate(invalid="ignore", over="ignore"):
            compiled = [compile_sequence(seq, system, ideal_pulses=cfg.ideal_pulses)
                        for seq in sequences]
        for segment in (seg for c in compiled for seg in c.segments):
            _check_hamiltonians(segment.hamiltonian)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:  # a tabulated f_g must cover every trap-off time
        for c in compiled if cfg.detection else ():
            cfg.detection.fg_at(c.total_duration)
    except ValueError as exc:
        raise ConfigError(f"detection.f_g_table: {exc}") from None
    return cfg


def load_config(path) -> ExperimentConfig:
    """Load and validate a YAML config file."""
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"could not parse {path}: {exc}") from None
    if data is None:
        raise ConfigError(f"{path} is empty")
    return config_from_dict(data)


# -- derived scalars ---------------------------------------------------------


@dataclass
class DerivedScalar:
    """One figure of merit with the acceptance rule it was checked against."""

    name: str
    value: float
    rule: str
    target: str
    passed: bool | None  # None = informational, no pass/fail target
    note: str = ""


def _scalar(name, value, rule, target, passed, note="", fit=None) -> DerivedScalar:
    """A derived scalar; one read from a ``fit`` that did not converge cannot pass."""
    if fit is not None and not fit.converged:
        if passed is not None:
            passed = False
        note = f"{note}; fit did not converge" if note else "fit did not converge"
    return DerivedScalar(name, float(value), rule, target, passed, note)


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def _analyze_rabi(cfg: ExperimentConfig, res: EnsembleResult) -> list[DerivedScalar]:
    t = res.scan_values
    fit = fit_damped_cosine(t, res.column("r"), "gauss_envelope")
    rabi_set = cfg.params["rabi_mhz"]
    out = [
        _scalar(
            "rabi_frequency_mhz",
            fit.params["frequency_mhz"],
            "rabi-frequency",
            f"{rabi_set} MHz within 5%",
            _within(fit.params["frequency_mhz"], rabi_set, 0.05),
            fit=fit,
        )
    ]
    tau = fit.params["tau_us"]
    if fit.no_decay or not math.isfinite(tau):
        tau = math.inf
    full_noise = cfg.doppler and cfg.scattering and cfg.blackbody
    out.append(
        _scalar(
            "coherence_time_us", tau, "rabi-coherence-time",
            "20-35 us under the full noise model",
            (20.0 <= tau <= 35.0) if full_noise else None,
            note="no decay detected" if math.isinf(tau) else "",
            fit=fit,
        )
    )
    return out


def _analyze_t1(cfg: ExperimentConfig, res: EnsembleResult) -> list[DerivedScalar]:
    fit = fit_decay(res.scan_values, res.column("g"), "exponential")
    target = 51.7
    return [
        _scalar(
            "t1_lifetime_us", fit.params["tau_us"], "t1-lifetime",
            f"{target} us within 10%",
            _within(fit.params["tau_us"], target, 0.10),
            fit=fit,
        )
    ]


def _analyze_ramsey(cfg: ExperimentConfig, res: EnsembleResult) -> list[DerivedScalar]:
    fit = fit_damped_cosine(res.scan_values, res.column("g"), "gauss_envelope")
    sigma = doppler_sigma(cfg.atom) * 1e-3  # rad/us
    target = math.sqrt(2.0) / sigma
    tau = fit.params["tau_us"]
    return [
        _scalar(
            "t2_star_us", tau, "ramsey-t2star",
            f"sqrt(2)/sigma = {target:.2f} us within 10%",
            _within(tau, target, 0.10),
            fit=fit,
        ),
        _scalar(
            "fringe_frequency_mhz", fit.params["frequency_mhz"], "ramsey-fringe",
            "as configured", None, fit=fit,
        ),
    ]


def _analyze_spin_echo(cfg: ExperimentConfig, res: EnsembleResult) -> list[DerivedScalar]:
    fit = fit_decay(res.scan_values, res.column("g"), "exponential", floor=0.5)
    tau = fit.params["tau_us"]
    tuned = abs(cfg.gamma_laser - 1.0 / 94.0) < 1e-12
    if cfg.gamma_laser == 0.0:
        passed = tau >= 40.0
        target = ">= 40 us (model-limited)"
    elif tuned:
        passed = _within(tau, 32.0, 0.20)
        target = "32 us within 20% at gamma_laser = 1/(2*47 us)"
    else:
        passed, target = None, "informational at this gamma_laser"
    return [_scalar("t2_echo_us", tau, "spin-echo-t2", target, passed, fit=fit)]


def _analyze_phase_gate(cfg: ExperimentConfig, res: EnsembleResult) -> list[DerivedScalar]:
    shift = cfg.params["light_shift_mhz"]
    fit = fit_cosine(res.scan_values, res.column("g"), freq_guess_mhz=shift)
    return [
        _scalar(
            "phase_gate_frequency_mhz", fit.params["frequency_mhz"],
            "phase-gate-frequency", f"{shift} MHz within 5%",
            _within(fit.params["frequency_mhz"], shift, 0.05),
            fit=fit,
        ),
        _scalar(
            "phase_gate_contrast", 2.0 * abs(fit.params["amplitude"]),
            "phase-gate-contrast", "near the detection limit", None, fit=fit,
        ),
    ]


def _analyze_blockade(cfg: ExperimentConfig, res: EnsembleResult) -> list[DerivedScalar]:
    fit = fit_damped_cosine(res.scan_values, res.column("gg"), "exp_envelope")
    rabi_set = cfg.params["rabi_mhz"]
    target = math.sqrt(2.0) * rabi_set
    max_prr = float(np.max(res.raw_column("rr")))
    return [
        _scalar(
            "collective_frequency_mhz", fit.params["frequency_mhz"],
            "blockade-enhancement", f"sqrt(2)*{rabi_set} = {target:.4f} MHz within 1%",
            _within(fit.params["frequency_mhz"], target, 0.01),
            fit=fit,
        ),
        _scalar(
            "max_p_rr", max_prr, "blockade-leakage",
            "< 5e-3 before detection errors", max_prr < 5e-3,
        ),
    ]


def _bell_prep(cfg: ExperimentConfig) -> PulseSequence:
    """The collective pi pulse that prepares the Bell state the parity scan reads."""
    rabi = cfg.params["rabi_mhz"]
    return pulses._preset_blockade_rabi(collective_pi_time(rabi), rabi)


def _bell_prep_probabilities(cfg: ExperimentConfig) -> EnsembleResult:
    seq = _bell_prep(cfg)
    spec = dataclasses.replace(cfg.ensemble_spec(), build=lambda _value: seq)
    # a master seed of its own (scan index -1, which no scan point has), so
    # these shots do not repeat the noise draws of parity point 0
    seed = shot_seed(cfg.master_seed, -1, 0) >> 1
    return run_ensemble(spec, [0.0], cfg.n_shots, cfg.mode, seed)


def _analyze_parity(cfg: ExperimentConfig, res: EnsembleResult) -> list[DerivedScalar]:
    shift = cfg.params["light_shift_mhz"]
    fit = fit_cosine(res.scan_values, res.column("gg"), freq_guess_mhz=shift)
    contrast = 2.0 * abs(fit.params["amplitude"])

    prep = _bell_prep_probabilities(cfg)
    diag_sum = float(prep.column("gr")[0] + prep.column("rg")[0])
    record = BellRecord.from_measured(diag_sum, min(contrast, diag_sum))
    out = [
        _scalar("parity_contrast", contrast, "parity-contrast",
                "2*|rho_gr,rg| as measured", None, fit=fit),
        _scalar("bell_diag_sum", diag_sum, "bell-populations",
                "single-excitation population sum", None),
        _scalar("bell_fidelity", record.fidelity, "bell-fidelity",
                "(diag + contrast)/2", None, fit=fit),
    ]
    if cfg.detection is not None:
        corrected = detection_corrected_fidelity(record.fidelity, cfg.detection,
                                                 delta_mhz=shift)
        out.append(
            _scalar("bell_fidelity_corrected", corrected, "bell-fidelity-corrected",
                    "measured fidelity / detection ceiling", None, fit=fit)
        )
    return out


def _analyze_w_lifetime(cfg: ExperimentConfig, res: EnsembleResult) -> list[DerivedScalar]:
    fit = fit_decay(res.scan_values, res.column("gg"), "gaussian")
    sigma = doppler_sigma(cfg.atom) * 1e-3
    return [
        _scalar(
            "w_lifetime_us", fit.params["tau_us"], "w-lifetime",
            f"Doppler-limited, ~1/sigma = {1.0 / sigma:.1f} us", None, fit=fit,
        )
    ]


def _analyze_w_echo(cfg: ExperimentConfig, res: EnsembleResult) -> list[DerivedScalar]:
    fit = fit_decay(res.scan_values, res.column("gg"), "exponential")
    tau = fit.params["tau_us"]
    full_noise = cfg.doppler and cfg.scattering and cfg.blackbody and cfg.gamma_laser == 0
    return [
        _scalar(
            "w_echo_lifetime_us", tau, "w-echo-lifetime",
            "40-60 us (model-limited)",
            (40.0 <= tau <= 60.0) if full_noise else None,
            fit=fit,
        )
    ]


@dataclass(frozen=True)
class Preset:
    """One named experiment.

    ``build`` maps the scanned value, its first parameter, to a pulse
    sequence; its keyword parameters and their defaults are the preset's
    sequence parameters. ``analyze`` turns a finished scan into derived
    scalars, each carrying its pass/fail rule.
    """

    name: str
    description: str
    n_atoms: int
    build: Callable[..., PulseSequence]
    analyze: Callable[[ExperimentConfig, EnsembleResult], list[DerivedScalar]]
    default_scan: tuple[float, float, int]  # start, stop, points
    default_shots: int
    observable: str

    @property
    def scan_variable(self) -> str:
        return next(iter(inspect.signature(self.build).parameters))

    @property
    def sequence_defaults(self) -> dict:
        _, *params = inspect.signature(self.build).parameters.values()
        return {p.name: p.default for p in params}


PRESETS: dict[str, Preset] = {
    p.name: p
    for p in (
        Preset(
            "rabi",
            "Single-atom resonant drive for a scanned duration; the loss "
            "probability oscillates at the two-photon Rabi frequency and its "
            "contrast decays under Doppler and scattering noise.",
            1,
            pulses._preset_rabi,
            _analyze_rabi,
            (0.05, 12.05, 121),
            100,
            "r",
        ),
        Preset(
            "t1",
            "Excite with a pi pulse, wait a scanned delay, de-excite; the "
            "return probability decays with the combined excited-state "
            "lifetime (blackbody, radiative, red scattering).",
            1,
            pulses._preset_t1,
            _analyze_t1,
            (0.0, 150.0, 20),
            200,
            "g",
        ),
        Preset(
            "ramsey",
            "Two pi/2 pulses separated by a scanned gap, with a synthetic "
            "fringe imprinted on the closing pulse phase; shot-to-shot "
            "Doppler detunings give a Gaussian contrast decay.",
            1,
            pulses._preset_ramsey,
            _analyze_ramsey,
            (0.05, 12.05, 49),
            1000,
            "g",
        ),
        Preset(
            "spin_echo",
            "Ramsey with a refocusing pi pulse between symmetric arms; "
            "static Doppler shifts cancel, exposing lifetime and any added "
            "collective dephasing.",
            1,
            pulses._preset_spin_echo,
            _analyze_spin_echo,
            (0.0, 60.0, 16),
            150,
            "g",
        ),
        Preset(
            "phase_gate_echo",
            "Single-atom ground-state phase gate of scanned duration inside "
            "a balanced spin echo; the return probability oscillates at the "
            "light-shift frequency.",
            1,
            pulses._preset_phase_gate_echo,
            _analyze_phase_gate,
            (0.0, 1.0, 41),
            200,
            "g",
        ),
        Preset(
            "blockade_rabi",
            "Two interacting atoms driven globally for a scanned duration; "
            "the pair oscillates between gg and the symmetric singly excited "
            "state at sqrt(2) times the single-atom rate with the doubly "
            "excited state blockaded.",
            2,
            pulses._preset_blockade_rabi,
            _analyze_blockade,
            (0.02, 1.6, 80),
            50,
            "gg",
        ),
        Preset(
            "parity_scan",
            "Prepare the entangled pair state with a blockaded pi pulse, "
            "run a local phase gate for a scanned duration, close with a "
            "second pi pulse; the gg return oscillates with amplitude equal "
            "to twice the pair coherence.",
            2,
            pulses._preset_parity_scan,
            _analyze_parity,
            (0.0, 0.4, 21),
            100,
            "gg",
        ),
        Preset(
            "w_lifetime",
            "Blockaded pi pulse, scanned hold, blockaded pi pulse; relative "
            "per-atom Doppler phases dephase the entangled state within a "
            "few microseconds.",
            2,
            pulses._preset_w_lifetime,
            _analyze_w_lifetime,
            (0.1, 10.0, 21),
            100,
            "gg",
        ),
        Preset(
            "w_echo",
            "Entangled-state hold with a blockaded 2*pi pulse at the "
            "midpoint that swaps the two single-excitation amplitudes and "
            "refocuses Doppler phases, extending the pair lifetime to the "
            "decay-limited scale.",
            2,
            pulses._preset_w_echo,
            _analyze_w_echo,
            (0.2, 60.0, 16),
            60,
            "gg",
        ),
    )
}


def preset_info(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        hint = difflib.get_close_matches(name, PRESETS, n=1)
        suffix = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ValueError(f"unknown preset {name!r}{suffix}") from None


def preset(name: str, **params) -> PulseSequence:
    """Build a named sequence; the first parameter of each preset's builder
    is its scanned variable (drive time, gap or gate time)."""
    return preset_info(name).build(**params)


def list_presets() -> list[dict]:
    """Static catalog of presets with parameter documentation."""
    return [
        {
            "name": info.name,
            "description": info.description,
            "n_atoms": info.n_atoms,
            "scan_variable": info.scan_variable,
            "default_scan": dict(zip(_SCAN_KEYS, info.default_scan)),
            "default_shots": info.default_shots,
            "sequence_defaults": info.sequence_defaults,
            "observable": f"P_{info.observable}",
        }
        for info in PRESETS.values()
    ]


# -- persistence --------------------------------------------------------------


@dataclass
class RunManifest:
    preset: str
    artifact_version: str
    duration_s: float
    config: dict
    derived: list[DerivedScalar]
    data_file: str


def write_csv(path: Path, cfg: ExperimentConfig, res: EnsembleResult) -> None:
    info = preset_info(cfg.preset)
    lines = [
        f"# preset: {cfg.preset}",
        f"# scan variable: {info.scan_variable} (us)",
        f"# mode: {res.mode}, n_shots: {res.n_shots}, master_seed: {res.master_seed}",
        "# t_us: scanned time value;"
        " P_<s>: probability of measuring pattern <s> (g = recaptured, r = lost);"
        " *_ci_lo/_ci_hi: 68% Wilson interval",
        ",".join(["t_us"] + [f"P_{o}{e}" for o in res.outcomes for e in ("", "_ci_lo", "_ci_hi")]),
    ]
    triples = np.dstack([res.probabilities, res.ci_low, res.ci_high])  # each outcome's P, lo, hi
    rows = np.column_stack([res.scan_values, triples.reshape(len(triples), -1)])
    # given a path, np.savetxt imports gzip; an open handle skips that
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, rows, fmt="%.12g", delimiter=",", header="\n".join(lines), comments="")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute a validated config: simulate, fit, and persist results."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)  # a bad path fails before the simulation
    t_start = time.perf_counter()
    spec = cfg.ensemble_spec()
    result = run_ensemble(
        spec,
        cfg.scan_values(),
        cfg.n_shots,
        mode=cfg.mode,
        master_seed=cfg.master_seed,
        n_workers=cfg.n_workers,
    )
    try:
        derived = preset_info(cfg.preset).analyze(cfg, result)
    except (ValueError, ArithmeticError) as exc:
        # the scan data are still worth writing when a fit cannot run
        # (e.g. a smoke-test grid shorter than one oscillation period)
        derived = [
            DerivedScalar("fit", math.nan, f"{cfg.preset}-fit", "n/a", None,
                          note=f"analysis failed: {exc}")
        ]
    elapsed = time.perf_counter() - t_start

    data_file = outdir / f"{cfg.preset}.csv"
    write_csv(data_file, cfg, result)

    manifest = RunManifest(
        preset=cfg.preset,
        artifact_version=__version__,
        duration_s=round(elapsed, 3),
        config=_jsonify(cfg.raw) if cfg.raw else {"preset": cfg.preset},
        derived=derived,
        data_file=str(data_file),
    )
    manifest_file = outdir / f"{cfg.preset}_manifest.json"
    manifest_file.write_text(
        json.dumps(_jsonify(asdict(manifest)), indent=2) + "\n", encoding="utf-8"
    )
    return manifest

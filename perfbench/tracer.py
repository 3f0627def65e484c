"""Outside-in tracer for one ``rydsim run`` process.

Each traced function is replaced at the name its caller looks it up by, so
the program's own source is not touched. Every call records a span (name,
parent span, start, end) in compact in-memory arrays; counters that need
the call's arguments or result (segments, RK4 steps, fit iterations) are
kept beside them. Both are written to one ``.npz`` file when the run ends,
and :func:`summarize` turns that file into the per-layer metrics.

Run as a script it traces one run, in this process:

    PYTHONPATH=src python3 perfbench/tracer.py CONFIG.yaml SPANS.npz
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Spans that measure state validation. They are recorded, but their time is
# not subtracted from the enclosing span's self time: validation runs inside
# ``evolve`` and is part of what ``dynamics.evolve_self_s`` measures.
PROBES = ("dynamics.DensityMatrix.__post_init__", "dynamics.DensityMatrix.min_eigenvalue")

FITS = ("fit_cosine", "fit_damped_cosine", "fit_decay")

COUNTERS = (
    "dynamics.segments",
    "dynamics.rk4_steps",
    "dynamics.matmuls",
    "montecarlo.shots",
    "fitting.fit_iterations",
    "fitting.fit_unconverged",
)


class Tracer:
    """Records nested spans of wrapped calls made in one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return traced

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            counter_names=np.array(list(self.counters)),
            counter_values=np.array(list(self.counters.values()), dtype=np.int64),
        )


def matmuls_for_steps(n_steps: int) -> int:
    """Squarings plus applies that binary powering uses for ``n_steps`` steps."""
    return (n_steps.bit_length() - 1) + bin(n_steps).count("1")


def install(tr: Tracer) -> None:
    """Wrap the rydsim functions at the names their callers look up."""
    from rydsim import cli, dynamics, experiments, montecarlo

    counters = tr.counters
    # durations of the non-empty segments of the evolve call in progress;
    # evolve builds one RK4 map per such segment, in order
    pending: list[float] = []

    evolve = tr.wrap("dynamics.evolve", dynamics.evolve)

    def counted_evolve(rho0, segments, *args, **kwargs):
        segments = list(segments)
        counters["dynamics.segments"] += len(segments)
        pending[:] = [s.duration for s in segments if s.duration != 0.0]
        return evolve(rho0, segments, *args, **kwargs)

    rk4_map = tr.wrap("dynamics.rk4_map", dynamics.rk4_map)

    def counted_rk4_map(m, dt):
        if pending:
            # computed, not observed: evolve chose dt = duration / n_steps
            n_steps = round(pending.pop(0) / dt)
            counters["dynamics.rk4_steps"] += n_steps
            counters["dynamics.matmuls"] += matmuls_for_steps(n_steps)
        return rk4_map(m, dt)

    dynamics.evolve = functools.wraps(dynamics.evolve)(counted_evolve)
    dynamics.rk4_map = functools.wraps(dynamics.rk4_map)(counted_rk4_map)
    dynamics.liouvillian = tr.wrap("dynamics.liouvillian", dynamics.liouvillian)
    dm = dynamics.DensityMatrix
    dm.__post_init__ = tr.wrap(PROBES[0], dm.__post_init__)
    dm.min_eigenvalue = tr.wrap(PROBES[1], dm.min_eigenvalue)

    for name in ("compile_sequence", "run_compiled"):
        setattr(montecarlo, name, tr.wrap(f"pulses.{name}", getattr(montecarlo, name)))
    for name in ("sample_noise", "apply_detection"):
        setattr(montecarlo, name, tr.wrap(f"montecarlo.{name}", getattr(montecarlo, name)))

    run_ensemble = tr.wrap("montecarlo.run_ensemble", experiments.run_ensemble)

    def counted_run_ensemble(spec, scan_values, n_shots, *args, **kwargs):
        scan_values = list(scan_values)
        counters["montecarlo.shots"] += len(scan_values) * n_shots
        return run_ensemble(spec, scan_values, n_shots, *args, **kwargs)

    experiments.run_ensemble = functools.wraps(run_ensemble)(counted_run_ensemble)
    experiments.write_csv = tr.wrap("experiments.write_csv", experiments.write_csv)
    cli.load_config = tr.wrap("experiments.load_config", cli.load_config)

    for name in FITS:
        fit = tr.wrap(f"fitting.{name}", getattr(experiments, name))

        def counted_fit(*args, _fit=fit, **kwargs):
            result = _fit(*args, **kwargs)
            counters["fitting.fit_iterations"] += result.n_iterations
            counters["fitting.fit_unconverged"] += not result.converged
            return result

        setattr(experiments, name, functools.wraps(fit)(counted_fit))


def summarize(path) -> dict[str, float]:
    """Per-layer metrics from a spans file written by :meth:`Tracer.save`."""
    import numpy as np

    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name_id, parent = data["name_id"], data["parent"]
        dur = data["end"] - data["start"]
        counters = dict(zip((str(n) for n in data["counter_names"]),
                            (int(v) for v in data["counter_values"])))

    probe_ids = [names.index(p) for p in PROBES]
    nested = (parent >= 0) & ~np.isin(name_id, probe_ids)
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_time = dur - child

    def select(name):
        return name_id == names.index(name)

    def total(name):
        return float(dur[select(name)].sum())

    def own(name):
        return float(self_time[select(name)].sum())

    def calls(name):
        return int(np.count_nonzero(select(name)))

    return {
        "dynamics.evolve_s": total("dynamics.evolve"),
        "dynamics.evolve_self_s": own("dynamics.evolve"),
        "dynamics.rk4_map_s": total("dynamics.rk4_map"),
        "dynamics.liouvillian_s": total("dynamics.liouvillian"),
        "dynamics.segments": counters["dynamics.segments"],
        "dynamics.rk4_steps": counters["dynamics.rk4_steps"],
        "dynamics.matmuls": counters["dynamics.matmuls"],
        "dynamics.density_matrices": calls(PROBES[0]),
        "dynamics.min_eigenvalue_s": total(PROBES[1]),
        "pulses.compile_sequence_s": total("pulses.compile_sequence"),
        "pulses.compile_sequence_calls": calls("pulses.compile_sequence"),
        "pulses.run_compiled_self_s": own("pulses.run_compiled"),
        "montecarlo.run_ensemble_self_s": own("montecarlo.run_ensemble"),
        "montecarlo.sample_noise_s": total("montecarlo.sample_noise"),
        "montecarlo.apply_detection_s": total("montecarlo.apply_detection"),
        "montecarlo.apply_detection_calls": calls("montecarlo.apply_detection"),
        "montecarlo.shots": counters["montecarlo.shots"],
        "fitting.fit_s": sum(total(f"fitting.{name}") for name in FITS),
        "fitting.fit_iterations": counters["fitting.fit_iterations"],
        "fitting.fit_unconverged": counters["fitting.fit_unconverged"],
        "experiments.load_config_s": total("experiments.load_config"),
        "experiments.write_csv_s": total("experiments.write_csv"),
    }


def main(argv: list[str]) -> int:
    config, spans_path = argv
    tr = Tracer()
    install(tr)
    from rydsim import cli

    try:
        return cli.main(["run", config])
    finally:
        tr.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

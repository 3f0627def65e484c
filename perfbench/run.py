"""End-to-end benchmark of ``rydsim run`` on fixed workloads.

    python3 perfbench/run.py --workload blockade_rabi_2atom --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; rydsim is imported from ``src/``.
With ``--trace 0`` it times ``rydsim run`` subprocesses, repeated while
the next one is expected to end within ``--seconds`` of measured runs, plus
several set-up processes, and reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced runs (``tracer.py``, one
worker) in the same way, and reports the per-layer metrics. Every
run's CSV and manifest are checked against the reference outputs in
``reference/``. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric definitions and the workload rationale are in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference"

# The seed the reference outputs were written at. Other seeds get only the
# exit-code, CSV-shape and derived-scalar checks.
DEFAULT_SEED = 0
EXPECTATION_ATOL = 1e-12
# rydsim writes CSV values with 12 significant digits.
PRINTED_DIGITS = 12

# name -> (config, simulated shots per run). Shots are scan points times
# n_shots (the preset default where none is given), plus the 100 Bell-prep
# shots of parity_scan. The measured workloads use a tenth of the default
# shots, so that one run takes about a second and an invocation holds
# dozens of them (README.md, "Measured spread").
WORKLOADS = {
    "blockade_rabi_2atom": (
        {"preset": "blockade_rabi", "mode": "expectation", "n_shots": 5, "n_workers": 1}, 80 * 5),
    "w_echo_2atom": (
        {"preset": "w_echo", "mode": "expectation", "n_shots": 6, "n_workers": 1}, 16 * 6),
    # Not in BENCHMARK.json: its time is per-shot interpreter work, whose
    # speed on a shared host drifts by more than the bound (README.md).
    "ramsey_1atom": ({"preset": "ramsey", "mode": "expectation", "n_workers": 1}, 49 * 1000),
    # Not in BENCHMARK.json: its run time spreads several-fold between runs
    # (process workers contend with multithreaded BLAS; see README.md).
    "parity_sampled_pool": ({"preset": "parity_scan", "mode": "sampled"}, 21 * 100 + 100),
}

SETUP_CODE = (
    "import sys\n"
    "from rydsim.cli import load_config\n"
    "load_config(sys.argv[1]).ensemble_spec()\n"
)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RYDSIM_WORKERS")


# -- correctness ---------------------------------------------------------------


def printed_step(value: float) -> float:
    """One step in the last printed digit of ``value`` (0 for 0).

    A value within ``EXPECTATION_ATOL`` of the reference can still print one
    step away from it when it lies near a rounding boundary, so the check
    allows that step on top of the tolerance.
    """
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - (PRINTED_DIGITS - 1))


def _split_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    table = [ln.split(",") for ln in lines if ln and not ln.startswith("#")] or [[]]
    return comments, table[0], table[1:]


def check_output(csv_text: str, manifest: dict, ref_csv: str, ref_manifest: dict,
                 full: bool) -> list[str]:
    """Problems found in one run's output; an empty list means it is correct.

    Always: same header and table shape as the reference, and every derived
    scalar that passed in the reference passes again. With ``full`` (the run
    used the reference seed): sampled-mode CSVs are byte-identical and
    expectation-mode values agree within ``EXPECTATION_ATOL`` plus one step
    of the printed precision.
    """
    problems = []
    comments, header, rows = _split_csv(csv_text)
    ref_comments, ref_header, ref_rows = _split_csv(ref_csv)
    if header != ref_header:
        problems.append(f"CSV header {header} != reference {ref_header}")
    if len(rows) != len(ref_rows) or any(len(r) != len(ref_header) for r in rows):
        problems.append(f"CSV shape {len(rows)} rows differs from reference {len(ref_rows)}")

    passed = {s["name"]: s["passed"] for s in manifest.get("derived", [])}
    for scalar in ref_manifest["derived"]:
        if scalar["passed"] is True and passed.get(scalar["name"]) is not True:
            problems.append(f"derived scalar {scalar['name']} no longer passes")

    if full and not problems:
        if ref_manifest["config"].get("mode") == "sampled":
            if csv_text != ref_csv:
                problems.append("sampled-mode CSV is not byte-identical to the reference")
        else:
            if comments != ref_comments:
                problems.append("CSV comment lines differ from the reference")
            try:
                pairs = [(float(a), float(b)) for row, ref in zip(rows, ref_rows)
                         for a, b in zip(row, ref)]
            except ValueError as exc:
                problems.append(f"CSV value is not a number: {exc}")
            else:
                off = [abs(a - b) for a, b in pairs
                       if not abs(a - b) <= EXPECTATION_ATOL + printed_step(b)]
                if off:
                    problems.append(f"{len(off)} CSV values differ from the reference, "
                                    f"by up to {max(off):.3g}")
    return problems


def _check_files(workload: str, seed: int, outdir: Path, preset: str) -> list[str]:
    try:
        csv_text = (outdir / f"{preset}.csv").read_text(encoding="utf-8")
        manifest = json.loads((outdir / f"{preset}_manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"missing or unreadable output: {exc}"]
    ref_csv = (REFERENCE / f"{workload}.csv").read_text(encoding="utf-8")
    ref_manifest = json.loads((REFERENCE / f"{workload}_manifest.json").read_text(encoding="utf-8"))
    return check_output(csv_text, manifest, ref_csv, ref_manifest, seed == DEFAULT_SEED)


# -- processes -------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _timed(args: list[str], log: Path) -> dict:
    """Run one process to its end; wall time, exit code and its rusage.

    ``os.wait4`` reports the child together with the descendants it reaped,
    so CPU time and peak RSS cover any worker processes of the run.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=_env(), stdout=out, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def _write_config(workload: str, seed: int, tag: str, **overrides) -> tuple[Path, Path]:
    base, _ = WORKLOADS[workload]
    rundir = WORK / workload / tag
    rundir.mkdir(parents=True, exist_ok=True)
    outdir = rundir / "out"
    config = {**base, "master_seed": seed, "output_dir": str(outdir), **overrides}
    path = rundir / "config.yaml"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")  # JSON is YAML
    return path, outdir


def _checked_run(workload: str, seed: int, config: Path, outdir: Path, args=None) -> dict:
    """One ``rydsim run`` of ``config`` (or ``args``), timed and checked."""
    args = args or [sys.executable, "-m", "rydsim.cli", "run", str(config)]
    shutil.rmtree(outdir, ignore_errors=True)  # a run that writes nothing must not pass
    sample = _timed(args, config.parent / "log.txt")
    preset = WORKLOADS[workload][0]["preset"]
    sample["problems"] = (
        [f"exit code {sample['exit']}"] if sample["exit"] != 0
        else _check_files(workload, seed, outdir, preset)
    )
    return sample


# -- environment -------------------------------------------------------------------


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").strip()
    except OSError:
        return None


def environment() -> dict:
    """What the result depends on besides the code; nothing here is set."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "loadavg_start": _loadavg(),
    }


# -- modes ---------------------------------------------------------------------------


def _another_fits(walls: list[float], seconds: float) -> bool:
    """Whether one more run, as long as the median so far, ends within ``seconds``.

    The first run always starts, so every invocation measures at least one.
    """
    return not walls or sum(walls) + statistics.median(walls) <= seconds


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced runs: end-to-end metrics from medians over the repeats."""
    config, outdir = _write_config(workload, seed, "run")

    def set_up() -> dict:
        sample = _timed([sys.executable, "-c", SETUP_CODE, str(config)],
                        config.parent / "setup_log.txt")
        if sample["exit"] != 0:
            raise RuntimeError(f"set-up process failed; see {config.parent / 'setup_log.txt'}")
        return sample

    # A set-up process runs before every run and after the last, so that the
    # set-up samples span the whole measurement rather than one moment of it.
    setup, runs = [], []
    while _another_fits([r["wall_s"] for r in runs], seconds):
        setup.append(set_up())
        runs.append(_checked_run(workload, seed, config, outdir))
    setup.append(set_up())
    shots = WORKLOADS[workload][1]
    metrics = {
        "run_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "shots_per_s": (statistics.median(shots / r["wall_s"] for r in runs), "1/s"),
        "setup_s": (statistics.median(s["wall_s"] for s in setup), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    return {"runs": runs, "setup": setup, "metrics": metrics}


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Untraced and traced single-worker runs in turn: per-layer metrics.

    Pairs are repeated while the next pair is expected to end within
    ``seconds`` of runs, traced and untraced (at least one pair). Each
    per-layer metric is the low median over the traced runs;
    ``trace_overhead`` compares the median traced and untraced run times.
    """
    config, outdir = _write_config(workload, seed, "run")
    tconfig, toutdir = _write_config(workload, seed, "trace", n_workers=1)
    spans = tconfig.parent / "spans.npz"
    untraced, traced, summaries = [], [], []
    while _another_fits([u["wall_s"] + t["wall_s"] for u, t in zip(untraced, traced)], seconds):
        untraced.append(_checked_run(workload, seed, config, outdir))
        traced.append(_checked_run(
            workload, seed, tconfig, toutdir,
            [sys.executable, str(HERE / "tracer.py"), str(tconfig), str(spans)]))
        if traced[-1]["exit"] != 0:
            return {"runs": untraced + traced, "metrics": {}}
        summaries.append(tracer.summarize(spans))

    metrics = {
        name: (statistics.median_low(s[name] for s in summaries),
               "count" if isinstance(value, int) else "s")
        for name, value in summaries[0].items()
    }
    overhead = (statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in untraced) - 1.0)
    metrics["trace_overhead"] = (overhead, "ratio")
    return {"runs": untraced + traced, "metrics": metrics}


def write_reference(workload: str) -> None:
    """Store this commit's output at the reference seed as the reference."""
    # one worker: the CSV is byte-identical for any worker count
    config, outdir = _write_config(workload, DEFAULT_SEED, "reference", n_workers=1)
    sample = _timed([sys.executable, "-m", "rydsim.cli", "run", str(config)], config.parent / "log.txt")
    if sample["exit"] != 0:
        raise RuntimeError(f"reference run failed; see {config.parent / 'log.txt'}")
    preset = WORKLOADS[workload][0]["preset"]
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / f"{workload}.csv").write_bytes((outdir / f"{preset}.csv").read_bytes())
    manifest = json.loads((outdir / f"{preset}_manifest.json").read_text(encoding="utf-8"))
    # keep what the check compares, not this run's paths, timing or workers
    manifest = {
        "preset": manifest["preset"],
        "config": {k: v for k, v in manifest["config"].items() if k in ("preset", "mode", "master_seed")},
        "derived": manifest["derived"],
    }
    (REFERENCE / f"{workload}_manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this commit's output as the reference and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rydsim" / "cli.py").is_file():
        print(f"error: no rydsim source at {ROOT / 'src' / 'rydsim'}", file=sys.stderr)
        return 1
    if args.write_reference:
        write_reference(args.workload)
        return 0
    seed = args.seed % 2**63  # master_seed is packed as a signed 64-bit integer

    env = environment()
    if args.trace:
        result = trace(args.workload, seed, args.seconds)
    else:
        result = measure(args.workload, seed, args.seconds)
    env["loadavg_end"] = _loadavg()
    runs, metrics = result["runs"], result.pop("metrics")
    failed = sum(1 for r in runs if r["problems"])

    record = {"workload": args.workload, "seed": seed, "trace": args.trace, "environment": env,
              "metrics": {k: v for k, (v, _) in metrics.items()}, **result}
    (WORK / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"environment: {json.dumps(env)}")
    for r in runs:
        for problem in r["problems"]:
            print(f"FAILED: {problem}")
    print(f"fail_frac = {failed / len(runs):.6g} ({failed} of {len(runs)} runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

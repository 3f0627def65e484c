"""Wall and CPU time of every preset's default run, and of the Tier-1 suite.

    python3 bench/presets.py BENCH.json [--parent DIR]

Run from a source checkout; rydsim is imported from its ``src/``. Each of
the 9 presets runs at its default config (seed 0, detection on) with 1 and
2 workers, ``REPEATS`` times, interleaved: every repeat runs all 18
(preset, workers) pairs before the next starts, so slow drift of a shared
host spreads over all of them. ``--parent`` names a clean checkout of the
parent commit: each pair then runs on both trees back to back, and the
tree that goes first alternates, so the comparison sees the same host
state on both sides. A preset's figure is the median over the
repeats of the wall time and of ``cpu_s``, the user plus system time
``os.wait4`` reports for the run and the worker processes it reaped.
``slower_with_workers`` lists, and the script prints, the presets whose
2-worker median wall time is above their 1-worker one. The Tier-1 suite
runs once, on this tree. The output also records the machine as
``perfbench/run.py`` does: cores, Python, numpy and its BLAS, the thread
environment, the commit and the load average; ``run_threads`` adds, per
tree, the thread variables and thread count of a run's own process, which
starts with this script's environment and may have ``OPENBLAS_NUM_THREADS``
set by ``import rydsim``. With ``--parent`` the parent's figures go under
``baseline``, and ``wall_ratio_to_baseline`` holds, per preset and
worker count, the median over the repeats of each
back-to-back pair's ratio of this tree's wall time to the parent's: a
pair shares the host's state, so its ratio drops most of the drift that a
ratio of the two medians keeps. ``cpu_ratio_to_baseline`` holds the same
median of the pairs' ``cpu_s`` ratios. Three pairs still leave unchanged code
outside ``RATIO_BAND`` now and then, so after the plan every (preset,
workers) entry whose ratio lies outside it runs ``REPEATS`` more pairs,
interleaved the same way. Its ratio, and its medians, are then over all
its pairs, and ``wall_ratio_first_pass`` keeps the first-pass ratio of
each such entry.

Each repeat also runs a control for the pool's extra CPU: right after a
preset's pairs, its 1-worker run starts ``CONTROL_COPIES`` times at once
on this tree, each process timed by its own ``os.wait4``. Its medians over
every process of every repeat go under ``concurrent_1``, next to
``workers_1`` and ``workers_2``. Where the control's ``cpu_s`` sits as far
above ``workers_1`` as the 2-worker one does, the pool's extra CPU comes
from two busy processes on the host, not from the pool.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
# perfbench's process timing (os.wait4, with reaped workers) and machine record
from run import THREAD_VARS, _env, _timed as timed, environment  # noqa: E402

WORKERS = (1, 2)
REPEATS = 3
RATIO_BAND = (0.90, 1.10)  # per-pair ratios outside it get REPEATS more pairs
CONTROL_COPIES = 2
# a run's view of BLAS threads: the thread variables after import rydsim, and
# the process's thread count once numpy has started OpenBLAS (None off Linux)
THREAD_REPORT = """\
import json, os, sys
import rydsim  # before numpy, as in a run
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"threads_env": {k: os.environ.get(k) for k in sys.argv[1:]}, "threads": tasks}))
"""


def preset_names() -> list[str]:
    out = subprocess.run([sys.executable, "-m", "rydsim.cli", "list", "--json"], cwd=ROOT,
                         env=_env(), check=True, capture_output=True, text=True).stdout
    return [entry["name"] for entry in json.loads(out)]


def commit(tree: Path) -> str | None:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True,
                         env={**os.environ, "GIT_CEILING_DIRECTORIES": str(tree.parent)})
    return out.stdout.strip() or None


def run_threads(tree: Path) -> dict:
    """What ``THREAD_REPORT`` prints in a process started as a run on ``tree`` starts."""
    out = subprocess.run([sys.executable, "-c", THREAD_REPORT, *THREAD_VARS], cwd=ROOT,
                         env={**_env(), "PYTHONPATH": str(tree / "src")}, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def interleave(pairs: list[tuple[str, int]], trees: list[Path],
               repeats: range) -> list[tuple[int, str, int, Path]]:
    """(repeat, preset, workers, tree) in run order: each (preset, workers)
    pair on every tree back to back, with the first tree alternating from
    one pair to the next and from one repeat to the next."""
    return [
        (repeat, name, workers, trees[(repeat + i + k) % len(trees)])
        for repeat in repeats
        for i, (name, workers) in enumerate(pairs)
        for k in range(len(trees))
    ]


def run_plan(names: list[str], trees: list[Path]) -> list[tuple[int, str, int, Path]]:
    """The first pass: every preset with every worker count, ``REPEATS`` times."""
    return interleave([(name, w) for name in names for w in WORKERS], trees, range(REPEATS))


def schedule(names: list[str], trees: list[Path]) -> list[tuple[int, str, int, Path, int]]:
    """``run_plan`` with the concurrency control added, as (repeat, preset,
    workers, tree, copies): each entry of the plan has one copy, and right
    after a preset's last pair of a repeat comes its 1-worker run on this
    tree with ``CONTROL_COPIES`` copies started at once."""
    plan = run_plan(names, trees)
    out = []
    for i, (repeat, name, workers, tree) in enumerate(plan):
        out.append((repeat, name, workers, tree, 1))
        if i + 1 == len(plan) or plan[i + 1][:2] != (repeat, name):
            out.append((repeat, name, 1, ROOT, CONTROL_COPIES))
    return out


def timed_together(commands: list[list[str]], logs: list[Path]) -> list[dict]:
    """Start every command at once, then reap each with its own ``os.wait4``:
    per process, the wall time to its end, its exit code and its CPU time."""
    samples: list = [None] * len(commands)
    running: dict = {}  # pid -> (index, process)
    with contextlib.ExitStack() as stack:
        outs = [stack.enter_context(open(log, "wb")) for log in logs]
        start = time.perf_counter()
        try:
            for i, (command, out) in enumerate(zip(commands, outs, strict=True)):
                proc = subprocess.Popen(command, cwd=ROOT, env=_env(), stdout=out,
                                        stderr=subprocess.STDOUT)
                running[proc.pid] = (i, proc)
            while running:
                pid, status, usage = os.wait4(-1, 0)
                i, proc = running.pop(pid)
                proc.returncode = os.waitstatus_to_exitcode(status)
                samples[i] = {"wall_s": time.perf_counter() - start, "exit": proc.returncode,
                              "cpu_s": usage.ru_utime + usage.ru_stime}
        except BaseException:
            for _, proc in running.values():
                proc.kill()
                proc.wait()
            raise
    return samples


def run_steps(steps: list, work: Path, trees: list[Path], samples: dict, control: dict) -> None:
    """Run ``schedule``-style steps, adding each run to ``samples`` (tree ->
    (preset, workers) -> runs) or, for the control, to ``control``."""
    for repeat, name, workers, tree, copies in steps:
        commands, logs = [], []
        for copy in range(copies):
            rundir = work / f"{name}_{workers}_{repeat}_{trees.index(tree)}_{copy}_of_{copies}"
            rundir.mkdir()
            config = rundir / "config.yaml"
            config.write_text(json.dumps({"preset": name, "n_workers": workers,
                                          "output_dir": str(rundir / "out")}), encoding="utf-8")
            # env(1) replaces itself with Python, so wait4 still sees the run
            commands.append(["env", f"PYTHONPATH={tree / 'src'}", sys.executable, "-m",
                             "rydsim.cli", "run", str(config)])
            logs.append(rundir / "log.txt")
        runs = timed_together(commands, logs)
        if any(run["exit"] != 0 for run in runs):
            raise RuntimeError(f"{name} with {workers} worker(s) failed; see {logs[0].parent}")
        if copies == 1:
            samples.setdefault(tree, {}).setdefault((name, workers), []).extend(runs)
        else:
            control.setdefault(name, []).extend(runs)
        walls = ", ".join(f"{run['wall_s']:.2f}" for run in runs)
        print(f"{tree} {name} workers={workers} copies={copies} repeat={repeat}: {walls} s",
              file=sys.stderr)


def run_presets(work: Path, trees: list[Path]) -> tuple[dict[Path, dict], dict]:
    """Per tree, the ``summarize`` of its runs; and, with a parent tree, the
    first-pass ratio of each entry that ``RATIO_BAND`` sent to a re-run."""
    samples: dict = {}
    control: dict = {}  # preset -> the control's processes, all on this tree
    run_steps(schedule(preset_names(), trees), work, trees, samples, control)
    first_pass: dict = {}
    if len(trees) > 1:
        ratios = pair_ratios(*(summarize(samples[tree]) for tree in trees), "wall_s")
        outside = [(name, w) for name, by_workers in ratios.items() for w in WORKERS
                   if not RATIO_BAND[0] <= by_workers[f"workers_{w}"] <= RATIO_BAND[1]]
        steps = interleave(outside, trees, range(REPEATS, 2 * REPEATS))
        run_steps([(*step, 1) for step in steps], work, trees, samples, control)
        for name, w in outside:
            first_pass.setdefault(name, {})[f"workers_{w}"] = ratios[name][f"workers_{w}"]
    return {tree: summarize(runs, control if tree == ROOT else None)
            for tree, runs in samples.items()}, first_pass


def _medians(runs: list[dict]) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "wall_s_runs": [r["wall_s"] for r in runs],
        "cpu_s_runs": [r["cpu_s"] for r in runs],
    }


def summarize(samples: dict, control: dict | None = None) -> dict:
    """Medians per preset and worker count; ``control`` (preset -> the
    concurrency control's processes) goes under ``concurrent_1``."""
    presets: dict = {}
    for (name, workers), runs in samples.items():
        presets.setdefault(name, {})[f"workers_{workers}"] = _medians(runs)
    for name, runs in (control or {}).items():
        presets[name]["concurrent_1"] = _medians(runs)
    return {
        "presets": presets,
        "all_presets_wall_s": {
            f"workers_{w}": sum(p[f"workers_{w}"]["wall_s"] for p in presets.values())
            for w in WORKERS
        },
        "slower_with_workers": [
            name for name, runs in presets.items()
            if runs["workers_2"]["wall_s"] > runs["workers_1"]["wall_s"]
        ],
    }


def pair_ratios(change: dict, parent: dict, metric: str) -> dict:
    """Per preset and worker count, the median of the per-repeat ratios
    change/parent of ``metric`` (``wall_s`` or ``cpu_s``) of two
    ``summarize`` results of one run plan."""
    ratios: dict = {}
    for name, runs in change["presets"].items():
        for key in (f"workers_{w}" for w in WORKERS):
            pairs = zip(runs[key][f"{metric}_runs"],
                        parent["presets"][name][key][f"{metric}_runs"], strict=True)
            ratios.setdefault(name, {})[key] = round(statistics.median(c / p for c, p in pairs), 3)
    return ratios


def run_tier1(work: Path) -> dict:
    log = work / "tier1.txt"
    sample = timed([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                    "-p", "no:cacheprovider"], log)
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return {"wall_s": sample["wall_s"], "cpu_s": sample["cpu_s"], "exit": sample["exit"],
            "summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--parent", type=Path, help="a clean checkout of the parent commit")
    args = parser.parse_args(argv)

    trees = [ROOT] + ([args.parent.resolve()] if args.parent else [])
    record = {"machine": environment(), "run_threads": run_threads(ROOT), "repeats": REPEATS,
              "seed": 0, "workers": WORKERS}
    with tempfile.TemporaryDirectory() as tmp:
        results, first_pass = run_presets(Path(tmp), trees)
        record.update(results[ROOT])
        print(f"slower with 2 workers than 1: {', '.join(record['slower_with_workers']) or 'none'}")
        record["tier1"] = run_tier1(Path(tmp))
    if args.parent:
        base = results[trees[1]]
        record["baseline"] = {"tree": str(trees[1]), "git_commit": commit(trees[1]),
                              "run_threads": run_threads(trees[1]), **base}
        record["wall_ratio_to_baseline"] = pair_ratios(results[ROOT], base, "wall_s")
        record["cpu_ratio_to_baseline"] = pair_ratios(results[ROOT], base, "cpu_s")
        record["wall_ratio_first_pass"] = first_pass
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

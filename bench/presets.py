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
environment, the commit and the load average. With ``--parent`` the
parent's figures go under ``baseline``, and ``wall_ratio_to_baseline``
holds, per preset and worker count, the median over the repeats of each
back-to-back pair's ratio of this tree's wall time to the parent's: a
pair shares the host's state, so its ratio drops most of the drift that a
ratio of the two medians keeps.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
# perfbench's process timing (os.wait4, with reaped workers) and machine record
from run import _env, _timed as timed, environment  # noqa: E402

WORKERS = (1, 2)
REPEATS = 3


def preset_names() -> list[str]:
    out = subprocess.run([sys.executable, "-m", "rydsim.cli", "list", "--json"], cwd=ROOT,
                         env=_env(), check=True, capture_output=True, text=True).stdout
    return [entry["name"] for entry in json.loads(out)]


def commit(tree: Path) -> str | None:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True,
                         env={**os.environ, "GIT_CEILING_DIRECTORIES": str(tree.parent)})
    return out.stdout.strip() or None


def run_plan(names: list[str], trees: list[Path]) -> list[tuple[int, str, int, Path]]:
    """(repeat, preset, workers, tree) in run order: each pair on every tree
    back to back, with the first tree alternating from one pair to the next
    and from one repeat to the next."""
    pairs = [(name, w) for name in names for w in WORKERS]
    return [
        (repeat, name, workers, trees[(repeat + i + k) % len(trees)])
        for repeat in range(REPEATS)
        for i, (name, workers) in enumerate(pairs)
        for k in range(len(trees))
    ]


def run_presets(work: Path, trees: list[Path]) -> dict[Path, dict]:
    samples: dict = {}
    for repeat, name, workers, tree in run_plan(preset_names(), trees):
        rundir = work / f"{name}_{workers}_{repeat}_{trees.index(tree)}"
        rundir.mkdir()
        config = rundir / "config.yaml"
        config.write_text(json.dumps({"preset": name, "n_workers": workers,
                                      "output_dir": str(rundir / "out")}), encoding="utf-8")
        # env(1) replaces itself with Python, so wait4 still sees the run
        sample = timed(["env", f"PYTHONPATH={tree / 'src'}", sys.executable, "-m", "rydsim.cli",
                        "run", str(config)], rundir / "log.txt")
        if sample["exit"] != 0:
            raise RuntimeError(f"{name} with {workers} worker(s) failed; see {rundir}")
        samples.setdefault(tree, {}).setdefault((name, workers), []).append(sample)
        print(f"{tree} {name} workers={workers} repeat={repeat}: {sample['wall_s']:.2f} s",
              file=sys.stderr)
    return {tree: summarize(runs) for tree, runs in samples.items()}


def summarize(samples: dict) -> dict:
    presets: dict = {}
    for (name, workers), runs in samples.items():
        presets.setdefault(name, {})[f"workers_{workers}"] = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "wall_s_runs": [r["wall_s"] for r in runs],
        }
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


def wall_ratios(change: dict, parent: dict) -> dict:
    """Per preset and worker count, the median of the per-repeat wall-time
    ratios change/parent of two ``summarize`` results of one run plan."""
    ratios: dict = {}
    for name, runs in change["presets"].items():
        for key, v in runs.items():
            pairs = zip(v["wall_s_runs"], parent["presets"][name][key]["wall_s_runs"], strict=True)
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
    record = {"machine": environment(), "repeats": REPEATS, "seed": 0, "workers": WORKERS}
    with tempfile.TemporaryDirectory() as tmp:
        results = run_presets(Path(tmp), trees)
        record.update(results[ROOT])
        print(f"slower with 2 workers than 1: {', '.join(record['slower_with_workers']) or 'none'}")
        record["tier1"] = run_tier1(Path(tmp))
    if args.parent:
        base = results[trees[1]]
        record["baseline"] = {"tree": str(trees[1]), "git_commit": commit(trees[1]), **base}
        record["wall_ratio_to_baseline"] = wall_ratios(results[ROOT], base)
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

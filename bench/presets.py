"""Wall and CPU time of every preset's default run, and of the Tier-1 suite.

    python3 bench/presets.py BENCH.json [--baseline OLD.json]

Run from a source checkout; rydsim is imported from its ``src/``. Each of
the 9 presets runs at its default config (seed 0, detection on) with 1 and
2 workers, ``REPEATS`` times, interleaved: every repeat runs all 18
(preset, workers) pairs before the next starts, so slow drift of a shared
host spreads over all of them. A preset's figure is the median over the
repeats of the wall time and of ``cpu_s``, the user plus system time
``os.wait4`` reports for the run and the worker processes it reaped. The
Tier-1 suite runs once. The output also records the machine as
``perfbench/run.py`` does: cores, Python, numpy and its BLAS, the thread
environment, the commit and the load average. ``--baseline``
copies an earlier output of this script into the new one, under
``baseline``, with the ratio of each median wall time to the baseline's.
"""

from __future__ import annotations

import argparse
import json
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


def run_presets(work: Path) -> dict:
    names = preset_names()
    samples = {(name, w): [] for name in names for w in WORKERS}
    for repeat in range(REPEATS):
        for (name, workers), runs in samples.items():
            rundir = work / f"{name}_{workers}_{repeat}"
            rundir.mkdir()
            config = rundir / "config.yaml"
            config.write_text(json.dumps({"preset": name, "n_workers": workers,
                                          "output_dir": str(rundir / "out")}), encoding="utf-8")
            sample = timed([sys.executable, "-m", "rydsim.cli", "run", str(config)],
                           rundir / "log.txt")
            if sample["exit"] != 0:
                raise RuntimeError(f"{name} with {workers} worker(s) failed; see {rundir}")
            runs.append(sample)
            print(f"{name} workers={workers} repeat={repeat}: {sample['wall_s']:.2f} s",
                  file=sys.stderr)
    presets: dict = {}
    for (name, workers), runs in samples.items():
        presets.setdefault(name, {})[f"workers_{workers}"] = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "wall_s_runs": [r["wall_s"] for r in runs],
        }
    return presets


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
    parser.add_argument("--baseline", type=Path, help="an earlier output of this script")
    args = parser.parse_args(argv)

    record = {"machine": environment(), "repeats": REPEATS, "seed": 0, "workers": WORKERS}
    with tempfile.TemporaryDirectory() as tmp:
        record["presets"] = run_presets(Path(tmp))
        record["all_presets_wall_s"] = {
            f"workers_{w}": sum(p[f"workers_{w}"]["wall_s"] for p in record["presets"].values())
            for w in WORKERS
        }
        record["tier1"] = run_tier1(Path(tmp))
    if args.baseline:
        base = json.loads(args.baseline.read_text(encoding="utf-8"))
        base.pop("baseline", None)
        record["baseline"] = base
        record["wall_ratio_to_baseline"] = {
            name: {key: round(v["wall_s"] / base["presets"][name][key]["wall_s"], 3)
                   for key, v in runs.items()}
            for name, runs in record["presets"].items()
        }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

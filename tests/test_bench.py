"""The run plan and the parent comparison of ``bench/presets.py``, checked
without starting a process."""

import importlib.util
import subprocess
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_presets(monkeypatch):
    """bench/presets.py as a module, with any process start made to fail."""
    def no_process(*args, **kwargs):
        raise AssertionError("the bench script started a process")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    spec = importlib.util.spec_from_file_location("bench_presets", ROOT / "bench" / "presets.py")
    presets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(presets)
    return presets


def test_each_pair_runs_on_both_trees_back_to_back_and_the_first_tree_alternates(monkeypatch):
    presets = load_presets(monkeypatch)
    names, trees = ["rabi", "t1", "w_echo"], [Path("change"), Path("parent")]
    plan = presets.run_plan(names, trees)
    counts = Counter((name, workers, tree) for _, name, workers, tree in plan)
    assert set(counts) == {(n, w, t) for n in names for w in presets.WORKERS for t in trees}
    assert set(counts.values()) == {presets.REPEATS}

    first = {}  # (repeat, name, workers) -> the tree that ran first
    for (repeat, name, workers, tree), (*again, other) in zip(plan[::2], plan[1::2]):
        assert again == [repeat, name, workers] and {tree, other} == set(trees)
        first[repeat, name, workers] = tree
    pairs = [(n, w) for n in names for w in presets.WORKERS]
    for repeat in range(presets.REPEATS):
        row = [first[repeat, n, w] for n, w in pairs]
        assert all(a != b for a, b in zip(row, row[1:]))
    for n, w in pairs:
        column = [first[repeat, n, w] for repeat in range(presets.REPEATS)]
        assert all(a != b for a, b in zip(column, column[1:]))


def test_wall_ratio_is_the_median_of_the_back_to_back_pair_ratios(monkeypatch):
    presets = load_presets(monkeypatch)
    change_runs, parent_runs = [1.0, 3.0, 10.0], [2.0, 1.0, 9.0]

    def summary(runs):
        return presets.summarize({("rabi", w): [{"wall_s": t, "cpu_s": t} for t in runs]
                                  for w in presets.WORKERS})

    ratios = presets.wall_ratios(summary(change_runs), summary(parent_runs))
    # pair ratios 0.5, 3 and 1.111: their median, not the ratio of the medians (3 / 2)
    assert ratios == {"rabi": {f"workers_{w}": 1.111 for w in presets.WORKERS}}

"""The run plan and the parent comparison of ``bench/presets.py``, checked
without starting a process."""

import importlib.util
import json
import subprocess
import sys
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

    ratios = presets.pair_ratios(summary(change_runs), summary(parent_runs), "wall_s")
    # pair ratios 0.5, 3 and 1.111: their median, not the ratio of the medians (3 / 2)
    assert ratios == {"rabi": {f"workers_{w}": 1.111 for w in presets.WORKERS}}


def test_control_runs_each_preset_once_per_repeat_right_after_its_pairs(monkeypatch):
    presets = load_presets(monkeypatch)
    names, trees = ["rabi", "t1", "w_echo"], [Path("change"), Path("parent")]
    steps = presets.schedule(names, trees)
    assert [step[:4] for step in steps if step[4] == 1] == presets.run_plan(names, trees)

    controls = [i for i, step in enumerate(steps) if step[4] != 1]
    assert presets.CONTROL_COPIES == 2
    assert [steps[i] for i in controls] == [
        (repeat, name, 1, presets.ROOT, 2) for repeat in range(presets.REPEATS) for name in names
    ]
    for i in controls:  # after the preset's last pair of that repeat, before anything else
        repeat, name = steps[i][:2]
        assert steps[i - 1][:2] == (repeat, name)
        assert all(step[:2] != (repeat, name) for step in steps[i + 1:])


def test_control_processes_start_together_and_each_has_its_own_wait4(monkeypatch, tmp_path):
    presets = load_presets(monkeypatch)
    started, reaped = [], []

    class FakeProcess:
        def __init__(self, command, **kwargs):
            started.append(command)
            self.pid = 100 + len(started)

    def fake_wait4(pid, options):
        assert pid == -1 and len(started) == 2  # both run before either is reaped
        done = 102 - len(reaped)  # the later one ends first
        reaped.append(done)
        usage = type("Usage", (), {"ru_utime": float(done), "ru_stime": 0.5})
        return done, 0, usage

    monkeypatch.setattr(subprocess, "Popen", FakeProcess)
    monkeypatch.setattr(presets.os, "wait4", fake_wait4)
    runs = presets.timed_together([["a"], ["b"]], [tmp_path / "a.log", tmp_path / "b.log"])
    assert started == [["a"], ["b"]] and reaped == [102, 101]
    assert [run["cpu_s"] for run in runs] == [101.5, 102.5]
    assert [run["exit"] for run in runs] == [0, 0]
    assert runs[0]["wall_s"] >= runs[1]["wall_s"]


def test_entries_outside_the_ratio_band_rerun_as_more_interleaved_pairs(monkeypatch, tmp_path):
    presets = load_presets(monkeypatch)
    trees = [presets.ROOT, Path("parent")]
    t1_change_walls = iter([1.5, 1.0, 1.5] + [1.0] * presets.REPEATS)
    steps = []  # (preset, workers, tree, copies) of each timed_together call

    def fake_timed_together(commands, logs):
        tree = Path(commands[0][1].removeprefix("PYTHONPATH=")).parent
        config = json.loads(Path(commands[0][-1]).read_text())
        name, workers = config["preset"], config["n_workers"]
        steps.append((name, workers, tree, len(commands)))
        slow = (name, workers, tree, len(commands)) == ("t1", 1, presets.ROOT, 1)
        wall = next(t1_change_walls) if slow else 1.0
        return [{"wall_s": wall, "cpu_s": wall, "exit": 0} for _ in commands]

    monkeypatch.setattr(presets, "preset_names", lambda: ["rabi", "t1"])
    monkeypatch.setattr(presets, "timed_together", fake_timed_together)
    results, first_pass = presets.run_presets(tmp_path, trees)

    first = [(name, workers, tree, copies)
             for _, name, workers, tree, copies in presets.schedule(["rabi", "t1"], trees)]
    assert steps[:len(first)] == first
    # t1 with 1 worker read 1.5: REPEATS more pairs, first tree alternating, no control
    reruns = steps[len(first):]
    plan = presets.interleave([("t1", 1)], trees, range(presets.REPEATS, 2 * presets.REPEATS))
    assert reruns == [(name, workers, tree, 1) for _, name, workers, tree in plan]
    assert [tree for _, _, tree, _ in reruns[::2]] == [trees[1], trees[0], trees[1]]
    assert first_pass == {"t1": {"workers_1": 1.5}}
    # the reported ratio is the median over all six of its pairs
    ratios = presets.pair_ratios(results[trees[0]], results[trees[1]], "wall_s")
    assert ratios == {name: {f"workers_{w}": 1.0 for w in presets.WORKERS} for name in ("rabi", "t1")}
    assert len(results[trees[0]]["presets"]["t1"]["workers_1"]["wall_s_runs"]) == 2 * presets.REPEATS


def test_parent_record_has_cpu_ratios_from_the_same_pairs_as_wall_ratios(monkeypatch, tmp_path):
    presets = load_presets(monkeypatch)
    parent = (tmp_path / "parent").resolve()
    # (wall_s, cpu_s) per repeat
    runs = {presets.ROOT: [(1.0, 2.0), (3.0, 6.0), (10.0, 3.0)],
            parent: [(2.0, 1.0), (1.0, 2.0), (9.0, 6.0)]}

    def fake_run_presets(work, trees):
        assert trees == [presets.ROOT, parent]
        samples = {tree: [{"wall_s": t, "cpu_s": c} for t, c in runs[tree]] for tree in trees}
        return {tree: presets.summarize({("rabi", w): samples[tree] for w in presets.WORKERS})
                for tree in trees}, {}

    monkeypatch.setattr(presets, "run_presets", fake_run_presets)
    monkeypatch.setattr(presets, "run_tier1", lambda work: {})
    monkeypatch.setattr(presets, "environment", lambda: {})
    monkeypatch.setattr(presets, "commit", lambda tree: None)
    monkeypatch.setattr(presets, "run_threads", lambda tree: {"tree": str(tree)})
    out = tmp_path / "bench.json"
    assert presets.main([str(out), "--parent", str(parent)]) == 0
    record = json.loads(out.read_text())
    # wall pairs 0.5, 3 and 1.111; cpu pairs 2, 3 and 0.5: each the median of its
    # pair ratios, not the ratio of the medians (3 / 2 for both)
    for key, ratio in (("wall_ratio_to_baseline", 1.111), ("cpu_ratio_to_baseline", 2.0)):
        assert record[key] == {"rabi": {f"workers_{w}": ratio for w in presets.WORKERS}}
    # each tree's thread view is recorded with that tree's figures
    assert record["run_threads"] == {"tree": str(presets.ROOT)}
    assert record["baseline"]["run_threads"] == {"tree": str(parent)}


def test_run_threads_come_from_a_process_that_imports_rydsim(monkeypatch):
    presets = load_presets(monkeypatch)
    monkeypatch.undo()  # this test starts processes
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    # unset in this process, set to 1 by import rydsim in the run's process
    report = presets.run_threads(presets.ROOT)
    assert report["threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    if sys.platform.startswith("linux"):
        assert report["threads"] == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # a setting made here reaches the run
    assert presets.run_threads(presets.ROOT)["threads_env"]["OPENBLAS_NUM_THREADS"] == "2"

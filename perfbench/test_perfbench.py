"""Internal-consistency tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys

import pytest

import run
import tracer


def _reference(workload):
    csv_text = (run.REFERENCE / f"{workload}.csv").read_text(encoding="utf-8")
    manifest = json.loads((run.REFERENCE / f"{workload}_manifest.json").read_text(encoding="utf-8"))
    return csv_text, manifest


def _perturb(csv_text, delta):
    lines = csv_text.splitlines(keepends=True)
    i = next(i for i, ln in enumerate(lines) if ln[0].isdigit())
    cells = lines[i].rstrip("\n").split(",")
    cells[1] = f"{float(cells[1]) + delta:.12g}"
    lines[i] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reference_passes_its_own_check(workload):
    csv_text, manifest = _reference(workload)
    assert run.check_output(csv_text, manifest, csv_text, manifest, full=True) == []


@pytest.mark.parametrize("workload", ["blockade_rabi_2atom", "ramsey_1atom", "parity_sampled_pool"])
def test_csv_perturbed_by_1e9_is_flagged(workload):
    csv_text, manifest = _reference(workload)
    perturbed = _perturb(csv_text, 1e-9)
    assert perturbed != csv_text
    assert run.check_output(perturbed, manifest, csv_text, manifest, full=True)
    # at another seed the values are not compared, only shape and scalars
    assert run.check_output(perturbed, manifest, csv_text, manifest, full=False) == []


def _shift_in_unit_decade(csv_text, steps):
    """Move the first value in [0.1, 1) by ``steps`` printed steps."""
    lines = csv_text.splitlines(keepends=True)
    for i, ln in enumerate(lines):
        if not ln[0].isdigit():
            continue
        cells = ln.rstrip("\n").split(",")
        for j, cell in enumerate(cells):
            value = float(cell)
            if 0.1 <= value < 0.9:
                cells[j] = f"{value + steps * run.printed_step(value):.12g}"
                lines[i] = ",".join(cells) + "\n"
                return "".join(lines)
    raise AssertionError("no value in [0.1, 0.9) in the reference")


@pytest.mark.parametrize("workload", ["blockade_rabi_2atom", "ramsey_1atom"])
def test_one_printed_step_passes_but_more_is_flagged(workload):
    csv_text, manifest = _reference(workload)
    one_step = _shift_in_unit_decade(csv_text, 1)
    assert one_step != csv_text
    assert run.check_output(one_step, manifest, csv_text, manifest, full=True) == []
    assert run.check_output(_shift_in_unit_decade(csv_text, 3), manifest, csv_text, manifest,
                            full=True)


@pytest.mark.parametrize("workload", ["blockade_rabi_2atom", "ramsey_1atom"])
def test_failed_scalar_and_wrong_shape_are_flagged(workload):
    csv_text, manifest = _reference(workload)
    failing = json.loads(json.dumps(manifest))
    failing["derived"][0]["passed"] = False
    assert run.check_output(csv_text, failing, csv_text, manifest, full=False)
    short = csv_text.rsplit("\n", 2)[0] + "\n"
    assert run.check_output(short, manifest, csv_text, manifest, full=False)


class _Counted:
    calls = 0

    def __matmul__(self, other):
        _Counted.calls += 1
        return self


@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 8, 1000, 139582])
def test_matmul_count_matches_binary_powering(n_steps):
    from rydsim.dynamics import _power_apply

    _Counted.calls = 0
    _power_apply(_Counted(), n_steps, _Counted())
    assert tracer.matmuls_for_steps(n_steps) == _Counted.calls


def _traced(tmp_path, name, config):
    rundir = tmp_path / name
    rundir.mkdir()
    config = {**config, "master_seed": 3, "n_workers": 1, "output_dir": str(rundir / "out")}
    (rundir / "config.yaml").write_text(json.dumps(config), encoding="utf-8")
    spans = rundir / "spans.npz"
    subprocess.run(
        [sys.executable, str(run.HERE / "tracer.py"), str(rundir / "config.yaml"), str(spans)],
        cwd=run.ROOT, env=run._env(), check=True, capture_output=True, timeout=120,
    )
    return tracer.summarize(spans)


@pytest.mark.parametrize("config", [
    {"preset": "blockade_rabi", "scan": {"points": 4}, "n_shots": 2},
    {"preset": "ramsey", "scan": {"points": 4}, "n_shots": 5},
    {"preset": "w_echo", "scan": {"points": 3}, "n_shots": 2},
])
def test_trace_counts_are_consistent_and_repeat(tmp_path, config):
    first = _traced(tmp_path, "first", config)
    second = _traced(tmp_path, "second", config)
    points, shots = config["scan"]["points"], config["n_shots"]
    assert first["montecarlo.shots"] == points * shots
    assert first["pulses.compile_sequence_calls"] == first["montecarlo.shots"]
    assert first["dynamics.rk4_steps"] > 0 and first["dynamics.matmuls"] > 0
    for name in ("dynamics.rk4_steps", "dynamics.matmuls", "dynamics.segments",
                 "dynamics.density_matrices", "montecarlo.apply_detection_calls"):
        assert first[name] == second[name], name
    assert 0 < first["dynamics.evolve_self_s"] < first["dynamics.evolve_s"]


def test_runs_repeat_while_the_next_is_expected_to_fit():
    assert run._another_fits([], 1.0)
    assert run._another_fits([10.0, 10.0], 35.0)
    assert not run._another_fits([10.0, 10.0, 10.0], 35.0)
    assert not run._another_fits([60.0], 50.0)

"""Small-grid golden CSVs for all nine presets.

Each preset runs on 3 points of its default scan with 4 shots, detection
on, in expectation and in sampled mode. Expectation-mode values must agree
with the fixture within 1e-12 plus one step of the last printed digit (a
value inside the tolerance can still round to a neighbouring 12-digit
string); sampled-mode CSVs must be byte-identical. One sampled run uses two
workers and must reproduce the one-worker fixture.

Regenerate the fixtures (only when a change of numbers is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import math
from pathlib import Path

import pytest

from rydsim.experiments import PRESETS, config_from_dict, run_experiment

DATA = Path(__file__).resolve().parent / "data" / "golden"
EXPECTATION_ATOL = 1e-12
PRINTED_DIGITS = 12  # write_csv formats values with "{:.12g}"
MODES = ("expectation", "sampled")


def golden_config(name, mode, output_dir, n_workers=1):
    start, stop, _ = PRESETS[name].default_scan
    return config_from_dict({
        "preset": name,
        "scan": {"start": start, "stop": stop, "points": 3},
        "n_shots": 4,
        "mode": mode,
        "master_seed": 11,
        "n_workers": n_workers,
        "output_dir": str(output_dir),
    })


def run_csv(name, mode, output_dir, n_workers=1):
    manifest = run_experiment(golden_config(name, mode, output_dir, n_workers))
    return Path(manifest.data_file).read_text(encoding="utf-8")


def fixture(name, mode):
    return DATA / f"{name}_{mode}.csv"


def printed_step(value):
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 10.0 ** (math.floor(math.log10(abs(value))) - (PRINTED_DIGITS - 1))


def split_csv(text):
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    table = [ln.split(",") for ln in lines if ln and not ln.startswith("#")]
    return comments, table[0], table[1:]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_matches_golden_csv(name, mode, tmp_path):
    got = run_csv(name, mode, tmp_path)
    ref = fixture(name, mode).read_text(encoding="utf-8")
    if mode == "sampled":
        assert got == ref
        return
    comments, header, rows = split_csv(got)
    ref_comments, ref_header, ref_rows = split_csv(ref)
    assert (comments, header) == (ref_comments, ref_header)
    assert [len(r) for r in rows] == [len(r) for r in ref_rows]
    for row, ref_row in zip(rows, ref_rows):
        for a, b in zip(map(float, row), map(float, ref_row)):
            assert abs(a - b) <= EXPECTATION_ATOL + printed_step(b), (row, ref_row)


def test_two_workers_reproduce_the_golden_csv(tmp_path):
    got = run_csv("w_echo", "sampled", tmp_path, n_workers=2)
    assert got == fixture("w_echo", "sampled").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(PRESETS):
            for mode in MODES:
                fixture(name, mode).write_text(run_csv(name, mode, tmp), encoding="utf-8")
                print(f"wrote {fixture(name, mode)}")

"""End-to-end acceptance suite.

Each test runs one numbered verification criterion at its pinned tolerance
and prints a one-line pass/fail summary (visible with ``pytest -s`` or on
failure). The same checks back ``rydsim check``.
"""

import dataclasses

import pytest

from rydsim import acceptance
from rydsim.acceptance import ALL_CHECKS
from rydsim.cli import main
from rydsim.experiments import PRESETS, DerivedScalar, config_from_dict


@pytest.mark.parametrize(
    "criterion,title,check",
    ALL_CHECKS,
    ids=[f"{num:02d}-{title.replace(' ', '-')}" for num, title, _ in ALL_CHECKS],
)
def test_acceptance_criterion(criterion, title, check):
    passed, detail = check()
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion} ({title}): {detail}"
    print(line)
    assert passed, line


def diverged():
    raise FloatingPointError("state diverged")


def bad_input():
    raise ValueError("bad input")


@pytest.mark.parametrize("checks, code", [
    ([lambda: (True, "ok"), lambda: (True, "ok")], 0),
    ([lambda: (True, "ok"), lambda: (False, "off")], 2),
    ([lambda: (True, "ok"), diverged], 2),
    ([lambda: (True, "ok"), bad_input], 1),
])
def test_check_exit_codes(monkeypatch, capsys, checks, code):
    monkeypatch.setattr(acceptance, "ALL_CHECKS",
                        [(n, f"stub {n}", fn) for n, fn in enumerate(checks, 1)])
    assert main(["check"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("numerical failure: state diverged" in err) == (checks[-1] is diverged)
    assert ("error: bad input" in err) == (checks[-1] is bad_input)


def stub_analyzer(monkeypatch, scalars, preset="t1", criterion=3):
    """A criterion's check with its preset's analyzer reporting ``scalars``; nothing simulates."""
    monkeypatch.setattr(acceptance, "_run", lambda config: (config_from_dict(config), None))
    monkeypatch.setitem(PRESETS, preset, dataclasses.replace(
        PRESETS[preset], analyze=lambda cfg, res: scalars))
    return {num: check for num, _, check in ALL_CHECKS}[criterion]


def test_every_rule_of_the_analyzer_gates_its_criterion(monkeypatch):
    check = stub_analyzer(monkeypatch, [
        DerivedScalar("t1_lifetime_us", 51.7, "t1-lifetime", "51.7 us within 10%", True),
        DerivedScalar("t1_extra", 1.0, "t1-extra", "a rule the check does not name", False),
    ])
    passed, detail = check()
    assert not passed
    assert "t1_extra" in detail


def test_a_criterion_with_only_informational_scalars_fails(monkeypatch):
    check = stub_analyzer(monkeypatch, [
        DerivedScalar("t1_lifetime_us", 51.7, "t1-lifetime", "informational", None),
    ])
    passed, _ = check()
    assert not passed


def test_each_config_of_a_criterion_is_tagged_with_what_sets_it_apart(monkeypatch):
    # criterion 5 runs spin_echo twice, the second time with gamma_laser = 1/94
    check = stub_analyzer(monkeypatch, [
        DerivedScalar("t2_echo_us", 32.0, "t2-echo", "32 us within 20%", True),
    ], preset="spin_echo", criterion=5)
    passed, detail = check()
    assert passed
    default, tuned = detail.split("; ")
    assert default.startswith("[noise: default] t2_echo_us = 32")
    assert tuned.startswith("[noise: {'gamma_laser': 0.0106") and "t2_echo_us = 32" in tuned

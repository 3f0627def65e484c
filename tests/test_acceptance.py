"""End-to-end acceptance suite.

Each test runs one numbered verification criterion at its pinned tolerance
and prints a one-line pass/fail summary (visible with ``pytest -s`` or on
failure). The same checks back ``rydsim check``.
"""

import pytest

from rydsim import acceptance
from rydsim.acceptance import ALL_CHECKS
from rydsim.cli import main


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


@pytest.mark.parametrize("checks, code", [
    ([lambda: (True, "ok"), lambda: (True, "ok")], 0),
    ([lambda: (True, "ok"), lambda: (False, "off")], 2),
    ([lambda: (True, "ok"), diverged], 2),
])
def test_check_exit_codes(monkeypatch, capsys, checks, code):
    monkeypatch.setattr(acceptance, "ALL_CHECKS",
                        [(n, f"stub {n}", fn) for n, fn in enumerate(checks, 1)])
    assert main(["check"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("numerical failure: state diverged" in err) == (checks[-1] is diverged)

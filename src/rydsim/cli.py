"""Command-line interface, and the only module that prints or picks an exit code.

Subcommands:

* ``rydsim run <config.yaml>``: execute one experiment config, write the
  scan CSV and JSON manifest, print the derived scalars.
* ``rydsim list``: print the preset catalog.
* ``rydsim check``: run the built-in verification suite and print a
  pass/fail table.

Exit codes: 0 success; 1 bad input (a usage error, ``OSError`` or
``ValueError``: ``error: ...``); 2 numerical failure (``ArithmeticError``:
``numerical failure: ...``) or a failed check. ``main`` alone maps errors
to these, never with a traceback. Config values follow ``config_from_dict``
(YAML booleans only, finite numbers). ``RYDSIM_WORKERS``, an integer >= 1,
sets the default worker count (default: the machine's available parallelism).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .experiments import list_presets, load_config, run_experiment, worker_count

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _default_workers() -> int:
    env = os.environ.get("RYDSIM_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        value = int(env)
    except ValueError:
        value = env  # refused below as not an integer
    return worker_count(value, "RYDSIM_WORKERS")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if "n_workers" not in cfg.raw:
        cfg.n_workers = _default_workers()
    manifest = run_experiment(cfg)
    for s in manifest.derived:
        flag = "PASS" if s.passed else ("FAIL" if s.passed is False else "info")
        print(f"  {s.name} = {s.value:.6g}  [{flag}: {s.target}]{f' ({s.note})' if s.note else ''}")
    print(f"wrote {manifest.data_file} and manifest ({manifest.duration_s}s)")
    return EXIT_OK


def _cmd_list(_args) -> int:
    catalog = list_presets()
    if _args.json:
        print(json.dumps(catalog, indent=2))
        return EXIT_OK
    for entry in catalog:
        scan = entry["default_scan"]
        print(f"{entry['name']}  ({entry['n_atoms']} atom(s), observable {entry['observable']})")
        print(f"    {entry['description']}")
        print(
            f"    scan: {entry['scan_variable']} from {scan['start']} to "
            f"{scan['stop']} us, {scan['points']} points, "
            f"{entry['default_shots']} shots"
        )
        if entry["sequence_defaults"]:
            print(f"    parameters: {entry['sequence_defaults']}")
    return EXIT_OK


def _cmd_check(_args) -> int:
    from .acceptance import ALL_CHECKS  # looked up per call, so a test can swap the list

    failed = 0
    for num, title, fn in ALL_CHECKS:
        start = time.perf_counter()
        passed, detail = fn()
        failed += not passed
        print(f"[{'PASS' if passed else 'FAIL'}] {num:2d} {title}: {detail} "
              f"({time.perf_counter() - start:.1f}s)")
    print(f"\n{len(ALL_CHECKS) - failed}/{len(ALL_CHECKS)} checks passed")
    return EXIT_OK if not failed else EXIT_NUMERICAL


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad input: exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rydsim",
        description="Simulate and analyze two-photon Rydberg qubit experiments",
    )
    parser.add_argument("--version", action="version", version=f"rydsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config file")
    p_run.add_argument("config", help="YAML config path")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list", help="show the preset catalog")
    p_list.add_argument("--json", action="store_true", help="machine-readable output")
    p_list.set_defaults(fn=_cmd_list)

    p_check = sub.add_parser("check", help="run the verification suite")
    p_check.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

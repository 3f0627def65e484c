"""Command-line interface.

Subcommands:

* ``rydsim run <config.yaml>``: execute one experiment config, write the
  scan CSV and JSON manifest, print the derived scalars.
* ``rydsim list``: print the preset catalog.
* ``rydsim check``: run the built-in verification suite and print a
  pass/fail table.

Exit codes: 0 success, 1 validation error, 2 numerical failure, neither
with a traceback. Config values are read as ``config_from_dict`` says (YAML
booleans only, finite numbers). ``RYDSIM_WORKERS``, an integer >= 1, sets
the default worker count (default: the machine's available parallelism).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .experiments import ConfigError, list_presets, load_config, run_experiment, worker_count

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
    try:
        cfg = load_config(args.config)
        if "n_workers" not in cfg.raw:
            cfg.n_workers = _default_workers()
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        manifest = run_experiment(cfg)
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
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


def _cmd_check(args) -> int:
    from .acceptance import run_all

    try:
        results = run_all(echo=True)
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

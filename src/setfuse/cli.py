"""Command-line interface.

    setfuse fuse --scenario s.json --mode p2|consistent --out dir
    setfuse sweep --scenario s.json --out dir
    setfuse reproduce ex1|ex2|ex3|ex4 [...] --out dir

Every command loads its scenario (``fuse``, ``sweep``), computes a report
(one per example for ``reproduce``, each written under ``dir/exN``), prints
its check verdicts, writes it, and prints each path written and then the
report's own lines.

Exit codes: 0 success, 1 a check printed FAIL (after every file is
written), 2 bad input, inputs that cannot be fused together or an output
path that cannot be written, 3 solver failure. Any other exception is a
bug and shows its traceback.
Set SETFUSE_LOG=error|warn|info|debug to control logging; any other value
warns and runs at warn. Every argument changes what is fused or where it is
written; an unknown one exits 2. ``--out`` overrides a scenario's
``outputs``, with a warning.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .model import IncompatibleInputs
from .scenarios import EXAMPLE_IDS, ScenarioError, experiment_report, fuse_scenario, load_scenario
from .scenarios import sweep_report, write_report
from .solvers import SolverError

log = logging.getLogger("setfuse")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _configure_logging() -> None:
    name = os.environ.get("SETFUSE_LOG", "warn")
    level = _LOG_LEVELS.get(name.lower())
    if level is None:
        print(f"warning: unknown SETFUSE_LOG value {name!r} (use {', '.join(_LOG_LEVELS)}); running at warn",
              file=sys.stderr)
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


def _reports(args) -> list:
    """Load and compute one command: a ``Report`` and output directory per example or scenario."""
    if args.command == "reproduce":
        out = Path("out" if args.out is None else args.out)
        return [(experiment_report(example), out / example) for example in args.example]
    scenario = load_scenario(args.scenario)
    out = scenario.out_dir if args.out is None else args.out
    if args.out is not None and scenario.out_dir is not None:
        print(f"warning: --out is given, so the scenario's 'outputs' path {scenario.out_dir} is ignored",
              file=sys.stderr)
    if out is None:
        raise ScenarioError("no output directory: pass --out or set 'outputs' in the scenario")
    return [(fuse_scenario(scenario, args.mode)[1] if args.command == "fuse" else sweep_report(scenario), out)]


def _run(args) -> int:
    """Run one command through the stages in the module docstring."""
    failed = False
    for report, out in _reports(args):
        for line in report.verdicts():
            print(line)
        failed |= not all(ok for _, ok, _ in report.checks)
        try:
            paths = write_report(report, out)
        except OSError as exc:
            print(f"error: cannot write {exc.filename or out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_INPUT
        for path in paths:
            print(f"wrote {path}")
        for line in report.lines:
            print(line)
    return EXIT_CHECK if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setfuse",
        description="Fusion of finite-set distributions with cardinality-consistency tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output directory")

    fuse = sub.add_parser("fuse", parents=[common], help="fuse a scenario pair once")
    fuse.add_argument("--scenario", required=True, help="scenario JSON path")
    fuse.add_argument("--mode", required=True, choices=("p2", "consistent"))

    sweep = sub.add_parser("sweep", parents=[common], help="run the scenario's (kappa, omega) sweep")
    sweep.add_argument("--scenario", required=True, help="scenario JSON path")

    rep = sub.add_parser("reproduce", parents=[common], help="rebuild built-in experiments")
    rep.add_argument("example", nargs="+", choices=EXAMPLE_IDS)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ScenarioError, IncompatibleInputs) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        for record in exc.trace.records:
            print(
                f"  omega={record.omega:.8f} objective={record.objective:.8f} "
                f"slope={record.slope:.8e} curvature={record.curvature:.8e}",
                file=sys.stderr,
            )
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

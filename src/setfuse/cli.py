"""Command-line interface.

    setfuse fuse --scenario s.json --mode p2|consistent --out dir
    setfuse sweep --scenario s.json --out dir
    setfuse reproduce ex1|ex2|ex3|ex4 --out dir

Exit codes: 0 success, 2 bad input, 3 solver or fusion failure.
Set SETFUSE_LOG=error|warn|info|debug to control logging. A ``--seed N``
left in older command lines is accepted with a warning and has no effect.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .scenarios import EXAMPLE_IDS, ScenarioError, load_scenario, reproduce, run_fuse, run_sweep
from .solvers import SolverError

log = logging.getLogger("setfuse")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _configure_logging() -> None:
    name = os.environ.get("SETFUSE_LOG", "warn").lower()
    level = _LOG_LEVELS.get(name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


def _resolve_out(args, scenario=None) -> str:
    if args.out is not None:
        return args.out
    if scenario is not None and scenario.out_dir is not None:
        return scenario.out_dir
    raise ScenarioError("no output directory: pass --out or set 'outputs' in the scenario")


def _cmd_fuse(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _resolve_out(args, scenario)
    result, path = run_fuse(scenario, args.mode, out)
    print(f"wrote {path}")
    print(
        f"family={scenario.family} mode={args.mode} "
        f"omega_card={result.omega_card:.6f} omega_loc={result.omega_loc[0]:.6f} "
        f"z={result.z_values[0]:.6f} flags={','.join(result.flags) or '-'}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    out = _resolve_out(args, scenario)
    path = run_sweep(scenario, out)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    out = args.out if args.out is not None else "out"
    result = reproduce(args.example, out)
    for name, ok, detail in result["checks"]:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    for path in result["files"]:
        print(f"wrote {path}")
    print(f"wrote {result['summary']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setfuse",
        description="Fusion of finite-set distributions with cardinality-consistency tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None, help=argparse.SUPPRESS)

    fuse = sub.add_parser("fuse", parents=[common], help="fuse a scenario pair once")
    fuse.add_argument("--scenario", required=True, help="scenario JSON path")
    fuse.add_argument("--mode", required=True, choices=("p2", "consistent"))
    fuse.set_defaults(func=_cmd_fuse)

    sweep = sub.add_parser("sweep", parents=[common], help="run the scenario's (kappa, omega) sweep")
    sweep.add_argument("--scenario", required=True, help="scenario JSON path")
    sweep.set_defaults(func=_cmd_sweep)

    rep = sub.add_parser("reproduce", parents=[common], help="rebuild a built-in experiment")
    rep.add_argument("example", choices=EXAMPLE_IDS)
    rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None:
        log.warning("ignoring --seed: it has no effect")
    try:
        return args.func(args)
    except ScenarioError as exc:
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
    except (ValueError, TypeError) as exc:
        print(f"fusion error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

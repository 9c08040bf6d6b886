#!/usr/bin/env python3
"""Run every built-in experiment and collect the figure-data CSVs.

Usage: python scripts/reproduce_all.py [--out OUT]

Exits 1 if any check fails.
"""

import argparse
import sys
from pathlib import Path

from setfuse.scenarios import EXAMPLE_IDS, experiment_report, write_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    args = parser.parse_args()

    failures = 0
    for example in EXAMPLE_IDS:
        report = experiment_report(example)
        write_report(report, Path(args.out) / example)
        print(f"== {example}")
        failures += sum(not ok for _, ok, _ in report.checks)
        for line in report.verdicts():
            print(f"  {line}")
    print(f"summaries and CSVs under {args.out}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

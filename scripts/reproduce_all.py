#!/usr/bin/env python3
"""Run every built-in experiment and collect the figure-data CSVs.

Usage: python scripts/reproduce_all.py [--out OUT]

Exits 1 if any check fails.
"""

import argparse
import sys

from setfuse.scenarios import EXAMPLE_IDS, reproduce


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    args = parser.parse_args()

    failures = 0
    for example in EXAMPLE_IDS:
        result = reproduce(example, args.out)
        print(f"== {example}")
        for name, ok, detail in result["checks"]:
            failures += not ok
            print(f"  {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"summaries and CSVs under {args.out}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

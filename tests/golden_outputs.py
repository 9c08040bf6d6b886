"""Golden outputs of the committed CLI commands, and their regeneration.

The commands are ``fuse`` on each committed scenario in both modes,
``sweep`` on the two-sensor scenario, ``reproduce ex1..ex4``, and ``fuse``
or ``sweep`` on the edge scenarios under ``tests/golden/scenarios/``: an
existence belief of 0, IID pmfs with one joint count, IID pmfs with no
joint count (exit 2), IID pmfs with no objects, and four inputs that exit
2 (a retired ``n_max``, a retired ``solver.seed``, both sweep scales, and
a string rate). For each, ``tests/golden/manifest.json`` holds its
arguments, exit code, stdout and stderr (paths written as ``{out}``,
``{golden}`` and ``{scenarios}``), and ``tests/golden/<case>/`` holds
every file it writes. Files above ``SAMPLE_ABOVE`` bytes keep only their
header, first row, last row and every 97th row; the manifest records their
line count.

``tests/test_golden.py`` runs each command in process and compares with
``compare``. Regenerate only when an output is meant to change:

    PYTHONPATH=src python tests/golden_outputs.py

It prints the largest relative change of each file against the stored data,
then rewrites that data. With ``--check`` it prints the same changes, rewrites
nothing, and exits 1 when any change is above ``RTOL`` (or an exit code,
stdout, stderr or case moved), so a change can show what would move first.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

from setfuse import cli

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
SCENARIOS = TESTS.parent / "scripts" / "scenarios"
SAMPLE_ABOVE = 25_000
SAMPLE_EVERY = 97
RTOL = 1e-12


def commands() -> dict[str, list[str]]:
    """Case name -> CLI arguments, with ``{scenarios}``, ``{golden}`` and
    ``{out}`` left to fill."""
    cases = {}
    for name in ("binomial_iid_pair", "poisson_pair", "two_sensor_bernoulli"):
        for mode in ("p2", "consistent"):
            cases[f"fuse-{name}-{mode}"] = [
                "fuse", "--scenario", f"{{scenarios}}/{name}.json", "--mode", mode, "--out", "{out}",
            ]
    cases["sweep-two_sensor_bernoulli"] = [
        "sweep", "--scenario", "{scenarios}/two_sensor_bernoulli.json", "--out", "{out}",
    ]
    for example in ("ex1", "ex2", "ex3", "ex4"):
        cases[f"reproduce-{example}"] = ["reproduce", example, "--out", "{out}"]
    edge = {"bernoulli_alpha_zero": ("consistent",), "iid_single_joint_count": ("p2", "consistent"),
            "iid_disjoint_supports": ("p2", "consistent"), "iid_no_objects": ("p2", "consistent"),
            "retired_n_max": ("p2",), "retired_solver_seed": ("consistent",), "string_rate": ("p2",),
            "two_sweep_scales": ("sweep",)}
    for name, modes in edge.items():
        scenario = ["--scenario", f"{{golden}}/scenarios/{name}.json"]
        for mode in modes:
            if mode == "sweep":
                cases[f"sweep-{name}"] = ["sweep", *scenario, "--out", "{out}"]
            else:
                cases[f"fuse-{name}-{mode}"] = ["fuse", *scenario, "--mode", mode, "--out", "{out}"]
    return cases


def run(argv: list[str], out: Path) -> tuple[int, list[str], list[str], dict[str, list[str]]]:
    """Run one command through ``cli.main`` into ``out``: its exit code, the
    lines it prints to stdout and to stderr with ``out``, ``GOLDEN`` and
    ``SCENARIOS`` written as their placeholders, and the lines of every file
    it wrote, keyed by path relative to ``out``."""
    places = {"out": out, "golden": GOLDEN, "scenarios": SCENARIOS}
    filled = [arg.format(**places) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(filled)
    printed = []
    for stream in (stdout, stderr):
        text = stream.getvalue()
        for name, path in places.items():
            text = text.replace(str(path), f"{{{name}}}")
        printed.append(text.splitlines())
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            files[path.relative_to(out).as_posix()] = path.read_text(encoding="utf-8").splitlines()
    return code, *printed, files


def sample(lines: list[str]) -> list[str]:
    """The header, the first and last rows, and every 97th row."""
    keep = {0, 1, len(lines) - 1, *range(SAMPLE_EVERY, len(lines), SAMPLE_EVERY)}
    return [lines[k] for k in sorted(keep)]


def _cell_change(old: str, new: str) -> float:
    """Relative change of one cell: 0 when equal, inf when not comparable."""
    if old == new:
        return 0.0
    if old.lstrip("-").isdigit() and new.lstrip("-").isdigit():
        return math.inf  # integers must match exactly
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf  # strings and booleans must match exactly
    if a == b:
        return 0.0
    return math.inf if a == 0.0 else abs(b - a) / abs(a)


def line_change(old: str, new: str) -> float:
    """Largest relative change over the comma-separated cells of one line."""
    old_cells, new_cells = old.split(","), new.split(",")
    if len(old_cells) != len(new_cells):
        return math.inf
    return max(_cell_change(a, b) for a, b in zip(old_cells, new_cells))


def file_change(name: str, old: list[str], new: list[str]) -> float:
    """Largest relative change between stored and new lines of one file;
    ``summary.txt`` and every non-CSV file must match exactly."""
    if len(old) != len(new):
        return math.inf
    if not name.endswith(".csv"):
        return 0.0 if old == new else math.inf
    return max((line_change(a, b) for a, b in zip(old, new)), default=0.0)


def load(case: str) -> dict:
    """The stored record of one case: argv, exit code, stdout, stderr and files."""
    record = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))[case]
    base = GOLDEN / case
    record["files"] = {
        path.relative_to(base).as_posix(): path.read_text(encoding="utf-8").splitlines()
        for path in sorted(base.rglob("*"))
        if path.is_file()
    }
    return record


def compare(record: dict, files: dict[str, list[str]]) -> dict[str, float]:
    """Largest relative change per file of a new run against a stored record.
    A file present on one side only, or a sampled file whose line count
    moved, reads inf."""
    changes = {}
    for name in sorted(set(record["files"]) | set(files)):
        if name not in record["files"] or name not in files:
            changes[name] = math.inf
            continue
        new = files[name]
        if name in record["sampled"]:
            if len(new) != record["sampled"][name]:
                changes[name] = math.inf
                continue
            new = sample(new)
        changes[name] = file_change(name, record["files"][name], new)
    return changes


def regenerate(check: bool = False) -> int:
    """Run every command and print how its outputs moved against the stored
    data; then rewrite that data, or with ``check`` leave it as it is. Returns
    1 when ``check`` finds a move above ``RTOL``, else 0."""
    path = GOLDEN / "manifest.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    manifest = {}
    moved = False
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in commands().items():
            out = Path(tmp) / case
            code, stdout, stderr, files = run(argv, out)
            if case not in stored:
                print(f"{case}: not stored")
                moved = True
            else:
                old = load(case)
                for name, change in compare(old, files).items():
                    print(f"{case}/{name}: largest relative change {change:.3g}")
                    moved |= not change <= RTOL
                for key, new in (("exit", code), ("stdout", stdout), ("stderr", stderr)):
                    if old[key] != new:
                        print(f"{case}: {key} changed")
                        moved = True
            if check:
                continue
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            sampled = {}
            for name, lines in files.items():
                if len("\n".join(lines)) > SAMPLE_ABOVE:
                    sampled[name] = len(lines)
                    lines = sample(lines)
                target = GOLDEN / case / name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            manifest[case] = {"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr, "sampled": sampled}
    if check:
        return int(moved)
    path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate or check the golden outputs.")
    parser.add_argument("--check", action="store_true", help="compare with the stored data and rewrite nothing")
    sys.exit(regenerate(parser.parse_args().check))

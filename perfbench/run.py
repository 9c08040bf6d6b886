"""setfuse benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload cli-cold|gauss-stream|grid-stream
        --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --quick [--workload W] [--seed N] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/`` as it is, nothing is installed. With ``--trace 0`` the last line
of standard output is one JSON object with the end-to-end metrics named in
BENCHMARK.json, with ``--trace 1`` the per-layer metrics. ``--quick`` runs
a few operations of each workload through every correctness check and
exits non-zero if any check fails. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from reference import CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
WORKLOADS = ("cli-cold", "gauss-stream", "grid-stream")
SETUP_REPEATS = 3
# two rounds, so every run compares the CSVs of repeated commands
CLI_MIN_ROUNDS = 2
DEADLINE_S = 175
GRID_Z = ("quadrature.grid_z_omega", "quadrature.grid_z_prime", "quadrature.grid_z_double_prime")


class Deadline(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_json(argv: list[str], env: dict) -> dict:
    """Run a child to completion and parse the JSON on its last output line."""
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrated(measure) -> float:
    """A child-measured time in seconds at the machine's typical speed,
    scaled by the calibration kernel timed on both sides of it."""
    before = calibrate.kernel()
    seconds = measure()
    return calibrate.scale(seconds, 0.5 * (before + calibrate.kernel()))


def cold_import_s(env: dict) -> float:
    code = "import time; t = time.perf_counter(); import setfuse; print(time.perf_counter() - t)"
    return calibrated(lambda: run_json([sys.executable, "-c", code], env))


def model_import_s(env: dict) -> float:
    """Cumulative import time of setfuse.model, scipy included."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import setfuse.model"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*setfuse\.model\s*$", line)
        if match:
            return int(match.group(1)) * 1e-6
    raise RuntimeError("setfuse.model not found in -X importtime output")


def peak_rss_mb() -> float:
    """Peak resident set of the largest child waited for (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def merge_spans(summaries) -> dict:
    out: dict = {}
    for summary in summaries:
        for name, entry in summary.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
    return out


def per_layer(spans: dict, counts: dict, fusions: int, extra: dict) -> dict:
    """Per-layer metrics from a traced run; 0 where the workload leaves a
    layer idle."""

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    diagnostics = [n for n in spans if n.startswith("diagnostics.")]
    sweep_cells = counts.get("scenarios.sweep_cells", 0)
    values = {
        "model.import_s": extra["model_import_s"],
        "model.cardinality_of.self_s": self_s("model.cardinality_of"),
        "gaussian.cholesky_per_fusion": ratio(counts.get("cholesky.fusions", 0), fusions),
        "gaussian.cholesky_per_sweep_cell": ratio(counts.get("cholesky.sweep", 0), sweep_cells),
        "quadrature.grid_z.calls": calls(*GRID_Z),
        "quadrature.grid_z.self_s": self_s(*GRID_Z),
        "quadrature.grid_cells_per_s": ratio(counts.get("quadrature.grid_cells", 0), self_s(*GRID_Z)),
        "quadrature.grid_bytes_per_eval": ratio(counts.get("quadrature.grid_bytes", 0), calls(*GRID_Z)),
        "quadrature.grid_emd.self_s": self_s("quadrature.grid_emd"),
        "fusion.localisation_emd.self_s": self_s("fusion.localisation_emd"),
        "fusion.cardinality_emd.self_s": self_s("fusion.cardinality_emd"),
        "solvers.newton_localisation.self_s": self_s("solvers.newton_localisation"),
        "solvers.loc_iterations": ratio(counts.get("solvers.loc_iterations", 0), counts.get("solvers.loc_solves", 0)),
        "solvers.loc_evaluations_per_solve": ratio(counts.get("solvers.loc_evaluations", 0), counts.get("solvers.loc_solves", 0)),
        "solvers.newton_cardinality.self_s": self_s("solvers.newton_cardinality"),
        "solvers.card_iterations": ratio(counts.get("solvers.card_iterations", 0), counts.get("solvers.card_solves", 0)),
        "solvers.failed": extra["failed"],
        "solvers.consistent_fuse_ms_p90": extra.get("consistent_fuse_ms_p90", 0.0),
        "diagnostics.calls": calls(*diagnostics),
        "diagnostics.self_s": self_s(*diagnostics),
        "scenarios.load_scenario.self_s": self_s("scenarios.load_scenario"),
        "scenarios.run_sweep.self_s": self_s("scenarios.run_sweep"),
        "scenarios.sweep_cells_per_s": ratio(sweep_cells, spans.get("scenarios.run_sweep", {}).get("total_s", 0.0)),
        "scenarios.write_csv.self_s": self_s("scenarios.write_csv"),
        "scenarios.write_csv.bytes": counts.get("scenarios.write_csv.bytes", 0),
        "cli.main.self_s": self_s("cli.main"),
        "cli.startup_s": extra.get("cli_startup_s", 0.0),
        "cli.fuse_s": extra.get("cli_fuse_s", 0.0),
        "cli.sweep_s": extra.get("cli_sweep_s", 0.0),
        "cli.reproduce_s": extra.get("cli_reproduce_s", 0.0),
        "trace.overhead_s": extra["overhead_s"],
    }
    for name in ("gaussian.emd_log_scale", "gaussian.emd_params", "gaussian.kld", "quadrature.mc_z_double_prime", "fusion.fused_cardinality_p2"):
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_s"] = self_s(name)
    return values


# ---------------------------------------------------------------- workloads


def run_cli_cold(args, env: dict, work: Path) -> dict:
    import cli_cold

    setups = [cold_import_s(env) for _ in range(SETUP_REPEATS)]
    state = {"commands": cli_cold.commands(ROOT), "checked": set(), "digests": {}, "errors": []}
    rounds = []
    try:
        if args.quick:
            rounds.append(cli_cold.run_round(ROOT, work, env, 0, state))
            # one cheap command again, for the byte-identical check
            cli_cold.run_round(ROOT, work, env, 1, dict(state, commands=state["commands"][:1]))
        else:
            budget = args.seconds / 2 if args.trace else args.seconds
            start = time.perf_counter()
            while len(rounds) < (1 if args.trace else CLI_MIN_ROUNDS) or time.perf_counter() - start < budget:
                rounds.append(cli_cold.run_round(ROOT, work, env, len(rounds), state))
        traced = []
        if args.trace:
            trace_dir = WORK / "traces" / f"cli-cold-seed{args.seed}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            traced = cli_cold.run_round(ROOT, work, env, len(rounds), state, trace_dir=trace_dir)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return {"correct": False}
    for error in state["errors"]:
        print(error, file=sys.stderr)

    records = [r for rnd in rounds for r in rnd] + traced
    out = {
        "correct": True,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
    }

    def walls(rnd, kind, mode=None):
        return [r["wall"] for r in rnd if r["kind"] == kind and (mode is None or r["mode"] == mode)]

    def fuse_median_s(mode):
        # a failed command counts as missing any latency limit
        return median([r["wall"] if r["ok"] else float("inf") for rnd in rounds for r in rnd if r["mode"] == mode])

    def fuse_rate(mode):
        # completed commands per second of the wall time of every command of the mode
        runs = [r for rnd in rounds for r in rnd if r["mode"] == mode]
        return sum(r["ok"] for r in runs) / sum(r["wall"] for r in runs)

    untraced_round = median([sum(r["wall"] for r in rnd) for rnd in rounds])
    if not args.trace:
        out["metrics"] = {
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "joint_fusions_per_s": fuse_rate("p2"),
            "consistent_fusions_per_s": fuse_rate("consistent"),
            "consistent_fuse_ms_p50": fuse_median_s("consistent") * 1e3,
            "round_s": untraced_round,
        }
        return out

    spans = merge_spans(r["trace"]["spans"] for r in traced if r["ok"])
    counts: dict = {}
    for r in traced:
        for key, value in r.get("trace", {}).get("counts", {}).items():
            counts[key] = counts.get(key, 0) + value
    startup = [r["raw_wall"] - r["trace"]["spans"]["cli.main"]["total_s"] for r in traced if r["ok"]]
    extra = {
        "model_import_s": model_import_s(env),
        "failed": out["failed"],
        "cli_startup_s": statistics.fmean(startup),
        "cli_fuse_s": median([sum(walls(rnd, "fuse")) for rnd in rounds]),
        "cli_sweep_s": median([sum(walls(rnd, "sweep")) for rnd in rounds]),
        "cli_reproduce_s": median([sum(walls(rnd, "reproduce")) for rnd in rounds]),
        "overhead_s": sum(r["wall"] for r in traced) - untraced_round,
    }
    fusions = spans.get("scenarios.run_fuse", {}).get("calls", 0)
    out["metrics"] = per_layer(spans, counts, fusions, extra)
    return out


def run_stream(args, env: dict, work: Path) -> dict:
    base = [
        sys.executable, str(BENCH / "stream.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    if args.quick:
        base.append("--quick")
    setups = [calibrated(lambda: run_json(base + ["--setup-only"], env)["setup_s"]) for _ in range(SETUP_REPEATS)]
    full = base + ["--trace", str(args.trace)]
    if args.trace:
        full += ["--trace-out", str(WORK / "traces" / f"{args.workload}-seed{args.seed}.tsv")]
    res = run_json(full, env)
    if not res["correct"]:
        return {"correct": False}
    for error, count in res["errors"].items():
        print(f"{count} x {error}", file=sys.stderr)
    out = {"correct": True, "attempted": res["attempted"], "failed": res["failed"]}
    if not args.trace:
        out["metrics"] = {
            "setup_s": median(setups),
            "peak_rss_mb": peak_rss_mb(),
            "joint_fusions_per_s": res["joint_fusions_per_s"],
            "consistent_fusions_per_s": res["consistent_fusions_per_s"],
            "consistent_fuse_ms_p50": res["consistent_fuse_ms_p50"],
            "round_s": res["round_s"],
        }
        return out
    extra = {
        "model_import_s": model_import_s(env),
        "failed": res["solver_failed"],
        "consistent_fuse_ms_p90": res["consistent_fuse_ms_p90"],
        "overhead_s": res["overhead_s"],
    }
    out["metrics"] = per_layer(res["spans"], res["counts"], res["fusions"], extra)
    return out


# --------------------------------------------------------------------- main


def with_units(metrics: dict, declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def run_workload(args, spec: dict) -> dict:
    env = child_env()
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # byte-compile once, so no run pays or skips the compile step
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "setfuse")], env=env, check=True, capture_output=True)
    try:
        if args.workload == "cli-cold":
            out = run_cli_cold(args, env, work)
        else:
            out = run_stream(args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not out["correct"]:
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    out["metrics"] = with_units(out["metrics"], declared)
    return out


def on_deadline(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "setfuse" / "__init__.py").is_file() or not (ROOT / "scripts" / "scenarios").is_dir():
        print(f"error: no setfuse source tree at {ROOT}; run from a setfuse checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if args.quick:
        correct = True
        for workload in [args.workload] if args.workload else WORKLOADS:
            args.workload = workload
            start = time.perf_counter()
            out = run_workload(args, spec)
            correct &= out["correct"]
            print(f"quick {workload}: correct={out['correct']} attempted={out['attempted']} "
                  f"failed={out['failed']} in {time.perf_counter() - start:.1f} s")
        return 0 if correct else 1

    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    out = run_workload(args, spec)
    signal.alarm(0)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

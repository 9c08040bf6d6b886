"""The cli-cold workload: cold ``setfuse`` processes as a researcher runs
them, one at a time, with each command's output checked.

A round is the same eleven commands: ``fuse`` on the three committed
scenarios in both modes, ``sweep`` on the two-sensor scenario and
``reproduce ex1..ex4``. The CSVs of the first round are checked against
``reference``; every later round must write byte-identical CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import calibrate
import inputs
import reference as ref
from reference import WEIGHT_TOL, check, close, z_matches

SCENARIOS = ("two_sensor_bernoulli", "poisson_pair", "binomial_iid_pair")
EXAMPLES = ("ex1", "ex2", "ex3", "ex4")
# The built-in experiments' inputs as the paper defines them: ex1 and ex3
# use the two-sensor geometry (existence 0.8, major-axis variance 1), ex2
# and ex4 the binomial count pairs (k, p_i, p_j).
TWO_SENSOR_MEANS = (np.array([0.25, 0.25]), np.array([-0.75, -0.25]))
BINOMIAL_PAIRS = {"low": (5, 0.95, 0.92), "high": (35, 0.98, 0.975)}


def commands(root: Path) -> list[tuple[str, list[str]]]:
    """(kind, CLI arguments without --out) for one round."""
    scen = root / "scripts" / "scenarios"
    out = [
        ("fuse", ["fuse", "--scenario", str(scen / f"{name}.json"), "--mode", mode])
        for name in SCENARIOS
        for mode in ("p2", "consistent")
    ]
    out.append(("sweep", ["sweep", "--scenario", str(scen / "two_sensor_bernoulli.json")]))
    out.extend(("reproduce", ["reproduce", ex]) for ex in EXAMPLES)
    return out


def run_command(argv: list[str], env: dict, cwd: Path) -> tuple[float, float, subprocess.CompletedProcess]:
    """Wall time of one cold command, as measured and at the machine's
    typical speed."""
    before = calibrate.kernel()
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    wall = time.perf_counter() - start
    return wall, calibrate.scale(wall, 0.5 * (before + calibrate.kernel())), proc


# ------------------------------------------------------------------ checks


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def csv_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every CSV under out_dir; also rejects any NaN field."""
    digests = {}
    for path in sorted(out_dir.rglob("*.csv")):
        data = path.read_bytes()
        for row in csv.reader(data.decode("utf-8").splitlines()):
            check(not any(field.strip().lower() in ("nan", "-nan", "+nan") for field in row), f"NaN in {path.name}")
        digests[str(path.relative_to(out_dir))] = hashlib.sha256(data).hexdigest()
    check(bool(digests), f"no CSV written under {out_dir}")
    return digests


def load_pair(path: Path) -> dict:
    raw = json.loads(path.read_text(encoding="utf-8"))
    a, b = raw["inputs"]
    return {
        "family": raw["family"],
        "omega": float(raw.get("omega", 0.5)),
        "n_max": raw.get("n_max"),
        "sweep": raw.get("sweep"),
        "locs": [(np.array(x["loc"]["mean"], float), np.array(x["loc"]["cov"], float)) for x in (a, b)],
        "counts": [x.get("alpha", x.get("lambda", x.get("pmf"))) for x in (a, b)],
    }


def iid_pmfs(pair: dict) -> tuple[np.ndarray, np.ndarray]:
    a, b = (np.array(p, float) for p in pair["counts"])
    if pair["n_max"] is not None:
        a, b = (np.pad(p, (0, max(0, pair["n_max"] + 1 - p.size))) for p in (a, b))
    return a, b


def check_fuse(path: Path, args: list[str], out_dir: Path) -> None:
    pair = load_pair(path)
    mode = args[args.index("--mode") + 1]
    (row,) = read_rows(out_dir / "fuse.csv")
    (mi, ci), (mj, cj) = pair["locs"]
    fam = pair["family"]
    c_i, c_j = pair["counts"]
    fused_col = {"bernoulli": "alpha_fused", "poisson": "lambda_fused", "iid": "map_fused"}[fam]
    fused = float(row[fused_col])
    if mode == "p2":
        w = pair["omega"]
        log_z = ref.gauss_log_z(mi, ci, mj, cj, w)
        check(z_matches(float(row["z_omega"]), log_z), f"{path.name} p2: z_w off the reference")
        if fam == "bernoulli":
            check(close(fused, ref.bernoulli_joint(c_i, c_j, w, log_z)), f"{path.name} p2: alpha")
            lower = min(c_i, c_j)
        elif fam == "poisson":
            check(close(fused, ref.poisson_joint(c_i, c_j, w, log_z)), f"{path.name} p2: rate")
            lower = min(c_i, c_j)
        else:
            a, b = iid_pmfs(pair)
            check(int(fused) == int(np.argmax(ref.iid_joint(a, b, w, log_z))), f"{path.name} p2: MAP")
            lower = min(int(np.argmax(a)), int(np.argmax(b)))
        check((row["inconsistent"] == "true") == (fused < lower), f"{path.name} p2: inconsistent flag")
        return
    w_loc, w_card = float(row["omega_loc"]), float(row["omega_card"])
    check(abs(w_loc - ref.gauss_weight(mi, ci, mj, cj)) <= WEIGHT_TOL, f"{path.name}: localisation weight")
    check(z_matches(float(row["z_omega"]), ref.gauss_log_z(mi, ci, mj, cj, w_loc)), f"{path.name}: z at the solved weight")
    if fam == "bernoulli":
        if c_i != c_j:
            check(abs(w_card - ref.card_weight(np.array([1 - c_i, c_i]), np.array([1 - c_j, c_j]))) <= WEIGHT_TOL, f"{path.name}: count weight")
        check(fused >= min(c_i, c_j) - 1e-12, f"{path.name}: consistent alpha below both inputs")
        check(close(fused, ref.bernoulli_joint(c_i, c_j, w_card, 0.0)), f"{path.name}: consistent alpha")
    elif fam == "poisson":
        check(abs(w_card - ref.poisson_weight(c_i, c_j)) <= WEIGHT_TOL, f"{path.name}: count weight")
        check(fused >= min(c_i, c_j) * (1 - 1e-12), f"{path.name}: consistent rate below both inputs")
        check(close(fused, ref.poisson_joint(c_i, c_j, w_card, 0.0)), f"{path.name}: consistent rate")
    else:
        a, b = iid_pmfs(pair)
        check(abs(w_card - ref.card_weight(a, b)) <= WEIGHT_TOL, f"{path.name}: count weight")
        probs = ref.iid_joint(a, b, w_card, 0.0)
        check(bool(np.all(probs >= np.minimum(a, b) * (1 - 1e-9))), f"{path.name}: counts below min(p_i, p_j)")
        check(int(fused) == int(np.argmax(probs)), f"{path.name}: consistent MAP")


def sweep_covariances(kappa: float, sigma1_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """The two-sensor construction: diag(s1, s1/kappa) rotated by +-45 degrees."""
    out = []
    for phi in (math.pi / 4, -math.pi / 4):
        c, s = math.cos(phi), math.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        out.append(rot @ np.diag([sigma1_sq, sigma1_sq / kappa]) @ rot.T)
    return out[0], out[1]


def check_sweep_csv(path: Path, means, alphas, sigma1_sq: float) -> dict:
    """z_w and the joint existence of every (kappa, omega) cell."""
    alpha_at_half = {}
    for row in read_rows(path):
        kappa, w = float(row["kappa"]), float(row["omega"])
        cov_i, cov_j = sweep_covariances(kappa, sigma1_sq)
        log_z = ref.gauss_log_z(means[0], cov_i, means[1], cov_j, w)
        check(z_matches(float(row["z_omega"]), log_z), f"{path.name}: z_w at kappa={kappa} omega={w}")
        alpha = float(row["alpha_omega"])
        check(close(alpha, ref.bernoulli_joint(alphas[0], alphas[1], w, log_z)), f"{path.name}: alpha at kappa={kappa} omega={w}")
        if abs(w - 0.5) < 1e-12:
            alpha_at_half[kappa] = alpha
    return alpha_at_half


def check_ex2(out_dir: Path) -> None:
    pmfs = {name: (inputs.binomial_pmf(k, p), inputs.binomial_pmf(k, q)) for name, (k, p, q) in BINOMIAL_PAIRS.items()}
    groups = defaultdict(dict)
    for row in read_rows(out_dir / "fused_count_pmfs.csv"):
        groups[(row["pair"], float(row["z_omega"]), float(row["omega"]))][int(row["n"])] = float(row["prob"])
    check(len(groups) == 2 * 9 * 9, "ex2: fused pmf grid incomplete")
    for (name, z, w), probs in groups.items():
        a, b = pmfs[name]
        expected = ref.iid_joint(a, b, w, math.log(z))
        got = np.array([probs[n] for n in range(expected.size)])
        check(np.allclose(got, expected, rtol=1e-6, atol=1e-12), f"ex2: fused pmf {name} z={z} omega={w}")
    for row in read_rows(out_dir / "map_estimates.csv"):
        a, b = pmfs[row["pair"]]
        expected = ref.iid_joint(a, b, float(row["omega"]), math.log(float(row["z_omega"])))
        check(int(row["map_fused"]) == int(np.argmax(expected)), "ex2: MAP estimate")
    for row in read_rows(out_dir / "inconsistency_bounds.csv"):
        a, b = pmfs[row["pair"]]
        z, w, n, bound = float(row["z_omega"]), float(row["omega"]), int(row["n"]), float(row["bound"])
        fused_n = ref.iid_joint(a, b, w, math.log(z))[n]
        lower = min(a[n], b[n])
        if abs(fused_n - lower) > 1e-6 * lower:
            check((z < bound) == (fused_n < lower), f"ex2: bound verdict at n={n} z={z}")
    for row in read_rows(out_dir / "inconsistency_thresholds.csv"):
        a, b = pmfs[row["pair"]]
        z, w, eta = float(row["z_omega"]), float(row["omega"]), float(row["eta"])
        fused = ref.iid_joint(a, b, w, math.log(z))
        beyond = np.arange(fused.size) > eta + 1e-9
        check(bool(np.all(fused[beyond] < np.minimum(a, b)[beyond] * (1 + 1e-9))), f"ex2: threshold z={z} omega={w}")


def check_ex3(out_dir: Path, means, sigma1_sq: float) -> None:
    rows = read_rows(out_dir / "optimal_weights.csv")
    check(len(rows) == 79, "ex3: one row per kappa")
    for row in rows:
        cov_i, cov_j = sweep_covariances(float(row["kappa"]), sigma1_sq)
        best = ref.gauss_weight(means[0], cov_i, means[1], cov_j)
        w = float(row["omega_star"])
        check(abs(w - best) <= WEIGHT_TOL, f"ex3: omega* {w} vs reference {best} at kappa={row['kappa']}")
        check(z_matches(float(row["z_star"]), ref.gauss_log_z(means[0], cov_i, means[1], cov_j, w)), "ex3: z*")


def check_ex4(out_dir: Path) -> None:
    weights = {row["pair"]: float(row["omega_star"]) for row in read_rows(out_dir / "optimal_weights.csv")}
    check(set(weights) == set(BINOMIAL_PAIRS), "ex4: one weight per pair")
    fused = defaultdict(dict)
    for row in read_rows(out_dir / "fused_count_pmfs.csv"):
        p_i, p_j, p_f = float(row["p_i"]), float(row["p_j"]), float(row["p_fused"])
        check(p_f >= min(p_i, p_j) * (1 - 1e-9), f"ex4: fused count below both inputs at n={row['n']}")
        fused[row["pair"]][int(row["n"])] = p_f
    for name, (k, p, q) in BINOMIAL_PAIRS.items():
        a, b = inputs.binomial_pmf(k, p), inputs.binomial_pmf(k, q)
        check(abs(weights[name] - ref.card_weight(a, b)) <= WEIGHT_TOL, f"ex4: {name} weight")
        expected = ref.iid_joint(a, b, weights[name], 0.0)
        got = np.array([fused[name][n] for n in range(k + 1)])
        check(np.allclose(got, expected, rtol=1e-6, atol=1e-12), f"ex4: {name} fused pmf")


def check_output(kind: str, args: list[str], out_dir: Path, proc) -> None:
    """Correctness of one command's output against the references."""
    if kind == "fuse":
        check_fuse(Path(args[args.index("--scenario") + 1]), args, out_dir)
    elif kind == "sweep":
        two = load_pair(Path(args[args.index("--scenario") + 1]))
        means = [two["locs"][0][0], two["locs"][1][0]]
        check_sweep_csv(out_dir / "sweep.csv", means, two["counts"], float(two["sweep"].get("sigma1_sq", 1.0)))
    else:
        ex = args[1]
        lines = [line for line in proc.stdout.splitlines() if line.startswith(("PASS", "FAIL"))]
        check(bool(lines) and all(line.startswith("PASS") for line in lines), f"{ex}: not every check PASS")
        ex_dir = out_dir / ex
        if ex == "ex1":
            at_half = check_sweep_csv(ex_dir / "sweep.csv", TWO_SENSOR_MEANS, (0.8, 0.8), 1.0)
            for row in read_rows(ex_dir / "existence_vs_diversity.csv"):
                check(float(row["alpha_kl_averaging"]) == at_half[float(row["kappa"])], "ex1: cross-section")
        elif ex == "ex2":
            check_ex2(ex_dir)
        elif ex == "ex3":
            check_ex3(ex_dir, TWO_SENSOR_MEANS, 1.0)
        else:
            check_ex4(ex_dir)


# -------------------------------------------------------------------- loop


def run_round(root: Path, work: Path, env: dict, round_no: int, state: dict, trace_dir=None) -> list[dict]:
    """Run the eleven commands once; returns one record per command. With
    ``trace_dir`` each command runs under the tracer, which writes there."""
    records = []
    for index, (kind, args) in enumerate(state["commands"]):
        out_dir = work / f"round{round_no}" / f"cmd{index}"
        cli_args = [*args, "--out", str(out_dir)]
        if trace_dir is not None:
            trace_file = trace_dir / f"cmd{index}.json"
            argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(trace_file), *cli_args]
        else:
            argv = [sys.executable, "-m", "setfuse.cli", *cli_args]
        raw_wall, wall, proc = run_command(argv, env, root)
        mode = args[args.index("--mode") + 1] if kind == "fuse" else None
        record = {"kind": kind, "mode": mode, "raw_wall": raw_wall, "wall": wall, "ok": proc.returncode == 0}
        records.append(record)
        if not record["ok"]:
            state["errors"].append(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        if index not in state["checked"]:
            check_output(kind, args, out_dir, proc)
            state["checked"].add(index)
        digests = csv_digests(out_dir)
        first = state["digests"].setdefault(index, digests)
        check(first == digests, f"{' '.join(args)}: CSV bytes differ between runs")
        if trace_dir is not None:
            record["trace"] = json.loads(trace_file.read_text(encoding="utf-8"))
    return records

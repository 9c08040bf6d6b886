"""One stream workload in its own process: a tracker loop fusing one pair
per scan, in process, closed loop, one operation at a time.

    python3 perfbench/stream.py --workload gauss-stream|grid-stream --seed N
        --seconds T [--trace 0|1] [--setup-only] [--quick]

Set-up (import of setfuse, input generation, grid discretisation) is timed
from the first line of this file to the first timed operation. The loop
then runs whole rounds over the pool until ``--seconds`` have passed; each
pair gives one joint (P2) fusion with its family's inconsistency
diagnostic and one ``consistent_fuse``. Only the calls into setfuse are
timed; every output is checked against ``reference`` outside the timers.
With ``--trace 1`` the same number of rounds runs a second time with
``tracer`` installed. The last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from setfuse import diagnostics, fusion, model, quadrature, solvers  # noqa: E402

import calibrate  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
from reference import WEIGHT_TOL, CheckFailed, check, close, z_matches  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

# quick mode: one block, every class of the make-up cut to one or a few pairs
QUICK_SHRINK = 8
# midpoint quadrature of the discretised Gaussians against the continuous
# covariance form: over 1,200 seeded grid pairs the largest gap in log z_w
# was 4.6e-6 on 100^2 and 200^2 grids and 2.3e-3 on the coarse 40^3 grid
GRID_LOG_Z_TOL = 0.02
MASS_TOL = 1e-9
# about 1.3 ms of calibration work after every pair
CALIBRATION_REPEATS = 8


# ---------------------------------------------------------------- inputs


def build(pair: dict, grid: bool) -> dict:
    """setfuse objects for one generated pair."""
    loc_i = model.GaussianDensity(pair["mean_i"], pair["cov_i"])
    loc_j = model.GaussianDensity(pair["mean_j"], pair["cov_j"])
    if grid:
        loc_i, loc_j = quadrature.discretize_gaussians([loc_i, loc_j], pair["points"])
    family = pair["family"]
    if family == "bernoulli":
        f_i = model.BernoulliRfs(pair["alpha_i"], loc_i)
        f_j = model.BernoulliRfs(pair["alpha_j"], loc_j)
    elif family == "poisson":
        f_i = model.PoissonRfs(pair["rate_i"], loc_i)
        f_j = model.PoissonRfs(pair["rate_j"], loc_j)
    else:
        f_i = model.IidClusterRfs(model.CardinalityPmf(pair["pmf_i"]), loc_i)
        f_j = model.IidClusterRfs(model.CardinalityPmf(pair["pmf_j"]), loc_j)
    config = solvers.NewtonConfig(seed=pair["newton_seed"])
    return {"spec": pair, "f_i": f_i, "f_j": f_j, "config": config, "ref": None}


# ------------------------------------------------------------ operations


def joint(item: dict):
    """One P2 fusion at the pair's weight plus its family's diagnostic."""
    f_i, f_j, w = item["f_i"], item["f_j"], item["spec"]["w"]
    family = item["spec"]["family"]
    if family == "bernoulli":
        fused, z, _ = fusion.bernoulli_fuse_p2(f_i, f_j, w)
        return fused, z, diagnostics.bernoulli_inconsistency_bound(f_i.alpha, f_j.alpha, w)
    if family == "poisson":
        fused, z, _ = fusion.poisson_fuse_p2(f_i, f_j, w)
        return fused, z, diagnostics.poisson_inconsistency(f_i.rate, f_j.rate, z)
    n_max = max(f_i.card.n_max, f_j.card.n_max)
    fused, z, _ = fusion.iid_fuse_p2(f_i, f_j, w, n_max)
    n = min(f_i.card.map_estimate(), f_j.card.map_estimate())
    n = max(n, 1)
    bound = diagnostics.iid_inconsistency_bound(f_i.card, f_j.card, w, n, z)
    eta = diagnostics.iid_inconsistency_threshold(f_i.card, f_j.card, w, z) if z < 1.0 else None
    return fused, z, (n, bound, eta)


def consistent(item: dict):
    return solvers.consistent_fuse(item["f_i"], item["f_j"], item["config"])


# ---------------------------------------------------------------- checks


def references(item: dict, grid: bool) -> dict:
    """Reference values for one pair, computed once and reused every round."""
    if item["ref"] is not None:
        return item["ref"]
    spec = item["spec"]
    w = spec["w"]
    gauss = (spec["mean_i"], spec["cov_i"], spec["mean_j"], spec["cov_j"])
    if grid:
        vi, vj = item["f_i"].loc.values, item["f_j"].loc.values
        out = {
            "log_z_w": ref.grid_log_z(vi, vj, item["f_i"].loc.cell_volume, w),
            "w_loc": ref.grid_weight(vi, vj),
            "log_z_w_continuous": ref.gauss_log_z(*gauss, w),
        }
    else:
        out = {"log_z_w": ref.gauss_log_z(*gauss, w), "w_loc": ref.gauss_weight(*gauss)}
    family = spec["family"]
    if family == "bernoulli":
        a = np.array([1.0 - spec["alpha_i"], spec["alpha_i"]])
        b = np.array([1.0 - spec["alpha_j"], spec["alpha_j"]])
        out["w_card"] = ref.card_weight(a, b)
    elif family == "poisson":
        out["w_card"] = ref.poisson_weight(spec["rate_i"], spec["rate_j"])
    else:
        out["w_card"] = ref.card_weight(spec["pmf_i"], spec["pmf_j"])
    item["ref"] = out
    return out


def check_grid(loc, what: str) -> None:
    if isinstance(loc, model.GridDensity):
        mass = float(loc.values.sum()) * loc.cell_volume
        check(abs(mass - 1.0) <= MASS_TOL, f"{what}: fused grid integrates to {mass!r}")


def check_joint(item: dict, out, grid: bool) -> None:
    spec, r = item["spec"], references(item, grid)
    fused, z, diag = out
    w, family = spec["w"], spec["family"]
    check(z_matches(z, r["log_z_w"]), f"joint z_w {z!r} vs reference log {r['log_z_w']!r}")
    if grid:
        gap = abs(r["log_z_w"] - r["log_z_w_continuous"])
        check(gap <= GRID_LOG_Z_TOL, f"grid log z_w off the covariance-form value by {gap:.3g}")
    check_grid(fused.loc, "joint")
    log_z = r["log_z_w"]
    if family == "bernoulli":
        expected = ref.bernoulli_joint(spec["alpha_i"], spec["alpha_j"], w, log_z)
        check(close(fused.alpha, expected), f"joint alpha {fused.alpha!r} vs {expected!r}")
        bound = ref.bernoulli_bound(spec["alpha_i"], spec["alpha_j"], w)
        check(close(diag, bound), f"bernoulli bound {diag!r} vs {bound!r}")
    elif family == "poisson":
        expected = ref.poisson_joint(spec["rate_i"], spec["rate_j"], w, log_z)
        check(close(fused.rate, expected, abs_=1e-300), f"joint rate {fused.rate!r} vs {expected!r}")
        bound, verdict = diag
        lo, hi = sorted((spec["rate_i"], spec["rate_j"]))
        check(close(bound, lo / hi) and verdict == (z < bound), "poisson diagnostic")
        if verdict:
            check(expected < lo, "poisson verdict without a fused rate below both inputs")
    else:
        expected = ref.iid_joint(spec["pmf_i"], spec["pmf_j"], w, log_z)
        got = fused.card.padded(expected.size - 1)
        check(np.allclose(got, expected, rtol=1e-6, atol=1e-12), "joint count pmf off the reference")
        n, bound, eta = diag
        lower = min(spec["pmf_i"][n], spec["pmf_j"][n])
        margin = abs(expected[n] - lower) / lower
        if margin > 1e-6:
            check((z < bound) == (expected[n] < lower), f"iid bound verdict wrong at n={n}")
        if eta is not None:
            both, _, _ = ref.joint_logs(spec["pmf_i"], spec["pmf_j"])
            minima = np.minimum(spec["pmf_i"][both], spec["pmf_j"][both])
            beyond = both > eta + 1e-9
            check(bool(np.all(expected[both][beyond] < minima[beyond] * (1 + 1e-9))), "iid threshold: a count beyond eta is consistent")


def check_consistent(item: dict, result, grid: bool) -> None:
    spec, r = item["spec"], references(item, grid)
    family = spec["family"]
    w_loc = result.omega_loc[0]
    check(abs(w_loc - r["w_loc"]) <= WEIGHT_TOL, f"localisation weight {w_loc!r} vs reference {r['w_loc']!r}")
    check(abs(result.omega_card - r["w_card"]) <= WEIGHT_TOL, f"count weight {result.omega_card!r} vs reference {r['w_card']!r}")
    if grid:
        expected = ref.grid_log_z(item["f_i"].loc.values, item["f_j"].loc.values, item["f_i"].loc.cell_volume, w_loc)
    else:
        expected = ref.gauss_log_z(spec["mean_i"], spec["cov_i"], spec["mean_j"], spec["cov_j"], w_loc)
    check(z_matches(result.z_values[0], expected), "z at the solved weight off the reference")
    check_grid(result.fused.loc, "consistent")
    if family == "bernoulli":
        alpha = result.fused.alpha
        check(alpha >= min(spec["alpha_i"], spec["alpha_j"]) - 1e-12, "consistent alpha below both inputs")
        expected = ref.bernoulli_joint(spec["alpha_i"], spec["alpha_j"], result.omega_card, 0.0)
        check(close(alpha, expected), "consistent alpha off the rule at its weight")
    elif family == "poisson":
        rate = result.fused.rate
        check(rate >= min(spec["rate_i"], spec["rate_j"]) * (1 - 1e-12), "consistent rate below both inputs")
        expected = ref.poisson_joint(spec["rate_i"], spec["rate_j"], result.omega_card, 0.0)
        check(close(rate, expected), "consistent rate off the rule at its weight")
    else:
        probs = result.fused.card.probs
        a, b = spec["pmf_i"], spec["pmf_j"]
        n = min(probs.size, a.size, b.size)
        check(bool(np.all(probs[:n] >= np.minimum(a[:n], b[:n]) * (1 - 1e-9))), "consistent counts below min(p_i, p_j)")
        expected = ref.iid_joint(a, b, result.omega_card, 0.0)
        check(np.allclose(result.fused.card.padded(expected.size - 1), expected, rtol=1e-6, atol=1e-12), "consistent pmf off the rule")


# ------------------------------------------------------------------ loop


class Stats:
    """Operation counts and timings, the latter in seconds at the machine's
    typical speed. Figures are kept per block and per pair, so that a block
    visited twice in a run weighs no more than one visited once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        # block index -> one [joint_s, joint_ok, consistent_s, consistent_ok] per visit
        self.visits: dict[int, list[list]] = {}
        # (block, pair) -> consistent_fuse latencies in ms; a failure counts
        # as missing any latency limit
        self.latency_ms: dict[tuple[int, int], list[float]] = {}

    @property
    def rounds(self) -> int:
        return sum(map(len, self.visits.values()))

    def per_block_mean(self, column: int) -> float:
        """Sum over the blocks visited of a column's mean over visits."""
        return sum(sum(v[column] for v in vs) / len(vs) for vs in self.visits.values())

    def pair_latencies(self) -> list[float]:
        return [statistics.median(v) for v in self.latency_ms.values()]


def run_rounds(blocks, grid: bool, stats: Stats, rounds=None, seconds=None, tracer=None) -> None:
    """Whole rounds, one block each, cycling through the pool: ``rounds``
    of them, or as many as start within ``seconds``. Every timing is scaled
    to the machine's typical speed by the calibration kernel timed before
    and after each pair."""
    start = time.perf_counter()
    done = 0
    kernel_before = calibrate.kernel(CALIBRATION_REPEATS)
    while (rounds is not None and done < rounds) or (
        rounds is None and (done == 0 or time.perf_counter() - start < seconds)
    ):
        index = done % len(blocks)
        visit = [0.0, 0, 0.0, 0]
        for slot, item in enumerate(blocks[index]):
            timings = []
            for kind, op, verify in (("joint", joint, check_joint), ("consistent", consistent, check_consistent)):
                stats.attempted += 1
                span = tracer.begin(f"op.{kind}") if tracer else None
                t = time.perf_counter()
                try:
                    out = op(item)
                except (ValueError, ArithmeticError, solvers.SolverError) as exc:
                    elapsed = time.perf_counter() - t
                    out = None
                    spec = item["spec"]
                    where = "far-apart" if spec.get("far") else f"seeded, block {index} pair {slot}"
                    key = f"{kind} {spec['family']} {spec['dim']}-D ({where}): {exc}"
                    stats.errors[key] = stats.errors.get(key, 0) + 1
                else:
                    elapsed = time.perf_counter() - t
                finally:
                    if tracer:
                        tracer.end(span)
                timings.append((kind, elapsed, out, verify))
            kernel_after = calibrate.kernel(CALIBRATION_REPEATS)
            factor = calibrate.scale(1.0, 0.5 * (kernel_before + kernel_after))
            kernel_before = kernel_after
            for kind, elapsed, out, verify in timings:
                ok = out is not None
                column = 0 if kind == "joint" else 2
                visit[column] += elapsed * factor
                visit[column + 1] += ok
                if kind == "consistent":
                    ms = elapsed * factor * 1e3 if ok else math.inf
                    stats.latency_ms.setdefault((index, slot), []).append(ms)
                if ok:
                    verify(item, out, grid)
                else:
                    stats.failed += 1
        stats.visits.setdefault(index, []).append(visit)
        done += 1


def percentile(values, q: float) -> float:
    data = sorted(values)
    k = min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))
    return data[k]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("gauss-stream", "grid-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    grid = args.workload == "grid-stream"
    make_pool = inputs.grid_pool if grid else inputs.gauss_pool
    pool = make_pool(args.seed, 1, QUICK_SHRINK) if args.quick else make_pool(args.seed)
    blocks = [[build(pair, grid) for pair in block] for block in pool]
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "pairs": sum(map(len, blocks))}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    stats = Stats()
    try:
        if args.quick:
            run_rounds(blocks, grid, stats, rounds=1)
        elif args.trace:
            run_rounds(blocks, grid, stats, seconds=args.seconds / 2)
        else:
            run_rounds(blocks, grid, stats, seconds=args.seconds)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result["correct"] = False
        print(json.dumps(result))
        return 0

    latencies = stats.pair_latencies()
    joint_s, consistent_s = stats.per_block_mean(0), stats.per_block_mean(2)
    result.update(
        correct=True,
        attempted=stats.attempted,
        failed=stats.failed,
        errors=stats.errors,
        rounds=stats.rounds,
        joint_fusions_per_s=stats.per_block_mean(1) / joint_s,
        consistent_fusions_per_s=stats.per_block_mean(3) / consistent_s,
        consistent_fuse_ms_p50=percentile(latencies, 0.5),
        consistent_fuse_ms_p90=percentile(latencies, 0.9),
        latency_pairs=len(latencies),
        round_s=(joint_s + consistent_s) / len(stats.visits),
    )
    if args.trace:
        untraced_s = joint_s + consistent_s
        traced = Stats()
        tracer = Tracer()
        instrument(tracer)
        try:
            run_rounds(blocks, grid, traced, rounds=stats.rounds, tracer=tracer)
        except CheckFailed as exc:
            print(f"check failed under tracing: {exc}", file=sys.stderr)
            result["correct"] = False
        result.update(
            spans=tracer.summary(),
            counts=dict(tracer.counts),
            fusions=traced.attempted,
            solver_failed=traced.failed,
            overhead_s=traced.per_block_mean(0) + traced.per_block_mean(2) - untraced_s,
        )
        if args.trace_out:
            tracer.write(Path(args.trace_out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

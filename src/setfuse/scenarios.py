"""Scenario files, parameter sweeps and built-in experiment reproduction.

Scenarios are strict JSON (version 1, unknown fields rejected) describing a
same-family pair of finite-set distributions, optional sweep and solver
blocks, and an output directory. Sweeps follow the two-sensor diversity
construction: both covariances are rotated copies (plus and minus 45
degrees) of a diagonal matrix whose condition number kappa is swept.

Scale convention for the sweep: by default the major-axis variance is held
fixed (``sigma1_sq``, default 1.0) while the minor-axis variance shrinks as
sigma1_sq / kappa. Setting ``det_sigma`` instead holds the determinant fixed.
The fixed-major-axis default is what reproduces the reference experiment
curves; the determinant convention is kept as an override.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import gammaln

from . import diagnostics, gaussian
from .fusion import (
    _bernoulli_alpha,
    _poisson_rate,
    bernoulli_fuse_p2,
    fused_cardinality_p2,
    iid_cardinality_p2,
    iid_fuse_p2,
    poisson_fuse_p2,
)
from .model import (
    BernoulliRfs,
    CardinalityPmf,
    FiniteSetDistribution,
    GaussianDensity,
    GridDensity,
    IidClusterRfs,
    PoissonRfs,
    cardinality_of,
)
from .solvers import FusionResult, NewtonConfig, consistent_fuse, with_diagnostics

log = logging.getLogger("setfuse")

SCENARIO_VERSION = 1
EXAMPLE_IDS = ("ex1", "ex2", "ex3", "ex4")


class ScenarioError(ValueError):
    """Malformed scenario input; maps to CLI exit code 2."""


@dataclass(frozen=True)
class SweepSpec:
    kappa: tuple[float, float, int]
    omega: tuple[float, float, int]
    sigma1_sq: float = 1.0
    det_sigma: Optional[float] = None

    def kappa_grid(self) -> np.ndarray:
        return np.linspace(self.kappa[0], self.kappa[1], self.kappa[2])

    def omega_grid(self) -> np.ndarray:
        return np.linspace(self.omega[0], self.omega[1], self.omega[2])

    def covariances(self, kappa: float) -> tuple[np.ndarray, np.ndarray]:
        if self.det_sigma is not None:
            det = self.det_sigma
        else:
            det = self.sigma1_sq**2 / kappa
        return (
            gaussian.make_rotated_covariance(kappa, det, math.pi / 4),
            gaussian.make_rotated_covariance(kappa, det, -math.pi / 4),
        )


@dataclass(frozen=True)
class Scenario:
    family: str
    f_i: FiniteSetDistribution
    f_j: FiniteSetDistribution
    solver: NewtonConfig
    omega: float = 0.5
    n_max: Optional[int] = None
    sweep: Optional[SweepSpec] = None
    out_dir: Optional[str] = None


def _check_keys(mapping: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ScenarioError(f"unknown fields {unknown} in {where}")
    missing = sorted(required - set(mapping))
    if missing:
        raise ScenarioError(f"missing fields {missing} in {where}")


def _parse_loc(spec: dict, base: Path, where: str):
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where} must be an object")
    if "grid" in spec:
        _check_keys(spec, {"grid"}, {"grid"}, where)
        path = base / spec["grid"]
        try:
            data = np.load(path)
            return GridDensity(data["origin"], data["cell_size"], data["values"])
        except (OSError, KeyError, ValueError) as exc:
            raise ScenarioError(f"cannot load grid density from {path}: {exc}") from exc
    _check_keys(spec, {"mean", "cov"}, {"mean", "cov"}, where)
    try:
        return GaussianDensity(np.asarray(spec["mean"]), np.asarray(spec["cov"]))
    except ValueError as exc:
        raise ScenarioError(f"invalid Gaussian in {where}: {exc}") from exc


def _parse_input(family: str, spec: dict, base: Path, where: str) -> FiniteSetDistribution:
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where} must be an object")
    try:
        if family == "bernoulli":
            _check_keys(spec, {"alpha", "loc"}, {"alpha", "loc"}, where)
            return BernoulliRfs(float(spec["alpha"]), _parse_loc(spec["loc"], base, where))
        if family == "poisson":
            _check_keys(spec, {"lambda", "loc"}, {"lambda", "loc"}, where)
            return PoissonRfs(float(spec["lambda"]), _parse_loc(spec["loc"], base, where))
        if family == "iid":
            _check_keys(spec, {"pmf", "loc"}, {"pmf", "loc"}, where)
            return IidClusterRfs(
                CardinalityPmf(np.asarray(spec["pmf"], dtype=float)),
                _parse_loc(spec["loc"], base, where),
            )
    except ValueError as exc:
        raise ScenarioError(f"invalid input in {where}: {exc}") from exc
    raise ScenarioError(f"unknown family {family!r}")


def _parse_solver(spec: dict) -> NewtonConfig:
    allowed = {"omega_init", "epsilon", "max_iters", "omega_clamp", "mc_samples", "seed"}
    _check_keys(spec, allowed, set(), "solver")
    try:
        return NewtonConfig(**spec)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid solver block: {exc}") from exc


def _parse_sweep(spec: dict) -> SweepSpec:
    _check_keys(
        spec, {"kappa", "omega", "sigma1_sq", "det_sigma"}, {"kappa", "omega"}, "sweep"
    )

    def _range(name: str) -> tuple[float, float, int]:
        raw = spec[name]
        if not (isinstance(raw, list) and len(raw) == 3 and int(raw[2]) >= 1):
            raise ScenarioError(f"sweep.{name} must be [min, max, steps>=1]")
        return float(raw[0]), float(raw[1]), int(raw[2])

    kappa = _range("kappa")
    omega = _range("omega")
    if kappa[0] < 1.0:
        raise ScenarioError("sweep.kappa values must be >= 1")
    if not (0.0 <= omega[0] <= omega[1] <= 1.0):
        raise ScenarioError("sweep.omega values must lie in [0, 1]")
    return SweepSpec(
        kappa,
        omega,
        sigma1_sq=float(spec.get("sigma1_sq", 1.0)),
        det_sigma=(None if spec.get("det_sigma") is None else float(spec["det_sigma"])),
    )


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ScenarioError(f"non-finite number {token} in scenario")
    return value


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(
            path.read_text(encoding="utf-8"),
            parse_float=_finite_float,
            parse_constant=_finite_float,
        )
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    allowed = {"version", "family", "inputs", "omega", "n_max", "sweep", "solver", "outputs"}
    _check_keys(raw, allowed, {"version", "family", "inputs"}, "scenario")
    if raw["version"] != SCENARIO_VERSION:
        raise ScenarioError(f"unsupported scenario version {raw['version']!r}")
    family = raw["family"]
    if family not in ("bernoulli", "poisson", "iid"):
        raise ScenarioError(f"unknown family {family!r}")
    inputs = raw["inputs"]
    if not (isinstance(inputs, list) and len(inputs) == 2):
        raise ScenarioError("inputs must list exactly two distributions")
    base = path.parent
    f_i = _parse_input(family, inputs[0], base, "inputs[0]")
    f_j = _parse_input(family, inputs[1], base, "inputs[1]")
    omega = float(raw.get("omega", 0.5))
    if not 0.0 <= omega <= 1.0:
        raise ScenarioError("omega must lie in [0, 1]")
    n_max = raw.get("n_max")
    return Scenario(
        family=family,
        f_i=f_i,
        f_j=f_j,
        solver=_parse_solver(raw.get("solver", {})),
        omega=omega,
        n_max=None if n_max is None else int(n_max),
        sweep=None if raw.get("sweep") is None else _parse_sweep(raw["sweep"]),
        out_dir=raw.get("outputs"),
    )


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
    return path


def _iid_n_max(scenario: Scenario) -> int:
    if scenario.n_max is not None:
        return scenario.n_max
    return max(scenario.f_i.card.n_max, scenario.f_j.card.n_max)


def run_fuse(scenario: Scenario, mode: str, out_dir) -> tuple[FusionResult, Path]:
    """Fuse the scenario pair and write a one-row CSV report.

    Mode "p2" applies the jointly coupled rule at the scenario's fixed
    weight (default 0.5, i.e. divergence averaging); mode "consistent" runs
    the decoupled solvers.
    """
    if mode not in ("p2", "consistent"):
        raise ScenarioError(f"unknown mode {mode!r}")
    f_i, f_j = scenario.f_i, scenario.f_j
    log.info("fusing family=%s mode=%s", scenario.family, mode)

    if mode == "consistent":
        result = consistent_fuse(f_i, f_j, scenario.solver)
    else:
        w = scenario.omega
        if scenario.family == "bernoulli":
            fused, z, _ = bernoulli_fuse_p2(f_i, f_j, w)
        elif scenario.family == "poisson":
            fused, z, _ = poisson_fuse_p2(f_i, f_j, w)
        else:
            fused, z, _ = iid_fuse_p2(f_i, f_j, w, _iid_n_max(scenario))
        result = FusionResult(fused=fused, omega_card=w, omega_loc=(w,), z_values=(z,))

    if scenario.family == "bernoulli":
        value_cols = ("alpha_i", "alpha_j", "alpha_fused")
        values = (f_i.alpha, f_j.alpha, result.fused.alpha)
        inconsistent = values[2] < min(values[0], values[1])
    elif scenario.family == "poisson":
        value_cols = ("lambda_i", "lambda_j", "lambda_fused")
        values = (f_i.rate, f_j.rate, result.fused.rate)
        inconsistent = values[2] < min(values[0], values[1])
    else:
        value_cols = ("map_i", "map_j", "map_fused")
        values = (
            f_i.card.map_estimate(),
            f_j.card.map_estimate(),
            result.fused.card.map_estimate(),
        )
        inconsistent = values[2] < min(values[0], values[1])

    result = with_diagnostics(result, {"inconsistent": bool(inconsistent)})
    header = ("family", "mode", "omega_card", "omega_loc", "z_omega", *value_cols, "inconsistent")
    row = (
        scenario.family,
        mode,
        result.omega_card,
        result.omega_loc[0],
        result.z_values[0],
        *values,
        bool(inconsistent),
    )
    path = write_csv(Path(out_dir) / "fuse.csv", header, [row])
    return result, path


def run_sweep(scenario: Scenario, out_dir) -> Path:
    """Evaluate the (kappa, omega) sweep grid and write one CSV row per cell,
    in grid order."""
    if scenario.sweep is None:
        raise ScenarioError("scenario has no sweep block")
    f_i, f_j = scenario.f_i, scenario.f_j
    if not isinstance(f_i.loc, GaussianDensity) or not isinstance(f_j.loc, GaussianDensity):
        raise ScenarioError("sweep requires Gaussian localisation inputs")
    sweep = scenario.sweep

    # fused(w, log z_w) -> the family's fused count summary at one cell
    if scenario.family == "bernoulli":
        value_cols = ("alpha_i", "alpha_j", "alpha_omega")
        inputs = (f_i.alpha, f_j.alpha)
        fused = partial(_bernoulli_alpha, *inputs)
    elif scenario.family == "poisson":
        value_cols = ("lambda_i", "lambda_j", "lambda_omega")
        inputs = (f_i.rate, f_j.rate)
        fused = partial(_poisson_rate, *inputs)
    else:
        value_cols = ("map_i", "map_j", "map_omega")
        n_max = _iid_n_max(scenario)
        p_i, p_j = cardinality_of(f_i, n_max), cardinality_of(f_j, n_max)
        inputs = (p_i.map_estimate(), p_j.map_estimate())

        def fused(omega: float, log_z: float) -> int:
            return iid_cardinality_p2(p_i, p_j, log_z, omega)[0].map_estimate()

    kappas = sweep.kappa_grid()
    omegas = sweep.omega_grid()
    log.info("sweeping %d x %d cells", len(kappas), len(omegas))
    rows = []
    for kappa in kappas:
        cov_i, cov_j = sweep.covariances(kappa)
        pair = gaussian._pair(GaussianDensity(f_i.loc.mean, cov_i), GaussianDensity(f_j.loc.mean, cov_j))
        for omega in omegas:
            omega = float(omega)
            log_z = 0.0 if omega in (0.0, 1.0) else pair(omega).log_z
            value = fused(omega, log_z)
            rows.append((float(kappa), omega, math.exp(log_z), *inputs, value, value < min(inputs)))
    header = ("kappa", "omega", "z_omega", *value_cols, "inconsistent")
    return write_csv(Path(out_dir) / "sweep.csv", header, rows)


# ---------------------------------------------------------------------------
# Built-in experiment scenarios
# ---------------------------------------------------------------------------

TWO_SENSOR_MEANS = (np.array([0.25, 0.25]), np.array([-0.75, -0.25]))
BINOMIAL_PAIRS = {
    "low": (5, 0.95, 0.92),
    "high": (35, 0.98, 0.975),
}
EXPECTED_OMEGA_CARD = {"low": 0.5182, "high": 0.5090}
EXPECTED_OMEGA_LOC = {1.0: 0.500, 10.0: 0.397, 20.0: 0.387}


def _binomial_pmf(k: int, p: float) -> CardinalityPmf:
    n = np.arange(k + 1)
    log_coef = gammaln(k + 1.0) - gammaln(n + 1.0) - gammaln(k - n + 1.0)
    probs = np.exp(log_coef + n * math.log(p) + (k - n) * math.log(1.0 - p))
    return CardinalityPmf(probs / probs.sum())


def two_sensor_scenario() -> Scenario:
    """Gauss-Bernoulli diversity sweep: equal 0.8 existence beliefs, crossed
    uncertainty ellipses whose condition number rises from 1 to 40."""
    m_i, m_j = TWO_SENSOR_MEANS
    sweep = SweepSpec(kappa=(1.0, 40.0, 79), omega=(0.0, 1.0, 101), sigma1_sq=1.0)
    cov_i, cov_j = sweep.covariances(1.0)
    return Scenario(
        family="bernoulli",
        f_i=BernoulliRfs(0.8, GaussianDensity(m_i, cov_i)),
        f_j=BernoulliRfs(0.8, GaussianDensity(m_j, cov_j)),
        solver=NewtonConfig(),
        sweep=sweep,
    )


def _summary(checks: list[tuple[str, bool, str]], out_dir: Path) -> Path:
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in checks
    ]
    path = out_dir / "summary.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _reproduce_ex1(out_dir: Path) -> dict:
    scenario = two_sensor_scenario()
    sweep_path = run_sweep(scenario, out_dir)
    rows = np.genfromtxt(sweep_path, delimiter=",", names=True, encoding="utf-8")
    n_k = scenario.sweep.kappa[2]
    n_w = scenario.sweep.omega[2]
    z = rows["z_omega"].reshape(n_k, n_w)
    alpha = rows["alpha_omega"].reshape(n_k, n_w)
    interior = slice(1, -1)
    checks = [
        (
            "scale factor below one at interior weights",
            bool(np.all(z[:, interior] < 1.0)),
            f"max interior z = {z[:, interior].max():.6f}",
        ),
        (
            "scale factor nonincreasing in diversity",
            bool(np.all(np.diff(z, axis=0) <= 1e-9)),
            f"max increase = {np.diff(z, axis=0).max():.3e}",
        ),
        (
            "fused existence below inputs at interior weights",
            bool(np.all(alpha[:, interior] < 0.8)),
            f"max interior alpha = {alpha[:, interior].max():.6f}",
        ),
        (
            "fused existence drops below decision threshold",
            bool(alpha[:, interior].min() < 0.5),
            f"min alpha = {alpha[:, interior].min():.6f}",
        ),
    ]
    # divergence-averaging cross-section at omega = 0.5 versus the
    # cardinality-consistent fused existence (constant 0.8)
    mid = n_w // 2
    kl_rows = [
        (k, a, 0.8) for k, a in zip(scenario.sweep.kappa_grid(), alpha[:, mid])
    ]
    kl_path = write_csv(
        out_dir / "existence_vs_diversity.csv",
        ("kappa", "alpha_kl_averaging", "alpha_consistent"),
        kl_rows,
    )
    return {"files": [sweep_path, kl_path], "checks": checks}


def _reproduce_ex2(out_dir: Path) -> dict:
    z_grid = np.linspace(0.1, 0.9, 9)
    omega_grid = np.linspace(0.0, 1.0, 11)
    pmf_rows, map_rows, bound_rows, eta_rows = [], [], [], []
    drop_fraction = {}
    checks = []
    for pair in ("low", "high"):
        k, prob_i, prob_j = BINOMIAL_PAIRS[pair]
        p_i = _binomial_pmf(k, prob_i)
        p_j = _binomial_pmf(k, prob_j)
        input_map = min(p_i.map_estimate(), p_j.map_estimate())
        drops = 0
        cells = 0
        for z in z_grid:
            z_seq = z ** np.arange(k + 1)
            for omega in omega_grid:
                if omega in (0.0, 1.0):
                    continue
                fused, _ = fused_cardinality_p2(p_i, p_j, z_seq, float(omega))
                cells += 1
                fused_map = fused.map_estimate()
                drops += fused_map < input_map
                map_rows.append((pair, z, omega, fused_map))
                for n in range(k + 1):
                    pmf_rows.append((pair, z, omega, n, fused.probs[n]))
                eta_rows.append(
                    (
                        pair,
                        z,
                        omega,
                        diagnostics.iid_inconsistency_threshold(p_i, p_j, float(omega), float(z)),
                    )
                )
            for n in range(1, k + 1):
                bound_rows.append(
                    (
                        pair,
                        z,
                        0.5,
                        n,
                        diagnostics.iid_inconsistency_bound(p_i, p_j, 0.5, n, float(z)),
                    )
                )
        drop_fraction[pair] = drops / cells
        checks.append(
            (
                f"{pair} pair shows count-estimate drops",
                drops > 0,
                f"{drops}/{cells} interior cells underestimate",
            )
        )
        bounds_mid = [r[4] for r in bound_rows if r[0] == pair and abs(r[1] - 0.5) < 1e-12]
        checks.append(
            (
                f"{pair} pair inconsistency bound rises with count",
                bool(np.all(np.diff(bounds_mid) > 0)),
                f"bound spans [{min(bounds_mid):.4f}, {max(bounds_mid):.4f}]",
            )
        )
    checks.append(
        (
            "higher peak count worsens underestimation",
            drop_fraction["high"] > drop_fraction["low"],
            f"drop fraction high={drop_fraction['high']:.3f} low={drop_fraction['low']:.3f}",
        )
    )
    files = [
        write_csv(out_dir / "fused_count_pmfs.csv", ("pair", "z_omega", "omega", "n", "prob"), pmf_rows),
        write_csv(out_dir / "map_estimates.csv", ("pair", "z_omega", "omega", "map_fused"), map_rows),
        write_csv(out_dir / "inconsistency_bounds.csv", ("pair", "z_omega", "omega", "n", "bound"), bound_rows),
        write_csv(out_dir / "inconsistency_thresholds.csv", ("pair", "z_omega", "omega", "eta"), eta_rows),
    ]
    return {"files": files, "checks": checks}


def _reproduce_ex3(out_dir: Path) -> dict:
    from .solvers import newton_localisation

    scenario = two_sensor_scenario()
    sweep = scenario.sweep
    kappas = sweep.kappa_grid()
    m_i, m_j = TWO_SENSOR_MEANS
    rows = []
    solved = {}
    max_iters_seen = 0
    for kappa in kappas:
        cov_i, cov_j = sweep.covariances(float(kappa))
        omega_star, fused, z_star, trace = newton_localisation(
            GaussianDensity(m_i, cov_i), GaussianDensity(m_j, cov_j), scenario.solver
        )
        rows.append((float(kappa), omega_star, trace.iterations, z_star))
        solved[float(kappa)] = (omega_star, fused, trace)
        max_iters_seen = max(max_iters_seen, trace.iterations)
    files = [write_csv(out_dir / "optimal_weights.csv", ("kappa", "omega_star", "iterations", "z_star"), rows)]
    emd_rows = []
    for kappa in (1.0, 10.0, 20.0):
        omega_star, fused, _ = solved[kappa]
        emd_rows.append(
            (
                kappa,
                omega_star,
                fused.mean[0],
                fused.mean[1],
                fused.cov[0, 0],
                fused.cov[0, 1],
                fused.cov[1, 1],
            )
        )
    files.append(
        write_csv(
            out_dir / "fused_localisations.csv",
            ("kappa", "omega_star", "mean_x", "mean_y", "cov_xx", "cov_xy", "cov_yy"),
            emd_rows,
        )
    )
    w1, w10, w20 = (solved[k][0] for k in (1.0, 10.0, 20.0))
    checks = [
        (
            "optimal weight at kappa=1 is symmetric",
            abs(w1 - 0.5) <= 1e-3,
            f"omega*(1) = {w1:.6f}",
        ),
        (
            "optimal weight at kappa=10 near reference",
            abs(w10 - EXPECTED_OMEGA_LOC[10.0]) <= 0.05,
            f"omega*(10) = {w10:.6f} vs {EXPECTED_OMEGA_LOC[10.0]}",
        ),
        (
            "optimal weight at kappa=20 near reference",
            abs(w20 - EXPECTED_OMEGA_LOC[20.0]) <= 0.05,
            f"omega*(20) = {w20:.6f} vs {EXPECTED_OMEGA_LOC[20.0]}",
        ),
        (
            "optimal weight decreases with diversity",
            w1 > w10 > w20,
            f"{w1:.4f} > {w10:.4f} > {w20:.4f}",
        ),
        (
            "iteration budget respected",
            max_iters_seen <= 10,
            f"max iterations = {max_iters_seen}",
        ),
    ]
    return {"files": files, "checks": checks}


def _reproduce_ex4(out_dir: Path) -> dict:
    from .solvers import kld_balance_residual, newton_cardinality

    config = NewtonConfig(omega_init=0.5, epsilon=1e-4)
    weight_rows, pmf_rows, checks = [], [], []
    for pair in ("low", "high"):
        k, prob_i, prob_j = BINOMIAL_PAIRS[pair]
        p_i = _binomial_pmf(k, prob_i)
        p_j = _binomial_pmf(k, prob_j)
        omega_star, fused, trace = newton_cardinality(p_i, p_j, config)
        residual = kld_balance_residual(fused, p_i, p_j)
        weight_rows.append((pair, omega_star, trace.iterations, residual))
        for n in range(k + 1):
            pmf_rows.append((pair, n, p_i.probs[n], p_j.probs[n], fused.probs[n]))
        expected = EXPECTED_OMEGA_CARD[pair]
        checks.append(
            (
                f"{pair} pair optimal weight matches reference",
                abs(omega_star - expected) <= 1e-3,
                f"omega* = {omega_star:.6f} vs {expected}",
            )
        )
        checks.append(
            (
                f"{pair} pair converges quickly",
                trace.iterations <= 5,
                f"{trace.iterations} iterations",
            )
        )
        checks.append(
            (
                f"{pair} pair count estimate agrees with inputs",
                fused.map_estimate() == p_i.map_estimate() == p_j.map_estimate(),
                f"fused MAP = {fused.map_estimate()}",
            )
        )
        dominated = bool(
            np.all(fused.probs >= np.minimum(p_i.probs, p_j.probs) - 1e-15)
        )
        checks.append(
            (
                f"{pair} pair fused counts dominate input minima",
                dominated,
                "consistency holds at every count",
            )
        )
    files = [
        write_csv(out_dir / "optimal_weights.csv", ("pair", "omega_star", "iterations", "kld_residual"), weight_rows),
        write_csv(out_dir / "fused_count_pmfs.csv", ("pair", "n", "p_i", "p_j", "p_fused"), pmf_rows),
    ]
    return {"files": files, "checks": checks}


def reproduce(example_id: str, out_dir, seed: int = 0) -> dict:
    """Run one built-in experiment; returns files written and check verdicts.

    ``seed`` is accepted for compatibility and has no effect."""
    if example_id not in EXAMPLE_IDS:
        raise ScenarioError(f"unknown example {example_id!r}; expected one of {EXAMPLE_IDS}")
    out_dir = Path(out_dir) / example_id
    runner = {
        "ex1": _reproduce_ex1,
        "ex2": _reproduce_ex2,
        "ex3": _reproduce_ex3,
        "ex4": _reproduce_ex4,
    }[example_id]
    log.info("reproducing %s into %s", example_id, out_dir)
    result = runner(out_dir)
    result["summary"] = _summary(result["checks"], out_dir)
    return result

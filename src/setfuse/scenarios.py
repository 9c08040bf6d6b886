"""Scenario files, parameter sweeps and built-in experiment reproduction.

Scenarios are strict JSON (version 1, unknown fields rejected) describing a
same-family pair of finite-set distributions, optional sweep and solver
blocks, and an output directory. Sweeps follow the two-sensor diversity
construction: both covariances are rotated copies (plus and minus 45
degrees) of a diagonal matrix whose condition number kappa is swept.

Scale convention for the sweep: by default the major-axis variance is held
fixed (``sigma1_sq``, default 1.0) while the minor-axis variance shrinks as
sigma1_sq / kappa. Setting ``det_sigma`` instead holds the determinant fixed;
a sweep block sets one of the two, not both.
The fixed-major-axis default is what reproduces the reference experiment
curves; the determinant convention is kept as an override.

Every command runs in stages: ``load_scenario`` loads, ``fuse_scenario``,
``sweep_report`` or ``experiment_report`` computes a ``Report`` without
writing anything, and ``write_report`` writes it.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import diagnostics, gaussian
from .fusion import _count_rule, _fuse_p2, _localisation_pair, fused_cardinality_p2
from .model import (
    COV_CONDITION_LIMIT,
    BernoulliRfs,
    CardinalityPmf,
    FiniteSetDistribution,
    GaussianDensity,
    GridDensity,
    IidClusterRfs,
    PoissonRfs,
    _log_factorials,
)
from .solvers import FusionResult, NewtonConfig, consistent_fuse, kld_balance_residual
from .solvers import newton_cardinality, newton_localisation, with_diagnostics

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
    sweep: Optional[SweepSpec] = None
    out_dir: Optional[str] = None

    def __post_init__(self):
        rfs = _FAMILIES[self.family][0] if self.family in _FAMILIES else None
        if rfs is None or not (isinstance(self.f_i, rfs) and isinstance(self.f_j, rfs)):
            raise ScenarioError(f"family {self.family!r} does not match the inputs, "
                                f"{type(self.f_i).__name__} and {type(self.f_j).__name__}")


def _check_keys(mapping, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where} must be an object")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ScenarioError(f"unknown fields {unknown} in {where}")
    missing = sorted(required - set(mapping))
    if missing:
        raise ScenarioError(f"missing fields {missing} in {where}")


def _number(value, where: str, count: bool = False, positive: bool = False):
    """A scenario scalar: a JSON number (a bool is not one), as a float, or
    as an int where ``count`` asks for an integral value. Every number in a
    scenario is read here, so NaN, Infinity and overflowing literals stop
    here too."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ScenarioError(f"non-finite number {value!r} at {where}")
    if count and value != int(value):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    if positive and not value > 0:
        raise ScenarioError(f"{where} must be > 0, got {value!r}")
    return int(value) if count else float(value)


def _array(value, where: str) -> np.ndarray:
    """A (nested) list of scenario numbers as a float array."""
    cells = np.asarray(value, dtype=object)
    return np.array([_number(cell, where) for cell in cells.ravel()]).reshape(cells.shape)


def _parse_loc(spec, base: Path, where: str):
    if isinstance(spec, dict) and "grid" in spec:
        _check_keys(spec, {"grid"}, {"grid"}, where)
        try:
            data = np.load(base / spec["grid"])
            return GridDensity(data["origin"], data["cell_size"], data["values"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"cannot load grid density {spec['grid']!r}: {exc}") from exc
    _check_keys(spec, {"mean", "cov"}, {"mean", "cov"}, where)
    try:
        return GaussianDensity(_array(spec["mean"], f"{where}.mean"), _array(spec["cov"], f"{where}.cov"))
    except ValueError as exc:
        raise ScenarioError(f"invalid Gaussian in {where}: {exc}") from exc


# per family: its set type, the scenario field and the set attribute that
# hold its count parameter, and the column prefix of its count summary
_FAMILIES = {
    "bernoulli": (BernoulliRfs, "alpha", "alpha", "alpha"),
    "poisson": (PoissonRfs, "lambda", "rate", "lambda"),
    "iid": (IidClusterRfs, "pmf", "card", "map"),
}


def _parse_input(family: str, spec, base: Path, where: str) -> FiniteSetDistribution:
    rfs, field, _, _ = _FAMILIES[family]
    _check_keys(spec, {field, "loc"}, {field, "loc"}, where)
    loc = _parse_loc(spec["loc"], base, f"{where}.loc")
    try:
        counts = (_array if family == "iid" else _number)(spec[field], f"{where}.{field}")
        return rfs(CardinalityPmf(counts) if family == "iid" else counts, loc)
    except ValueError as exc:
        raise ScenarioError(f"invalid input in {where}: {exc}") from exc


def _parse_solver(spec) -> NewtonConfig:
    _check_keys(spec, {"omega_init", "epsilon", "max_iters", "omega_clamp"}, set(), "solver")
    values = {key: _number(value, f"solver.{key}", key == "max_iters") for key, value in spec.items()}
    try:
        return NewtonConfig(**values)
    except ValueError as exc:
        raise ScenarioError(f"invalid solver block: {exc}") from exc


def _parse_sweep(spec) -> SweepSpec:
    scales = ("sigma1_sq", "det_sigma")
    _check_keys(spec, {"kappa", "omega", *scales}, {"kappa", "omega"}, "sweep")

    def _range(name: str) -> tuple[float, float, int]:
        raw, where = spec[name], f"sweep.{name}"
        if not (isinstance(raw, list) and len(raw) == 3):
            raise ScenarioError(f"{where} must be [min, max, steps>=1]")
        return _number(raw[0], where), _number(raw[1], where), _number(raw[2], where, count=True, positive=True)

    kappa = _range("kappa")
    omega = _range("omega")
    if not (0.0 <= omega[0] <= omega[1] <= 1.0):
        raise ScenarioError("sweep.omega values must lie in [0, 1]")
    given = {key: spec[key] for key in scales if spec.get(key) is not None}
    if len(given) == 2:
        raise ScenarioError("sweep sets both sigma1_sq and det_sigma; give one scale")
    sweep = SweepSpec(kappa, omega, **{key: _number(v, f"sweep.{key}", positive=True) for key, v in given.items()})
    # both frame variances are monotone in kappa, so the two ends bound every row
    for end in kappa[:2]:
        if not 1.0 <= end <= COV_CONDITION_LIMIT:
            raise ScenarioError(f"sweep.kappa values must lie in [1, {COV_CONDITION_LIMIT:g}], got {end:g}")
        try:
            for cov in sweep.covariances(end):
                GaussianDensity(np.zeros(2), cov)
        except OverflowError as exc:
            raise ScenarioError(f"sweep covariance at kappa = {end:g} overflows") from exc
        except ValueError as exc:
            if not (sweep.det_sigma or sweep.sigma1_sq**2 / end) >= sys.float_info.min:
                raise ScenarioError(f"sweep covariance at kappa = {end:g} underflows") from exc
            raise ScenarioError(f"invalid sweep covariance at kappa = {end:g}: {exc}") from exc
    return sweep


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    allowed = {"version", "family", "inputs", "omega", "sweep", "solver", "outputs"}
    _check_keys(raw, allowed, {"version", "family", "inputs"}, "scenario")
    if raw["version"] != SCENARIO_VERSION or isinstance(raw["version"], bool):
        raise ScenarioError(f"unsupported scenario version {raw['version']!r}")
    family = raw["family"]
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ScenarioError(f"unknown family {family!r}")
    inputs = raw["inputs"]
    if not (isinstance(inputs, list) and len(inputs) == 2):
        raise ScenarioError("inputs must list exactly two distributions")
    base = path.parent
    f_i = _parse_input(family, inputs[0], base, "inputs[0]")
    f_j = _parse_input(family, inputs[1], base, "inputs[1]")
    try:
        _localisation_pair(f_i.loc, f_j.loc)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"inputs do not form a localisation pair: {exc}") from exc
    omega = _number(raw.get("omega", 0.5), "omega")
    if not 0.0 <= omega <= 1.0:
        raise ScenarioError("omega must lie in [0, 1]")
    out_dir = raw.get("outputs")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ScenarioError("outputs must be a string")
    return Scenario(
        family=family,
        f_i=f_i,
        f_j=f_j,
        solver=_parse_solver(raw.get("solver", {})),
        omega=omega,
        sweep=None if raw.get("sweep") is None else _parse_sweep(raw["sweep"]),
        out_dir=out_dir,
    )


def _format_cell(value) -> str:
    if type(value) is float:
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path, header, rows) -> Path:
    """Write a header line and one line per row, each row through one
    %-format taken from the first row: booleans and strings as
    ``_format_cell`` gives them, every other cell as a number in 17
    significant digits. Strings must hold no comma, quote or line break."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header) + "\n"]
    if rows:
        text = [k for k, v in enumerate(rows[0]) if isinstance(v, (bool, np.bool_, str))]
        line = ",".join("%s" if k in text else "%.17g" for k in range(len(rows[0]))) + "\n"
        for row in rows:
            if text:
                row = list(row)
                for k in text:
                    row[k] = _format_cell(row[k])
            lines.append(line % tuple(row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)
    return path


class Report(NamedTuple):
    """What one command computed, before anything is written: its tables as
    (file name, header, rows) in write order, its checks as (name, ok,
    detail), and the lines it prints after naming the files it wrote."""

    tables: Sequence[tuple[str, Sequence[str], Sequence[tuple]]]
    checks: Sequence[tuple[str, bool, str]] = ()
    lines: Sequence[str] = ()

    def verdicts(self) -> list[str]:
        """One ``PASS``/``FAIL`` line per check."""
        return [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in self.checks]


def write_report(report: Report, out_dir) -> list[Path]:
    """Write each table of ``report`` as a CSV under ``out_dir``, then its
    verdicts as summary.txt when it has checks; returns the paths written."""
    out_dir = Path(out_dir)
    paths = [write_csv(out_dir / name, header, rows) for name, header, rows in report.tables]
    if report.checks:
        summary = out_dir / "summary.txt"
        out_dir.mkdir(parents=True, exist_ok=True)
        summary.write_text("\n".join(report.verdicts()) + "\n", encoding="utf-8")
        paths.append(summary)
    return paths


def _count_summary(count):
    """The count summary a report shows of a count parameter: the existence
    probability or rate itself, or the MAP count of a count pmf."""
    return count.map_estimate() if isinstance(count, CardinalityPmf) else count


def fuse_scenario(scenario: Scenario, mode: str) -> tuple[FusionResult, Report]:
    """Fuse the scenario pair: the result, with its ``inconsistent``
    diagnostic, and the report of ``fuse``, a one-row fuse.csv and a
    summary line.

    Mode "p2" applies the jointly coupled rule at the scenario's fixed
    weight (default 0.5, i.e. divergence averaging); mode "consistent" runs
    the decoupled solvers.
    """
    if mode not in ("p2", "consistent"):
        raise ScenarioError(f"unknown mode {mode!r}")
    f_i, f_j = scenario.f_i, scenario.f_j
    rfs, _, count, name = _FAMILIES[scenario.family]
    log.info("fusing family=%s mode=%s", scenario.family, mode)

    if mode == "consistent":
        result = consistent_fuse(f_i, f_j, scenario.solver)
    else:
        w = scenario.omega
        fused, z, _ = _fuse_p2(rfs, f_i, f_j, w)
        result = FusionResult(fused=fused, omega_card=w, omega_loc=(w,), z_values=(z,))

    values = tuple(_count_summary(getattr(f, count)) for f in (f_i, f_j, result.fused))
    inconsistent = bool(values[2] < min(values[0], values[1]))
    result = with_diagnostics(result, {"inconsistent": inconsistent})
    value_cols = (f"{name}_i", f"{name}_j", f"{name}_fused")
    header = ("family", "mode", "omega_card", "omega_loc", "z_omega", *value_cols, "inconsistent")
    row = (scenario.family, mode, result.omega_card, result.omega_loc[0], result.z_values[0], *values, inconsistent)
    line = (
        f"family={scenario.family} mode={mode} "
        f"omega_card={result.omega_card:.6f} omega_loc={result.omega_loc[0]:.6f} "
        f"z={result.z_values[0]:.6f} flags={','.join(result.flags) or '-'}"
    )
    return result, Report([("fuse.csv", header, [row])], lines=[line])


def _sweep_pair(scenario: Scenario, kappa: float) -> tuple[GaussianDensity, GaussianDensity]:
    """The Gaussian pair of a sweep at one kappa: the input means with the
    sweep's covariances, symmetrised as the public constructor does but not
    checked again. Both frame variances are monotone in kappa, so the
    checks at the two kappa ends cover every row."""
    covs = scenario.sweep.covariances(kappa)
    return tuple(
        GaussianDensity._trusted(f.loc.mean, 0.5 * c + 0.5 * c.T) for f, c in zip((scenario.f_i, scenario.f_j), covs)
    )


def sweep_report(scenario: Scenario) -> Report:
    """The report of ``sweep``: sweep.csv, one row per (kappa, omega) cell
    in grid order. One pair evaluation per kappa covers its omega row; the
    count rule runs per cell."""
    if scenario.sweep is None:
        raise ScenarioError("scenario has no sweep block")
    f_i, f_j = scenario.f_i, scenario.f_j
    if not all(isinstance(f.loc, GaussianDensity) and f.loc.dim == 2 for f in (f_i, f_j)):
        raise ScenarioError("sweep requires 2-D Gaussian localisation inputs")
    sweep = scenario.sweep
    rfs, _, count, name = _FAMILIES[scenario.family]
    rule = _count_rule(rfs, f_i, f_j)
    inputs = tuple(_count_summary(getattr(f, count)) for f in (f_i, f_j))
    kappas = sweep.kappa_grid().tolist()
    omegas = sweep.omega_grid()
    log.info("sweeping %d x %d cells", len(kappas), len(omegas))
    rows = []
    for kappa in kappas:
        pair = gaussian._pair(*_sweep_pair(scenario, kappa))
        for omega, log_z in zip(omegas.tolist(), pair(omegas).log_z.tolist()):
            value = _count_summary(rule(omega, log_z)[0])
            rows.append((kappa, omega, math.exp(log_z), *inputs, value, value < min(inputs)))
    header = ("kappa", "omega", "z_omega", f"{name}_i", f"{name}_j", f"{name}_omega", "inconsistent")
    return Report([("sweep.csv", header, rows)])


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
    log_fact = _log_factorials(k)
    log_coef = log_fact[k] - log_fact - log_fact[::-1]
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


def _reproduce_ex1() -> Report:
    scenario = two_sensor_scenario()
    (sweep,) = sweep_report(scenario).tables
    z, alpha = np.array([(row[2], row[5]) for row in sweep[2]]).T.reshape(2, scenario.sweep.kappa[2], -1)
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
    mid = alpha.shape[1] // 2
    kl_rows = [(k, a, 0.8) for k, a in zip(scenario.sweep.kappa_grid(), alpha[:, mid])]
    kl_table = ("existence_vs_diversity.csv", ("kappa", "alpha_kl_averaging", "alpha_consistent"), kl_rows)
    return Report([sweep, kl_table], checks)


def _reproduce_ex2() -> Report:
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
    tables = [
        ("fused_count_pmfs.csv", ("pair", "z_omega", "omega", "n", "prob"), pmf_rows),
        ("map_estimates.csv", ("pair", "z_omega", "omega", "map_fused"), map_rows),
        ("inconsistency_bounds.csv", ("pair", "z_omega", "omega", "n", "bound"), bound_rows),
        ("inconsistency_thresholds.csv", ("pair", "z_omega", "omega", "eta"), eta_rows),
    ]
    return Report(tables, checks)


def _reproduce_ex3() -> Report:
    scenario = two_sensor_scenario()
    sweep = scenario.sweep
    kappas = sweep.kappa_grid()
    rows = []
    solved = {}
    for kappa in kappas:
        omega_star, fused, z_star, trace = newton_localisation(*_sweep_pair(scenario, float(kappa)), scenario.solver)
        rows.append((float(kappa), omega_star, trace.iterations, z_star))
        solved[float(kappa)] = (omega_star, fused)
    emd_rows = []
    for kappa in (1.0, 10.0, 20.0):
        omega_star, fused = solved[kappa]
        emd_rows.append((kappa, omega_star, *fused.mean, fused.cov[0, 0], fused.cov[0, 1], fused.cov[1, 1]))
    max_iters_seen = max(row[2] for row in rows)
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
    tables = [
        ("optimal_weights.csv", ("kappa", "omega_star", "iterations", "z_star"), rows),
        ("fused_localisations.csv",
         ("kappa", "omega_star", "mean_x", "mean_y", "cov_xx", "cov_xy", "cov_yy"), emd_rows),
    ]
    return Report(tables, checks)


def _reproduce_ex4() -> Report:
    weight_rows, pmf_rows, checks = [], [], []
    for pair in ("low", "high"):
        k, prob_i, prob_j = BINOMIAL_PAIRS[pair]
        p_i = _binomial_pmf(k, prob_i)
        p_j = _binomial_pmf(k, prob_j)
        omega_star, fused, trace = newton_cardinality(p_i, p_j, NewtonConfig())
        residual = kld_balance_residual(fused, p_i, p_j)
        weight_rows.append((pair, omega_star, trace.iterations, residual))
        for n in range(k + 1):
            pmf_rows.append((pair, n, p_i.probs[n], p_j.probs[n], fused.probs[n]))
        expected = EXPECTED_OMEGA_CARD[pair]
        fused_map = fused.map_estimate()
        dominated = bool(np.all(fused.probs >= np.minimum(p_i.probs, p_j.probs) - 1e-15))
        checks += [
            (f"{pair} pair optimal weight matches reference",
             abs(omega_star - expected) <= 1e-3, f"omega* = {omega_star:.6f} vs {expected}"),
            (f"{pair} pair converges quickly", trace.iterations <= 5, f"{trace.iterations} iterations"),
            (f"{pair} pair count estimate agrees with inputs",
             fused_map == p_i.map_estimate() == p_j.map_estimate(), f"fused MAP = {fused_map}"),
            (f"{pair} pair fused counts dominate input minima", dominated, "consistency holds at every count"),
        ]
    tables = [
        ("optimal_weights.csv", ("pair", "omega_star", "iterations", "kld_residual"), weight_rows),
        ("fused_count_pmfs.csv", ("pair", "n", "p_i", "p_j", "p_fused"), pmf_rows),
    ]
    return Report(tables, checks)


def experiment_report(example_id: str) -> Report:
    """Run one built-in experiment: its tables and check verdicts."""
    if example_id not in EXAMPLE_IDS:
        raise ScenarioError(f"unknown example {example_id!r}; expected one of {EXAMPLE_IDS}")
    log.info("reproducing %s", example_id)
    return {
        "ex1": _reproduce_ex1,
        "ex2": _reproduce_ex2,
        "ex3": _reproduce_ex3,
        "ex4": _reproduce_ex4,
    }[example_id]()

"""Optimal mixture-weight solvers and end-to-end cardinality-consistent fusion.

The weight objective is the Chernoff-style quantity -log z_w (or -log of the
pmf normalizer), which is concave on [0, 1] and vanishes at the endpoints.
The solvers work on l = log z_w, whose first two w-derivatives are the mean
and variance of the log ratio q = log rho_j - log rho_i under the fused
density: closed form for Gaussian pairs, one tilted sum for grids and count
pmfs. The solvers evaluate the same pair evaluators the fusion rules use,
and the evaluation at the solved weight carries the fused density. Nothing
is sampled and nothing underflows, so inputs far apart still converge. Newton iterations on l' = 0 converge fast; a bisection safeguard
on the sign of l' keeps iterates inside the interval even from poor
starting points. At the optimum the divergences from the fused density to
the two inputs balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import gaussian, quadrature
from .fusion import _check_omega, _common_probs, _localisation_pair
from .model import (
    BernoulliRfs,
    CardinalityPmf,
    FiniteSetDistribution,
    GaussianDensity,
    GridDensity,
    IidClusterRfs,
    LocalisationDensity,
    PoissonRfs,
    pmf_kld,
)

DEGENERATE_LOC_FLAG = "degenerate: identical localisation densities"
DEGENERATE_CARD_FLAG = "degenerate: identical cardinality pmfs"


@dataclass(frozen=True)
class NewtonConfig:
    """Knobs for the weight solvers.

    epsilon is the termination threshold on successive weight iterates.
    mc_samples and seed are validated and kept so that existing scenario
    files and callers still load, but they have no effect: every solver
    derivative is exact.
    """

    omega_init: float = 0.5
    epsilon: float = 1e-4
    max_iters: int = 50
    omega_clamp: float = 1e-6
    mc_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.omega_init <= 1.0:
            raise ValueError("omega_init must lie in [0, 1]")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.omega_clamp < 0.5:
            raise ValueError("omega_clamp must lie in (0, 0.5)")
        if self.max_iters < 1 or self.mc_samples < 1:
            raise ValueError("max_iters and mc_samples must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    """One iterate: weight, objective -log z_w, and d/dw, d2/dw2 of log z_w."""

    omega: float
    objective: float
    slope: float
    curvature: float


@dataclass(frozen=True)
class NewtonTrace:
    records: tuple[TraceRecord, ...]
    converged: bool
    iterations: int
    flags: tuple[str, ...] = ()


class SolverError(RuntimeError):
    """Raised when Newton iterations exhaust max_iters; carries the trace."""

    def __init__(self, message: str, trace: NewtonTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class FusionResult:
    """Fused distribution with the weights, scales and traces that produced it."""

    fused: FiniteSetDistribution
    omega_card: float
    omega_loc: tuple[float, ...]
    z_values: tuple[float, ...]
    flags: tuple[str, ...] = ()
    card_trace: Optional[NewtonTrace] = None
    loc_trace: Optional[NewtonTrace] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        weights = (self.omega_card, *self.omega_loc)
        if any(not 0.0 <= w <= 1.0 for w in weights):
            raise ValueError("all fusion weights must lie in [0, 1]")


class BernoulliWeight(NamedTuple):
    omega: float
    alpha: float
    clamped: bool


class PoissonWeight(NamedTuple):
    omega: float
    rate: float


def _newton_weight(evaluate: Callable, config: NewtonConfig, degenerate_flag: str):
    """Safeguarded Newton maximisation of -log z over the clamped interval.

    evaluate(w) gives log z, l' and l'' as ``log_z``, ``slope`` and
    ``curvature``, with l = log z. l'' is a variance, so l' is
    nondecreasing in w and its sign brackets the stationary point; Newton
    proposals that exit the bracket or fail to shrink |l'| fall back to
    bisection. Returns the weight, the evaluation there (which carries the
    fused density) and the trace.
    """
    lo = config.omega_clamp
    hi = 1.0 - config.omega_clamp
    w = min(max(config.omega_init, lo), hi)
    at_w = evaluate(w)
    records = [TraceRecord(w, -at_w.log_z, at_w.slope, at_w.curvature)]
    for iteration in range(1, config.max_iters + 1):
        slope, curvature = at_w.slope, at_w.curvature
        if slope == 0.0 and curvature == 0.0:
            trace = NewtonTrace(tuple(records), True, iteration - 1, (degenerate_flag,))
            return w, at_w, trace
        if slope < 0.0:
            lo = max(lo, w)
        else:
            hi = min(hi, w)
        newton_ok = curvature > 0.0
        if newton_ok:
            cand = w - slope / curvature
            newton_ok = lo <= cand <= hi
        if not newton_ok:
            cand = 0.5 * (lo + hi)
        at_cand = evaluate(cand)
        if newton_ok and abs(at_cand.slope) > abs(slope):
            cand = 0.5 * (lo + hi)
            at_cand = evaluate(cand)
        step = abs(cand - w)
        w, at_w = cand, at_cand
        records.append(TraceRecord(w, -at_w.log_z, at_w.slope, at_w.curvature))
        if step <= config.epsilon:
            return w, at_w, NewtonTrace(tuple(records), True, iteration)
    raise SolverError(
        f"weight solver did not converge in {config.max_iters} iterations",
        NewtonTrace(tuple(records), False, config.max_iters),
    )


def _same_localisation(a: LocalisationDensity, b: LocalisationDensity) -> bool:
    if isinstance(a, GaussianDensity) and isinstance(b, GaussianDensity):
        return np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)
    if isinstance(a, GridDensity) and isinstance(b, GridDensity):
        return (
            a.values.shape == b.values.shape
            and np.array_equal(a.origin, b.origin)
            and np.array_equal(a.cell_size, b.cell_size)
            and np.array_equal(a.values, b.values)
        )
    return False


def chernoff_objective(
    rho_i: LocalisationDensity, rho_j: LocalisationDensity, omega: float
) -> float:
    """-log z_w for the localisation pair; nonnegative, zero at the endpoints."""
    _check_omega(omega)
    evaluate = _localisation_pair(rho_i, rho_j)
    if omega == 0.0 or omega == 1.0:
        return 0.0
    return -evaluate(omega).log_z


def newton_localisation(
    rho_i: LocalisationDensity,
    rho_j: LocalisationDensity,
    config: NewtonConfig,
) -> tuple[float, LocalisationDensity, float, NewtonTrace]:
    """Solve for the weight maximising -log z_w between two localisations.

    Gaussian pairs use exact closed forms for log z_w and its derivatives;
    grid pairs use one tilted sum over the cells both densities cover. The
    result does not depend on config.seed.
    """
    if _same_localisation(rho_i, rho_j):
        trace = NewtonTrace((), True, 0, (DEGENERATE_LOC_FLAG,))
        return 0.5, rho_i, 1.0, trace

    evaluate = _localisation_pair(rho_i, rho_j)
    omega_star, fused, trace = _newton_weight(evaluate, config, DEGENERATE_LOC_FLAG)
    return omega_star, fused.density(), math.exp(fused.log_z), trace


def newton_cardinality(
    p_i: CardinalityPmf, p_j: CardinalityPmf, config: NewtonConfig
) -> tuple[float, CardinalityPmf, NewtonTrace]:
    """Solve for the weight maximising -log of the pmf geometric-mean
    normalizer; all sums are exact over the finite joint support."""
    a, b = _common_probs(p_i, p_j)
    if np.array_equal(a, b):
        trace = NewtonTrace((), True, 0, (DEGENERATE_CARD_FLAG,))
        return 0.5, p_i, trace
    joint = (a > 0) & (b > 0)
    if joint.sum() < 2:
        raise ValueError("cardinality solver needs at least two joint support points")
    evaluate = quadrature.tilted_log_moments(np.log(a[joint]), np.log(b[joint]))
    omega_star, fused, trace = _newton_weight(evaluate, config, DEGENERATE_CARD_FLAG)
    probs = np.zeros_like(a)
    probs[joint] = fused.weights
    return omega_star, CardinalityPmf(probs), trace


def bernoulli_closed_form(alpha_i: float, alpha_j: float) -> BernoulliWeight:
    """Closed-form optimal weight and fused existence probability for
    two-point existence pmfs.

    The raw weight formula can in principle exit [0, 1]; the result is then
    clamped and flagged so callers can fall back to the iterative solver.
    """
    if not (0.0 < alpha_i < 1.0 and 0.0 < alpha_j < 1.0):
        raise ValueError("existence probabilities must lie strictly inside (0, 1)")
    if abs(alpha_i - alpha_j) < 1e-12:
        return BernoulliWeight(0.5, alpha_i, False)
    log_absent = math.log((1.0 - alpha_i) / (1.0 - alpha_j))
    log_present = math.log(alpha_j / alpha_i)
    omega = (
        math.log(log_absent / log_present) - math.log(alpha_i / (1.0 - alpha_i))
    ) / (log_absent + log_present)
    clamped = not 0.0 <= omega <= 1.0
    omega = min(max(omega, 0.0), 1.0)
    present = alpha_i ** (1.0 - omega) * alpha_j**omega
    absent = (1.0 - alpha_i) ** (1.0 - omega) * (1.0 - alpha_j) ** omega
    return BernoulliWeight(omega, present / (present + absent), clamped)


def poisson_closed_form(lambda_i: float, lambda_j: float) -> PoissonWeight:
    """Closed-form optimal weight and fused rate for Poisson count pmfs."""
    if lambda_i <= 0.0 or lambda_j <= 0.0:
        raise ValueError("rates must be positive")
    if abs(lambda_i - lambda_j) < 1e-12 * max(lambda_i, lambda_j):
        return PoissonWeight(0.5, lambda_i)
    ratio = lambda_j / lambda_i
    log_ratio = math.log(ratio)
    # (ratio - 1) and log(ratio) share sign, so the inner ratio is positive
    omega = math.log((ratio - 1.0) / log_ratio) / log_ratio
    return PoissonWeight(omega, lambda_i ** (1.0 - omega) * lambda_j**omega)


def kld_balance_residual(fused, f_i, f_j) -> float:
    """D(fused||f_i) - D(fused||f_j); approximately zero at an optimal weight.

    Accepts a Gaussian, cardinality-pmf or grid triple and picks the matching
    divergence computation.
    """
    if isinstance(fused, GaussianDensity):
        return gaussian.kld(fused, f_i) - gaussian.kld(fused, f_j)
    if isinstance(fused, CardinalityPmf):
        return pmf_kld(fused, f_i) - pmf_kld(fused, f_j)
    if isinstance(fused, GridDensity):
        return quadrature.grid_kld(fused, f_i) - quadrature.grid_kld(fused, f_j)
    raise TypeError(f"unsupported density type {type(fused).__name__}")


def consistent_fuse(
    f_i: FiniteSetDistribution, f_j: FiniteSetDistribution, config: NewtonConfig
) -> FusionResult:
    """Cardinality-consistent fusion of a same-family pair.

    The localisation weight is solved per localisation pair (once for the
    factorized families, where every per-count problem rescales the
    single-object one), and the count distribution is fused independently of
    the localisation scale factors. The fused counts therefore never drop
    below both inputs anywhere.
    """
    if type(f_i) is not type(f_j):
        raise ValueError("cannot fuse distributions from different families")

    omega_loc, fused_loc, z_star, loc_trace = newton_localisation(
        f_i.loc, f_j.loc, config
    )
    flags = list(loc_trace.flags)
    card_trace: Optional[NewtonTrace] = None

    if isinstance(f_i, BernoulliRfs):
        if abs(f_i.alpha - f_j.alpha) < 1e-12:
            omega_card, alpha_star = 0.5, f_i.alpha
            flags.append(DEGENERATE_CARD_FLAG)
        else:
            closed = bernoulli_closed_form(f_i.alpha, f_j.alpha)
            if closed.clamped:
                flags.append("closed form clamped; iterative fallback")
                two_point_i = CardinalityPmf([1.0 - f_i.alpha, f_i.alpha])
                two_point_j = CardinalityPmf([1.0 - f_j.alpha, f_j.alpha])
                omega_card, fused_pmf, card_trace = newton_cardinality(
                    two_point_i, two_point_j, config
                )
                alpha_star = float(fused_pmf.probs[1])
            else:
                omega_card, alpha_star = closed.omega, closed.alpha
        fused: FiniteSetDistribution = BernoulliRfs(alpha_star, fused_loc)

    elif isinstance(f_i, PoissonRfs):
        if abs(f_i.rate - f_j.rate) < 1e-12 * max(f_i.rate, f_j.rate, 1.0):
            omega_card, rate_star = 0.5, f_i.rate
            flags.append(DEGENERATE_CARD_FLAG)
        else:
            omega_card, rate_star = poisson_closed_form(f_i.rate, f_j.rate)
        fused = PoissonRfs(rate_star, fused_loc)

    elif isinstance(f_i, IidClusterRfs):
        omega_card, fused_pmf, card_trace = newton_cardinality(
            f_i.card, f_j.card, config
        )
        flags.extend(card_trace.flags)
        fused = IidClusterRfs(fused_pmf, fused_loc)

    else:
        raise TypeError(f"unsupported finite-set distribution {type(f_i).__name__}")

    return FusionResult(
        fused=fused,
        omega_card=omega_card,
        omega_loc=(omega_loc,),
        z_values=(z_star,),
        flags=tuple(dict.fromkeys(flags)),
        card_trace=card_trace,
        loc_trace=loc_trace,
    )


def with_diagnostics(result: FusionResult, diagnostics: dict) -> FusionResult:
    """Copy of a fusion result with diagnostic verdicts attached."""
    return replace(result, diagnostics=dict(diagnostics))

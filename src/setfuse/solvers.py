"""Optimal mixture-weight solvers and end-to-end cardinality-consistent fusion.

The weight objective is the Chernoff-style quantity -log z_w (or -log of the
pmf normalizer), which is concave on [0, 1] and vanishes at the endpoints.
The solvers work on l = log z_w, whose first two w-derivatives are the mean
and variance of the log ratio q = log rho_j - log rho_i under the fused
density: closed form for Gaussian pairs, one tilted sum for grids and count
pmfs. The solvers evaluate the same pair evaluators the fusion rules use;
an evaluation gives only those three numbers, and the fused density is
built once, by the evaluation at the solved weight. Nothing is sampled and
nothing underflows, so inputs far apart still converge. Newton iterations
on l' = 0 converge fast; a bisection safeguard on the sign of l' keeps
iterates inside the interval even from poor starting points. At the
optimum the divergences from the fused density to the two inputs balance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import gaussian, quadrature
from .fusion import _bernoulli_alpha, _check_alphas, _check_omega, _common_probs, _localisation_pair, _poisson_rate
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
SINGLE_COUNT_FLAG = "degenerate: single joint count"


@dataclass(frozen=True)
class NewtonConfig:
    """Knobs for the weight solvers.

    epsilon is the termination threshold on successive weight iterates.
    Every solver derivative is exact, so nothing is sampled. A ``seed``
    keyword is still accepted and discarded, only because
    ``perfbench/stream.py`` passes it; no scenario field or CLI flag sets it.
    """

    omega_init: float = 0.5
    epsilon: float = 1e-4
    max_iters: int = 50
    omega_clamp: float = 1e-6
    seed: InitVar[Optional[int]] = None

    def __post_init__(self, seed):
        if not 0.0 <= self.omega_init <= 1.0:
            raise ValueError("omega_init must lie in [0, 1]")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.omega_clamp < 0.5:
            raise ValueError("omega_clamp must lie in (0, 0.5)")
        iters = self.max_iters
        if isinstance(iters, bool) or not isinstance(iters, numbers.Integral) or iters < 1:
            raise ValueError("max_iters must be an integer >= 1")


# The generated __init__ keeps the seed keyword. Dropping the class attribute
# its default leaves behind makes ``config.seed`` raise AttributeError, and
# dropping its field record keeps dataclasses.replace() from reading it.
del NewtonConfig.seed, NewtonConfig.__dataclass_fields__["seed"]


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


def _newton_weight(evaluate: Callable, config: NewtonConfig):
    """Safeguarded Newton maximisation of -log z over the clamped interval.

    evaluate(w) gives log z, l' and l'' as ``log_z``, ``slope`` and
    ``curvature``, with l = log z. l'' is a variance, so l' is
    nondecreasing in w and its sign brackets the stationary point; Newton
    proposals that exit the bracket or fail to shrink |l'| fall back to
    bisection. Returns the weight, the evaluation there (whose ``density()``
    builds the fused density) and the trace.
    """
    lo = config.omega_clamp
    hi = 1.0 - config.omega_clamp
    w = min(max(config.omega_init, lo), hi)
    at_w = evaluate(w)
    records = [TraceRecord(w, -at_w.log_z, at_w.slope, at_w.curvature)]
    for iteration in range(1, config.max_iters + 1):
        slope, curvature = at_w.slope, at_w.curvature
        if slope == 0.0 and curvature == 0.0:  # flat: every weight fuses alike
            return w, at_w, NewtonTrace(tuple(records), True, iteration - 1)
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
    grid pairs use one tilted sum over the cells both densities cover.
    """
    if _same_localisation(rho_i, rho_j):
        trace = NewtonTrace((), True, 0, (DEGENERATE_LOC_FLAG,))
        return 0.5, rho_i, 1.0, trace

    evaluate = _localisation_pair(rho_i, rho_j)
    omega_star, fused, trace = _newton_weight(evaluate, config)
    return omega_star, fused.density(), math.exp(fused.log_z), trace


def newton_cardinality(
    p_i: CardinalityPmf, p_j: CardinalityPmf, config: NewtonConfig
) -> tuple[float, CardinalityPmf, NewtonTrace]:
    """Solve for the weight maximising -log of the pmf geometric-mean
    normalizer, with the array evaluator grids use: all sums are exact over
    the finite joint support. A joint support of one count fuses to that
    count at weight 0.5, flagged ``SINGLE_COUNT_FLAG``."""
    a, b = _common_probs(p_i, p_j)
    if np.array_equal(a, b):
        # the longer input spans the count range the other paths fuse over
        trace = NewtonTrace((), True, 0, (DEGENERATE_CARD_FLAG,))
        return 0.5, p_i if p_i.n_max >= p_j.n_max else p_j, trace
    evaluate = quadrature.tilted_log_moments(a, b, CardinalityPmf._trusted)
    if evaluate.points == 1:
        # every weight fuses to the one count both pmfs support
        return 0.5, evaluate(0.5).density(), NewtonTrace((), True, 0, (SINGLE_COUNT_FLAG,))
    omega_star, fused, trace = _newton_weight(evaluate, config)
    return omega_star, fused.density(), trace


# h(x) = log(log1p(x) / x) = sum over k >= 1 of _H_SERIES[k - 1] x^k
_H_SERIES = (-1 / 2, 5 / 24, -1 / 8, 251 / 2880, -19 / 288, 19087 / 362880, -751 / 17280, 1070017 / 29030400)


def _log_ratio_terms(num: float, den: float, diff: float) -> tuple[float, float]:
    """log1p(x) = log(num / den) and h(x) for x = diff / den in (-1, 0),
    where diff = num - den is passed in exactly. Near x = 0, log1p and the
    series of h avoid cancellation; near x = -1, where diff / den loses
    1 + x, the log is taken as a difference of logs."""
    x = diff / den
    if x > -0.025:
        return math.log1p(x), sum(coef * x**k for k, coef in enumerate(_H_SERIES, 1))
    log1p_x = math.log1p(x) if x > -0.5 else math.log(num) - math.log(den)
    return log1p_x, math.log(log1p_x / x)


def bernoulli_closed_form(alpha_i: float, alpha_j: float) -> BernoulliWeight:
    """Closed-form optimal weight and fused existence probability for
    two-point existence pmfs.

    The weight from the larger probability hi towards the smaller lo is
    (A + h(u) - h(v)) / (A + P), with u = (lo - hi) / (1 - lo),
    v = (lo - hi) / hi, A = log1p(u) and P = log1p(v). A + h(u), -h(v)
    and A + P are all negative, so no sum cancels as the inputs near each
    other; swapping the inputs maps the weight w to 1 - w. ``clamped``
    reports a weight rounded outside [0, 1] and pulled back.
    """
    if not (0.0 < alpha_i < 1.0 and 0.0 < alpha_j < 1.0):
        raise ValueError("existence probabilities must lie strictly inside (0, 1)")
    if alpha_i == alpha_j:
        return BernoulliWeight(0.5, alpha_i, False)
    hi, lo = max(alpha_i, alpha_j), min(alpha_i, alpha_j)
    log_absent, h_absent = _log_ratio_terms(1.0 - hi, 1.0 - lo, lo - hi)
    log_present, h_present = _log_ratio_terms(lo, hi, lo - hi)
    omega = (log_absent + h_absent - h_present) / (log_absent + log_present)
    if alpha_i < alpha_j:
        omega = 1.0 - omega
    clamped = not 0.0 <= omega <= 1.0
    omega = min(max(omega, 0.0), 1.0)
    return BernoulliWeight(omega, _bernoulli_alpha(alpha_i, alpha_j, omega, 0.0), clamped)


def poisson_closed_form(lambda_i: float, lambda_j: float) -> PoissonWeight:
    """Closed-form optimal weight and fused rate for Poisson count pmfs.

    With x = log(lambda_j / lambda_i) the weight is log(expm1(x) / x) / x,
    which is -h(r) / log1p(r) for r = lambda_j / lambda_i - 1. It is taken
    from the larger rate towards the smaller, where r lies in (-1, 0) and
    nothing overflows or cancels, and mirrored to 1 - w for the other order.
    """
    if lambda_i <= 0.0 or lambda_j <= 0.0:
        raise ValueError("rates must be positive")
    if lambda_i == lambda_j:
        return PoissonWeight(0.5, lambda_i)
    hi, lo = max(lambda_i, lambda_j), min(lambda_i, lambda_j)
    log_ratio, h = _log_ratio_terms(lo, hi, lo - hi)
    omega = -h / log_ratio
    if lambda_i < lambda_j:
        omega = 1.0 - omega
    return PoissonWeight(omega, _poisson_rate(lambda_i, lambda_j, omega, 0.0))


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


def _closed_form_count(closed_form: Callable, x_i: float, x_j: float, pinned: tuple[float, ...]):
    """Weight, fused count parameter and flags of a Bernoulli or Poisson
    count pair. An input value in ``pinned`` puts all its count mass on one
    count, the only joint one, which every weight fuses to; it is returned
    at weight 0.5, as equal inputs are."""
    if x_i == x_j:
        return 0.5, x_i, [DEGENERATE_CARD_FLAG]
    for x in (x_i, x_j):
        if x in pinned:
            return 0.5, x, [SINGLE_COUNT_FLAG]
    return *closed_form(x_i, x_j)[:2], []


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
        _check_alphas(f_i.alpha, f_j.alpha)
        omega_card, alpha_star, card_flags = _closed_form_count(
            bernoulli_closed_form, f_i.alpha, f_j.alpha, (0.0, 1.0)
        )
        flags.extend(card_flags)
        fused: FiniteSetDistribution = BernoulliRfs(alpha_star, fused_loc)

    elif isinstance(f_i, PoissonRfs):
        omega_card, rate_star, card_flags = _closed_form_count(poisson_closed_form, f_i.rate, f_j.rate, (0.0,))
        flags.extend(card_flags)
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

"""Sufficient conditions for cardinality inconsistency of fused set densities.

A fused cardinality pmf is called inconsistent at n when it drops below both
inputs there, p_fused(n) < min(p_i(n), p_j(n)). The bounds here are
sufficient conditions on the localisation scale factor(s): whenever the
scale falls below a bound, the inequality on the fused object is guaranteed.
The converse does not hold in general.

All functions are pure; callers attach the verdicts to fusion results.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature
from .fusion import _check_omega, _common_probs, _joint_counts, cardinality_emd
from .model import CardinalityPmf


def is_cardinality_inconsistent(
    p_fused: CardinalityPmf, p_i: CardinalityPmf, p_j: CardinalityPmf, n: int
) -> bool:
    """Direct check: fused pmf below both inputs at count n."""
    return p_fused.prob(n) < min(p_i.prob(n), p_j.prob(n))


def cardinality_inconsistency_bound(
    p_i: CardinalityPmf,
    p_j: CardinalityPmf,
    z_seq: np.ndarray,
    omega: float,
    n: int,
) -> float:
    """Scale threshold at count n for the jointly fused pmf.

    If z_seq[n] is below the returned value, the fused pmf built from
    (p_i, p_j, z_seq, omega) is inconsistent at n.
    """
    _check_omega(omega)
    if p_i.prob(n) <= 0.0 or p_j.prob(n) <= 0.0:
        raise ValueError("bound undefined: both pmfs must be positive at n")
    a, b = _common_probs(p_i, p_j)
    z = np.asarray(z_seq, dtype=float)
    if z.size < a.size:
        raise ValueError("z_seq must cover every cardinality of the joint support")
    z = z[: a.size]
    geo = a ** (1.0 - omega) * b**omega
    others = float(np.sum(np.delete(geo * z, n)))
    denom = geo[n] / min(a[n], b[n]) - geo[n]
    if denom <= 0.0:
        # both pmfs concentrate all mass at n; never inconsistent there
        return 0.0
    return others / denom


def bernoulli_inconsistency_bound(alpha_i: float, alpha_j: float, omega: float) -> float:
    """Scale threshold below which the fused existence probability is
    smaller than both inputs. Equals 1 when the input alphas coincide."""
    _check_omega(omega)
    if not (0.0 < alpha_i < 1.0 and 0.0 < alpha_j < 1.0):
        raise ValueError("existence probabilities must lie strictly inside (0, 1)")
    absent = (1.0 - alpha_i) ** (1.0 - omega) * (1.0 - alpha_j) ** omega
    present = alpha_i ** (1.0 - omega) * alpha_j**omega
    return absent / (present / min(alpha_i, alpha_j) - present)


def poisson_inconsistency(
    lambda_i: float, lambda_j: float, z_omega: float
) -> tuple[float, bool]:
    """Rate-ratio threshold and whether the supplied scale triggers it.

    Triggering guarantees the fused expected count falls below both input
    rates for every mixture weight.
    """
    if not (0.0 < lambda_i < math.inf and 0.0 < lambda_j < math.inf):
        raise ValueError("rates must be positive and finite")
    if not z_omega >= 0.0:
        raise ValueError("scale factor must be nonnegative")
    bound = min(lambda_i, lambda_j) / max(lambda_i, lambda_j)
    return bound, z_omega < bound


def _log_iid_normalizer(ns: np.ndarray, a: np.ndarray, b: np.ndarray, omega: float, z_omega: float) -> float:
    """log of sum_n a(n)^(1-w) b(n)^w z^n over the joint-support counts ns
    (a and b hold the pmfs there), or -inf when no term survives. n log z
    joins the logs summed by the kernel's shifted sum, so z^n never
    underflows; at z = 0 only n = 0 survives."""
    if z_omega == 0.0:
        k = 1 if ns.size and ns[0] == 0 else 0
        ns, a, b, scale = ns[:k], a[:k], b[:k], 0.0
    else:
        scale = ns * math.log(z_omega)
    if ns.size == 0:
        return -math.inf
    log_a = np.log(a) + scale
    log_b = np.log(b) + scale
    return quadrature._shifted_sum(log_a + omega * (log_b - log_a))[0]


def iid_inconsistency_bound(
    p_i: CardinalityPmf,
    p_j: CardinalityPmf,
    omega: float,
    n: int,
    z_omega: float,
) -> float:
    """Per-count scale threshold for IID-cluster fusion.

    With the geometric scale sequence z_w^n, the fused pmf is inconsistent
    at n whenever z_omega falls below the returned value. The normalizer is
    evaluated internally at the supplied z_omega.
    """
    _check_omega(omega)
    if n <= 0:
        raise ValueError("bound undefined at n = 0")
    a_n, b_n = p_i.prob(n), p_j.prob(n)
    if a_n <= 0.0 or b_n <= 0.0:
        raise ValueError("bound undefined: both pmfs must be positive at n")
    if not z_omega >= 0.0:
        raise ValueError("scale factor must be nonnegative")
    ratio = min(a_n, b_n) / (a_n ** (1.0 - omega) * b_n**omega)
    log_norm = _log_iid_normalizer(*_joint_counts(p_i, p_j), omega, z_omega)
    return math.exp((log_norm + math.log(ratio)) / n)


def iid_inconsistency_threshold(
    p_i: CardinalityPmf, p_j: CardinalityPmf, omega: float, z_omega: float
) -> float:
    """Count threshold eta: every supported n > eta is inconsistent.

    Finite only for z_omega in [0, 1); the guarantee follows from the
    per-count bound approaching 1 as n grows. At z_omega = 0 (a scale
    factor that flushed to zero) it is the limit as z_omega -> 0, the
    smallest count of the joint support.
    """
    _check_omega(omega)
    if not 0.0 <= z_omega < 1.0:
        raise ValueError("threshold requires z_omega = 0 or z_omega in (0, 1)")
    ns, a, b = _joint_counts(p_i, p_j)
    if z_omega == 0.0:
        return float(ns[0])
    geo = a ** (1.0 - omega) * b**omega
    gamma = float((np.minimum(a, b) / geo).min())
    log_norm = _log_iid_normalizer(ns, a, b, omega, z_omega)
    return (log_norm + math.log(gamma)) / math.log(z_omega)


def pointwise_ratio(
    p_i: CardinalityPmf,
    p_j: CardinalityPmf,
    z_seq: np.ndarray,
    omega: float,
    n: int,
) -> float:
    """E_{p~}[z_w(n)] / z_seq[n], the factor relating the decoupled-consistent
    and jointly fused set densities at cardinality n.

    Values below 1 flag candidate pointwise inconsistency of the consistent
    fusion at that cardinality.
    """
    if n < 0:
        raise ValueError("count n must be >= 0")
    z = np.asarray(z_seq, dtype=float)
    if n >= z.size or z[n] == 0.0:
        raise ValueError("ratio undefined: z_seq[n] must be positive")
    fused, _ = cardinality_emd(p_i, p_j, omega)
    probs = fused.probs
    if z.size < probs.size:
        raise ValueError("z_seq must cover the joint support")
    expectation = float(probs @ z[: probs.size])
    return expectation / z[n]

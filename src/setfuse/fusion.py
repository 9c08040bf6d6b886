"""Weighted geometric-mean fusion of finite-set distributions.

Joint fusion of a finite-set pair couples the fused cardinality pmf to the
per-cardinality localisation scale factors z_w(n); this module implements
that coupled rule for the Bernoulli, Poisson and IID-cluster families, plus
the decoupled cardinality-only geometric mean used by the consistent scheme.

The set rules share one joint path, ``_fuse_p2``: log z_w and the fused
localisation come from one pair evaluator picked by ``_localisation_pair``,
and the fused count from the family's rule, written once in the factory
``_count_rule``. Count pmfs are fused with the array evaluator grids use,
``quadrature.tilted_log_moments``.

Support convention: fractional powers treat 0^a = 0 for a > 0, so fused
supports are intersections of the input supports for w in (0, 1). At the
endpoints w = 0 and w = 1 the corresponding input is returned verbatim,
except by ``iid_fuse_p2``, which returns it as an IID cluster on 0..n_max.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import gaussian, quadrature
from .model import (
    DISJOINT_SUPPORT,
    BernoulliRfs,
    CardinalityPmf,
    GaussianDensity,
    GridDensity,
    IidClusterRfs,
    IncompatibleInputs,
    LocalisationDensity,
    PoissonRfs,
    cardinality_of,
)


def _check_omega(omega: float) -> None:
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")


def _common_probs(p_i: CardinalityPmf, p_j: CardinalityPmf) -> tuple[np.ndarray, np.ndarray]:
    """Both pmfs' probabilities over one count range. Only a shorter pmf is
    padded; a pmf that spans the range gives its own read-only array."""
    a, b = p_i.probs, p_j.probs
    if a.size < b.size:
        a = p_i.padded(p_j.n_max)
    elif b.size < a.size:
        b = p_j.padded(p_i.n_max)
    return a, b


def _iid_pair(p_i: CardinalityPmf, p_j: CardinalityPmf, log_z: float):
    """The IID joint rule's evaluator at z_w = exp(log_z), with the extra
    term n log z_w; the IID diagnostics read N_w from it too."""
    a, b = _common_probs(p_i, p_j)
    return quadrature.tilted_log_moments(a, b, CardinalityPmf._trusted, log_extra=np.arange(a.size) * log_z)


def _iid_limit(p_i: CardinalityPmf, p_j: CardinalityPmf, omega: float) -> tuple[CardinalityPmf, float]:
    """The IID joint rule's limit as z_w -> 0: all mass on the smallest count
    where both pmfs are positive (``IncompatibleInputs`` if none), with
    normalizer a(0)^(1-w) b(0)^w when that count is 0 and 0 otherwise."""
    a, b = p_i.probs, p_j.probs
    k = min(a.size, b.size)
    ns = ((a[:k] > 0) & (b[:k] > 0)).nonzero()[0]
    if ns.size == 0:
        raise IncompatibleInputs(DISJOINT_SUPPORT)
    probs = np.zeros(max(a.size, b.size))
    probs[ns[0]] = 1.0
    return CardinalityPmf._trusted(probs), (float(a[0] ** (1.0 - omega) * b[0] ** omega) if ns[0] == 0 else 0.0)


def _geometric_pmf(
    p_i: CardinalityPmf, p_j: CardinalityPmf, omega: float, log_extra: float | np.ndarray = 0.0
) -> tuple[CardinalityPmf, float]:
    """Normalized exp((1-w) log a + w log b + extra) and its normalizer. Only
    the normalizer may flush to zero; the pmf stays accurate in deep tails.
    At w = 0 or 1 the matching input itself is returned, with normalizer 1."""
    if omega == 0.0:
        return p_i, 1.0
    if omega == 1.0:
        return p_j, 1.0
    evaluate = quadrature.tilted_log_moments(*_common_probs(p_i, p_j), CardinalityPmf._trusted, log_extra=log_extra)
    fused = evaluate(omega)
    return fused.density(), math.exp(fused.log_z)


def _scale_sequence(p_i: CardinalityPmf, p_j: CardinalityPmf, z_seq) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both pmfs on their common count range and z_seq cut to it, which must
    cover it, start at 1 and lie in (0, 1 + 1e-12] where both are positive."""
    a, b = _common_probs(p_i, p_j)
    z = np.asarray(z_seq, dtype=float)
    if z.ndim != 1 or z.size < a.size:
        raise ValueError("z_seq must cover every cardinality of the joint support")
    z = z[: a.size]
    if not abs(z[0] - 1.0) <= 1e-12:
        raise ValueError("z_seq[0] must be 1 by convention")
    outside = ~((z > 0) & (z <= 1.0 + 1e-12))
    if outside.any() and ((a[outside] > 0) & (b[outside] > 0)).any():
        raise ValueError("scale factors must lie in (0, 1] on the joint support")
    return a, b, z


def fused_cardinality_p2(
    p_i: CardinalityPmf,
    p_j: CardinalityPmf,
    z_seq: np.ndarray,
    omega: float,
) -> tuple[CardinalityPmf, float]:
    """Jointly fused cardinality pmf p_w(n) with its normalizer N_w.

    p_w(n) is proportional to p_i^(1-w)(n) p_j^w(n) z_seq[n]; the scale
    sequence couples the fused counts to how well the localisation densities
    overlap at each cardinality. z_seq[0] must be 1 by convention.
    """
    _check_omega(omega)
    z = _scale_sequence(p_i, p_j, z_seq)[2]
    return _geometric_pmf(p_i, p_j, omega, np.log(np.where(z > 0, z, 1.0)))


def iid_cardinality_p2(
    p_i: CardinalityPmf, p_j: CardinalityPmf, log_z: float, omega: float
) -> tuple[CardinalityPmf, float]:
    """Jointly fused count pmf of an IID-cluster pair with its normalizer.

    The factorized localisation makes the scale sequence geometric,
    z_w(n) = z_w^n. It enters as n log z_w, so neither large counts nor a
    z_w that flushes to 0 underflow the fused pmf. At an interior weight and
    a log z_w so far below 0 that n_max log z_w overflows (-inf included),
    the rule equals in floats its limit as z_w -> 0, ``_iid_limit``.
    """
    _check_omega(omega)
    if not log_z <= 1e-12:
        raise ValueError("log scale factor must be <= 0")
    n_max = max(p_i.n_max, p_j.n_max)
    if omega in (0.0, 1.0):
        return _geometric_pmf(p_i, p_j, omega)
    if n_max * log_z > -math.inf:
        fused = _iid_pair(p_i, p_j, log_z)(omega)
        return fused.density(), math.exp(fused.log_z)
    return _iid_limit(p_i, p_j, omega)


def cardinality_emd(
    p_i: CardinalityPmf, p_j: CardinalityPmf, omega: float
) -> tuple[CardinalityPmf, float]:
    """Decoupled cardinality fusion: normalized geometric mean of the pmfs.

    Dominates min(p_i(n), p_j(n)) at every n since the normalizer is <= 1.
    """
    _check_omega(omega)
    return _geometric_pmf(p_i, p_j, omega)


def _localisation_pair(loc_i: LocalisationDensity, loc_j: LocalisationDensity):
    """The pair evaluator of a localisation pair: a function of an interior
    weight w giving log z_w, its first two w-derivatives (``slope``,
    ``curvature``) and the fused density (``density()``). Both densities
    must use the same representation (Gaussian with Gaussian, grid with
    aligned grid)."""
    if isinstance(loc_i, GaussianDensity) and isinstance(loc_j, GaussianDensity):
        return gaussian._pair(loc_i, loc_j)
    if isinstance(loc_i, GridDensity) and isinstance(loc_j, GridDensity):
        return quadrature.grid_log_moments(loc_i, loc_j)
    raise TypeError("localisation densities must share a representation")


def localisation_emd(
    loc_i: LocalisationDensity, loc_j: LocalisationDensity, omega: float
) -> tuple[LocalisationDensity, float]:
    """Normalized geometric mean of two localisation densities and its scale."""
    _check_omega(omega)
    at = _localisation_pair(loc_i, loc_j)
    if omega in (0.0, 1.0):
        return (loc_i, 1.0) if omega == 0.0 else (loc_j, 1.0)
    fused = at(omega)
    return fused.density(), math.exp(fused.log_z)


def _bernoulli_alpha(alpha_i: float, alpha_j: float, omega: float, log_z: float) -> float:
    """Jointly fused existence probability at weight w and scale z_w."""
    present = alpha_i ** (1.0 - omega) * alpha_j**omega * math.exp(log_z)
    absent = (1.0 - alpha_i) ** (1.0 - omega) * (1.0 - alpha_j) ** omega
    return present / (absent + present) if present > 0.0 else 0.0


def _check_alphas(alpha_i: float, alpha_j: float) -> None:
    if {alpha_i, alpha_j} == {0.0, 1.0}:
        raise IncompatibleInputs("incompatible existence beliefs: alphas are 0 and 1")


def _poisson_rate(rate_i: float, rate_j: float, omega: float, log_z: float) -> float:
    """Jointly fused Poisson rate at weight w and scale z_w."""
    return rate_i ** (1.0 - omega) * rate_j**omega * math.exp(log_z)


def _count_rule(family: type, f_i, f_j, n_max: int | None = None):
    """Run the count check of ``family`` on f_i, f_j and return its joint
    count rule: (w, log z_w) -> (fused alpha, rate or count pmf; the IID
    normalizer, else None). IID pmfs are fused on 0..n_max, or on the
    longer input's counts when n_max is None."""
    if family is BernoulliRfs:
        alpha_i, alpha_j = f_i.alpha, f_j.alpha
        _check_alphas(alpha_i, alpha_j)
        return lambda omega, log_z: (_bernoulli_alpha(alpha_i, alpha_j, omega, log_z), None)
    if family is PoissonRfs:
        return lambda omega, log_z: (_poisson_rate(f_i.rate, f_j.rate, omega, log_z), None)
    if n_max is None:
        p_i, p_j = f_i.card, f_j.card
    else:
        p_i, p_j = cardinality_of(f_i, n_max), cardinality_of(f_j, n_max)
    return lambda omega, log_z: iid_cardinality_p2(p_i, p_j, log_z, omega)


def _fuse_p2(family: type, f_i, f_j, omega: float, n_max: int | None = None) -> tuple:
    """``family``'s joint rule: (family(fused count, fused localisation), z_w,
    the count rule's second output), or (matching input, 1, 1) at w = 0 or 1."""
    _check_omega(omega)
    if omega in (0.0, 1.0):
        return (f_j if omega == 1.0 else f_i), 1.0, 1.0
    rule = _count_rule(family, f_i, f_j, n_max)
    fused = _localisation_pair(f_i.loc, f_j.loc)(omega)
    count, third = rule(omega, fused.log_z)
    return family(count, fused.density()), math.exp(fused.log_z), third


class BernoulliJoint(NamedTuple):
    fused: BernoulliRfs
    z: float
    alpha: float


class PoissonJoint(NamedTuple):
    fused: PoissonRfs
    z: float
    rate: float


class IidJoint(NamedTuple):
    fused: IidClusterRfs
    z: float
    normalizer: float


def bernoulli_fuse_p2(f_i: BernoulliRfs, f_j: BernoulliRfs, omega: float) -> BernoulliJoint:
    """Joint fusion of two Bernoulli sets: fused object, z_w, fused alpha."""
    fused, z, _ = _fuse_p2(BernoulliRfs, f_i, f_j, omega)
    return BernoulliJoint(fused, z, fused.alpha)


def poisson_fuse_p2(f_i: PoissonRfs, f_j: PoissonRfs, omega: float) -> PoissonJoint:
    """Joint fusion of two Poisson sets: fused object, z_w, fused rate."""
    fused, z, _ = _fuse_p2(PoissonRfs, f_i, f_j, omega)
    return PoissonJoint(fused, z, fused.rate)


def iid_fuse_p2(f_i: IidClusterRfs, f_j: IidClusterRfs, omega: float, n_max: int) -> IidJoint:
    """Joint fusion of two IID-cluster sets: fused object, z_w, normalizer.
    Bernoulli and Poisson sets are fused as IID clusters, with their count
    pmfs on 0..n_max from ``cardinality_of``; at w = 0 or 1 the matching
    input comes back so, with z_w and normalizer 1."""
    if omega in (0.0, 1.0):
        f = f_j if omega == 1.0 else f_i
        return IidJoint(IidClusterRfs(cardinality_of(f, n_max), f.loc), 1.0, 1.0)
    return IidJoint(*_fuse_p2(IidClusterRfs, f_i, f_j, omega, n_max))

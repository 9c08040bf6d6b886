"""Weighted geometric-mean fusion of finite-set distributions.

Joint fusion of a finite-set pair couples the fused cardinality pmf to the
per-cardinality localisation scale factors z_w(n); this module implements
that coupled rule for the Bernoulli, Poisson and IID-cluster families, plus
the decoupled cardinality-only geometric mean used by the consistent scheme.

Every rule reads log z_w and the fused localisation from one pair evaluator
picked by ``_localisation_pair``, and fuses count pmfs with the shared
kernel ``quadrature.tilted_log_moments``.

Support convention: fractional powers treat 0^a = 0 for a > 0, so fused
supports are intersections of the input supports for w in (0, 1). At the
endpoints w = 0 and w = 1 the corresponding input is returned verbatim.
"""

from __future__ import annotations

import math

import numpy as np

from . import gaussian, quadrature
from .model import (
    BernoulliRfs,
    CardinalityPmf,
    GaussianDensity,
    GridDensity,
    IidClusterRfs,
    LocalisationDensity,
    PoissonRfs,
    cardinality_of,
)


def _check_omega(omega: float) -> None:
    if not 0.0 <= omega <= 1.0:
        raise ValueError("omega must lie in [0, 1]")


def _common_probs(p_i: CardinalityPmf, p_j: CardinalityPmf) -> tuple[np.ndarray, np.ndarray]:
    n = max(p_i.n_max, p_j.n_max)
    return p_i.padded(n), p_j.padded(n)


def _geometric_pmf(
    a: np.ndarray, b: np.ndarray, omega: float, log_extra: float | np.ndarray = 0.0
) -> tuple[CardinalityPmf, float]:
    """Normalized exp((1-w) log a + w log b + extra) and its normalizer,
    from the shared tilted-sum kernel over the joint support. Only the
    normalizer may flush to zero; the pmf stays accurate in deep tails."""
    joint = (a > 0) & (b > 0)
    if not np.any(joint):
        raise ValueError("incompatible cardinality supports")
    extra = log_extra[joint] if np.ndim(log_extra) else log_extra
    fused = quadrature.tilted_log_moments(np.log(a[joint]) + extra, np.log(b[joint]) + extra)(omega)
    probs = np.zeros_like(a)
    probs[joint] = fused.weights
    return CardinalityPmf(probs), math.exp(fused.log_z)


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
    a, b = _common_probs(p_i, p_j)
    z = np.asarray(z_seq, dtype=float)
    if z.ndim != 1 or z.size < a.size:
        raise ValueError("z_seq must cover every cardinality of the joint support")
    z = z[: a.size]
    if abs(z[0] - 1.0) > 1e-12:
        raise ValueError("z_seq[0] must be 1 by convention")
    joint = (a > 0) & (b > 0)
    if np.any((z[joint] <= 0) | (z[joint] > 1.0 + 1e-12)):
        raise ValueError("scale factors must lie in (0, 1] on the joint support")
    if omega == 0.0:
        return CardinalityPmf(a), 1.0
    if omega == 1.0:
        return CardinalityPmf(b), 1.0
    return _geometric_pmf(a, b, omega, np.log(np.where(z > 0, z, 1.0)))


def iid_cardinality_p2(
    p_i: CardinalityPmf, p_j: CardinalityPmf, log_z: float, omega: float
) -> tuple[CardinalityPmf, float]:
    """Jointly fused count pmf of an IID-cluster pair with its normalizer.

    The factorized localisation makes the scale sequence geometric,
    z_w(n) = z_w^n. It enters as n log z_w, so neither large counts nor a
    z_w that flushes to 0 underflow the fused pmf.
    """
    _check_omega(omega)
    if not -math.inf < log_z <= 1e-12:
        raise ValueError("log scale factor must be finite and <= 0")
    a, b = _common_probs(p_i, p_j)
    if omega in (0.0, 1.0):
        return CardinalityPmf(a if omega == 0.0 else b), 1.0
    return _geometric_pmf(a, b, omega, np.arange(a.size) * log_z)


def cardinality_emd(
    p_i: CardinalityPmf, p_j: CardinalityPmf, omega: float
) -> tuple[CardinalityPmf, float]:
    """Decoupled cardinality fusion: normalized geometric mean of the pmfs.

    Dominates min(p_i(n), p_j(n)) at every n since the normalizer is <= 1.
    """
    _check_omega(omega)
    a, b = _common_probs(p_i, p_j)
    if omega == 0.0:
        return CardinalityPmf(a), 1.0
    if omega == 1.0:
        return CardinalityPmf(b), 1.0
    return _geometric_pmf(a, b, omega)


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
    """Jointly fused existence probability at an interior weight and scale z_w."""
    present = alpha_i ** (1.0 - omega) * alpha_j**omega * math.exp(log_z)
    absent = (1.0 - alpha_i) ** (1.0 - omega) * (1.0 - alpha_j) ** omega
    return present / (absent + present) if present > 0.0 else 0.0


def _poisson_rate(rate_i: float, rate_j: float, omega: float, log_z: float) -> float:
    """Jointly fused Poisson rate at an interior weight and scale z_w."""
    return rate_i ** (1.0 - omega) * rate_j**omega * math.exp(log_z)


def bernoulli_fuse_p2(
    f_i: BernoulliRfs, f_j: BernoulliRfs, omega: float
) -> tuple[BernoulliRfs, float, float]:
    """Joint fusion of two Bernoulli sets: fused object, z_w, fused alpha."""
    _check_omega(omega)
    if omega == 0.0:
        return f_i, 1.0, f_i.alpha
    if omega == 1.0:
        return f_j, 1.0, f_j.alpha
    pinned = {f_i.alpha, f_j.alpha} == {0.0, 1.0}
    if pinned:
        raise ValueError("incompatible existence beliefs: alphas are 0 and 1")
    fused = _localisation_pair(f_i.loc, f_j.loc)(omega)
    alpha = _bernoulli_alpha(f_i.alpha, f_j.alpha, omega, fused.log_z)
    return BernoulliRfs(alpha, fused.density()), math.exp(fused.log_z), alpha


def poisson_fuse_p2(
    f_i: PoissonRfs, f_j: PoissonRfs, omega: float
) -> tuple[PoissonRfs, float, float]:
    """Joint fusion of two Poisson sets: fused object, z_w, fused rate."""
    _check_omega(omega)
    if omega == 0.0:
        return f_i, 1.0, f_i.rate
    if omega == 1.0:
        return f_j, 1.0, f_j.rate
    fused = _localisation_pair(f_i.loc, f_j.loc)(omega)
    rate = _poisson_rate(f_i.rate, f_j.rate, omega, fused.log_z)
    return PoissonRfs(rate, fused.density()), math.exp(fused.log_z), rate


def iid_fuse_p2(
    f_i: IidClusterRfs, f_j: IidClusterRfs, omega: float, n_max: int
) -> tuple[IidClusterRfs, float, float]:
    """Joint fusion of two IID-cluster sets: fused object, z_w, normalizer."""
    _check_omega(omega)
    if omega == 0.0:
        return f_i, 1.0, 1.0
    if omega == 1.0:
        return f_j, 1.0, 1.0
    p_i = cardinality_of(f_i, n_max)
    p_j = cardinality_of(f_j, n_max)
    fused = _localisation_pair(f_i.loc, f_j.loc)(omega)
    card, norm = iid_cardinality_p2(p_i, p_j, fused.log_z, omega)
    return IidClusterRfs(card, fused.density()), math.exp(fused.log_z), norm

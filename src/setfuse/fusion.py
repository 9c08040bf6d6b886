"""Weighted geometric-mean fusion of finite-set distributions.

Joint fusion of a finite-set pair couples the fused cardinality pmf to the
per-cardinality localisation scale factors z_w(n); this module implements
that coupled rule for the Bernoulli, Poisson and IID-cluster families, plus
the decoupled cardinality-only geometric mean used by the consistent scheme.

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


def _normalized_geometric(
    a: np.ndarray, b: np.ndarray, omega: float, log_extra=None
) -> tuple[np.ndarray, float]:
    """Normalized exp((1-w) log a + w log b + extra) and its normalizer.

    Computed in log space with max subtraction, so the normalized pmf stays
    accurate even when products of deep tails underflow; only the returned
    scalar normalizer is allowed to flush to zero.
    """
    mask = (a > 0) & (b > 0)
    if not np.any(mask):
        raise ValueError("incompatible cardinality supports")
    logs = (1.0 - omega) * np.log(a[mask]) + omega * np.log(b[mask])
    if log_extra is not None:
        logs = logs + log_extra[mask]
    peak = logs.max()
    rel = np.exp(logs - peak)
    total = float(rel.sum())
    out = np.zeros_like(a)
    out[mask] = rel / total
    return out, math.exp(peak) * total


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
    probs, norm = _normalized_geometric(
        a, b, omega, log_extra=np.log(np.where(z > 0, z, 1.0))
    )
    return CardinalityPmf(probs), norm


def iid_cardinality_p2(
    p_i: CardinalityPmf, p_j: CardinalityPmf, z: float, omega: float
) -> tuple[CardinalityPmf, float]:
    """Jointly fused count pmf of an IID-cluster pair with its normalizer.

    The factorized localisation makes the scale sequence geometric,
    z_w(n) = z_w^n. It is built in log space as n log z_w, so it does not
    underflow at large counts.
    """
    _check_omega(omega)
    if z == 0.0:
        raise ValueError("scale factor z_w underflowed to 0; the joint count rule needs log z_w")
    if not 0.0 < z <= 1.0 + 1e-12:
        raise ValueError("scale factor must lie in (0, 1]")
    a, b = _common_probs(p_i, p_j)
    if omega in (0.0, 1.0):
        return CardinalityPmf(a if omega == 0.0 else b), 1.0
    probs, norm = _normalized_geometric(a, b, omega, log_extra=np.arange(a.size) * math.log(z))
    return CardinalityPmf(probs), norm


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
    probs, norm = _normalized_geometric(a, b, omega)
    return CardinalityPmf(probs), norm


def localisation_emd(
    loc_i: LocalisationDensity, loc_j: LocalisationDensity, omega: float
) -> tuple[LocalisationDensity, float]:
    """Normalized geometric mean of two localisation densities and its scale.

    Both densities must use the same representation (Gaussian with Gaussian,
    grid with aligned grid).
    """
    _check_omega(omega)
    if isinstance(loc_i, GaussianDensity) and isinstance(loc_j, GaussianDensity):
        if omega in (0.0, 1.0):
            return (loc_i, 1.0) if omega == 0.0 else (loc_j, 1.0)
        fused = gaussian._pair(loc_i, loc_j)(omega)
        return GaussianDensity(fused.mean, fused.cov), math.exp(fused.log_z)
    if isinstance(loc_i, GridDensity) and isinstance(loc_j, GridDensity):
        return quadrature.grid_emd(loc_i, loc_j, omega)
    raise TypeError("localisation densities must share a representation")


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
    loc, z = localisation_emd(f_i.loc, f_j.loc, omega)
    present = f_i.alpha ** (1.0 - omega) * f_j.alpha**omega * z
    absent = (1.0 - f_i.alpha) ** (1.0 - omega) * (1.0 - f_j.alpha) ** omega
    alpha = present / (absent + present) if present > 0.0 else 0.0
    return BernoulliRfs(alpha, loc), z, alpha


def poisson_fuse_p2(
    f_i: PoissonRfs, f_j: PoissonRfs, omega: float
) -> tuple[PoissonRfs, float, float]:
    """Joint fusion of two Poisson sets: fused object, z_w, fused rate."""
    _check_omega(omega)
    if omega == 0.0:
        return f_i, 1.0, f_i.rate
    if omega == 1.0:
        return f_j, 1.0, f_j.rate
    loc, z = localisation_emd(f_i.loc, f_j.loc, omega)
    rate = f_i.rate ** (1.0 - omega) * f_j.rate**omega * z
    return PoissonRfs(rate, loc), z, rate


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
    loc, z = localisation_emd(f_i.loc, f_j.loc, omega)
    card, norm = iid_cardinality_p2(p_i, p_j, z, omega)
    return IidClusterRfs(card, loc), z, norm

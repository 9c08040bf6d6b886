"""Grid quadrature for the mixture scale factor.

For grid-represented localisation densities the scale factor
z_w = integral rho_i^(1-w) rho_j^w is a midpoint-rule sum. The weight
solvers work on log z_w: its first two w-derivatives are the mean and
variance of the log ratio log rho_j - log rho_i under the normalized
geometric mean, which one max-subtracted tilted sum gives for grids and
count pmfs alike.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .model import GaussianDensity, GridDensity


def _check_aligned(rho_i: GridDensity, rho_j: GridDensity) -> None:
    same = (
        rho_i.values.shape == rho_j.values.shape
        and np.allclose(rho_i.origin, rho_j.origin, rtol=0.0, atol=1e-12)
        and np.allclose(rho_i.cell_size, rho_j.cell_size, rtol=1e-12, atol=0.0)
    )
    if not same:
        raise ValueError("misaligned grids: origin, cell size and extent must match")


def _masked_log_fields(rho_i: GridDensity, rho_j: GridDensity):
    vi = rho_i.values.ravel()
    vj = rho_j.values.ravel()
    mask = (vi > 0) & (vj > 0)
    return np.log(vi[mask]), np.log(vj[mask])


def tilted_log_moments(
    log_a: np.ndarray, log_b: np.ndarray, log_scale: float = 0.0
) -> Callable[[float], tuple[float, float, float]]:
    """w -> (log z_w, d log z_w/dw, d2 log z_w/dw2) for
    z_w = exp(log_scale) * sum of exp((1-w) log_a + w log_b).

    The derivatives are the mean and variance of log_b - log_a under the
    terms normalized to unit sum. Terms are shifted by their maximum before
    exponentiation, so nothing underflows however small z_w is.
    """
    if log_a.size == 0:
        raise ValueError("densities have disjoint support; geometric mean vanishes")
    log_ratio = log_b - log_a

    def evaluate(omega: float) -> tuple[float, float, float]:
        logs = log_a + omega * log_ratio
        peak = logs.max()
        rel = np.exp(logs - peak)
        total = rel.sum()
        mean = rel @ log_ratio / total
        spread = log_ratio - mean
        log_z = peak + math.log(total) + log_scale
        return float(log_z), float(mean), float(rel @ (spread * spread) / total)

    return evaluate


def grid_log_moments(
    rho_i: GridDensity, rho_j: GridDensity
) -> Callable[[float], tuple[float, float, float]]:
    """``tilted_log_moments`` of two aligned grids, with the logs taken once
    over the cells where both densities are positive."""
    _check_aligned(rho_i, rho_j)
    log_i, log_j = _masked_log_fields(rho_i, rho_j)
    return tilted_log_moments(log_i, log_j, math.log(rho_i.cell_volume))


def grid_z_omega(rho_i: GridDensity, rho_j: GridDensity, omega: float) -> float:
    """Midpoint-rule value of z_w. Cells where either density vanishes
    contribute nothing for w in (0, 1); endpoints integrate the endpoint
    density alone."""
    _check_aligned(rho_i, rho_j)
    vol = rho_i.cell_volume
    if omega == 0.0:
        return math.fsum(rho_i.values.ravel()) * vol
    if omega == 1.0:
        return math.fsum(rho_j.values.ravel()) * vol
    li, lj = _masked_log_fields(rho_i, rho_j)
    return math.fsum(np.exp((1.0 - omega) * li + omega * lj)) * vol


def grid_emd(rho_i: GridDensity, rho_j: GridDensity, omega: float) -> tuple[GridDensity, float]:
    """Normalized geometric mean of two aligned grids and its scale factor."""
    _check_aligned(rho_i, rho_j)
    if omega == 0.0:
        return rho_i, 1.0
    if omega == 1.0:
        return rho_j, 1.0
    vi = rho_i.values
    vj = rho_j.values
    mask = (vi > 0) & (vj > 0)
    vals = np.zeros_like(vi)
    vals[mask] = np.exp((1.0 - omega) * np.log(vi[mask]) + omega * np.log(vj[mask]))
    z = math.fsum(vals.ravel()) * rho_i.cell_volume
    if z == 0.0:
        raise ValueError("densities have disjoint support; geometric mean vanishes")
    return GridDensity(rho_i.origin, rho_i.cell_size, vals / z), z


def discretize_gaussians(
    gaussians: list[GaussianDensity],
    points_per_axis: int = 201,
    extent_sigmas: float = 6.0,
) -> list[GridDensity]:
    """Aligned grid representations on a common bounding box.

    The box spans every input mean plus/minus ``extent_sigmas`` per-axis
    standard deviations, so the truncated mass is negligible at default
    settings.
    """
    if not gaussians:
        raise ValueError("need at least one Gaussian")
    dim = gaussians[0].dim
    if dim > 3:
        raise ValueError("grid discretization supports at most 3 dimensions")
    if any(g.dim != dim for g in gaussians):
        raise ValueError("Gaussian dimensions do not match")
    sig = [np.sqrt(np.diag(g.cov)) for g in gaussians]
    lo = np.min([g.mean - extent_sigmas * s for g, s in zip(gaussians, sig)], axis=0)
    hi = np.max([g.mean + extent_sigmas * s for g, s in zip(gaussians, sig)], axis=0)
    cell = (hi - lo) / points_per_axis
    axes = [lo[k] + (np.arange(points_per_axis) + 0.5) * cell[k] for k in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.column_stack([m.ravel() for m in mesh])
    shape = (points_per_axis,) * dim
    return [
        GridDensity(lo, cell, g.evaluate(centers).reshape(shape)) for g in gaussians
    ]


def grid_kld(p: GridDensity, q: GridDensity) -> float:
    """Midpoint-rule D(p||q) for aligned grids; +inf if q misses p's support."""
    _check_aligned(p, q)
    vp = p.values.ravel()
    vq = q.values.ravel()
    mask = vp > 0
    if np.any(vq[mask] == 0):
        return math.inf
    val = math.fsum(vp[mask] * (np.log(vp[mask]) - np.log(vq[mask]))) * p.cell_volume
    return max(val, 0.0)

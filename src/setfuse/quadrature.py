"""The normalized geometric mean of two arrays, and grid quadrature.

``tilted_log_moments`` is the one evaluator of a^(1-w) b^w / z_w for a pair
of nonnegative arrays: grid densities here, count pmfs in ``fusion`` and
``solvers``. It takes the logs once over the entries where both arrays are
positive and, at each weight, sums the terms shifted by their maximum. An
evaluation gives log z_w and the mean and variance of the log ratio
log b - log a under the fused terms (the first two w-derivatives of
log z_w); its ``density()`` lays the normalized terms back onto the full
array and builds the fused grid or pmf from it. For grids z_w = integral
rho_i^(1-w) rho_j^w is a midpoint-rule sum; ``grid_log_moments`` is the
grid pair evaluator, the counterpart of ``gaussian._pair``."""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .model import GaussianDensity, GridDensity


def _check_aligned(rho_i: GridDensity, rho_j: GridDensity) -> None:
    same = (
        rho_i.values.shape == rho_j.values.shape
        and (abs(rho_i.origin - rho_j.origin) <= 1e-12).all()
        and (abs(rho_i.cell_size - rho_j.cell_size) <= 1e-12 * rho_j.cell_size).all()
    )
    if not same:
        raise ValueError("misaligned grids: origin, cell size and extent must match")


class _Fused(NamedTuple):
    """An array pair at one interior weight: log z_w, its two w-derivatives,
    and the shifted terms with what ``density()`` needs to lay them back."""

    log_z: float
    slope: float
    curvature: float
    rel: np.ndarray
    total: float
    mask: np.ndarray
    volume: float
    build: Callable

    def density(self):
        """``build`` of the full array of unit mass, zero off the joint support."""
        values = np.zeros(self.mask.shape)
        values[self.mask] = self.rel / (self.total * self.volume)
        return self.build(values)


def tilted_log_moments(
    a: np.ndarray, b: np.ndarray, build: Callable, volume: float = 1.0, log_extra: float | np.ndarray = 0.0
) -> Callable[[float], _Fused]:
    """w -> the fused terms of z_w = volume * sum of a^(1-w) b^w exp(log_extra)
    over the entries where both arrays are positive.

    The derivatives are the mean and variance of log b - log a under the
    normalized terms. Terms are shifted by their maximum before
    exponentiation, so only exp(log_z) may underflow. ``log_extra``, a scalar
    or an array shaped like ``a``, goes into both logs, since
    (1-w)(a+e) + w(b+e) = (1-w)a + wb + e. The evaluator's ``points`` is
    the number of joint-support entries.
    """
    mask = (a > 0) & (b > 0)
    extra = log_extra[mask] if np.ndim(log_extra) else log_extra
    log_a = np.log(a[mask]) + extra
    if not log_a.size:
        raise ValueError("densities have disjoint support; geometric mean vanishes")
    log_ratio = np.log(b[mask]) + extra - log_a
    log_scale = math.log(volume)

    def evaluate(omega: float) -> _Fused:
        logs = log_ratio * omega
        logs += log_a
        log_sum, rel, total = _shifted_sum(logs)
        mean = rel @ log_ratio / total
        spread = log_ratio - mean
        spread *= spread
        curvature = rel @ spread / total
        log_z = float(log_sum + log_scale)
        return _Fused(log_z, float(mean), float(curvature), rel, total, mask, volume, build)

    evaluate.points = log_a.size
    return evaluate


def _shifted_sum(logs: np.ndarray) -> tuple[float, np.ndarray, float]:
    """log sum(exp(logs)), exp(logs - max) and its sum (>= 1: no underflow).
    Overwrites ``logs`` with exp(logs - max)."""
    peak = logs.max()
    logs -= peak
    rel = np.exp(logs, out=logs)
    total = rel.sum()
    return peak + math.log(total), rel, total


def grid_log_moments(rho_i: GridDensity, rho_j: GridDensity) -> Callable[[float], _Fused]:
    """Grid counterpart of ``gaussian._pair``, whose ``density()`` is the
    fused grid on the lattice of ``rho_i``."""
    _check_aligned(rho_i, rho_j)
    return tilted_log_moments(rho_i.values, rho_j.values, partial(GridDensity._trusted, rho_i), rho_i.cell_volume)


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

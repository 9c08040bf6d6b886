"""The normalized geometric mean of two arrays, and grid quadrature.

``tilted_log_moments`` is the one kernel that forms
a^(1-w) b^w / z_w for arrays: grid densities here, count pmfs in
``fusion``, ``solvers`` and ``diagnostics``. It sums terms shifted by their
maximum and gives log z_w, the mean and variance of the log ratio
log b - log a under the fused terms (the first two w-derivatives of
log z_w) and the shifted terms with their sum, which normalize to the fused
terms only when a caller asks for them. For grids z_w = integral
rho_i^(1-w) rho_j^w is a midpoint-rule sum; ``grid_log_moments`` is the
grid pair evaluator, the counterpart of ``gaussian._pair``, and
``fusion.localisation_emd`` reads either to give the fused density and z_w.
``grid_z_omega`` sums z_w exactly with ``math.fsum``, as an oracle for the
kernel."""

from __future__ import annotations

import math
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


class _Tilted(NamedTuple):
    """log z_w, its two w-derivatives, and the shifted terms with their sum."""

    log_z: float
    slope: float
    curvature: float
    rel: np.ndarray
    total: float

    @property
    def weights(self) -> np.ndarray:
        """The terms normalized to unit sum."""
        return self.rel / self.total


def tilted_log_moments(
    log_a: np.ndarray, log_b: np.ndarray, log_scale: float = 0.0
) -> Callable[[float], _Tilted]:
    """w -> (log z_w, d log z_w/dw, d2 log z_w/dw2, rel, total) for
    z_w = exp(log_scale) * sum of exp((1-w) log_a + w log_b).

    ``rel / total`` (the ``weights`` property) are the terms normalized to
    unit sum, i.e. the normalized geometric mean over the joint support; the
    derivatives are the mean and variance of log_b - log_a under them. Terms
    are shifted by their maximum before exponentiation, so nothing underflows
    however small z_w is.
    An extra log term shared by every pair of terms goes into both log_a and
    log_b, since (1-w)(a+e) + w(b+e) = (1-w)a + wb + e.
    """
    if log_a.size == 0:
        raise ValueError("densities have disjoint support; geometric mean vanishes")
    log_ratio = log_b - log_a

    def evaluate(omega: float) -> _Tilted:
        logs = log_ratio * omega
        logs += log_a
        log_sum, rel, total = _shifted_sum(logs)
        mean = rel @ log_ratio / total
        spread = log_ratio - mean
        spread *= spread
        curvature = rel @ spread / total
        return _Tilted(float(log_sum + log_scale), float(mean), float(curvature), rel, total)

    return evaluate


def _shifted_sum(logs: np.ndarray) -> tuple[float, np.ndarray, float]:
    """log sum(exp(logs)), exp(logs - max) and its sum (>= 1: no underflow).
    Overwrites ``logs`` with exp(logs - max)."""
    peak = logs.max()
    logs -= peak
    rel = np.exp(logs, out=logs)
    total = rel.sum()
    return peak + math.log(total), rel, total


class _Fused(NamedTuple):
    """A grid pair at one interior weight: the kernel terms plus what it
    takes to lay them back onto the lattice."""

    log_z: float
    slope: float
    curvature: float
    rel: np.ndarray
    total: float
    mask: np.ndarray
    like: GridDensity

    def density(self) -> GridDensity:
        values = np.zeros(self.like.values.shape)
        values[self.mask] = self.rel / (self.total * self.like.cell_volume)
        return GridDensity._trusted(self.like, values)


def grid_log_moments(rho_i: GridDensity, rho_j: GridDensity) -> Callable[[float], _Fused]:
    """Grid counterpart of ``gaussian._pair``: the logs are taken once over
    the cells where both densities are positive; returns a function of an
    interior weight giving log z_w, its two w-derivatives and, through
    ``density()``, the fused grid."""
    _check_aligned(rho_i, rho_j)
    mask = (rho_i.values > 0) & (rho_j.values > 0)
    moments = tilted_log_moments(
        np.log(rho_i.values[mask]), np.log(rho_j.values[mask]), math.log(rho_i.cell_volume)
    )
    return lambda omega: _Fused(*moments(omega), mask, rho_i)


def grid_z_omega(rho_i: GridDensity, rho_j: GridDensity, omega: float) -> float:
    """Midpoint-rule value of z_w, summed exactly with ``math.fsum``; an
    oracle for the kernel. Cells where either density vanishes contribute
    nothing for w in (0, 1); endpoints integrate the endpoint density
    alone."""
    _check_aligned(rho_i, rho_j)
    vol = rho_i.cell_volume
    if omega == 0.0:
        return math.fsum(rho_i.values.ravel()) * vol
    if omega == 1.0:
        return math.fsum(rho_j.values.ravel()) * vol
    vi = rho_i.values
    vj = rho_j.values
    mask = (vi > 0) & (vj > 0)
    return math.fsum(np.exp((1.0 - omega) * np.log(vi[mask]) + omega * np.log(vj[mask]))) * vol


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

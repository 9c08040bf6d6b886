"""The normalized geometric mean of two arrays, and grid quadrature.

``tilted_log_moments`` is the one evaluator of a^(1-w) b^w / z_w for a pair
of nonnegative arrays: grid densities here, count pmfs in ``fusion`` and
``solvers``. For grids z_w = integral rho_i^(1-w) rho_j^w is a midpoint-rule
sum; ``grid_log_moments`` is the counterpart of ``gaussian._pair``."""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from .model import DISJOINT_SUPPORT, GaussianDensity, GridDensity, IncompatibleInputs


def _check_aligned(rho_i: GridDensity, rho_j: GridDensity) -> None:
    # compared as Python floats: a NaN or inf - inf difference is misaligned
    lattices = zip(rho_i.origin.tolist(), rho_j.origin.tolist(), rho_i.cell_size.tolist(), rho_j.cell_size.tolist())
    same = rho_i.values.shape == rho_j.values.shape and all(
        abs(o_i - o_j) <= 1e-12 and abs(c_i - c_j) <= 1e-12 * c_j for o_i, o_j, c_i, c_j in lattices
    )
    if not same:
        raise ValueError("misaligned grids: origin, cell size and extent must match")


class _Fused:
    """An array pair at one interior weight: ``log_z`` and the terms ``rel``
    over the whole array, with their sum ``total``. The terms are
    a^(1-w) b^w as they stand, or, when their sum left the safe range, the
    same terms divided by the largest; either way they are proportional to
    the fused values, and only ``log_z`` carries the scale. ``slope`` and
    ``curvature``, the mean and variance of q = log b - log a under the terms
    (the first two w-derivatives of log z_w), are formed together on the
    first read of either, from two dot products: slope = E[q] and
    curvature = E[q^2] - slope^2, clipped at 0. The evaluator squares q on
    the first read of any of its evaluations, so a fixed-weight rule, which
    reads no moments, never pays for it. The curvature's rounding error is
    about eps (1 + slope^2 / curvature) relative; at the optimum the slope
    is 0."""

    __slots__ = ("log_z", "rel", "total", "pair", "_moments")

    def __init__(self, log_z: float, rel: np.ndarray, total: float, pair: list):
        self.log_z, self.rel, self.total, self.pair, self._moments = log_z, rel, total, pair, None

    slope = property(lambda self: self._read_moments()[0])
    curvature = property(lambda self: self._read_moments()[1])

    def _read_moments(self) -> tuple[float, float]:
        if self._moments is None:
            pair = self.pair
            if pair[1] is None:
                pair[1] = pair[0] * pair[0]
            slope = float(np.vdot(self.rel, pair[0])) / self.total
            square = float(np.vdot(self.rel, pair[1])) / self.total
            # max(nan, 0.0) keeps a NaN for the solver to reject
            self._moments = slope, max(square - slope * slope, 0.0)
        return self._moments

    def density(self):
        """``build`` of the normalized terms: unit mass, exactly 0 off the joint support."""
        volume, build = self.pair[2:]
        norm = self.total * volume
        if norm < 1e-300:  # z_w underflows, the terms over their sum do not
            return build(self.rel / self.total / volume)
        return build(self.rel / norm)


# A plain sum of terms in this range is safe to use: every term within e^36
# of the largest is then a normal float, and no sum or moment dot product
# can overflow.
_LOW_TOTAL, _HIGH_TOTAL = 1e-100, 1e100


def tilted_log_moments(
    a: np.ndarray, b: np.ndarray, build: Callable, volume: float = 1.0, log_extra: float | np.ndarray = 0.0
) -> Callable[[float], _Fused]:
    """w -> the fused terms of z_w = volume * sum of a^(1-w) b^w exp(log_extra)
    over the entries where both arrays are positive.

    Both whole arrays are logged once, so each evaluation gathers nothing.
    When log b - log a sums to a finite value, both are positive everywhere
    and that is all; otherwise log a = -inf and log b - log a = 0 are stored
    off the joint support, so the terms there are exactly 0. Each
    evaluation exponentiates the terms as they stand and sums them once. A
    sum in [``_LOW_TOTAL``, ``_HIGH_TOTAL``] is used as it is; any other (0,
    inf and NaN included) sends the evaluation to ``_shifted_sum``, which
    forms the terms again shifted by their maximum, so only exp(log_z) may
    underflow and nothing overflows. Neither path warns on finite inputs.
    ``log_extra``, a scalar or an array shaped like ``a``, goes into log a
    alone, since (1-w)(a+e) + w(b+e) = (1-w)a + wb + e. The log ratio is
    squared once, on the first moment read of any evaluation (see
    ``_Fused``). With no ``log_extra`` the arrays are taken to hold at most
    unit mass (volume times sum), so Hoelder's inequality bounds z_w by 1,
    and ``log_z`` is clipped at 0 against rounding. ``points`` counts the
    joint-support entries; with none, it raises ``IncompatibleInputs``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = np.log(a)
        log_ratio = np.log(b)
        log_ratio -= log_a
        full = math.isfinite(log_ratio.sum())  # +inf and -inf sum to NaN
    points = a.size
    if not full:
        off = (a <= 0) | (b <= 0)
        points = off.size - np.count_nonzero(off)
        if not points:
            raise IncompatibleInputs(DISJOINT_SUPPORT)
        log_a[off] = -np.inf
        log_ratio[off] = 0.0
    log_cap = 0.0
    if isinstance(log_extra, np.ndarray) or log_extra:
        log_a += log_extra
        log_cap = math.inf
    log_scale = math.log(volume)
    # q, q^2 (squared on the first moment read), the cell volume and build
    pair = [log_ratio, None, volume, build]

    def evaluate(omega: float) -> _Fused:
        logs = log_ratio * omega
        logs += log_a
        with np.errstate(over="ignore"):
            terms = np.exp(logs, out=logs)
            total = float(terms.sum())
        if _LOW_TOTAL <= total <= _HIGH_TOTAL:
            return _Fused(min(math.log(total) + log_scale, log_cap), terms, total, pair)
        log_sum, rel, total = _shifted_sum(log_ratio * omega + log_a)
        return _Fused(min(float(log_sum + log_scale), log_cap), rel, total, pair)

    evaluate.points = points
    return evaluate


def _shifted_sum(logs: np.ndarray) -> tuple[float, np.ndarray, float]:
    """log sum(exp(logs)), exp(logs - max) and its sum (>= 1: no underflow).
    Overwrites ``logs`` with exp(logs - max)."""
    peak = logs.max()
    logs -= peak
    rel = np.exp(logs, out=logs)
    total = float(rel.sum())
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
    settings. ``points_per_axis`` must be an integer >= 1 (not a bool) and
    ``extent_sigmas`` finite and positive; a lattice too coarse to hold unit
    mass within 1%, or whose box or cell volume passes the float range, is
    rejected by ``GridDensity``, with no warning.
    """
    integer = isinstance(points_per_axis, (int, np.integer)) and not isinstance(points_per_axis, bool)
    if not (integer and points_per_axis >= 1):
        raise ValueError(f"points_per_axis must be an integer >= 1, got {points_per_axis!r}")
    if not (math.isfinite(extent_sigmas) and extent_sigmas > 0):
        raise ValueError(f"extent_sigmas must be finite and positive, got {extent_sigmas!r}")
    if not gaussians:
        raise ValueError("need at least one Gaussian")
    dim = gaussians[0].dim
    if dim > 3:
        raise ValueError("grid discretization supports at most 3 dimensions")
    if any(g.dim != dim for g in gaussians):
        raise ValueError("Gaussian dimensions do not match")
    sig = [np.sqrt(np.diag(g.cov)) for g in gaussians]
    # a box past the float range is left to GridDensity's lattice checks
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.min([g.mean - extent_sigmas * s for g, s in zip(gaussians, sig)], axis=0)
        hi = np.max([g.mean + extent_sigmas * s for g, s in zip(gaussians, sig)], axis=0)
        cell = (hi - lo) / points_per_axis
        axes = [lo[k] + (np.arange(points_per_axis) + 0.5) * cell[k] for k in range(dim)]
    # One block for every input's values, freed as one chunk once the grids
    # have copied theirs out. glibc raises its heap trim threshold to twice
    # the largest chunk freed, so the grid fusions that follow keep their
    # heap instead of trimming and regrowing it on each call: fusing the
    # 200 pairs of a grid-stream pool once took 34k page faults with one
    # chunk per grid and 3.9k with the block (glibc 2.36, 2-vCPU Linux).
    values = np.empty((len(gaussians),) + (points_per_axis,) * dim)
    for g, out in zip(gaussians, values):
        np.exp(g._log_evaluate_lattice(axes), out=out)
    return [GridDensity(lo, cell, v) for v in values]


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

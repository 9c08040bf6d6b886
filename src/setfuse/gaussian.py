"""Closed-form Gaussian operations for weighted geometric-mean fusion.

The weighted geometric mean of two Gaussians is itself Gaussian. In a frame
that diagonalises both covariances at once, its parameters, its scale
factor and the factor's weight derivatives are sums over the coordinates.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .model import GaussianDensity


def _check_pair(rho_i: GaussianDensity, rho_j: GaussianDensity) -> None:
    if rho_i.dim != rho_j.dim:
        raise ValueError("Gaussian dimensions do not match")


class _Fused(NamedTuple):
    """A pair at one weight or an array of weights: log z_w and its two
    w-derivatives, plus the weight and the pair's frame for ``density()``."""

    log_z: float | np.ndarray
    slope: float | np.ndarray
    curvature: float | np.ndarray
    omega: float | np.ndarray
    pair: tuple

    def density(self) -> GaussianDensity:
        """The fused Gaussian at a scalar weight: frame variances
        c_i c_j/s and mean m_i + T (w c_i d/s)."""
        var_i, var_j, delta, frame, origin = self.pair
        w = self.omega
        s = (1.0 - w) * var_j + w * var_i
        cov = (frame * (var_i * var_j / s)) @ frame.T
        return GaussianDensity._trusted(origin + frame @ (w * var_i * delta / s), 0.5 * (cov + cov.T))


def _pair(rho_i: GaussianDensity, rho_j: GaussianDensity) -> Callable[..., _Fused]:
    """Diagonalise both covariances once; returns a function of an interior
    weight w, or of an array of weights.

    L L' = C_i/tr C_i + C_j/tr C_j (the scaling keeps both frame variances
    accurate however the covariances differ) and the eigenvectors U of
    L^-1 C_i L^-T give the frame T = L U, with T^-1 C_k T^-T = diag(c_k).
    With d = T^-1 (m_j - m_i), s = (1-w) c_j + w c_i and r = 1/s, log z_w
    and its w-derivatives, the mean and variance of q = log rho_j - log rho_i
    under the fused Gaussian, are sums over the frame:
    log z_w = 1/2 (w sum(log c_i) + (1-w) sum(log c_j) - sum(log s) - w(1-w) sum(d^2 r)),
    E[q] = 1/2 (sum(log c_i) - sum(log c_j) - sum((c_i - c_j) r)
    - (1-w)^2 sum(c_j d^2 r^2) + w^2 sum(c_i d^2 r^2)),
    Var[q] = sum(1/2 (c_i - c_j)^2 r^2 + c_i c_j d^2 r^3). The five sums
    other than sum(log s) are one product of [r, r^2, r^3] with fixed
    coefficients.
    """
    _check_pair(rho_i, rho_j)
    balanced = rho_i.cov / np.trace(rho_i.cov) + rho_j.cov / np.trace(rho_j.cov)
    chol = np.linalg.cholesky(balanced)
    whiten = np.linalg.inv(chol)
    eigvecs = np.linalg.eigh(whiten @ rho_i.cov @ whiten.T)[1]
    to_frame = eigvecs.T @ whiten
    var_i = ((to_frame @ rho_i.cov) * to_frame).sum(1)
    var_j = ((to_frame @ rho_j.cov) * to_frame).sum(1)
    delta = to_frame @ (rho_j.mean - rho_i.mean)
    pair = (var_i, var_j, delta, chol @ eigvecs, rho_i.mean)
    sum_log_i, sum_log_j = np.log(var_i).sum(), np.log(var_j).sum()
    gap = var_i - var_j
    sq = delta * delta
    coef = np.zeros((3, sq.size, 5))
    coef[0, :, 0], coef[0, :, 1] = sq, gap
    coef[1, :, 2], coef[1, :, 3], coef[1, :, 4] = var_j * sq, var_i * sq, 0.5 * gap * gap
    coef[2, :, 4] = var_i * var_j * sq
    coef = coef.reshape(-1, 5)

    def at(omega):
        w = np.asarray(omega, dtype=float)
        v = 1.0 - w
        s = v[..., None] * var_j + w[..., None] * var_i
        r = 1.0 / s
        r2 = r * r
        sums = np.concatenate([r, r2, r2 * r], -1) @ coef
        # Hoelder guarantees z <= 1; clip roundoff that lands above
        log_z = np.minimum(0.5 * (w * sum_log_i + v * sum_log_j - np.log(s).sum(-1) - w * v * sums[..., 0]), 0.0)
        slope = 0.5 * (sum_log_i - sum_log_j - sums[..., 1] - v * v * sums[..., 2] + w * w * sums[..., 3])
        curvature = sums[..., 4]
        if np.ndim(omega) == 0:
            log_z, slope, curvature = float(log_z), float(slope), float(curvature)
        return _Fused(log_z, slope, curvature, omega, pair)

    return at


def kld(p: GaussianDensity, q: GaussianDensity) -> float:
    """D(p||q) between Gaussians, in nats, from one Cholesky factor of each
    covariance."""
    _check_pair(p, q)
    chol_p = np.linalg.cholesky(p.cov)
    chol_q = np.linalg.cholesky(q.cov)
    # L_q^-1 [L_p, m_p - m_q]: the trace and Mahalanobis terms are its squares
    solved = np.linalg.solve(chol_q, np.column_stack([chol_p, p.mean - q.mean]))
    log_det_ratio = 2.0 * np.sum(np.log(np.diag(chol_q)) - np.log(np.diag(chol_p)))
    val = 0.5 * (log_det_ratio + np.sum(solved * solved) - p.dim)
    return max(float(val), 0.0)


def make_rotated_covariance(kappa: float, det_sigma: float, phi: float) -> np.ndarray:
    """2-D covariance with condition number kappa, determinant det_sigma,
    major axis rotated by phi radians."""
    if kappa < 1.0:
        raise ValueError("condition number must be >= 1")
    if det_sigma <= 0.0:
        raise ValueError("determinant must be positive")
    var1 = math.sqrt(det_sigma * kappa)
    var2 = math.sqrt(det_sigma / kappa)
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag([var1, var2]) @ rot.T


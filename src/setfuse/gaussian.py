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
    """A pair at one weight or an array of weights: log z_w, its two
    w-derivatives, and the fused mean minus m_i and variances in the frame."""

    log_z: float | np.ndarray
    slope: float | np.ndarray
    curvature: float | np.ndarray
    offset: np.ndarray
    variance: np.ndarray
    frame: np.ndarray
    origin: np.ndarray

    def density(self) -> GaussianDensity:
        """The fused Gaussian at a scalar weight."""
        cov = (self.frame * self.variance) @ self.frame.T
        return GaussianDensity(self.origin + self.frame @ self.offset, cov)


def _pair(rho_i: GaussianDensity, rho_j: GaussianDensity) -> Callable[..., _Fused]:
    """Diagonalise both covariances once; returns a function of an interior
    weight w, or of an array of weights.

    L L' = C_i/tr C_i + C_j/tr C_j (the scaling keeps both frame variances
    accurate however the covariances differ) and the eigenvectors U of
    L^-1 C_i L^-T give the frame T = L U, with T^-1 C_k T^-T = diag(c_k).
    With d = T^-1 (m_j - m_i) and s = (1-w) c_j + w c_i, log z_w and its
    w-derivatives, the mean and variance of q = log rho_j - log rho_i under
    the fused Gaussian, are sums over the frame:
    log z_w = 1/2 sum(w log c_i + (1-w) log c_j - log s - w(1-w) d^2/s),
    E[q] = 1/2 sum(log(c_i/c_j) - (c_i - c_j + ((1-w)^2 c_j - w^2 c_i) d^2/s)/s),
    Var[q] = sum((1/2 (c_i - c_j)^2 + c_i c_j d^2/s)/s^2). The fused
    Gaussian has frame variances c_i c_j/s and mean m_i + T (w c_i d/s).
    """
    _check_pair(rho_i, rho_j)
    balanced = rho_i.cov / np.trace(rho_i.cov) + rho_j.cov / np.trace(rho_j.cov)
    whiten = np.linalg.inv(np.linalg.cholesky(balanced))
    to_frame = np.linalg.eigh(whiten @ rho_i.cov @ whiten.T)[1].T @ whiten
    var_i, var_j = np.einsum("ak,nkl,al->na", to_frame, np.stack([rho_i.cov, rho_j.cov]), to_frame)
    delta = to_frame @ (rho_j.mean - rho_i.mean)
    frame = np.linalg.inv(to_frame)
    log_i, log_j = np.log(var_i), np.log(var_j)
    gap = var_i - var_j
    sq = delta * delta

    def at(omega):
        w = np.asarray(omega, dtype=float)[..., None]
        v = 1.0 - w
        s = v * var_j + w * var_i
        q = sq / s
        # Hoelder guarantees z <= 1; clip roundoff that lands above
        log_z = np.minimum(0.5 * np.sum(w * log_i + v * log_j - np.log(s) - w * v * q, -1), 0.0)
        slope = 0.5 * np.sum(log_i - log_j - (gap + (v * v * var_j - w * w * var_i) * q) / s, -1)
        curvature = np.sum((0.5 * gap * gap + var_i * var_j * q) / (s * s), -1)
        if np.ndim(omega) == 0:
            log_z, slope, curvature = float(log_z), float(slope), float(curvature)
        return _Fused(log_z, slope, curvature, w * var_i * delta / s, var_i * var_j / s, frame, rho_i.mean)

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


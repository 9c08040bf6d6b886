"""Closed-form Gaussian operations for weighted geometric-mean fusion.

The weighted geometric mean of two Gaussians is itself Gaussian; its
parameters and normalizing scale factor have closed forms in terms of the
information (inverse covariance) matrices.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .model import GaussianDensity


def _inverse(cov: np.ndarray) -> np.ndarray:
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance is singular or not positive definite") from exc
    inv = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(cov.shape[0])))
    return 0.5 * (inv + inv.T)


def _check_pair(rho_i: GaussianDensity, rho_j: GaussianDensity) -> None:
    if rho_i.dim != rho_j.dim:
        raise ValueError("Gaussian dimensions do not match")


class _Fused(NamedTuple):
    log_z: float
    slope: float
    curvature: float
    mean: np.ndarray
    cov: np.ndarray

    def density(self) -> GaussianDensity:
        return GaussianDensity(self.mean, self.cov)


def _pair(rho_i: GaussianDensity, rho_j: GaussianDensity) -> Callable[[float], _Fused]:
    """Information-form computation for a pair, inverting both covariances
    once; returns a function of an interior weight w.

    With P = C^-1, the fused Gaussian has C_w = ((1-w) P_i + w P_j)^-1 and
    information-weighted mean m_w. q = log rho_j - log rho_i =
    -1/2 x'Ax + b'x + c with A = P_j - P_i, b = P_j m_j - P_i m_i is
    quadratic, so the w-derivatives of log z_w, the mean and variance of q
    under the fused Gaussian, are closed form:
    E[q] = -1/2 (tr(A C_w) + m_w'A m_w) + b'm_w + c and
    Var[q] = 1/2 tr(A C_w A C_w) + g'C_w g with g = b - A m_w.
    """
    _check_pair(rho_i, rho_j)
    info_i = _inverse(rho_i.cov)
    info_j = _inverse(rho_j.cov)
    shift_i = info_i @ rho_i.mean
    shift_j = info_j @ rho_j.mean
    quad_i = rho_i.mean @ shift_i
    quad_j = rho_j.mean @ shift_j
    logdet_i = np.linalg.slogdet(info_i)[1]
    logdet_j = np.linalg.slogdet(info_j)[1]
    a = info_j - info_i
    b = shift_j - shift_i
    c = 0.5 * (logdet_j - logdet_i - quad_j + quad_i)

    def at(omega: float) -> _Fused:
        info_w = (1.0 - omega) * info_i + omega * info_j
        cov_w = _inverse(info_w)
        mean_w = cov_w @ ((1.0 - omega) * shift_i + omega * shift_j)
        quad = (1.0 - omega) * quad_i + omega * quad_j - mean_w @ info_w @ mean_w
        log_det = (1.0 - omega) * logdet_i + omega * logdet_j + np.linalg.slogdet(cov_w)[1]
        # Hoelder guarantees z <= 1; clip roundoff that lands above
        log_z = min(float(0.5 * log_det - 0.5 * quad), 0.0)
        a_cov = a @ cov_w
        g = b - a @ mean_w
        slope = -0.5 * (np.trace(a_cov) + mean_w @ a @ mean_w) + b @ mean_w + c
        curvature = 0.5 * np.sum(a_cov * a_cov.T) + g @ cov_w @ g
        return _Fused(log_z, float(slope), float(curvature), mean_w, cov_w)

    return at


def kld(p: GaussianDensity, q: GaussianDensity) -> float:
    """D(p||q) between Gaussians, in nats."""
    _check_pair(p, q)
    info_q = _inverse(q.cov)
    delta = p.mean - q.mean
    val = 0.5 * (
        np.linalg.slogdet(q.cov)[1]
        - np.linalg.slogdet(p.cov)[1]
        + np.trace(info_q @ p.cov)
        + delta @ info_q @ delta
        - p.dim
    )
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


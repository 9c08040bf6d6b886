"""Closed-form Gaussian operations for weighted geometric-mean fusion.

The weighted geometric mean of two Gaussians is itself Gaussian. In a frame
that diagonalises both covariances at once, its parameters, its scale
factor and the factor's weight derivatives are sums over the coordinates,
accumulated one coordinate at a time by the same expressions for a single
weight and for an array of weights.
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
        frame, to_space, origin = self.pair
        w = self.omega
        s = [(1.0 - w) * c_j + w * c_i for c_i, c_j, _ in frame]
        var = [c_i * c_j / s_k for (c_i, c_j, _), s_k in zip(frame, s)]
        shift = [w * c_i * d / s_k for (c_i, _, d), s_k in zip(frame, s)]
        cov = (to_space * var) @ to_space.T
        return GaussianDensity._trusted(origin + to_space @ shift, 0.5 * (cov + cov.T))


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
    Var[q] = sum(1/2 (c_i - c_j)^2 r^2 + c_i c_j d^2 r^3). The frame is kept
    once, as a (c_i, c_j, d) triple of floats per coordinate; one loop over
    them squares d and accumulates sum(log s), sum(log c_i), sum(log c_j)
    and the five other sums. The same statements run in Python floats, with
    ``math.log``, for a scalar weight (a float, a numpy scalar or a 0-d
    array), and broadcast over an array of weights, with ``np.log``. Each
    term is formed from the ratios c_i r, c_j r and d^2 r, and log s is
    summed per coordinate, never as the log of a product, so no
    intermediate under- or overflows at extreme covariance scales.
    """
    _check_pair(rho_i, rho_j)
    cov_i, cov_j = rho_i.cov, rho_j.cov
    chol = np.linalg.cholesky(cov_i / cov_i.trace() + cov_j / cov_j.trace())
    whiten = np.linalg.inv(chol)
    eigvecs = np.linalg.eigh(whiten @ cov_i @ whiten.T)[1]
    to_frame = eigvecs.T @ whiten
    var_i = ((to_frame @ cov_i) * to_frame).sum(1)
    var_j = ((to_frame @ cov_j) * to_frame).sum(1)
    delta = to_frame @ (rho_j.mean - rho_i.mean)
    frame = list(zip(var_i.tolist(), var_j.tolist(), delta.tolist()))
    pair = (frame, chol @ eigvecs, rho_i.mean)

    def at(w):
        if isinstance(w, np.ndarray) and w.ndim:
            log = np.log
        else:
            w, log = float(w), math.log
        v = 1.0 - w
        log_s = sum_log_i = sum_log_j = mahal = gap = tilt_j = tilt_i = curvature = 0.0
        for c_i, c_j, d in frame:
            s = v * c_j + w * c_i
            r = 1.0 / s
            a, b, e, g = c_i * r, c_j * r, d * d * r, (c_i - c_j) * r
            # summed in one order with one log, so that w = 0 and w = 1
            # give log z = 0 exactly
            log_s += log(s)
            sum_log_i += log(c_i)
            sum_log_j += log(c_j)
            mahal += e
            gap += g
            tilt_j += b * e
            tilt_i += a * e
            curvature += 0.5 * g * g + a * b * e
        log_z = 0.5 * (w * sum_log_i + v * sum_log_j - log_s - w * v * mahal)
        slope = 0.5 * (sum_log_i - sum_log_j - gap - v * v * tilt_j + w * w * tilt_i)
        # Hoelder guarantees z <= 1; clip roundoff that lands above
        return _Fused(np.minimum(log_z, 0.0) if log is np.log else min(log_z, 0.0), slope, curvature, w, pair)

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


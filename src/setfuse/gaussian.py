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
from numpy.linalg import LinAlgError, _umath_linalg

from .model import GaussianDensity, IncompatibleInputs

PAIR_LIMIT = 1e300


def _factorisation_failed(err, flag):
    raise LinAlgError("Gaussian pair frame: factorisation failed")


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
        """The fused Gaussian at a scalar weight, r = 1/s: frame variances
        min(c_i, c_j) (max(c_i, c_j) r), a ratio in [1, 1/min(w, 1-w)], and
        mean m_i + T (w (c_i r) d), so no product overflows or underflows."""
        frame, to_space, origin = self.pair
        w = self.omega
        r = [1.0 / ((1.0 - w) * c_j + w * c_i) for c_i, c_j, _ in frame]
        var = [c_i * (c_j * r_k) if c_i < c_j else c_j * (c_i * r_k) for (c_i, c_j, _), r_k in zip(frame, r)]
        shift = [w * (c_i * r_k) * d for (c_i, _, d), r_k in zip(frame, r)]
        cov = (to_space * var) @ to_space.T
        cov += cov.T
        cov *= 0.5
        return GaussianDensity._trusted(origin + to_space @ shift, cov)


def _pair(rho_i: GaussianDensity, rho_j: GaussianDensity) -> Callable[..., _Fused]:
    """Diagonalise both covariances once; returns a function of an interior
    weight w, or of an array of weights.

    L L' = C_i/tr C_i + C_j/tr C_j (the scaling keeps both frame variances
    accurate however the covariances differ) and the eigenvectors U of
    L^-1 C_i L^-T give the frame T = L U, with T^-1 C_k T^-T = diag(c_k).
    L, L^-1 and U come from the LAPACK kernels that ``np.linalg.cholesky``,
    ``inv`` and ``eigh`` wrap, the gufuncs ``cholesky_lo``, ``inv`` and
    ``eigh_lo``, called with the wrappers' signature and error state: the
    same kernels on the same inputs give the same bits, and a failed
    factorisation raises ``LinAlgError`` as before. The inputs are known to
    be square float arrays, and on these small matrices the wrappers' own
    checks and error-state switches cost more than the kernels: on a 2x2
    matrix the three wrappers took 13.4-13.9 us and the three kernels in
    one error state 5.4-6.6 us (x86-64, numpy 2.4).
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

    The d^2 terms can overflow: at every weight d^2 r is at most
    d^2 / min(c_i, c_j). When that passes 2^960, the loop also runs on d
    and c_i - c_j times 2^-p, with 2^p above every
    |d| / sqrt(min(c_i, c_j)). Nothing overflows there, and the slope and
    curvature come out divided by 2^2p, which keeps the Newton step and
    the sign of the slope. An evaluation whose plain slope or curvature is
    not finite takes the scaled one instead: its log z_w is the d^2 term
    scaled back, -inf where that overflows and 0 at w = 0 and w = 1.
    Every other evaluation is the plain one. ``density()`` works from d as
    it is. A mean coordinate or covariance trace past PAIR_LIMIT, where the
    frame's products overflow, raises ``IncompatibleInputs``.
    """
    _check_pair(rho_i, rho_j)
    cov_i, cov_j = rho_i.cov, rho_j.cov
    # summed as Python floats, so a trace past the float range is inf with no warning
    tr_i, tr_j = sum(cov_i.diagonal().tolist()), sum(cov_j.diagonal().tolist())
    if max(tr_i, tr_j, *map(abs, rho_i.mean.tolist() + rho_j.mean.tolist())) > PAIR_LIMIT:
        raise IncompatibleInputs(f"Gaussian means and covariance traces must lie within {PAIR_LIMIT:g} to be fused")
    with np.errstate(call=_factorisation_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        chol = _umath_linalg.cholesky_lo(cov_i / tr_i + cov_j / tr_j, signature="d->d")
        whiten = _umath_linalg.inv(chol, signature="d->d")
        eigvecs = _umath_linalg.eigh_lo(whiten @ cov_i @ whiten.T, signature="d->dd")[1]
    to_frame = eigvecs.T @ whiten
    var_i = ((to_frame @ cov_i) * to_frame).sum(1)
    var_j = ((to_frame @ cov_j) * to_frame).sum(1)
    delta = to_frame @ (rho_j.mean - rho_i.mean)
    frame = list(zip(var_i.tolist(), var_j.tolist(), delta.tolist()))
    pair = (frame, chol @ eigvecs, rho_i.mean)
    plain = _sums(frame, pair, 0)
    # d^2 r <= d^2 / min(c_i, c_j) at every weight: below 2^960, the plain
    # sums overflow only where w(1-w) < 2^-64
    if max([d * d / min(c_i, c_j) for c_i, c_j, d in frame]) <= 2.0**960:
        return plain
    p = 1 + max(math.frexp(d)[1] - math.frexp(math.sqrt(min(c_i, c_j)))[1] for c_i, c_j, d in frame)
    scaled = _sums(frame, pair, p)

    def at(w):
        with np.errstate(over="ignore", invalid="ignore"):
            fused = plain(w)
            # log z_w is NaN only where the slope is too (0 * inf in both)
            ok = np.isfinite(fused.slope) & np.isfinite(fused.curvature)
            if ok.all():
                return fused
            if not ok.shape:
                return scaled(w)
            far = scaled(w)
            return _Fused(*(np.where(ok, x, y) for x, y in zip(fused[:3], far[:3])), fused.omega, pair)

    return at


def _sums(frame: list, pair: tuple, p: int) -> Callable[..., _Fused]:
    """The evaluator of ``_pair`` on d and c_i - c_j times 2^-p, which gives
    the slope and curvature divided by 2^2p; p = 0 is the plain one."""
    terms, shrink, grow = frame, 1.0, 1.0
    if p:
        terms = [(c_i, c_j, math.ldexp(d, -p)) for c_i, c_j, d in frame]
        shrink, grow = math.ldexp(1.0, -p), math.ldexp(1.0, min(p, 1023))

    def at(w):
        if isinstance(w, np.ndarray) and w.ndim:
            log = np.log
        else:
            w, log = float(w), math.log
        v = 1.0 - w
        log_s = sum_log_i = sum_log_j = mahal = gap = tilt_j = tilt_i = curvature = 0.0
        for c_i, c_j, d in terms:
            s = v * c_j + w * c_i
            r = 1.0 / s
            a, b, e, g = c_i * r, c_j * r, d * d * r, (c_i - c_j) * r * shrink
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
        # at p = 0 every scale factor is 1.0, which leaves the bits alone
        log_z = 0.5 * (w * sum_log_i + v * sum_log_j - log_s - w * v * mahal * grow * grow)
        slope = 0.5 * ((sum_log_i - sum_log_j) * shrink * shrink - gap * shrink - v * v * tilt_j + w * w * tilt_i)
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


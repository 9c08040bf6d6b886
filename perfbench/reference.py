"""Reference computations that share no code with setfuse.

The program works in information form (inverse covariances); the Gaussian
reference here uses the covariance form of the Chernoff coefficient and
stays in log space, so it still gives a finite answer for pairs so far
apart that z_w underflows to 0. Optimal weights come from bisection on
the sign of the objective's closed-form derivative instead of Newton
iterations, and the joint and consistent cardinality rules are recomputed
from those values. The sign of a derivative stays exact where the
objective is too flat for a search on its values: two nearly equal inputs
give an objective that changes by less than its rounding error over
widths of 1e-3 around the optimum.

Only numpy and math are used, so the checks cannot inherit a fault from
the module they check. The comparison helpers used by every check are
here too.
"""

from __future__ import annotations

import math

import numpy as np

# Newton stops once a step is below epsilon = 1e-4 and the Gaussian
# curvature is a Monte Carlo estimate; over 36,000 seeded pairs the solved
# weights stayed within 3e-5 of the reference, 30 times inside this.
WEIGHT_TOL = 1e-3


class CheckFailed(AssertionError):
    """A program output disagrees with its reference."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(a: float, b: float, rel: float = 1e-7, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def z_matches(z: float, log_z_ref: float, rel: float = 1e-7) -> bool:
    """Program z_w against a log-space reference; a z that underflowed is
    accepted only when the reference is below exp's range too."""
    if z > 1e-300:
        return abs(math.log(z) - log_z_ref) <= rel * max(1.0, abs(log_z_ref))
    return log_z_ref < -690.0


def gauss_log_z(mean_i, cov_i, mean_j, cov_j, w: float) -> float:
    """log of the integral of N_i^(1-w) N_j^w in covariance form.

    log z_w = -1/2 [ w(1-w) d' S^-1 d + log|S| - w log|C_i| - (1-w) log|C_j| ]
    with S = w C_i + (1-w) C_j and d = m_j - m_i.
    """
    if w <= 0.0 or w >= 1.0:
        return 0.0
    cov_i = np.asarray(cov_i, dtype=float)
    cov_j = np.asarray(cov_j, dtype=float)
    delta = np.asarray(mean_j, dtype=float) - np.asarray(mean_i, dtype=float)
    s = w * cov_i + (1.0 - w) * cov_j
    maha = float(delta @ np.linalg.solve(s, delta))
    logdet = (
        np.linalg.slogdet(s)[1]
        - w * np.linalg.slogdet(cov_i)[1]
        - (1.0 - w) * np.linalg.slogdet(cov_j)[1]
    )
    return -0.5 * (w * (1.0 - w) * maha + float(logdet))


def grid_log_z(values_i: np.ndarray, values_j: np.ndarray, cell_volume: float, w: float) -> float:
    """log of the midpoint-rule z_w of two aligned grids, with a log-sum-exp
    over the cells where both densities are positive."""
    if w <= 0.0 or w >= 1.0:
        return 0.0
    vi = values_i.ravel()
    vj = values_j.ravel()
    both = (vi > 0) & (vj > 0)
    logs = (1.0 - w) * np.log(vi[both]) + w * np.log(vj[both])
    peak = float(logs.max())
    return peak + math.log(float(np.exp(logs - peak).sum()) * cell_volume)


def gauss_log_z_slope(mean_i, cov_i, mean_j, cov_j, w: float) -> float:
    """d/dw of ``gauss_log_z``; with S' = C_i - C_j and u = S^-1 d it is
    -1/2 [ (1-2w) d'u - w(1-w) u'S'u + tr(S^-1 S') - log|C_i| + log|C_j| ]."""
    cov_i = np.asarray(cov_i, dtype=float)
    cov_j = np.asarray(cov_j, dtype=float)
    delta = np.asarray(mean_j, dtype=float) - np.asarray(mean_i, dtype=float)
    s = w * cov_i + (1.0 - w) * cov_j
    ds = cov_i - cov_j
    u = np.linalg.solve(s, delta)
    trace = float(np.trace(np.linalg.solve(s, ds)))
    logdets = np.linalg.slogdet(cov_i)[1] - np.linalg.slogdet(cov_j)[1]
    return -0.5 * ((1.0 - 2.0 * w) * float(delta @ u) - w * (1.0 - w) * float(u @ ds @ u) + trace - float(logdets))


def _tilted_mean(log_a: np.ndarray, log_b: np.ndarray, w: float) -> float:
    """Mean of log b - log a under the weights a^(1-w) b^w, normalised;
    this is d/dw of log sum a^(1-w) b^w."""
    logs = (1.0 - w) * log_a + w * log_b
    rel = np.exp(logs - logs.max())
    return float(rel @ (log_b - log_a)) / float(rel.sum())


def grid_log_z_slope(values_i: np.ndarray, values_j: np.ndarray, w: float) -> float:
    """d/dw of ``grid_log_z``."""
    vi = values_i.ravel()
    vj = values_j.ravel()
    both = (vi > 0) & (vj > 0)
    return _tilted_mean(np.log(vi[both]), np.log(vj[both]), w)


def weight(slope, lo: float = 0.0, hi: float = 1.0, tol: float = 1e-12) -> float:
    """Maximiser on [lo, hi] of a concave objective, found by bisection on
    the sign of its derivative ``slope``."""
    if slope(lo) <= 0.0:
        return lo
    if slope(hi) >= 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gauss_weight(mean_i, cov_i, mean_j, cov_j) -> float:
    """Weight maximising -log z_w of two Gaussians."""
    return weight(lambda w: -gauss_log_z_slope(mean_i, cov_i, mean_j, cov_j, w))


def grid_weight(values_i: np.ndarray, values_j: np.ndarray) -> float:
    """Weight maximising -log z_w of two aligned grids."""
    return weight(lambda w: -grid_log_z_slope(values_i, values_j, w))


def joint_logs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices of the joint support of two pmfs and their logs there."""
    n = max(a.size, b.size)
    a = np.pad(a, (0, n - a.size))
    b = np.pad(b, (0, n - b.size))
    both = np.flatnonzero((a > 0) & (b > 0))
    return both, np.log(a[both]), np.log(b[both])


def card_weight(a: np.ndarray, b: np.ndarray) -> float:
    """Weight maximising -log of the pmf geometric-mean normaliser."""
    _, la, lb = joint_logs(a, b)
    return weight(lambda w: -_tilted_mean(la, lb, w))


def poisson_weight(rate_i: float, rate_j: float) -> float:
    """Weight maximising (1-w) l_i + w l_j - l_i^(1-w) l_j^w, which is -log of
    the normaliser of the geometric mean of two Poisson pmfs."""
    log_ratio = math.log(rate_j / rate_i)
    return weight(lambda w: rate_j - rate_i - rate_i ** (1.0 - w) * rate_j**w * log_ratio)


def bernoulli_joint(alpha_i: float, alpha_j: float, w: float, log_z: float) -> float:
    """Joint (P2) fused existence probability from log z_w."""
    log_present = (1.0 - w) * math.log(alpha_i) + w * math.log(alpha_j) + log_z
    log_absent = (1.0 - w) * math.log1p(-alpha_i) + w * math.log1p(-alpha_j)
    odds = log_present - log_absent
    if odds < 0.0:
        return math.exp(odds) / (1.0 + math.exp(odds))
    return 1.0 / (1.0 + math.exp(-odds))


def poisson_joint(rate_i: float, rate_j: float, w: float, log_z: float) -> float:
    """Joint (P2) fused Poisson rate from log z_w."""
    return math.exp((1.0 - w) * math.log(rate_i) + w * math.log(rate_j) + log_z)


def iid_joint(a: np.ndarray, b: np.ndarray, w: float, log_z: float) -> np.ndarray:
    """Joint (P2) fused count pmf p_w(n) ~ a^(1-w) b^w z^n, on 0..max support."""
    both, la, lb = joint_logs(a, b)
    logs = (1.0 - w) * la + w * lb + both * log_z
    rel = np.exp(logs - logs.max())
    out = np.zeros(max(a.size, b.size))
    out[both] = rel / rel.sum()
    return out


def bernoulli_bound(alpha_i: float, alpha_j: float, w: float) -> float:
    """Scale z at which the joint fused existence equals min(alpha_i, alpha_j),
    solved from the joint rule: below it the fused existence is smaller."""
    target = min(alpha_i, alpha_j)
    log_present = (1.0 - w) * math.log(alpha_i) + w * math.log(alpha_j)
    log_absent = (1.0 - w) * math.log1p(-alpha_i) + w * math.log1p(-alpha_j)
    return math.exp(log_absent - log_present + math.log(target) - math.log1p(-target))

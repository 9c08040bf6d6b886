import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import setfuse as sf
from setfuse import quadrature

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# the search run of tests/test_cli_fuzz.py: pytest --hypothesis-profile=cli-fuzz
settings.register_profile("cli-fuzz", settings.get_profile("default"), max_examples=4000)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_gaussian(rng, dim=2, mean_scale=1.0, var_lo=0.3, var_hi=1.5):
    """Random well-conditioned Gaussian for property tests."""
    mean = rng.uniform(-mean_scale, mean_scale, dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cov = q @ np.diag(rng.uniform(var_lo, var_hi, dim)) @ q.T
    return sf.GaussianDensity(mean, 0.5 * (cov + cov.T))


def solve_log_density(g, points):
    """Gaussian log density at the rows of ``points`` by a general solve with
    the Cholesky factor, on point-major offsets: an oracle for
    ``GaussianDensity.log_evaluate``."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    chol = np.linalg.cholesky(g.cov)
    w = np.linalg.solve(chol, (x - g.mean).T)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (g.dim * math.log(2 * math.pi) + logdet + np.sum(w * w, axis=0))


def random_pmf(rng, size, min_prob=0.0):
    """Random normalized pmf of the given support size."""
    raw = rng.uniform(min_prob, 1.0, size)
    return sf.CardinalityPmf(raw / raw.sum())


def binomial_pmf(k, p):
    """Binomial count pmf as a CardinalityPmf (scipy oracle, renormalized)."""
    from scipy.stats import binom

    raw = binom.pmf(np.arange(k + 1), k, p)
    return sf.CardinalityPmf(raw / raw.sum())


def grid_z_omega(rho_i, rho_j, omega):
    """Midpoint-rule value of z_w, summed exactly with ``math.fsum``; an
    oracle for ``quadrature.grid_log_moments``. Cells where either density
    vanishes contribute nothing for w in (0, 1); endpoints integrate the
    endpoint density alone."""
    quadrature._check_aligned(rho_i, rho_j)
    vol = rho_i.cell_volume
    if omega == 0.0:
        return math.fsum(rho_i.values.ravel()) * vol
    if omega == 1.0:
        return math.fsum(rho_j.values.ravel()) * vol
    vi = rho_i.values
    vj = rho_j.values
    mask = (vi > 0) & (vj > 0)
    return math.fsum(np.exp((1.0 - omega) * np.log(vi[mask]) + omega * np.log(vj[mask]))) * vol


def disjoint_grids():
    """Aligned 20 x 20 grids of unit mass with no cell where both are
    positive: the left half of one, the right half of the other."""
    values = np.zeros((2, 20, 20))
    values[0, :10] = values[1, 10:] = 0.5
    return [sf.GridDensity(np.zeros(2), [0.1, 0.1], v) for v in values]


def gathered_moments(a, b, omega, volume=1.0, log_extra=0.0):
    """The array-pair evaluator's outputs at an interior weight, computed
    over the gathered joint-support entries and summed with ``math.fsum``:
    an oracle for ``quadrature.tilted_log_moments``. Returns log z_w, its
    two w-derivatives, the fused values on the full array (0 off the joint
    support) and the number of joint-support entries."""
    mask = (a > 0) & (b > 0)
    log_a = np.log(a[mask]) + np.broadcast_to(log_extra, a.shape)[mask]
    log_ratio = np.log(b[mask]) - np.log(a[mask])
    logs = log_a + omega * log_ratio
    peak = logs.max()
    terms = np.exp(logs - peak)
    total = math.fsum(terms)
    weights = terms / total
    slope = math.fsum(weights * log_ratio)
    curvature = math.fsum(weights * (log_ratio - slope) ** 2)
    values = np.zeros(a.shape)
    values[mask] = weights / volume
    return peak + math.log(total) + math.log(volume), slope, curvature, values, int(mask.sum())


def check_outcome(call, expected):
    """``call()`` raises ``expected``, an (exception type, exact message)
    pair, or returns a value equal to ``expected``."""
    if isinstance(expected, tuple):
        with pytest.raises(expected[0]) as caught:
            call()
        assert str(caught.value) == expected[1]
    else:
        assert call() == expected

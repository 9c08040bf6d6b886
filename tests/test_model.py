import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import setfuse as sf
from conftest import check_outcome, make_gaussian, solve_log_density


class TestCardinalityPmf:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sf.CardinalityPmf([0.5, -0.1, 0.6])

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError, match="sum to 1"):
            sf.CardinalityPmf([0.5, 0.4])

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            sf.CardinalityPmf([math.nan, 1.0])
        with pytest.raises(ValueError, match="finite"):
            sf.CardinalityPmf([math.inf, 1.0])

    def test_basic_accessors(self):
        pmf = sf.CardinalityPmf([0.2, 0.0, 0.8])
        assert pmf.n_max == 2
        assert pmf.prob(2) == 0.8
        assert pmf.prob(7) == 0.0
        assert list(pmf.support()) == [0, 2]
        assert pmf.map_estimate() == 2
        assert pmf.mean() == pytest.approx(1.6)

    def test_padded_refuses_to_drop_mass(self):
        pmf = sf.CardinalityPmf([0.2, 0.0, 0.8])
        assert pmf.padded(4).size == 5
        with pytest.raises(ValueError, match="truncate"):
            pmf.padded(1)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=12))
    def test_any_normalized_vector_is_accepted(self, raw):
        raw = np.asarray(raw)
        pmf = sf.CardinalityPmf(raw / raw.sum())
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_probs_are_immutable(self):
        pmf = sf.CardinalityPmf([0.5, 0.5])
        with pytest.raises(ValueError):
            pmf.probs[0] = 1.0


class TestGaussianDensity:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match="symmetric"):
            sf.GaussianDensity([0.0, 0.0], [[1.0, 0.2], [0.1, 1.0]])

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="positive definite"):
            sf.GaussianDensity([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_zero_covariance_without_a_warning(self):
        # scaled by its largest entry, an all-zero covariance would be 0 / 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="positive definite"):
                sf.GaussianDensity([0, 0], np.zeros((2, 2)))
        assert not caught, [str(w.message) for w in caught]

    def test_rejects_non_finite_parameters(self):
        with pytest.raises(ValueError, match="finite"):
            sf.GaussianDensity([math.nan, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            sf.GaussianDensity([0.0, 0.0], [[math.inf, 0.0], [0.0, 1.0]])

    def test_rejects_extreme_condition_number(self):
        with pytest.raises(ValueError, match="condition"):
            sf.GaussianDensity([0.0, 0.0], np.diag([1e14, 1.0]))

    def test_evaluate_matches_scipy(self, rng):
        from scipy.stats import multivariate_normal

        g = make_gaussian(rng)
        pts = rng.uniform(-2, 2, (50, 2))
        expected = multivariate_normal(g.mean, g.cov).pdf(pts)
        np.testing.assert_allclose(g.evaluate(pts), expected, rtol=1e-12)

    def test_sample_moments_and_determinism(self):
        g = sf.GaussianDensity([0.0, 0.0], np.eye(2))
        draws = g.sample(np.random.default_rng(7), 10**5)
        assert np.abs(draws.mean(axis=0)).max() < 0.02
        again = g.sample(np.random.default_rng(7), 10**5)
        np.testing.assert_array_equal(draws, again)
        assert g.sample(np.random.default_rng(0), 1).shape == (1, 2)


class TestGridDensity:
    def test_renormalizes_small_error_and_rejects_large(self):
        vals = np.full((10,), 1.004)
        grid = sf.GridDensity([0.0], [0.1], vals)
        assert grid.values.sum() * grid.cell_volume == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="renormalize"):
            sf.GridDensity([0.0], [0.1], np.full((10,), 1.2))

    def test_rejects_non_finite_values(self):
        for bad in (math.nan, math.inf):
            vals = np.full(10, 1.0)
            vals[3] = bad
            with pytest.raises(ValueError, match="grid mass"):
                sf.GridDensity([0.0], [0.1], vals)

    def test_overflowing_cell_volume_is_a_mass_error(self):
        # the volume is an overflow, not a warning: the mass check rejects it
        with pytest.raises(ValueError, match="grid mass inf too far from 1"):
            sf.GridDensity([0.0, 0.0], [1e200, 1e200], np.ones((2, 2)))

    def test_evaluate_inside_and_outside(self):
        grid = sf.GridDensity([0.0, 0.0], [0.5, 0.5], np.full((2, 2), 1.0))
        assert grid.evaluate([[0.25, 0.25]])[0] == pytest.approx(1.0)
        assert grid.evaluate([[5.0, 0.0]])[0] == 0.0

    def test_sampling_stays_in_support_and_is_deterministic(self):
        vals = np.array([0.0, 2.0, 0.0, 0.0])
        grid = sf.GridDensity([0.0], [0.5], vals)
        draws = grid.sample(np.random.default_rng(3), 200)
        assert np.all((draws >= 0.5) & (draws < 1.0))
        again = grid.sample(np.random.default_rng(3), 200)
        np.testing.assert_array_equal(draws, again)


LOCALISATIONS = {
    "gaussian": sf.GaussianDensity([0.5, -0.25], [[1.0, 0.3], [0.3, 0.5]]),
    "grid": sf.GridDensity([-1.0, -1.0], [0.5, 0.5], np.full((4, 4), 0.25)),
}
EPS = np.finfo(float).eps


@pytest.mark.parametrize("kind", sorted(LOCALISATIONS))
class TestPointSetContract:
    """Points are (k, d) or (d,) with finite coordinates; a finite point far
    away has density 0 and no warning escapes (warnings are errors here)."""

    @pytest.mark.parametrize(
        "points",
        [np.zeros((5, 2, 1)), np.zeros((4, 3)), np.zeros((2, 1)), np.zeros(3), 0.0],
        ids=["5x2x1", "4x3", "2x1", "3", "scalar"],
    )
    def test_rejects_points_not_shaped_k_by_d(self, kind, points):
        with pytest.raises(ValueError, match=r"shaped \(k, 2\) or \(2,\)"):
            LOCALISATIONS[kind].evaluate(points)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coordinates(self, kind, bad):
        for points in ([[bad, 0.0]], [[0.0, 0.0], [0.0, bad]], [bad, 0.0]):
            with pytest.raises(ValueError, match="points must be finite"):
                LOCALISATIONS[kind].evaluate(points)

    @pytest.mark.parametrize(
        "far", [[1e200, 0.0], [1e300, 0.0], [0.0, -1e300], [-1.7e308, 1.7e308], [1.7e308, 1.7e308]]
    )
    def test_far_point_has_zero_density(self, kind, far):
        density = LOCALISATIONS[kind]
        values = density.evaluate([far, [0.0, 0.0]])
        assert values[0] == 0.0 and values[1] > 0.0
        assert density.log_evaluate(far)[0] == -math.inf

    def test_single_point_empty_and_batched_rows_agree(self, kind):
        density = LOCALISATIONS[kind]
        rows = np.random.default_rng(8).uniform(-1.0, 1.0, (40, 2))
        batched = density.evaluate(rows)
        for row, value in zip(rows, batched):
            single = density.evaluate(row)
            assert single.shape == (1,)
            assert single[0] == density.evaluate(row[None, :])[0]
            # BLAS whitens one column with another kernel than many
            assert single[0] == pytest.approx(value, rel=8 * EPS, abs=0.0)
        assert density.evaluate(np.empty((0, 2))).shape == (0,)
        assert density.log_evaluate(np.empty((0, 2))).shape == (0,)


def _mp_log_density(mpmath, g, points):
    """Gaussian log density at the rows of ``points`` in mpmath's working
    precision, on the stored float mean and covariance."""
    dim = g.dim
    chol = mpmath.cholesky(mpmath.matrix(g.cov.tolist()))
    const = dim * mpmath.log(2 * mpmath.pi) + 2 * mpmath.fsum(mpmath.log(chol[i, i]) for i in range(dim))
    out = []
    for row in points:
        delta = mpmath.matrix([mpmath.mpf(float(a)) - mpmath.mpf(float(m)) for a, m in zip(row, g.mean)])
        w = mpmath.lu_solve(chol, delta)
        out.append(float(-(const + mpmath.fsum(w[i] ** 2 for i in range(dim))) / 2))
    return np.array(out)


class TestGaussianLogDensity:
    def test_offset_overflow_gives_log_zero(self):
        # the offsets overflow to inf, so the whitening meets inf - inf and 0 * inf
        g = sf.GaussianDensity([-1e308, 1e308], [[1.0, 0.9], [0.9, 1.0]])
        values = g.log_evaluate([[1.7e308, -1.7e308], [1.7e308, 1.7e308], [-1e308, 1e308]])
        assert values[:2].tolist() == [-math.inf, -math.inf]
        assert math.isfinite(values[2])

    def test_no_less_accurate_than_a_solve_with_the_factor(self):
        """Against a 60-digit reference on the stored mean and covariance,
        each log density is at most 8 eps sqrt(kappa) (relative to
        max(|log density|, 1)) less accurate than the solve oracle: about
        one rounding error passed through the inverse of a factor whose
        condition number is sqrt(kappa)."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(60)
        for dim in range(1, 5):
            for kappa in (1.0, 1e4, 1e8, 0.99e12) if dim > 1 else (1.0,):
                for _ in range(6):
                    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
                    eig = 10.0 ** rng.uniform(-3, 3) * np.geomspace(1.0, 1.0 / kappa, dim)
                    cov = q @ np.diag(eig) @ q.T
                    g = sf.GaussianDensity(rng.uniform(-1e5, 1e5, dim), 0.5 * (cov + cov.T))
                    z = rng.standard_normal((8, dim))
                    z *= rng.uniform(0.0, 8.0, (8, 1)) / np.linalg.norm(z, axis=1, keepdims=True)
                    x = g.mean + z @ np.linalg.cholesky(g.cov).T
                    with mpmath.workdps(60):
                        exact = _mp_log_density(mpmath, g, x)
                    scale = np.maximum(np.abs(exact), 1.0)
                    error = np.abs(g.log_evaluate(x) - exact) / scale
                    oracle_error = np.abs(solve_log_density(g, x) - exact) / scale
                    assert np.all(error <= oracle_error + 8 * EPS * math.sqrt(kappa))


UNIT = sf.GaussianDensity([0.0, 0.0], np.eye(2))


class TestCardinalityOf:
    def test_bernoulli_pmf(self):
        pmf = sf.cardinality_of(sf.BernoulliRfs(0.8, UNIT), 1)
        np.testing.assert_allclose(pmf.probs, [0.2, 0.8])

    def test_count_range_of_zero_needs_a_count_that_fits(self):
        no_objects = sf.IidClusterRfs(sf.CardinalityPmf([1.0]), UNIT)
        assert sf.cardinality_of(no_objects, 0) is no_objects.card
        np.testing.assert_array_equal(sf.cardinality_of(sf.PoissonRfs(0.0, UNIT), 0).probs, [1.0])
        with pytest.raises(ValueError, match=">= 1"):
            sf.cardinality_of(sf.BernoulliRfs(0.8, UNIT), 0)
        with pytest.raises(ValueError, match=">= 0"):
            sf.cardinality_of(no_objects, -1)

    def test_non_finite_poisson_rate_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sf.PoissonRfs(math.inf, sf.GaussianDensity([0.0], [[1.0]]))
        with pytest.raises(ValueError, match="finite"):
            sf.PoissonRfs(math.nan, sf.GaussianDensity([0.0], [[1.0]]))

    def test_zero_rate_poisson_is_empty_certainty(self):
        pmf = sf.cardinality_of(sf.PoissonRfs(0.0, UNIT), 10)
        np.testing.assert_array_equal(pmf.probs, np.eye(11)[0])

    def test_poisson_series_value(self):
        pmf = sf.cardinality_of(sf.PoissonRfs(2.0, UNIT), 30)
        assert pmf.probs[0] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_poisson_truncation_guard(self):
        with pytest.raises(ValueError, match="truncation too aggressive"):
            sf.cardinality_of(sf.PoissonRfs(50.0, UNIT), 30)

    def test_poisson_mean_recovers_rate(self):
        rate = 4.0
        pmf = sf.cardinality_of(sf.PoissonRfs(rate, UNIT), sf.default_poisson_n_max(rate))
        assert pmf.mean() == pytest.approx(rate, abs=1e-6)

    @pytest.mark.parametrize(
        "rate, n_max",
        [(0.5, 12), (0.5, 13), (3.0, 19), (3.0, 20), (50.0, 30), (50.0, 100), (1e6, 30),
         (1e3, 1180), (1e3, 1200), (1e4, 10605), (1e4, 10606)],
    )
    def test_poisson_tail_matches_survival_function(self, rate, n_max):
        # (1e4, 10605) has tail 1.0048e-9, within roundoff of 1 - head sum
        from scipy.stats import poisson

        tail = poisson.sf(n_max, rate)
        f = sf.PoissonRfs(rate, UNIT)
        if tail > 1e-9:
            with pytest.raises(ValueError, match="truncation too aggressive") as err:
                sf.cardinality_of(f, n_max)
            reported = float(re.search(r"tail mass (\S+)", str(err.value)).group(1))
            assert reported == pytest.approx(tail, rel=5e-3)
        else:
            pmf = sf.cardinality_of(f, n_max)
            expected = poisson.pmf(np.arange(n_max + 1), rate)
            np.testing.assert_allclose(pmf.probs, expected / expected.sum(), rtol=1e-9, atol=1e-300)

    def test_iid_returns_stored_pmf(self):
        card = sf.CardinalityPmf([0.3, 0.7])
        pmf = sf.cardinality_of(sf.IidClusterRfs(card, UNIT), 4)
        np.testing.assert_array_equal(pmf.probs, [0.3, 0.7, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "f, n_max, head",
        [
            (sf.BernoulliRfs(0.37, UNIT), 1, [0.63, 0.37]),
            (sf.BernoulliRfs(0.37, UNIT), 3, [0.63, 0.37]),
            (sf.PoissonRfs(0.0, UNIT), 0, [1.0]),
            (sf.PoissonRfs(0.0, UNIT), 4, [1.0]),
            (sf.IidClusterRfs(sf.CardinalityPmf([0.2, 0.0, 0.8]), UNIT), 2, [0.2, 0.0, 0.8]),
        ],
        ids=["bernoulli 1", "bernoulli 3", "rate 0 at 0", "rate 0 at 4", "iid ending at n_max"],
    )
    def test_pmf_is_the_family_head_padded_with_zeros(self, f, n_max, head):
        pmf = sf.cardinality_of(f, n_max)
        expected = np.zeros(n_max + 1)
        expected[: len(head)] = head
        np.testing.assert_array_equal(pmf.probs, expected)
        assert not pmf.probs.flags.writeable
        if isinstance(f, sf.IidClusterRfs):
            assert pmf is f.card


# pi to 60 digits, for the 50-digit references
PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")

# Points of one set; the first n rows form the set of size n.
POINTS = np.array([[0.3, -0.2], [1.0, 0.5], [-0.7, 1.2]])
IID_PMF = [0.2, 0.0, 0.8]


def unit_density(point):
    """The standard 2-D normal density, in closed form."""
    return math.exp(-0.5 * float(point @ point)) / (2.0 * math.pi)


class TestDensityEval:
    @pytest.mark.parametrize(
        "f, n, count_weight",
        [
            (sf.BernoulliRfs(0.8, UNIT), 0, 0.2),
            (sf.BernoulliRfs(0.8, UNIT), 1, 0.8),
            (sf.BernoulliRfs(0.8, UNIT), 2, 0.0),
            (sf.BernoulliRfs(0.0, UNIT), 1, 0.0),
            (sf.PoissonRfs(2.5, UNIT), 0, math.exp(-2.5)),
            (sf.PoissonRfs(2.5, UNIT), 1, math.exp(-2.5) * 2.5),
            (sf.PoissonRfs(2.5, UNIT), 2, math.exp(-2.5) * 2.5**2 / 2 * 2),
            (sf.PoissonRfs(0.0, UNIT), 0, 1.0),
            (sf.PoissonRfs(0.0, UNIT), 1, 0.0),
            (sf.PoissonRfs(0.0, UNIT), 2, 0.0),
            (sf.IidClusterRfs(sf.CardinalityPmf(IID_PMF), UNIT), 0, IID_PMF[0]),
            (sf.IidClusterRfs(sf.CardinalityPmf(IID_PMF), UNIT), 1, IID_PMF[1]),
            (sf.IidClusterRfs(sf.CardinalityPmf(IID_PMF), UNIT), 2, IID_PMF[2] * 2),
            (sf.IidClusterRfs(sf.CardinalityPmf(IID_PMF), UNIT), 3, 0.0),
        ],
        ids=[
            "bernoulli 0", "bernoulli 1", "bernoulli 2", "alpha 0 at 1",
            "poisson 0", "poisson 1", "poisson 2", "rate 0 at 0", "rate 0 at 1", "rate 0 at 2",
            "iid 0", "iid zero probability", "iid 2", "iid past the pmf end",
        ],
    )
    def test_value_is_count_weight_times_point_densities(self, f, n, count_weight):
        """f(X) = p(n) n! prod rho(x), with p(n) n! written out from the
        family's parameters in the table."""
        expected = count_weight * math.prod(unit_density(x) for x in POINTS[:n])
        value = sf.rfs_density_eval(f, sf.FiniteSet(POINTS[:n]) if n else sf.FiniteSet.empty(2))
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_long_set_past_a_short_pmf_is_zero(self):
        # 171! does not fit a float; a zero count probability never forms it
        f = sf.IidClusterRfs(sf.CardinalityPmf(IID_PMF), UNIT)
        assert sf.rfs_density_eval(f, sf.FiniteSet(np.zeros((171, 2)))) == 0.0

    def test_bernoulli_cases(self):
        f = sf.BernoulliRfs(0.8, UNIT)
        assert sf.rfs_density_eval(f, sf.FiniteSet.empty(2)) == pytest.approx(0.2)
        peak = sf.rfs_density_eval(f, sf.FiniteSet([[0.0, 0.0]]))
        assert peak == pytest.approx(0.8 / (2 * math.pi), rel=1e-12)
        assert sf.rfs_density_eval(f, sf.FiniteSet([[0.0, 0.0], [1.0, 1.0]])) == 0.0

    def test_uniform_pair_cluster(self):
        grid = sf.GridDensity([0.0, 0.0], [0.1, 0.1], np.ones((10, 10)))
        f = sf.IidClusterRfs(sf.CardinalityPmf([0.0, 0.0, 1.0]), grid)
        value = sf.rfs_density_eval(f, sf.FiniteSet([[0.2, 0.3], [0.7, 0.9]]))
        assert value == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_rejected_at_construction(self, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            sf.FiniteSet([[bad, 0.0]])
        for empty in (sf.FiniteSet.empty(2), sf.FiniteSet([])):
            assert empty.size == 0

    def test_dimension_mismatch(self):
        f = sf.BernoulliRfs(0.5, UNIT)
        with pytest.raises(ValueError, match="dimension"):
            sf.rfs_density_eval(f, sf.FiniteSet([[1.0, 2.0, 3.0]]))

    @pytest.mark.parametrize(
        "f, n, log_exact",
        [
            # all mass at n = 200: 200! (2 pi)^-200, about 1.8e215
            (sf.IidClusterRfs(sf.CardinalityPmf(np.eye(201)[200]), UNIT), 200,
             lambda: Decimal(math.factorial(200)).ln() - 200 * (2 * PI_50).ln()),
            # rate 2.5 at 800 points: e^-2.5 (2.5 / (2 pi))^800, a subnormal about 5.3e-322
            (sf.PoissonRfs(2.5, UNIT), 800, lambda: -Decimal("2.5") + 800 * (Decimal("2.5") / (2 * PI_50)).ln()),
        ],
        ids=["iid 200 points", "poisson 800 points"],
    )
    def test_large_sets_against_50_digit_values(self, f, n, log_exact):
        """Sets on the mean of the unit Gaussian, whose count weight or
        product leaves the float range before the set density does."""
        x = sf.FiniteSet(np.zeros((n, 2)))
        with localcontext() as ctx:
            ctx.prec = 50
            exact = log_exact()
            value = float(exact.exp())
        assert abs(sf.rfs_log_density(f, x) - float(exact)) <= 1e-13 * abs(float(exact))
        if value >= sys.float_info.min:
            assert sf.rfs_density_eval(f, x) == pytest.approx(value, rel=1e-12, abs=0.0)
        else:  # a subnormal holds few bits: within one step of the rounded value
            assert abs(sf.rfs_density_eval(f, x) - value) <= 5e-324

    def test_density_past_the_float_range_raises(self):
        f = sf.IidClusterRfs(sf.CardinalityPmf(np.eye(301)[300]), UNIT)
        x = sf.FiniteSet(np.zeros((300, 2)))
        log_density = sf.rfs_log_density(f, x)
        assert log_density == pytest.approx(math.lgamma(301) - 300 * math.log(2 * math.pi), rel=1e-14)
        with pytest.raises(OverflowError, match="exceeds the float range; use rfs_log_density"):
            sf.rfs_density_eval(f, x)

    @pytest.mark.parametrize(
        "f, n",
        [(sf.BernoulliRfs(1.0, UNIT), 0), (sf.BernoulliRfs(0.8, UNIT), 2), (sf.PoissonRfs(0.0, UNIT), 3),
         (sf.IidClusterRfs(sf.CardinalityPmf(IID_PMF), UNIT), 1),
         (sf.IidClusterRfs(sf.CardinalityPmf([0.0, 1.0]), sf.GridDensity([0.0, 0.0], [0.5, 0.5], np.eye(2)[::-1] * 2)), 1)],
        ids=["alpha 1 at 0", "bernoulli 2", "rate 0 at 3", "iid zero probability", "grid zero cell"],
    )
    def test_zero_density_has_log_minus_inf(self, f, n):
        x = sf.FiniteSet(np.full((n, 2), 0.75))
        assert sf.rfs_log_density(f, x) == -math.inf and sf.rfs_density_eval(f, x) == 0.0

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    def test_permutation_invariance_is_bitwise(self, n, seed):
        rng = np.random.default_rng(seed)
        f = sf.PoissonRfs(2.5, UNIT)
        pts = rng.uniform(-2, 2, (n, 2))
        x = sf.FiniteSet(pts)
        x_perm = sf.FiniteSet(pts[rng.permutation(n)])
        assert sf.rfs_density_eval(f, x) == sf.rfs_density_eval(f, x_perm)


class TestNormalization:
    def test_bernoulli_exact(self):
        assert sf.validate_normalization(sf.BernoulliRfs(0.37, UNIT), 5) == 1.0

    @pytest.mark.parametrize(
        "f, expected",
        [
            (sf.BernoulliRfs(0.37, UNIT), 0.63),
            (sf.PoissonRfs(3.0, UNIT), math.exp(-3.0)),
            (sf.PoissonRfs(0.0, UNIT), 1.0),
            (sf.IidClusterRfs(sf.CardinalityPmf([0.2, 0.3, 0.5]), UNIT), 0.2),
        ],
        ids=["bernoulli", "poisson", "rate 0", "iid"],
    )
    def test_partial_sum_at_zero_and_negative_count_range(self, f, expected):
        assert sf.validate_normalization(f, 0) == pytest.approx(expected, rel=1e-15)
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            sf.validate_normalization(f, -1)

    def test_poisson_partial_sum(self):
        total = sf.validate_normalization(sf.PoissonRfs(3.0, UNIT), 40)
        assert abs(total - 1.0) < 1e-9

    def test_iid_total(self, rng):
        raw = rng.uniform(0.1, 1.0, 6)
        f = sf.IidClusterRfs(sf.CardinalityPmf(raw / raw.sum()), UNIT)
        assert abs(sf.validate_normalization(f, 5) - 1.0) < 1e-10


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: sf.CardinalityPmf([[0.5, 0.5]]),
                     (ValueError, "cardinality pmf must be a nonempty 1-D sequence"), id="pmf not 1-D"),
        pytest.param(lambda: sf.CardinalityPmf([0.3, 0.7, 0.0, 0.0]).padded(1).tolist(), [0.3, 0.7],
                     id="padded drops a zero tail"),
        pytest.param(lambda: sf.pmf_kld(sf.CardinalityPmf([0.5, 0.5]), sf.CardinalityPmf([1.0])), math.inf,
                     id="pmf_kld off the support"),
        pytest.param(lambda: sf.GaussianDensity([1.0], 2.0).cov.tolist(), [[2.0]], id="scalar covariance"),
        pytest.param(lambda: sf.GaussianDensity([0.0, 0.0], np.eye(3)),
                     (ValueError, "mean must be a d-vector and covariance d x d"), id="Gaussian shapes"),
        pytest.param(lambda: UNIT.sample(np.random.default_rng(0), 0), (ValueError, "count must be >= 1"),
                     id="Gaussian sample count"),
        pytest.param(lambda: sf.GridDensity([0.0, 0.0], [0.1, 0.1], np.ones((10, 10))).sample(
                         np.random.default_rng(0), 0), (ValueError, "count must be >= 1"), id="grid sample count"),
        pytest.param(lambda: sf.GridDensity([0.0, 0.0], [0.1], np.ones((10, 10))),
                     (ValueError, "origin and cell_size must be d-vectors"), id="grid origin and cell"),
        pytest.param(lambda: sf.GridDensity([0.0, 0.0], [0.1, -0.1], np.ones((10, 10))),
                     (ValueError, "cell sizes must be positive and finite"), id="grid cell size"),
        pytest.param(lambda: sf.GridDensity([math.nan, 0.0], [0.1, 0.1], np.ones((10, 10))),
                     (ValueError, "origin must be finite"), id="grid NaN origin"),
        pytest.param(lambda: sf.GridDensity([0.0, -math.inf], [0.1, 0.1], np.ones((10, 10))),
                     (ValueError, "origin must be finite"), id="grid infinite origin"),
        pytest.param(lambda: sf.GridDensity([0.0, 0.0], [math.nan, 0.1], np.ones((10, 10))),
                     (ValueError, "cell sizes must be positive and finite"), id="grid NaN cell size"),
        pytest.param(lambda: sf.GridDensity([0.0, 0.0], [0.1, math.inf], np.ones((10, 10))),
                     (ValueError, "cell sizes must be positive and finite"), id="grid infinite cell size"),
        pytest.param(lambda: sf.GridDensity([0.0, 0.0], [0.1, 0.1], np.ones(100)),
                     (ValueError, "values must have one axis per dimension"), id="grid axes"),
        pytest.param(lambda: sf.GridDensity([0.0], [0.5], [-1.0, 3.0]),
                     (ValueError, "grid density values must be nonnegative"), id="grid negative value"),
        pytest.param(lambda: sf.BernoulliRfs(1.5, UNIT), (ValueError, "existence probability must lie in [0, 1]"),
                     id="Bernoulli alpha"),
        pytest.param(lambda: sf.PoissonRfs(-1.0, UNIT), (ValueError, "expected count must be nonnegative"),
                     id="Poisson rate"),
        pytest.param(lambda: sf.FiniteSet([1.0, 2.0]), (ValueError, "points must form an (n, d) array"),
                     id="finite set shape"),
        pytest.param(lambda: sf.cardinality_of(object(), 3),
                     (TypeError, "unsupported finite-set distribution object"), id="cardinality_of type"),
        pytest.param(lambda: sf.rfs_density_eval(object(), sf.FiniteSet.empty(2)),
                     (TypeError, "unsupported finite-set distribution object"), id="rfs_density_eval type"),
        pytest.param(lambda: sf.validate_normalization(object(), 3),
                     (TypeError, "unsupported finite-set distribution object"), id="validate_normalization type"),
    ],
)
def test_rarely_taken_branches(call, expected):
    check_outcome(call, expected)


def test_runtime_does_not_import_scipy(tmp_path):
    script = textwrap.dedent(
        f"""
        import sys
        import setfuse as sf
        from setfuse.scenarios import experiment_report, write_report

        for example in ("ex2", "ex4"):
            write_report(experiment_report(example), {str(tmp_path)!r} + "/" + example)
        sf.cardinality_of(sf.PoissonRfs(4.0, sf.GaussianDensity([0.0], [[1.0]])), 40)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    src = os.path.dirname(os.path.dirname(sf.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import setfuse as sf
from conftest import make_gaussian


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


class TestDensityEval:
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

    def test_dimension_mismatch(self):
        f = sf.BernoulliRfs(0.5, UNIT)
        with pytest.raises(ValueError, match="dimension"):
            sf.rfs_density_eval(f, sf.FiniteSet([[1.0, 2.0, 3.0]]))

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

    def test_poisson_partial_sum(self):
        total = sf.validate_normalization(sf.PoissonRfs(3.0, UNIT), 40)
        assert abs(total - 1.0) < 1e-9

    def test_iid_total(self, rng):
        raw = rng.uniform(0.1, 1.0, 6)
        f = sf.IidClusterRfs(sf.CardinalityPmf(raw / raw.sum()), UNIT)
        assert abs(sf.validate_normalization(f, 5) - 1.0) < 1e-10


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

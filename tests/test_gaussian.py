import math

import numpy as np
import pytest

import setfuse as sf
from setfuse import fusion, gaussian, quadrature, solvers
from conftest import make_gaussian

UNIT = sf.GaussianDensity([0.0, 0.0], np.eye(2))
SHIFTED = sf.GaussianDensity([2.0, 0.0], np.eye(2))


class TestEmdParams:
    def test_identical_inputs_fixed_point(self):
        out = fusion.localisation_emd(UNIT, UNIT, 0.3)[0]
        np.testing.assert_allclose(out.mean, UNIT.mean, atol=1e-14)
        np.testing.assert_allclose(out.cov, UNIT.cov, atol=1e-14)

    def test_endpoint_returns_input_exactly(self):
        assert fusion.localisation_emd(UNIT, SHIFTED, 0.0)[0] is UNIT
        assert fusion.localisation_emd(UNIT, SHIFTED, 1.0)[0] is SHIFTED

    def test_equal_covariance_midpoint(self):
        out = fusion.localisation_emd(UNIT, SHIFTED, 0.5)[0]
        np.testing.assert_allclose(out.mean, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out.cov, np.eye(2), atol=1e-12)

    def test_exchange_symmetry(self, rng):
        for _ in range(20):
            a, b = make_gaussian(rng), make_gaussian(rng)
            w = rng.uniform(0, 1)
            lhs = fusion.localisation_emd(a, b, w)[0]
            rhs = fusion.localisation_emd(b, a, 1.0 - w)[0]
            np.testing.assert_allclose(lhs.mean, rhs.mean, atol=1e-12)
            np.testing.assert_allclose(lhs.cov, rhs.cov, atol=1e-12)


class TestEmdScale:
    def test_identical_inputs_give_unity(self):
        assert fusion.localisation_emd(UNIT, UNIT, 0.7)[1] == pytest.approx(1.0, abs=1e-12)

    def test_endpoints_give_unity(self):
        assert fusion.localisation_emd(UNIT, SHIFTED, 0.0)[1] == 1.0
        assert fusion.localisation_emd(UNIT, SHIFTED, 1.0)[1] == 1.0

    def test_canonical_pair_value(self):
        # grid quadrature oracle for the half-weight scale of unit Gaussians
        # two apart: exp(-1/2)
        z = fusion.localisation_emd(UNIT, SHIFTED, 0.5)[1]
        assert z == pytest.approx(0.60653, abs=1e-5)
        gi, gj = quadrature.discretize_gaussians([UNIT, SHIFTED])
        assert z == pytest.approx(quadrature.grid_z_omega(gi, gj, 0.5), rel=1e-3)

    def test_never_exceeds_one_on_weight_grid(self, rng):
        for _ in range(25):
            a, b = make_gaussian(rng), make_gaussian(rng)
            for w in np.linspace(0, 1, 21):
                assert fusion.localisation_emd(a, b, w)[1] <= 1.0

    def test_matches_grid_quadrature_on_random_pairs(self, rng):
        for _ in range(100):
            a, b = make_gaussian(rng, mean_scale=0.8, var_lo=0.4, var_hi=1.2)\
                , make_gaussian(rng, mean_scale=0.8, var_lo=0.4, var_hi=1.2)
            w = rng.uniform(0.05, 0.95)
            gi, gj = quadrature.discretize_gaussians([a, b])
            assert fusion.localisation_emd(a, b, w)[1] == pytest.approx(
                quadrature.grid_z_omega(gi, gj, w), rel=1e-3
            )

    def test_neg_log_scale_is_concave(self, rng):
        grid = np.linspace(0.0, 1.0, 101)
        for _ in range(5):
            a, b = make_gaussian(rng), make_gaussian(rng)
            obj = np.array([solvers.chernoff_objective(a, b, w) for w in grid])
            second = np.diff(obj, 2)
            assert second.max() <= 1e-8


class TestLogScaleDerivatives:
    def test_match_central_differences(self, rng):
        h = 1e-4
        for _ in range(30):
            dim = int(rng.integers(1, 4))
            a = make_gaussian(rng, dim=dim, mean_scale=2.0)
            b = make_gaussian(rng, dim=dim, mean_scale=2.0)
            w = rng.uniform(0.1, 0.9)
            fused = gaussian._pair(a, b)(w)
            lower, mid, upper = (-solvers.chernoff_objective(a, b, w + s * h) for s in (-1, 0, 1))
            assert fused.log_z == pytest.approx(mid, rel=1e-12, abs=1e-14)
            assert fused.slope == pytest.approx((upper - lower) / (2 * h), rel=1e-5, abs=1e-8)
            assert fused.curvature == pytest.approx(
                (upper - 2 * mid + lower) / h**2, rel=1e-4, abs=1e-6
            )

    def test_vanish_for_identical_inputs(self, rng):
        g = make_gaussian(rng, dim=3)
        fused = gaussian._pair(g, g)(0.3)
        assert fused.slope == pytest.approx(0.0, abs=1e-12)
        assert fused.curvature == pytest.approx(0.0, abs=1e-12)


class TestKld:
    def test_self_divergence_is_zero(self, rng):
        g = make_gaussian(rng)
        assert gaussian.kld(g, g) == 0.0

    def test_unit_shift_value_with_mc_oracle(self):
        p = sf.GaussianDensity([1.0, 0.0], np.eye(2))
        analytic = gaussian.kld(p, UNIT)
        assert analytic == pytest.approx(0.5, abs=1e-12)
        draws = p.sample(np.random.default_rng(11), 10**6)
        ratios = p.log_evaluate(draws) - UNIT.log_evaluate(draws)
        mc, se = ratios.mean(), ratios.std(ddof=1) / math.sqrt(ratios.size)
        assert abs(analytic - mc) < 3 * se

    def test_scaled_covariance_value_with_mc_oracle(self):
        p = sf.GaussianDensity([0.0, 0.0], 2 * np.eye(2))
        analytic = gaussian.kld(p, UNIT)
        assert analytic == pytest.approx(1.0 - math.log(2.0), rel=1e-12)
        draws = p.sample(np.random.default_rng(12), 10**6)
        ratios = p.log_evaluate(draws) - UNIT.log_evaluate(draws)
        mc, se = ratios.mean(), ratios.std(ddof=1) / math.sqrt(ratios.size)
        assert abs(analytic - mc) < 3 * se

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(50):
            assert gaussian.kld(make_gaussian(rng), make_gaussian(rng)) >= 0.0


class TestRotatedCovariance:
    def test_isotropic_case(self):
        for phi in (0.0, 0.4, 2.0):
            cov = gaussian.make_rotated_covariance(1.0, 0.01, phi)
            np.testing.assert_allclose(cov, 0.1 * np.eye(2), atol=1e-14)

    def test_axis_aligned_values(self):
        cov = gaussian.make_rotated_covariance(4.0, 1.0, 0.0)
        np.testing.assert_allclose(cov, np.diag([2.0, 0.5]), atol=1e-12)

    def test_eigenstructure(self):
        cov = gaussian.make_rotated_covariance(10.0, 0.01, math.pi / 4)
        eig = np.linalg.eigvalsh(cov)
        assert eig[1] / eig[0] == pytest.approx(10.0, rel=1e-10)
        assert np.linalg.det(cov) == pytest.approx(0.01, rel=1e-10)
        np.testing.assert_allclose(eig, [math.sqrt(0.001), math.sqrt(0.1)], rtol=1e-10)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gaussian.make_rotated_covariance(0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            gaussian.make_rotated_covariance(2.0, -1.0, 0.0)


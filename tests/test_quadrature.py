import math

import numpy as np
import pytest

import setfuse as sf
from setfuse import gaussian, quadrature
from conftest import make_gaussian

UNIT = sf.GaussianDensity([0.0, 0.0], np.eye(2))
SHIFTED = sf.GaussianDensity([2.0, 0.0], np.eye(2))


@pytest.fixture(scope="module")
def gaussian_grids():
    return quadrature.discretize_gaussians([UNIT, SHIFTED])


class TestGridZ:
    def test_identical_grids_integrate_to_one(self, gaussian_grids):
        gi, _ = gaussian_grids
        assert quadrature.grid_z_omega(gi, gi, 0.4) == pytest.approx(1.0, abs=1e-9)

    def test_endpoint_weight(self, gaussian_grids):
        gi, gj = gaussian_grids
        assert quadrature.grid_z_omega(gi, gj, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_canonical_pair(self, gaussian_grids):
        gi, gj = gaussian_grids
        assert quadrature.grid_z_omega(gi, gj, 0.5) == pytest.approx(0.60653, abs=1e-3)

    def test_misaligned_grids_rejected(self, gaussian_grids):
        gi, _ = gaussian_grids
        other = sf.GridDensity(gi.origin + 0.05, gi.cell_size, gi.values)
        with pytest.raises(ValueError, match="misaligned"):
            quadrature.grid_z_omega(gi, other, 0.5)


def grid_derivatives(gi, gj, w):
    """z_w and its first two w-derivatives from the log-space kernel."""
    log_z, slope, curvature = quadrature.grid_log_moments(gi, gj)(w)[:3]
    z = math.exp(log_z)
    return z, z * slope, z * (curvature + slope**2)


class TestGridDerivatives:
    def test_vanish_for_identical_inputs(self, gaussian_grids):
        gi, _ = gaussian_grids
        _, zp, zpp = grid_derivatives(gi, gi, 0.3)
        assert zp == pytest.approx(0.0, abs=1e-12)
        assert zpp == pytest.approx(0.0, abs=1e-12)

    def test_log_scale_matches_fsum_oracle(self, gaussian_grids):
        gi, gj = gaussian_grids
        for w in (0.1, 0.5, 0.9):
            z, _, _ = grid_derivatives(gi, gj, w)
            assert z == pytest.approx(quadrature.grid_z_omega(gi, gj, w), rel=1e-12)

    def test_first_derivative_matches_central_difference(self, gaussian_grids):
        gi, gj = gaussian_grids
        h = 1e-4
        for w in (0.25, 0.5, 0.75):
            fd = (
                quadrature.grid_z_omega(gi, gj, w + h)
                - quadrature.grid_z_omega(gi, gj, w - h)
            ) / (2 * h)
            assert grid_derivatives(gi, gj, w)[1] == pytest.approx(fd, rel=1e-4)

    def test_second_derivative_matches_central_difference(self, gaussian_grids):
        gi, gj = gaussian_grids
        h = 1e-4
        for w in (0.25, 0.5, 0.75):
            fd = (
                quadrature.grid_z_omega(gi, gj, w + h)
                - 2 * quadrature.grid_z_omega(gi, gj, w)
                + quadrature.grid_z_omega(gi, gj, w - h)
            ) / h**2
            assert grid_derivatives(gi, gj, w)[2] == pytest.approx(fd, rel=1e-3)

    def test_exchange_antisymmetry(self, gaussian_grids):
        gi, gj = gaussian_grids
        forward = grid_derivatives(gi, gj, 0.3)[1]
        backward = grid_derivatives(gj, gi, 0.7)[1]
        assert forward == pytest.approx(-backward, rel=1e-12)

    def test_second_derivative_nonnegative(self, rng):
        for _ in range(5):
            a, b = make_gaussian(rng), make_gaussian(rng)
            ga, gb = quadrature.discretize_gaussians([a, b], points_per_axis=101)
            assert grid_derivatives(ga, gb, rng.uniform(0.1, 0.9))[2] >= 0.0

    def test_disjoint_support_rejected(self):
        gi = sf.GridDensity([0.0], [0.5], [2.0, 0.0])
        gj = sf.GridDensity([0.0], [0.5], [0.0, 2.0])
        with pytest.raises(ValueError, match="disjoint support"):
            quadrature.grid_log_moments(gi, gj)


class TestGridEmd:
    def test_matches_gaussian_closed_form(self, gaussian_grids):
        gi, gj = gaussian_grids
        fused, z = quadrature.grid_emd(gi, gj, 0.5)
        assert z == pytest.approx(gaussian.emd_scale(UNIT, SHIFTED, 0.5), rel=1e-3)
        assert fused.values.sum() * fused.cell_volume == pytest.approx(1.0, abs=1e-9)

    def test_wide_dynamic_range_matches_fsum_oracle(self):
        # at 12 sigma the grid values span hundreds of binary exponents
        gi, gj = quadrature.discretize_gaussians([UNIT, SHIFTED], extent_sigmas=12.0)
        for w in (0.1, 0.5, 0.9):
            fused, z = quadrature.grid_emd(gi, gj, w)
            assert z == pytest.approx(quadrature.grid_z_omega(gi, gj, w), rel=1e-12)
            assert abs(fused.values.sum() * fused.cell_volume - 1.0) <= 1e-12

    def test_endpoints_return_inputs(self, gaussian_grids):
        gi, gj = gaussian_grids
        assert quadrature.grid_emd(gi, gj, 0.0)[0] is gi
        assert quadrature.grid_emd(gi, gj, 1.0) == (gj, 1.0)


class TestDerivativeIdentity:
    def test_gradient_equals_scaled_divergence_gap(self, rng):
        # z' = z (D(rho_w||rho_i) - D(rho_w||rho_j)), checked against a
        # central difference of the closed-form scale
        h = 1e-5
        for _ in range(10):
            a, b = make_gaussian(rng), make_gaussian(rng)
            w = rng.uniform(0.1, 0.9)
            fused = gaussian.emd_params(a, b, w)
            z = gaussian.emd_scale(a, b, w)
            identity = z * (gaussian.kld(fused, a) - gaussian.kld(fused, b))
            fd = (gaussian.emd_scale(a, b, w + h) - gaussian.emd_scale(a, b, w - h)) / (2 * h)
            assert identity == pytest.approx(fd, rel=1e-3, abs=1e-9)


class TestDiscretization:
    def test_unit_mass_and_alignment(self, gaussian_grids):
        gi, gj = gaussian_grids
        assert gi.values.sum() * gi.cell_volume == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(gi.origin, gj.origin)
        np.testing.assert_array_equal(gi.cell_size, gj.cell_size)

    def test_rejects_high_dimension(self):
        g = sf.GaussianDensity(np.zeros(4), np.eye(4))
        with pytest.raises(ValueError, match="3 dimensions"):
            quadrature.discretize_gaussians([g])

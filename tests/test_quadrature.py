import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setfuse as sf
from setfuse import fusion, gaussian, quadrature
from conftest import (
    binomial_pmf, check_outcome, disjoint_grids, gathered_moments, grid_z_omega, make_gaussian, solve_log_density,
)

UNIT = sf.GaussianDensity([0.0, 0.0], np.eye(2))
SHIFTED = sf.GaussianDensity([2.0, 0.0], np.eye(2))


@pytest.fixture(scope="module")
def gaussian_grids():
    return quadrature.discretize_gaussians([UNIT, SHIFTED])


class TestGridZ:
    def test_identical_grids_integrate_to_one(self, gaussian_grids):
        gi, _ = gaussian_grids
        assert grid_z_omega(gi, gi, 0.4) == pytest.approx(1.0, abs=1e-9)

    def test_log_z_is_at_most_zero_without_an_extra_term(self):
        """Ten cells of 0.1 at density 1 sum to 1 + 4 eps; Hoelder's bound
        z_w <= 1 clips log z_w at 0. An extra log term is not clipped."""
        g = sf.GridDensity([0.0], [0.1], np.full(10, 1.0))
        for w in (0.3, 0.5):
            assert quadrature.grid_log_moments(g, g)(w).log_z == 0.0
        with_extra = quadrature.tilted_log_moments(g.values, g.values, None, g.cell_volume, log_extra=1.0)
        assert with_extra(0.5).log_z == pytest.approx(1.0, rel=1e-15)

    def test_endpoint_weight(self, gaussian_grids):
        gi, gj = gaussian_grids
        assert grid_z_omega(gi, gj, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_canonical_pair(self, gaussian_grids):
        gi, gj = gaussian_grids
        assert grid_z_omega(gi, gj, 0.5) == pytest.approx(0.60653, abs=1e-3)

    def test_misaligned_grids_rejected(self, gaussian_grids):
        gi, _ = gaussian_grids
        other = sf.GridDensity(gi.origin + 0.05, gi.cell_size, gi.values)
        with pytest.raises(ValueError, match="misaligned"):
            grid_z_omega(gi, other, 0.5)

    def test_alignment_tolerance(self, gaussian_grids):
        gi, _ = gaussian_grids
        for shift, aligned in ((5e-13, True), (2e-12, False)):
            for origin, cell in ((gi.origin + shift, gi.cell_size), (gi.origin, gi.cell_size * (1 + shift))):
                other = sf.GridDensity(origin, cell, gi.values)
                if aligned:
                    quadrature.grid_log_moments(gi, other)
                else:
                    with pytest.raises(ValueError, match="misaligned"):
                        quadrature.grid_log_moments(gi, other)


def grid_derivatives(gi, gj, w):
    """z_w and its first two w-derivatives from the log-space kernel."""
    fused = quadrature.grid_log_moments(gi, gj)(w)
    log_z, slope, curvature = fused.log_z, fused.slope, fused.curvature
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
            assert z == pytest.approx(grid_z_omega(gi, gj, w), rel=1e-12)

    def test_first_derivative_matches_central_difference(self, gaussian_grids):
        gi, gj = gaussian_grids
        h = 1e-4
        for w in (0.25, 0.5, 0.75):
            fd = (
                grid_z_omega(gi, gj, w + h)
                - grid_z_omega(gi, gj, w - h)
            ) / (2 * h)
            assert grid_derivatives(gi, gj, w)[1] == pytest.approx(fd, rel=1e-4)

    def test_second_derivative_matches_central_difference(self, gaussian_grids):
        gi, gj = gaussian_grids
        h = 1e-4
        for w in (0.25, 0.5, 0.75):
            fd = (
                grid_z_omega(gi, gj, w + h)
                - 2 * grid_z_omega(gi, gj, w)
                + grid_z_omega(gi, gj, w - h)
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
        with pytest.raises(sf.IncompatibleInputs, match="disjoint support"):
            quadrature.grid_log_moments(gi, gj)


class TestGridEmd:
    def test_matches_gaussian_closed_form(self, gaussian_grids):
        gi, gj = gaussian_grids
        fused, z = fusion.localisation_emd(gi, gj, 0.5)
        assert z == pytest.approx(fusion.localisation_emd(UNIT, SHIFTED, 0.5)[1], rel=1e-3)
        assert fused.values.sum() * fused.cell_volume == pytest.approx(1.0, abs=1e-9)

    def test_wide_dynamic_range_matches_fsum_oracle(self):
        # at 12 sigma the grid values span hundreds of binary exponents
        gi, gj = quadrature.discretize_gaussians([UNIT, SHIFTED], extent_sigmas=12.0)
        for w in (0.1, 0.5, 0.9):
            fused, z = fusion.localisation_emd(gi, gj, w)
            assert z == pytest.approx(grid_z_omega(gi, gj, w), rel=1e-12)
            assert abs(fused.values.sum() * fused.cell_volume - 1.0) <= 1e-12

    def test_trusted_density_equals_public_constructor(self, rng):
        for dim in (1, 2, 3, 4):
            for _ in range(5):
                shape = tuple(rng.integers(2, 9, dim))
                cell = rng.uniform(0.1, 2.0, dim)
                pair = []
                for _ in range(2):
                    # values spanning about 80 binary exponents, some cells empty
                    values = np.exp(rng.normal(0.0, 10.0, shape)) * (rng.uniform(size=shape) > 0.2)
                    values.flat[0] = 1.0
                    pair.append(sf.GridDensity(np.zeros(dim), cell, values / (values.sum() * np.prod(cell))))
                fused = quadrature.grid_log_moments(*pair)(rng.uniform(0.02, 0.98)).density()
                public = sf.GridDensity(fused.origin, fused.cell_size, fused.values)
                assert abs(fused.values.sum() * fused.cell_volume - 1.0) <= 1e-12
                np.testing.assert_allclose(fused.values, public.values, rtol=1e-12, atol=0)
                assert not fused.values.flags.writeable

    def test_endpoints_return_inputs(self, gaussian_grids):
        gi, gj = gaussian_grids
        assert fusion.localisation_emd(gi, gj, 0.0)[0] is gi
        assert fusion.localisation_emd(gi, gj, 1.0) == (gj, 1.0)


def array_pair(seed: int, kind: str):
    """Two random inputs of one kind (a count pmf, or a density on a 1-D or
    2-D lattice) with some zero entries and at least two shared positive
    ones, and the mask of their joint support."""
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(2, 5, 2)) if kind == "grid2" else (rng.integers(2, 10),)
    raw = rng.uniform(0.0, 1.0, (2, *shape)) * (rng.uniform(size=(2, *shape)) > 0.3)
    shared = rng.choice(raw[0].size, 2, replace=False)
    raw.reshape(2, -1)[:, shared] += 0.5
    if kind == "pmf":
        pair = [sf.CardinalityPmf(values / values.sum()) for values in raw]
    else:
        cell = rng.uniform(0.1, 2.0, len(shape))
        pair = [sf.GridDensity(np.zeros(len(shape)), cell, values / (values.sum() * np.prod(cell))) for values in raw]
    return pair, (raw[0] > 0) & (raw[1] > 0)


def _values(x):
    return x.probs if isinstance(x, sf.CardinalityPmf) else x.values


def _mass(x):
    return _values(x).sum() * (1.0 if isinstance(x, sf.CardinalityPmf) else x.cell_volume)


class TestArrayPairProperties:
    """Count pmfs and grids share one array evaluator, so the weight
    solvers and fusion rules obey the same laws on both."""

    CONFIG = sf.NewtonConfig(epsilon=1e-10)
    SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

    @staticmethod
    def solve(x_i, x_j):
        if isinstance(x_i, sf.CardinalityPmf):
            omega, fused, _ = sf.newton_cardinality(x_i, x_j, TestArrayPairProperties.CONFIG)
        else:
            omega, fused, _, _ = sf.newton_localisation(x_i, x_j, TestArrayPairProperties.CONFIG)
        return omega, fused

    @pytest.mark.parametrize("kind", ["pmf", "grid1", "grid2"])
    @given(seed=SEEDS)
    @settings(max_examples=25)
    def test_optimal_weight_and_fused_input(self, kind, seed):
        (x_i, x_j), joint = array_pair(seed, kind)
        omega, fused = self.solve(x_i, x_j)
        assert self.solve(x_j, x_i)[0] == pytest.approx(1.0 - omega, abs=1e-8)
        values = _values(fused)
        assert np.all(values[~joint] == 0.0)
        assert np.all(values >= np.minimum(_values(x_i), _values(x_j)) * (1.0 - 1e-12))
        assert abs(_mass(fused) - 1.0) <= 1e-12

    @pytest.mark.parametrize("kind", ["pmf", "grid1", "grid2"])
    @given(seed=SEEDS, omega=st.floats(0.01, 0.99))
    @settings(max_examples=25)
    def test_fusion_rules_at_a_weight(self, kind, seed, omega):
        (x_i, x_j), joint = array_pair(seed, kind)
        if kind == "pmf":
            z_seq = np.concatenate(([1.0], np.random.default_rng(seed).uniform(0.05, 1.0, joint.size - 1)))
            rules = [
                lambda w: fusion.cardinality_emd(x_i, x_j, w),
                lambda w: fusion.fused_cardinality_p2(x_i, x_j, z_seq, w),
                lambda w: fusion.iid_cardinality_p2(x_i, x_j, -3.0 * omega, w),
            ]
        else:
            rules = [lambda w: fusion.localisation_emd(x_i, x_j, w)]
        for rule in rules:
            for end, x in ((0.0, x_i), (1.0, x_j)):
                fused, z = rule(end)
                assert fused is x and z == 1.0
            fused, z = rule(omega)
            assert 0.0 < z <= 1.0 + 1e-12
            assert np.all(_values(fused)[~joint] == 0.0)
            assert abs(_mass(fused) - 1.0) <= 1e-12
        fused = rules[0](omega)[0]
        assert np.all(_values(fused) >= np.minimum(_values(x_i), _values(x_j)) * (1.0 - 1e-12))


    @given(seed=SEEDS, omega=st.floats(0.01, 0.99))
    @settings(max_examples=25)
    def test_trusted_pmf_equals_public_constructor(self, seed, omega):
        (p_i, p_j), _ = array_pair(seed, "pmf")
        # a longer second pmf, so one input is padded
        p_j = sf.CardinalityPmf(np.concatenate((p_j.probs, np.zeros(seed % 3))))
        outputs = [
            fusion.cardinality_emd(p_i, p_j, omega)[0],
            fusion.iid_cardinality_p2(p_i, p_j, -3.0 * omega, omega)[0],
            sf.newton_cardinality(p_i, p_j, self.CONFIG)[1],
        ]
        for fused in outputs:
            np.testing.assert_array_equal(fused.probs, sf.CardinalityPmf(fused.probs).probs)
            assert not fused.probs.flags.writeable


def evaluator_case(case: str, seed: int):
    """An array pair, with a joint support that leaves out part of the
    arrays (``PARTIAL_SUPPORT``) or that covers them (``FULL_SUPPORT``): the
    evaluator built the way its callers build it, and what the gathered
    oracle needs (both arrays, the cell volume and the extra log term)."""
    rng = np.random.default_rng(seed)
    if case == "grid positive everywhere":
        raw = np.exp(rng.normal(0.0, 8.0, (2, 12, 17)))
        cell = rng.uniform(0.1, 2.0, 2)
        gi, gj = (sf.GridDensity(np.zeros(2), cell, v / (v.sum() * np.prod(cell))) for v in raw)
        return (lambda: quadrature.grid_log_moments(gi, gj)), gi.values, gj.values, gi.cell_volume, 0.0
    if case.startswith("positive pmfs"):
        p_i, p_j = (sf.CardinalityPmf(r / r.sum()) for r in rng.uniform(0.01, 1.0, (2, 9)))
        a, b = fusion._common_probs(p_i, p_j)
        log_extra = np.arange(a.size) * -3.0 if case.endswith("iid extra") else 0.0
        return (
            lambda: quadrature.tilted_log_moments(a, b, sf.CardinalityPmf._trusted, log_extra=log_extra)
        ), a, b, 1.0, log_extra
    if case in ("grid with zero regions", "tail overlap", "one shared cell"):
        if case == "grid with zero regions":
            shape = (12, 17)
            raw = np.exp(rng.normal(0.0, 8.0, (2, *shape)))
            raw[0, :4] = 0.0
            raw[1, :, 11:] = 0.0
            raw[1, 7:, 2:6] = 0.0
        else:
            # one input has fallen below 1e-200 where the other begins
            shape = (60,)
            cells = np.arange(60.0)
            overlap = 10 if case == "tail overlap" else 1
            raw = np.zeros((2, 60))
            raw[0, : 30 + overlap] = np.exp(-17.0 * cells[: 30 + overlap] * rng.uniform(0.9, 1.0))
            raw[1, 30:] = np.exp(rng.normal(0.0, 2.0, 30))
        cell = rng.uniform(0.1, 2.0, len(shape))
        gi, gj = (sf.GridDensity(np.zeros(len(shape)), cell, v / (v.sum() * np.prod(cell))) for v in raw)
        return (lambda: quadrature.grid_log_moments(gi, gj)), gi.values, gj.values, gi.cell_volume, 0.0
    # count pmfs of unequal length with zeros inside, the shorter one padded
    raw_i = rng.uniform(0.0, 1.0, 6) * (rng.uniform(size=6) > 0.3)
    raw_j = rng.uniform(0.0, 1.0, 11) * (rng.uniform(size=11) > 0.3)
    raw_i[[1, 4]] = raw_j[[1, 4]] = 0.5
    p_i, p_j = (sf.CardinalityPmf(r / r.sum()) for r in (raw_i, raw_j))
    a, b = fusion._common_probs(p_i, p_j)
    log_extra = 0.0
    if case != "padded pmfs":
        log_extra = np.arange(a.size) * (-3.0 if case == "iid extra" else -1800.0)
    return (
        lambda: quadrature.tilted_log_moments(a, b, sf.CardinalityPmf._trusted, log_extra=log_extra)
    ), a, b, 1.0, log_extra


PARTIAL_SUPPORT = ["grid with zero regions", "tail overlap", "one shared cell", "padded pmfs", "iid extra", "iid extra far apart"]
FULL_SUPPORT = ["grid positive everywhere", "positive pmfs", "positive pmfs iid extra"]


class TestWholeArrayEvaluator:
    """The evaluator works on the whole arrays, masking the entries off the
    joint support only when there are any; either way it must give what the
    gathered sums give."""

    @pytest.mark.parametrize("case", PARTIAL_SUPPORT + FULL_SUPPORT)
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_gathered_oracle(self, case, seed):
        make, a, b, volume, log_extra = evaluator_case(case, seed)
        evaluate = make()
        joint = (a > 0) & (b > 0)
        for w in (0.07, 0.5, 0.93):
            log_z, slope, curvature, values, points = gathered_moments(a, b, w, volume, log_extra)
            fused = evaluate(w)
            assert evaluate.points == points
            assert fused.log_z == pytest.approx(log_z, rel=1e-12, abs=1e-12)
            assert fused.slope == pytest.approx(slope, rel=1e-10, abs=1e-10)
            assert fused.curvature == pytest.approx(curvature, rel=1e-10, abs=1e-10)
            got = _values(fused.density())
            np.testing.assert_allclose(got, values, rtol=1e-12, atol=0)
            assert np.all(got[~joint] == 0.0)

    @pytest.mark.parametrize("case", PARTIAL_SUPPORT)
    def test_density_read_first_leaves_the_moments(self, case):
        evaluate = evaluator_case(case, 0)[0]()
        first = evaluate(0.3)
        density = _values(first.density())
        second = evaluate(0.3)
        assert (first.log_z, first.slope, first.curvature) == (second.log_z, second.slope, second.curvature)
        np.testing.assert_array_equal(density, _values(second.density()))

    def test_curvature_far_from_the_optimum(self):
        # slope^2 / curvature is about 4e4 here, so E[q^2] - slope^2 loses
        # about 4e4 eps of the curvature to rounding
        a, b = (binomial_pmf(200, p).probs for p in (0.01, 0.99))
        _, slope, curvature, _, _ = gathered_moments(a, b, 0.05)
        assert slope * slope / curvature >= 1e4
        fused = quadrature.tilted_log_moments(a, b, sf.CardinalityPmf._trusted)(0.05)
        assert fused.slope == pytest.approx(slope, rel=1e-10)
        assert fused.curvature == pytest.approx(curvature, rel=1e-10)

    def test_disjoint_pairs_raise(self):
        p_i, p_j = sf.CardinalityPmf([0.5, 0.5]), sf.CardinalityPmf([0.0, 0.0, 0.3, 0.7])
        with pytest.raises(sf.IncompatibleInputs, match="disjoint support"):
            quadrature.tilted_log_moments(*fusion._common_probs(p_i, p_j), sf.CardinalityPmf._trusted)
        values = np.zeros((2, 3, 4))
        values[0, :, :2] = values[1, :, 2:] = 1.0 / 6.0
        gi, gj = (sf.GridDensity(np.zeros(2), [1.0, 1.0], v) for v in values)
        with pytest.raises(sf.IncompatibleInputs, match="disjoint support"):
            quadrature.grid_log_moments(gi, gj)


def _unit_grid(cell, values):
    cell = np.asarray(cell, dtype=float)
    return sf.GridDensity(np.zeros(cell.size), cell, values / (values.sum() * np.prod(cell)))


def _grid_pair(gi, gj):
    return partial(quadrature.grid_log_moments, gi, gj), gi.values, gj.values, gi.cell_volume, 0.0


def _pmf_pair(a, b, log_extra=0.0):
    return partial(quadrature.tilted_log_moments, a, b, sf.CardinalityPmf._trusted, log_extra=log_extra), a, b, 1.0, log_extra


def regime_case(case: str):
    """An array pair whose plain sum of terms lies inside the evaluator's
    range at every weight given (``inside`` true) or outside it at every
    one: the evaluator built as its callers build it, the oracle's inputs
    (both arrays, cell volume, extra log term), the weights and ``inside``."""
    rng = np.random.default_rng(19)
    if case == "ordinary grid":
        return *_grid_pair(*quadrature.discretize_gaussians([UNIT, SHIFTED], points_per_axis=40)), (0.07, 0.5, 0.93), True
    if case == "ordinary pmf":
        return *_pmf_pair(*(binomial_pmf(35, p).probs for p in (0.98, 0.975))), (0.07, 0.5, 0.93), True
    if case == "tiny cells, tails overlap":
        # cell volume 1e-250, peaks near 2e249 and a joint support only
        # where both are e^-200: the sum is about 1e-86, so z_w, about
        # 1e-336, underflows
        raw = np.zeros((2, 30))
        raw[0, :20] = raw[1, 10:] = math.exp(-200.0)
        raw[0, :5] = raw[1, 25:] = 2e249
        return *_grid_pair(*(_unit_grid([1e-250], v) for v in raw)), (0.07, 0.5, 0.93), True
    if case == "pmfs below the range":
        # p(0) = 0 and log_extra = n log z with z = 1e-200: the sum is ~1e-200
        a, b = (np.concatenate(([0.0], r / r.sum())) for r in rng.uniform(0.1, 1.0, (2, 8)))
        return *_pmf_pair(a, b, np.arange(a.size) * math.log(1e-200)), (0.07, 0.5, 0.93), False
    if case == "grid above the range":
        # cell volume 1e-250, so the values are near 1e250
        raw = np.exp(rng.normal(0.0, 1.0, (2, 20, 20)))
        return *_grid_pair(*(_unit_grid([1e-125, 1e-125], v) for v in raw)), (0.07, 0.5, 0.93), False
    # Laplace densities 690 cells apart on one lattice: z_w is about e^-340
    # at w = 0.5, yet both are positive (above e^-700) on every cell
    x = np.arange(-10.0, 700.0) + 0.5
    return *_grid_pair(*(_unit_grid([1.0], np.exp(-abs(x - m))) for m in (0.0, 690.0))), (0.4, 0.5, 0.6), False


REGIME_CASES = [
    "ordinary grid", "ordinary pmf", "tiny cells, tails overlap",
    "pmfs below the range", "grid above the range", "far-apart grids",
]


class TestEvaluatorRegimes:
    """The plain sum of terms is used as it is inside [1e-100, 1e100], and
    ``_shifted_sum`` takes over outside it; both must give the gathered
    oracle's answers, and the shifted path must run on exactly the sums
    outside the range."""

    @pytest.mark.parametrize("case", REGIME_CASES)
    def test_matches_oracle_and_shifts_only_outside_the_range(self, case, monkeypatch):
        make, a, b, volume, log_extra, weights, inside = regime_case(case)
        calls = []
        shifted_sum = quadrature._shifted_sum

        def counted(logs):
            calls.append(1)
            return shifted_sum(logs)

        monkeypatch.setattr(quadrature, "_shifted_sum", counted)
        evaluate = make()
        for w in weights:
            log_z, slope, curvature, values, _ = gathered_moments(a, b, w, volume, log_extra)
            log_total = log_z - math.log(volume)
            assert (math.log(1e-100) <= log_total <= math.log(1e100)) == inside
            del calls[:]
            fused = evaluate(w)
            assert len(calls) == (0 if inside else 1)
            assert fused.log_z == pytest.approx(log_z, rel=1e-12, abs=1e-12)
            assert fused.slope == pytest.approx(slope, rel=1e-10, abs=1e-10)
            assert fused.curvature == pytest.approx(curvature, rel=1e-10, abs=1e-10)
            np.testing.assert_allclose(_values(fused.density()), values, rtol=1e-12, atol=0)


class TestDerivativeIdentity:
    def test_gradient_equals_scaled_divergence_gap(self, rng):
        # z' = z (D(rho_w||rho_i) - D(rho_w||rho_j)), checked against a
        # central difference of the closed-form scale
        h = 1e-5
        for _ in range(10):
            a, b = make_gaussian(rng), make_gaussian(rng)
            w = rng.uniform(0.1, 0.9)
            fused, z = fusion.localisation_emd(a, b, w)
            identity = z * (gaussian.kld(fused, a) - gaussian.kld(fused, b))
            fd = (fusion.localisation_emd(a, b, w + h)[1]
                  - fusion.localisation_emd(a, b, w - h)[1]) / (2 * h)
            assert identity == pytest.approx(fd, rel=1e-3, abs=1e-9)


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: quadrature.discretize_gaussians([]), (ValueError, "need at least one Gaussian"),
                     id="no Gaussians"),
        pytest.param(lambda: quadrature.discretize_gaussians([UNIT, sf.GaussianDensity([0.0], [[1.0]])]),
                     (ValueError, "Gaussian dimensions do not match"), id="mixed dimensions"),
        pytest.param(lambda: quadrature.grid_kld(*disjoint_grids()), math.inf, id="grid_kld off the support"),
    ],
)
def test_rarely_taken_branches(call, expected):
    check_outcome(call, expected)


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

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"points_per_axis": 0}, "points_per_axis must be an integer >= 1, got 0"),
            ({"points_per_axis": -3}, "points_per_axis must be an integer >= 1, got -3"),
            ({"points_per_axis": 2.5}, "points_per_axis must be an integer >= 1, got 2.5"),
            ({"points_per_axis": True}, "points_per_axis must be an integer >= 1, got True"),
            ({"extent_sigmas": math.nan}, "extent_sigmas must be finite and positive, got nan"),
            ({"extent_sigmas": math.inf}, "extent_sigmas must be finite and positive, got inf"),
            ({"extent_sigmas": 0.0}, "extent_sigmas must be finite and positive, got 0.0"),
            ({"extent_sigmas": -1.0}, "extent_sigmas must be finite and positive, got -1.0"),
            # valid but too coarse: one cell per axis holds the wrong mass
            ({"points_per_axis": 1}, "grid mass .* too far from 1"),
            # valid but too wide: the box's width overflows
            ({"extent_sigmas": 1e308}, "cell sizes must be positive and finite"),
        ],
        ids=["points-0", "points-neg", "points-float", "points-bool", "sigmas-nan", "sigmas-inf",
             "sigmas-0", "sigmas-neg", "coarse-lattice", "box-overflows"],
    )
    def test_argument_errors_name_the_argument(self, setting, message):
        with pytest.raises(ValueError, match=message):
            quadrature.discretize_gaussians([UNIT, SHIFTED], **setting)

    CORRELATED = np.array([[1.0, 0.999], [0.999, 1.0]])

    @pytest.mark.parametrize(
        "pair, message",
        [
            ([sf.GaussianDensity([1.7e308, 0.0], np.eye(2)), UNIT], "grid mass 0.0 too far from 1"),
            ([sf.GaussianDensity([0.0, 0.0], 1e308 * np.eye(2)), UNIT], "grid mass .* too far from 1"),
            ([sf.GaussianDensity([1e200, 0.0], np.eye(2)), UNIT], "grid mass 0.0 too far from 1"),
            # cells of about 1e305 per axis: the cell volume overflows
            ([sf.GaussianDensity([0.0, 0.0], CORRELATED), sf.GaussianDensity([1e307, -1e307], CORRELATED)],
             "grid mass nan too far from 1"),
            # at the lattice corner (1e155, 1e155) whitened coordinate 1 of the
            # first input is -inf + inf; that point reads 0, not NaN
            ([sf.GaussianDensity([0.0, 0.0], 1e-305 * CORRELATED),
              sf.GaussianDensity([1e155, 1e155], 1e-305 * CORRELATED)], "grid mass 0.0 too far from 1"),
            # means 3e308 apart: the cell size overflows
            ([sf.GaussianDensity([-1.5e308], [[1.0]]), sf.GaussianDensity([1.5e308], [[1.0]])],
             "cell sizes must be positive and finite"),
        ],
        ids=["mean-1.7e308", "variance-1e308", "mean-1e200", "volume-overflows", "whitened-inf-minus-inf",
             "cell-overflows"],
    )
    def test_overflowing_lattices_are_rejected(self, pair, message):
        """Lattices whose offsets, squares, cell size or cell volume
        overflow: each grid is rejected by its lattice or its mass, with no
        RuntimeWarning (which the test configuration turns into an error)."""
        with pytest.raises(ValueError, match=message):
            quadrature.discretize_gaussians(pair)

    def test_accepts_numpy_integer_sizes(self):
        gi, _ = quadrature.discretize_gaussians([UNIT, SHIFTED], np.int64(41), np.float64(6.0))
        assert gi.values.shape == (41, 41)

    @pytest.mark.parametrize("points, dim", [(100, 2), (200, 2), (40, 3), (401, 1)])
    def test_matches_solve_oracle_on_grid_stream_lattices(self, points, dim):
        """Pairs like the grid-stream benchmark's: condition numbers up to 40,
        major variances 0.5-2, means drawn in [-2, 2]^d."""
        rng = np.random.default_rng([points, dim])
        for _ in range(3):
            pair = []
            for _ in range(2):
                q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
                kappa = math.exp(rng.uniform(0.0, math.log(40.0)))
                eig = rng.uniform(0.5, 2.0) * kappa ** -np.linspace(0.0, 1.0, dim)
                cov = q @ np.diag(eig) @ q.T
                pair.append(sf.GaussianDensity(rng.uniform(-2.0, 2.0, dim), 0.5 * (cov + cov.T)))
            for g, grid in zip(pair, quadrature.discretize_gaussians(pair, points)):
                axes = [grid.origin[k] + (np.arange(points) + 0.5) * grid.cell_size[k] for k in range(dim)]
                centers = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
                values = np.exp(solve_log_density(g, centers)).reshape(grid.values.shape)
                expected = sf.GridDensity(grid.origin, grid.cell_size, values).values
                np.testing.assert_allclose(grid.values, expected, rtol=1e-12, atol=0.0)


class TestGridKld:
    """``grid_kld`` against values it must reproduce: the closed-form
    divergence of the Gaussians it discretises, and a two-cell case."""

    PAIRS = [
        (sf.GaussianDensity([0.0], [[1.0]]), sf.GaussianDensity([1.0], [[2.0]])),
        (UNIT, SHIFTED),
        (sf.GaussianDensity([0.0, 0.5], [[1.0, 0.3], [0.3, 0.5]]),
         sf.GaussianDensity([0.4, -0.2], [[0.8, -0.1], [-0.1, 1.2]])),
        (sf.GaussianDensity([0.0, 0.0, 0.0], np.eye(3)), sf.GaussianDensity([0.3, 0.0, -0.2], np.diag([1.5, 0.7, 1.0]))),
    ]

    @pytest.mark.parametrize("k", range(len(PAIRS)))
    def test_matches_closed_form_on_fine_grids(self, k):
        # 8 standard deviations leave a truncated mass below 1e-14; the
        # midpoint rule on these smooth densities is then exact to about
        # 1e-13 relative (the divergences lie between 0.12 and 2)
        p, q = self.PAIRS[k]
        grid_p, grid_q = quadrature.discretize_gaussians([p, q], 201 if p.dim < 3 else 41, 8.0)
        assert quadrature.grid_kld(grid_p, grid_q) == pytest.approx(gaussian.kld(p, q), rel=1e-11)
        assert quadrature.grid_kld(grid_q, grid_p) == pytest.approx(gaussian.kld(q, p), rel=1e-11)

    def test_two_cells_by_hand(self):
        # masses 3/4, 1/4 against 1/2, 1/2 on cells of width 1/2
        p = sf.GridDensity([0.0], [0.5], [1.5, 0.5])
        q = sf.GridDensity([0.0], [0.5], [1.0, 1.0])
        assert quadrature.grid_kld(p, q) == pytest.approx(0.75 * math.log(1.5) + 0.25 * math.log(0.5), rel=1e-15)
        assert quadrature.grid_kld(q, p) == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-15)
        assert quadrature.grid_kld(p, p) == 0.0

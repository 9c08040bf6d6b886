import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setfuse as sf
from setfuse import fusion, gaussian
from conftest import binomial_pmf, make_gaussian, random_pmf

UNIT = sf.GaussianDensity([0.0, 0.0], np.eye(2))


def gaussian_pair_with_scale(z_target):
    """Unit-covariance pair whose half-weight scale factor equals z_target."""
    distance = math.sqrt(-8.0 * math.log(z_target))
    return UNIT, sf.GaussianDensity([distance, 0.0], np.eye(2))


class TestFusedCardinality:
    def test_identical_inputs_and_unit_scales(self):
        p = sf.CardinalityPmf([0.2, 0.8])
        fused, norm = fusion.fused_cardinality_p2(p, p, [1.0, 1.0], 0.4)
        np.testing.assert_allclose(fused.probs, p.probs, atol=1e-15)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_hand_worked_two_point_case(self):
        p = sf.CardinalityPmf([0.2, 0.8])
        fused, norm = fusion.fused_cardinality_p2(p, p, [1.0, 0.5], 0.5)
        assert fused.probs[1] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert norm == pytest.approx(0.6, rel=1e-12)

    def test_disjoint_supports_error(self):
        p_i = sf.CardinalityPmf([1.0, 0.0])
        p_j = sf.CardinalityPmf([0.0, 1.0])
        with pytest.raises(ValueError, match="incompatible cardinality supports"):
            fusion.fused_cardinality_p2(p_i, p_j, [1.0, 1.0], 0.5)

    def test_scale_convention_enforced(self):
        p = sf.CardinalityPmf([0.2, 0.8])
        with pytest.raises(ValueError, match="z_seq\\[0\\]"):
            fusion.fused_cardinality_p2(p, p, [0.9, 0.5], 0.5)
        with pytest.raises(ValueError, match="\\(0, 1\\]"):
            fusion.fused_cardinality_p2(p, p, [1.0, 1.5], 0.5)

    def test_endpoints_return_inputs(self):
        p_i = sf.CardinalityPmf([0.2, 0.8])
        p_j = sf.CardinalityPmf([0.5, 0.5])
        fused, norm = fusion.fused_cardinality_p2(p_i, p_j, [1.0, 0.2], 0.0)
        np.testing.assert_array_equal(fused.probs, p_i.probs)
        assert norm == 1.0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40)
    def test_normalizer_never_exceeds_one(self, seed):
        rng = np.random.default_rng(seed)
        size = rng.integers(2, 9)
        p_i, p_j = random_pmf(rng, size, 0.01), random_pmf(rng, size, 0.01)
        z_seq = np.concatenate(([1.0], rng.uniform(0.05, 1.0, size - 1)))
        _, norm = fusion.fused_cardinality_p2(p_i, p_j, z_seq, rng.uniform(0.05, 0.95))
        assert norm <= 1.0 + 1e-12


class TestCardinalityEmd:
    def test_identical_inputs(self):
        p = sf.CardinalityPmf([0.3, 0.7])
        fused, norm = fusion.cardinality_emd(p, p, 0.25)
        np.testing.assert_allclose(fused.probs, p.probs, atol=1e-15)
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_zero_weight_endpoint_is_verbatim(self):
        p_i = sf.CardinalityPmf([0.2, 0.8])
        p_j = sf.CardinalityPmf([0.4, 0.6])
        fused, norm = fusion.cardinality_emd(p_i, p_j, 0.0)
        np.testing.assert_array_equal(fused.probs, p_i.probs)
        assert norm == 1.0

    def test_hand_worked_value(self):
        p_i = sf.CardinalityPmf([0.2, 0.8])
        p_j = sf.CardinalityPmf([0.4, 0.6])
        fused, _ = fusion.cardinality_emd(p_i, p_j, 0.5)
        expected = math.sqrt(0.48) / (math.sqrt(0.08) + math.sqrt(0.48))
        assert fused.probs[1] == pytest.approx(expected, rel=1e-12)
        assert fused.probs[1] == pytest.approx(0.71010, abs=1e-5)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60)
    def test_dominates_pointwise_minimum(self, seed):
        rng = np.random.default_rng(seed)
        size = rng.integers(2, 10)
        p_i, p_j = random_pmf(rng, size), random_pmf(rng, size)
        omega = rng.uniform(0.0, 1.0)
        fused, norm = fusion.cardinality_emd(p_i, p_j, omega)
        assert np.all(fused.probs >= np.minimum(p_i.probs, p_j.probs) - 1e-12)
        assert norm <= 1.0 + 1e-12

    def test_joint_rules_at_unit_scale_match(self, rng):
        # all three count rules share one kernel; at z_w = 1 they coincide
        for _ in range(10):
            p_i, p_j = random_pmf(rng, 7, 0.01), random_pmf(rng, 7, 0.01)
            w = rng.uniform(0.05, 0.95)
            emd, emd_norm = fusion.cardinality_emd(p_i, p_j, w)
            seq, seq_norm = fusion.fused_cardinality_p2(p_i, p_j, np.ones(7), w)
            iid, iid_norm = fusion.iid_cardinality_p2(p_i, p_j, 0.0, w)
            np.testing.assert_array_equal(seq.probs, emd.probs)
            np.testing.assert_array_equal(iid.probs, emd.probs)
            assert seq_norm == emd_norm == iid_norm

    def test_normalizer_strictly_below_one_for_distinct_inputs(self, rng):
        for _ in range(30):
            p_i, p_j = random_pmf(rng, 6, 0.01), random_pmf(rng, 6, 0.01)
            _, norm = fusion.cardinality_emd(p_i, p_j, 0.5)
            assert norm < 1.0


class TestBernoulliFusion:
    def test_identical_localisations_keep_alpha(self):
        f = sf.BernoulliRfs(0.8, UNIT)
        fused, z, alpha = fusion.bernoulli_fuse_p2(f, f, 0.5)
        assert z == pytest.approx(1.0, abs=1e-12)
        assert alpha == pytest.approx(0.8, abs=1e-12)

    def test_half_scale_drops_existence(self):
        rho_i, rho_j = gaussian_pair_with_scale(0.5)
        fused, z, alpha = fusion.bernoulli_fuse_p2(
            sf.BernoulliRfs(0.8, rho_i), sf.BernoulliRfs(0.8, rho_j), 0.5
        )
        assert z == pytest.approx(0.5, rel=1e-12)
        assert alpha == pytest.approx(2.0 / 3.0, rel=1e-9)

    def test_two_sensor_high_diversity_drops_below_half(self):
        cov_i = gaussian.make_rotated_covariance(40.0, 1.0 / 40.0, math.pi / 4)
        cov_j = gaussian.make_rotated_covariance(40.0, 1.0 / 40.0, -math.pi / 4)
        f_i = sf.BernoulliRfs(0.8, sf.GaussianDensity([0.25, 0.25], cov_i))
        f_j = sf.BernoulliRfs(0.8, sf.GaussianDensity([-0.75, -0.25], cov_j))
        _, _, alpha = fusion.bernoulli_fuse_p2(f_i, f_j, 0.5)
        assert alpha < 0.5

    def test_contradictory_existence_rejected(self):
        f_sure = sf.BernoulliRfs(1.0, UNIT)
        f_never = sf.BernoulliRfs(0.0, UNIT)
        with pytest.raises(ValueError, match="incompatible existence"):
            fusion.bernoulli_fuse_p2(f_sure, f_never, 0.5)

    def test_joint_nonexistence_is_valid(self):
        f = sf.BernoulliRfs(0.0, UNIT)
        fused, _, alpha = fusion.bernoulli_fuse_p2(f, f, 0.5)
        assert alpha == 0.0


class TestPoissonFusion:
    def test_identical_inputs(self):
        f = sf.PoissonRfs(4.0, UNIT)
        _, z, rate = fusion.poisson_fuse_p2(f, f, 0.3)
        assert z == pytest.approx(1.0, abs=1e-12)
        assert rate == pytest.approx(4.0, rel=1e-12)

    def test_endpoint_returns_first_input(self):
        f_i = sf.PoissonRfs(2.0, UNIT)
        f_j = sf.PoissonRfs(8.0, sf.GaussianDensity([1.0, 0.0], np.eye(2)))
        fused, z, rate = fusion.poisson_fuse_p2(f_i, f_j, 0.0)
        assert fused is f_i and z == 1.0 and rate == 2.0

    def test_rate_combines_geometrically_with_scale(self):
        rho_i, rho_j = gaussian_pair_with_scale(0.4)
        _, z, rate = fusion.poisson_fuse_p2(
            sf.PoissonRfs(2.0, rho_i), sf.PoissonRfs(8.0, rho_j), 0.5
        )
        assert rate == pytest.approx(4.0 * z, rel=1e-12)
        assert rate == pytest.approx(1.6, rel=1e-9)

    def test_zero_rate_absorbs(self):
        f_i = sf.PoissonRfs(0.0, UNIT)
        f_j = sf.PoissonRfs(5.0, UNIT)
        _, _, rate = fusion.poisson_fuse_p2(f_i, f_j, 0.5)
        assert rate == 0.0


class TestIidFusion:
    def test_unit_scale_keeps_cardinality(self):
        card = sf.CardinalityPmf([0.1, 0.4, 0.5])
        f = sf.IidClusterRfs(card, UNIT)
        fused, z, _ = fusion.iid_fuse_p2(f, f, 0.5, 2)
        assert z == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(fused.card.probs, card.probs, atol=1e-12)

    @pytest.mark.parametrize(
        "k,p_hi,p_lo,z_target",
        [(5, 0.95, 0.92, 0.3), (35, 0.98, 0.975, 0.5)],
    )
    def test_small_scale_shifts_map_down(self, k, p_hi, p_lo, z_target):
        rho_i, rho_j = gaussian_pair_with_scale(z_target)
        f_i = sf.IidClusterRfs(binomial_pmf(k, p_hi), rho_i)
        f_j = sf.IidClusterRfs(binomial_pmf(k, p_lo), rho_j)
        fused, z, _ = fusion.iid_fuse_p2(f_i, f_j, 0.5, k)
        # brute-force oracle over the full support
        geo = np.sqrt(f_i.card.probs * f_j.card.probs) * z ** np.arange(k + 1)
        assert fused.card.map_estimate() == int(np.argmax(geo))
        assert fused.card.map_estimate() < k

    def test_large_counts_do_not_underflow(self):
        # z_w = 6.7e-10, so z_w^n underflows to 0 for n = 38..40
        far = sf.GaussianDensity([13.0, 0.0], np.eye(2))
        probs_i, probs_j = np.zeros(41), np.zeros(41)
        probs_i[38:] = [0.2, 0.3, 0.5]
        probs_j[38:] = [0.5, 0.3, 0.2]
        f_i = sf.IidClusterRfs(sf.CardinalityPmf(probs_i), UNIT)
        f_j = sf.IidClusterRfs(sf.CardinalityPmf(probs_j), far)
        fused, z, _ = fusion.iid_fuse_p2(f_i, f_j, 0.5, 40)
        assert z == pytest.approx(math.exp(-13.0**2 / 8), rel=1e-9)
        logs = 0.5 * np.log(probs_i[38:] * probs_j[38:]) + np.arange(38, 41) * math.log(z)
        expected = np.exp(logs - logs.max())
        np.testing.assert_allclose(fused.card.probs[38:], expected / expected.sum(), rtol=1e-9)
        assert fused.card.probs[:38].sum() == 0.0

    def test_flushed_scale_factor_fuses(self):
        # log z_w = -1250, so z_w flushes to 0; the count rule reads log z_w
        far = sf.GaussianDensity([100.0, 0.0], np.eye(2))
        f_i = sf.IidClusterRfs(sf.CardinalityPmf([0.5, 0.5]), UNIT)
        f_j = sf.IidClusterRfs(sf.CardinalityPmf([0.5, 0.5]), far)
        fused, z, norm = fusion.iid_fuse_p2(f_i, f_j, 0.5, 1)
        np.testing.assert_array_equal(fused.card.probs, [1.0, 0.0])
        assert z == 0.0
        assert norm == pytest.approx(0.5, rel=1e-12)

    def test_propagates_disjoint_support_error(self):
        f_i = sf.IidClusterRfs(sf.CardinalityPmf([1.0, 0.0]), UNIT)
        f_j = sf.IidClusterRfs(sf.CardinalityPmf([0.0, 1.0]), UNIT)
        with pytest.raises(ValueError, match="incompatible cardinality supports"):
            fusion.iid_fuse_p2(f_i, f_j, 0.5, 1)


class TestLocalisationEmd:
    def test_mixed_representations_rejected(self):
        grid = sf.GridDensity([0.0, 0.0], [0.1, 0.1], np.ones((10, 10)))
        with pytest.raises(TypeError, match="share a representation"):
            fusion.localisation_emd(UNIT, grid, 0.5)


class TestPointwiseConsistency:
    def test_fused_density_never_below_both_inputs(self, rng):
        rho_i, rho_j = make_gaussian(rng), make_gaussian(rng)
        pairs = {
            "bernoulli": (sf.BernoulliRfs(0.7, rho_i), sf.BernoulliRfs(0.4, rho_j)),
            "poisson": (sf.PoissonRfs(3.0, rho_i), sf.PoissonRfs(1.2, rho_j)),
            "iid": (
                sf.IidClusterRfs(random_pmf(rng, 5, 0.02), rho_i),
                sf.IidClusterRfs(random_pmf(rng, 5, 0.02), rho_j),
            ),
        }
        for family, (f_i, f_j) in pairs.items():
            for _ in range(100):
                w = rng.uniform(0.05, 0.95)
                if family == "bernoulli":
                    fused = fusion.bernoulli_fuse_p2(f_i, f_j, w)[0]
                elif family == "poisson":
                    fused = fusion.poisson_fuse_p2(f_i, f_j, w)[0]
                else:
                    fused = fusion.iid_fuse_p2(f_i, f_j, w, 4)[0]
                n = rng.integers(0, 5)
                x = sf.FiniteSet(rng.uniform(-2, 2, (n, 2))) if n else sf.FiniteSet.empty(2)
                value = sf.rfs_density_eval(fused, x)
                floor = min(sf.rfs_density_eval(f_i, x), sf.rfs_density_eval(f_j, x))
                assert value >= floor - 1e-12


class TestDensityRelation:
    def test_consistent_and_joint_densities_are_proportional(self, rng):
        # the decoupled-consistent density equals the jointly fused one
        # scaled by E[z^n] / z^n at each cardinality
        from setfuse.diagnostics import pointwise_ratio

        for _ in range(5):
            rho_i, rho_j = make_gaussian(rng), make_gaussian(rng)
            f_i = sf.IidClusterRfs(random_pmf(rng, 5, 0.02), rho_i)
            f_j = sf.IidClusterRfs(random_pmf(rng, 5, 0.02), rho_j)
            w = rng.uniform(0.1, 0.9)
            joint, z, _ = fusion.iid_fuse_p2(f_i, f_j, w, 4)
            decoupled_card, _ = fusion.cardinality_emd(f_i.card, f_j.card, w)
            decoupled = sf.IidClusterRfs(decoupled_card, joint.loc)
            z_seq = z ** np.arange(5)
            for _ in range(40):
                n = rng.integers(0, 5)
                x = sf.FiniteSet(rng.uniform(-2, 2, (n, 2))) if n else sf.FiniteSet.empty(2)
                lhs = sf.rfs_density_eval(decoupled, x) * z_seq[n]
                ratio = pointwise_ratio(f_i.card, f_j.card, z_seq, w, n)
                rhs = ratio * z_seq[n] * sf.rfs_density_eval(joint, x)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-300)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import setfuse as sf
from setfuse import diagnostics, fusion, gaussian, solvers
from conftest import binomial_pmf, disjoint_grids, make_gaussian, random_pmf

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
        with pytest.raises(sf.IncompatibleInputs, match="disjoint support"):
            fusion.fused_cardinality_p2(p_i, p_j, [1.0, 1.0], 0.5)

    def test_scale_convention_enforced(self):
        p = sf.CardinalityPmf([0.2, 0.8])
        with pytest.raises(ValueError, match="z_seq\\[0\\]"):
            fusion.fused_cardinality_p2(p, p, [0.9, 0.5], 0.5)
        with pytest.raises(ValueError, match="\\(0, 1\\]"):
            fusion.fused_cardinality_p2(p, p, [1.0, 1.5], 0.5)

    def test_scale_range_checked_on_the_joint_support_at_every_weight(self):
        p_i = sf.CardinalityPmf([0.2, 0.3, 0.5, 0.0])
        p_j = sf.CardinalityPmf([0.1, 0.4, 0.0, 0.5])
        for w in (0.0, 0.5, 1.0):
            for bad in (1.5, 0.0, -0.2, math.nan):
                with pytest.raises(ValueError, match="\\(0, 1\\]"):
                    fusion.fused_cardinality_p2(p_i, p_j, [1.0, bad, 0.5, 0.5], w)
            # counts 2 and 3 lie off the joint support, so their scales are not read
            fusion.fused_cardinality_p2(p_i, p_j, [1.0, 0.5, 2.0, 0.0], w)

    def test_nan_scale_factors_rejected(self):
        p = sf.CardinalityPmf([0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="\\(0, 1\\]"):
            fusion.fused_cardinality_p2(p, p, [1.0, math.nan, 0.5], 0.5)
        with pytest.raises(ValueError, match="z_seq\\[0\\]"):
            fusion.fused_cardinality_p2(p, p, [math.nan, 1.0, 0.5], 0.5)

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

    def test_fields_are_named(self):
        rho_i, rho_j = gaussian_pair_with_scale(0.5)
        joint = fusion.bernoulli_fuse_p2(sf.BernoulliRfs(0.8, rho_i), sf.BernoulliRfs(0.8, rho_j), 0.5)
        assert joint.alpha == joint.fused.alpha == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert joint.z == pytest.approx(0.5, rel=1e-12)
        assert fusion.bernoulli_fuse_p2(joint.fused, joint.fused, 1.0).alpha == joint.alpha


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

    def test_fields_are_named(self):
        rho_i, rho_j = gaussian_pair_with_scale(0.4)
        joint = fusion.poisson_fuse_p2(sf.PoissonRfs(2.0, rho_i), sf.PoissonRfs(8.0, rho_j), 0.5)
        assert joint.rate == joint.fused.rate == pytest.approx(1.6, rel=1e-9)
        assert joint.z == pytest.approx(0.4, rel=1e-12)
        assert fusion.poisson_fuse_p2(joint.fused, joint.fused, 0.0).rate == joint.rate


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

    @pytest.mark.parametrize(
        "probs_i, probs_j, smallest",
        [([0.2, 0.5, 0.3], [0.6, 0.1, 0.3], 0), ([0.0, 0.4, 0.6], [0.1, 0.5, 0.2, 0.2], 1)],
        ids=["joint support from 0", "joint support from 1"],
    )
    def test_vanishing_scale_factor_takes_the_limit(self, probs_i, probs_j, smallest):
        """At log z_w = -inf all mass sits on the smallest joint count, as the
        finite rule already has it at log z_w = -1e6; the normalizer is
        p_i(0)^(1-w) p_j(0)^w when that count is 0, and 0 otherwise."""
        p_i, p_j = sf.CardinalityPmf(probs_i), sf.CardinalityPmf(probs_j)
        for omega in (0.3, 0.5):
            card, norm = fusion.iid_cardinality_p2(p_i, p_j, -math.inf, omega)
            near, near_norm = fusion.iid_cardinality_p2(p_i, p_j, -1e6, omega)
            np.testing.assert_array_equal(card.probs, near.probs)
            assert card.probs[smallest] == 1.0
            assert norm == pytest.approx(near_norm, rel=1e-15, abs=0.0)
            limit = probs_i[0] ** (1.0 - omega) * probs_j[0] ** omega if smallest == 0 else 0.0
            assert norm == pytest.approx(limit, rel=1e-15, abs=0.0)
        assert fusion.iid_cardinality_p2(p_i, p_j, -math.inf, 0.0) == (p_i, 1.0)
        assert fusion.iid_cardinality_p2(p_i, p_j, -math.inf, 1.0) == (p_j, 1.0)

    @pytest.mark.parametrize("log_z", [math.nan, 0.5, math.inf])
    def test_nan_or_positive_log_scale_factor_rejected(self, log_z):
        pmf = sf.CardinalityPmf([0.5, 0.5])
        with pytest.raises(ValueError, match="log scale factor must be <= 0"):
            fusion.iid_cardinality_p2(pmf, pmf, log_z, 0.5)

    def test_fields_are_named(self):
        far = sf.GaussianDensity([100.0, 0.0], np.eye(2))
        f_i = sf.IidClusterRfs(sf.CardinalityPmf([0.5, 0.5]), UNIT)
        f_j = sf.IidClusterRfs(sf.CardinalityPmf([0.5, 0.5]), far)
        joint = fusion.iid_fuse_p2(f_i, f_j, 0.5, 1)
        assert joint.normalizer == pytest.approx(0.5, rel=1e-12)
        assert joint.z == 0.0
        np.testing.assert_array_equal(joint.fused.card.probs, [1.0, 0.0])
        assert fusion.iid_fuse_p2(f_i, f_j, 1.0, 1).normalizer == 1.0

    def test_count_path_validates_no_pmf(self, monkeypatch):
        rho_i, rho_j = gaussian_pair_with_scale(0.5)
        pairs = [(binomial_pmf(5, 0.95), binomial_pmf(5, 0.6)), (binomial_pmf(5, 0.9), binomial_pmf(3, 0.5))]
        validated = []
        post_init = sf.CardinalityPmf.__post_init__
        monkeypatch.setattr(sf.CardinalityPmf, "__post_init__", lambda self: validated.append(post_init(self)))
        for p_i, p_j in pairs:
            f_i, f_j = sf.IidClusterRfs(p_i, rho_i), sf.IidClusterRfs(p_j, rho_j)
            assert sf.cardinality_of(f_i, 5) is p_i
            for n_max in (5, 8):
                assert fusion.iid_fuse_p2(f_i, f_j, 0.4, n_max).fused.card.n_max == n_max
            sf.newton_cardinality(p_i, p_j, sf.NewtonConfig())
        assert validated == []
        sf.CardinalityPmf([0.5, 0.5])
        assert len(validated) == 1

    def test_propagates_disjoint_support_error(self):
        f_i = sf.IidClusterRfs(sf.CardinalityPmf([1.0, 0.0]), UNIT)
        f_j = sf.IidClusterRfs(sf.CardinalityPmf([0.0, 1.0]), UNIT)
        with pytest.raises(sf.IncompatibleInputs, match="disjoint support"):
            fusion.iid_fuse_p2(f_i, f_j, 0.5, 1)


class TestCrossFamilyInputs:
    """A set rule fuses by the family of the rule that was called, whatever
    the family of its inputs."""

    @pytest.mark.parametrize(
        "f_i, f_j, n_max",
        [
            (sf.PoissonRfs(2.0, UNIT), sf.PoissonRfs(3.0, sf.GaussianDensity([1.0, 0.5], np.eye(2))), 30),
            (sf.BernoulliRfs(0.8, UNIT), sf.BernoulliRfs(0.6, sf.GaussianDensity([1.0, 0.5], np.eye(2))), 1),
        ],
        ids=["poisson", "bernoulli"],
    )
    def test_iid_rule_fuses_other_families_as_iid_clusters(self, f_i, f_j, n_max):
        as_iid = [sf.IidClusterRfs(sf.cardinality_of(f, n_max), f.loc) for f in (f_i, f_j)]
        for omega in (0.0, 0.3, 0.5, 1.0):
            joint = fusion.iid_fuse_p2(f_i, f_j, omega, n_max)
            expected = fusion.iid_fuse_p2(*as_iid, omega, n_max)
            assert isinstance(joint.fused, sf.IidClusterRfs)
            np.testing.assert_array_equal(joint.fused.card.probs, expected.fused.card.probs)
            np.testing.assert_array_equal(joint.fused.loc.mean, expected.fused.loc.mean)
            np.testing.assert_array_equal(joint.fused.loc.cov, expected.fused.loc.cov)
            assert (joint.z, joint.normalizer) == (expected.z, expected.normalizer)
        for omega, f in ((0.0, as_iid[0]), (1.0, as_iid[1])):
            joint = fusion.iid_fuse_p2(f_i, f_j, omega, n_max)
            np.testing.assert_array_equal(joint.fused.card.probs, f.card.probs)
            assert joint.fused.loc is f.loc and (joint.z, joint.normalizer) == (1.0, 1.0)

    @pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
    def test_iid_rule_checks_and_pads_the_count_range_at_every_weight(self, omega):
        poisson = sf.PoissonRfs(2.0, UNIT)
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            fusion.iid_fuse_p2(poisson, poisson, omega, -5)
        short = sf.IidClusterRfs(sf.CardinalityPmf([0.4, 0.6]), UNIT)
        assert fusion.iid_fuse_p2(short, short, omega, 4).fused.card.probs.tolist() == [0.4, 0.6, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
    def test_bernoulli_and_poisson_rules_reject_each_others_sets(self, omega):
        far = sf.GaussianDensity([1.0, 0.5], np.eye(2))
        poisson = (sf.PoissonRfs(2.0, UNIT), sf.PoissonRfs(3.0, far))
        bernoulli = (sf.BernoulliRfs(0.8, UNIT), sf.BernoulliRfs(0.6, far))
        with pytest.raises(AttributeError, match="'PoissonRfs' object has no attribute 'alpha'"):
            fusion.bernoulli_fuse_p2(*poisson, omega)
        with pytest.raises(AttributeError, match="'BernoulliRfs' object has no attribute 'rate'"):
            fusion.poisson_fuse_p2(*bernoulli, omega)


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



DISJOINT = (sf.CardinalityPmf([0.5, 0.5, 0.0]), sf.CardinalityPmf([0.0, 0.0, 1.0]))
GRIDS = disjoint_grids()


class TestIncompatibleInputs:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: fusion.bernoulli_fuse_p2(sf.BernoulliRfs(0.0, UNIT), sf.BernoulliRfs(1.0, UNIT), 0.5),
             "existence beliefs"),
            (lambda: fusion.cardinality_emd(*DISJOINT, 0.5), "disjoint support"),
            (lambda: solvers.newton_cardinality(*DISJOINT, sf.NewtonConfig()), "disjoint support"),
            (lambda: diagnostics.iid_inconsistency_threshold(*DISJOINT, 0.5, 0.5), "disjoint support"),
            (lambda: fusion.iid_cardinality_p2(*DISJOINT, -math.inf, 0.5), "disjoint support"),
            (lambda: DISJOINT[1].padded(1), "truncate"),
            (lambda: fusion.localisation_emd(*GRIDS, 0.5), "disjoint support"),
            (lambda: solvers.newton_localisation(*GRIDS, sf.NewtonConfig()), "disjoint support"),
            (lambda: fusion.bernoulli_fuse_p2(*(sf.BernoulliRfs(0.8, g) for g in GRIDS), 0.5), "disjoint support"),
            (lambda: solvers.consistent_fuse(*(sf.BernoulliRfs(0.8, g) for g in GRIDS), sf.NewtonConfig()),
             "disjoint support"),
        ],
        ids=[
            "alphas", "fusion supports", "solver supports", "diagnostics supports", "vanishing scale supports",
            "truncation",
            "grid fusion", "grid solver", "grid joint rule", "grid consistent fusion",
        ],
    )
    def test_typed_error_at_each_site(self, call, message):
        with pytest.raises(sf.IncompatibleInputs, match=message) as info:
            call()
        assert isinstance(info.value, ValueError)


# (offset between the two localisation means, covariance scale): overlapping,
# far apart, so far apart that z_w underflows to 0 (near-disjoint), the 1e154
# control, and four pairs whose d^2 / s overflows a float
SEPARATIONS = ((0.0, 1.0), (2.0, 1.0), (12.0, 1.0), (150.0, 1.0),
               (1e154, 1.0), (1.4e154, 1.0), (1e200, 1.0), (1e300, 1.0), (1e5, 1e-300))
TYPED_ERRORS = (sf.IncompatibleInputs,)


@st.composite
def gaussian_set_pairs(draw):
    """A same-family pair on Gaussian localisations of one shared dimension
    (1 to 3). IID pmfs of different lengths have zero counts, so some pairs
    share no count."""
    family = draw(st.sampled_from(["bernoulli", "poisson", "iid"]))
    offset, scale = draw(st.sampled_from(SEPARATIONS))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    dim = int(rng.integers(1, 4))
    loc_i, loc_j = (make_gaussian(rng, dim=dim, var_lo=0.1, var_hi=2.0) for _ in range(2))
    direction = rng.standard_normal(dim)
    loc_i = sf.GaussianDensity(loc_i.mean, loc_i.cov * scale)
    loc_j = sf.GaussianDensity(loc_j.mean + offset * direction / np.linalg.norm(direction), loc_j.cov * scale)
    if family == "bernoulli":
        return tuple(sf.BernoulliRfs(a, loc) for a, loc in zip(rng.uniform(0.01, 0.99, 2), (loc_i, loc_j)))
    if family == "poisson":
        return tuple(sf.PoissonRfs(r, loc) for r, loc in zip(rng.uniform(0.05, 30.0, 2), (loc_i, loc_j)))
    pmfs = []
    for size in rng.integers(2, 9, 2):
        raw = rng.uniform(0.0, 1.0, size) * (rng.uniform(size=size) > 0.3)
        raw[rng.integers(size)] += 0.5
        pmfs.append(sf.CardinalityPmf(raw / raw.sum()))
    return sf.IidClusterRfs(pmfs[0], loc_i), sf.IidClusterRfs(pmfs[1], loc_j)


def joint_rule(f_i, f_j, omega):
    """The family's joint (p2) rule: fused object, z_w, count parameter."""
    if isinstance(f_i, sf.BernoulliRfs):
        return fusion.bernoulli_fuse_p2(f_i, f_j, omega)
    if isinstance(f_i, sf.PoissonRfs):
        return fusion.poisson_fuse_p2(f_i, f_j, omega)
    return fusion.iid_fuse_p2(f_i, f_j, omega, max(f_i.card.n_max, f_j.card.n_max))


def count_pmf(f, n_max=150):
    """The count pmf of a set distribution on 0..n_max (the IID pmf itself)."""
    return f.card.probs if isinstance(f, sf.IidClusterRfs) else sf.cardinality_of(f, n_max).probs


def assert_finite(f):
    assert all(np.isfinite(x).all() for x in (count_pmf(f), f.loc.mean, f.loc.cov))


class TestWholeFusionProperties:
    """Laws of the whole fusions on Gaussian inputs of every family: each
    call gives a finite result or a typed error, for either input order."""

    CONFIG = sf.NewtonConfig(epsilon=1e-10)

    @given(pair=gaussian_set_pairs())
    @settings(max_examples=40)
    def test_consistent_fusion(self, pair):
        f_i, f_j = pair
        try:
            result = solvers.consistent_fuse(f_i, f_j, self.CONFIG)
        except TYPED_ERRORS as exc:
            with pytest.raises(type(exc)):
                solvers.consistent_fuse(f_j, f_i, self.CONFIG)
            return
        swapped = solvers.consistent_fuse(f_j, f_i, self.CONFIG)
        assert swapped.omega_card == pytest.approx(1.0 - result.omega_card, abs=1e-6)
        assert swapped.omega_loc[0] == pytest.approx(1.0 - result.omega_loc[0], abs=1e-6)
        assert_finite(result.fused)
        assert 0.0 <= result.z_values[0] <= 1.0 + 1e-12
        pmfs = [sf.CardinalityPmf(count_pmf(f)) for f in (f_i, f_j)]
        p_i, p_j = fusion._common_probs(*pmfs)
        fused = count_pmf(result.fused)
        assert np.all(fused >= np.minimum(p_i, p_j) * (1.0 - 1e-12))
        # the counts are fused at the weight the result reports
        at_weight = fusion.cardinality_emd(*pmfs, result.omega_card)[0]
        np.testing.assert_allclose(fused, at_weight.padded(fused.size - 1), rtol=1e-9, atol=1e-12)

    @given(pair=gaussian_set_pairs(), omega=st.floats(0.01, 0.99))
    @settings(max_examples=40)
    def test_joint_rules(self, pair, omega):
        f_i, f_j = pair
        for end, f in ((0.0, f_i), (1.0, f_j)):
            fused, z, _ = joint_rule(f_i, f_j, end)
            assert z == 1.0
            if isinstance(f, sf.IidClusterRfs):  # the input itself, on the joint count range
                n_max = max(f_i.card.n_max, f_j.card.n_max)
                np.testing.assert_array_equal(fused.card.probs, f.card.padded(n_max))
                assert fused.loc is f.loc
            else:
                assert fused is f
        try:
            fused, z, value = joint_rule(f_i, f_j, omega)
        except TYPED_ERRORS as exc:
            with pytest.raises(type(exc)):
                joint_rule(f_j, f_i, 1.0 - omega)
            return
        assert_finite(fused)
        assert 0.0 <= z <= 1.0 + 1e-12 and math.isfinite(value)
        swapped, z_swapped, value_swapped = joint_rule(f_j, f_i, 1.0 - omega)
        assert z_swapped == pytest.approx(z, rel=1e-9, abs=0.0)
        assert value_swapped == pytest.approx(value, rel=1e-9, abs=1e-300)
        np.testing.assert_allclose(count_pmf(swapped), count_pmf(fused), rtol=1e-8, atol=1e-300)

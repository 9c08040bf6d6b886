import math

import numpy as np
import pytest

import setfuse as sf
from setfuse import diagnostics, fusion
from conftest import binomial_pmf, random_pmf

TWO_POINT = sf.CardinalityPmf([0.2, 0.8])


class TestDirectCheck:
    def test_equal_pmfs_never_inconsistent(self):
        for n in range(2):
            assert not diagnostics.is_cardinality_inconsistent(
                TWO_POINT, TWO_POINT, TWO_POINT, n
            )

    def test_half_scale_fusion_flags_count_one_only(self):
        fused, _ = fusion.fused_cardinality_p2(TWO_POINT, TWO_POINT, [1.0, 0.5], 0.5)
        assert diagnostics.is_cardinality_inconsistent(fused, TWO_POINT, TWO_POINT, 1)
        assert not diagnostics.is_cardinality_inconsistent(fused, TWO_POINT, TWO_POINT, 0)


class TestGeneralBound:
    def test_equal_two_point_pmfs_bound_is_one(self):
        # hand evaluation: others = 0.2 * z(0) = 0.2; denominator
        # 0.8 / 0.8 - 0.8 = 0.2; any scale below 1 is inconsistent at n=1,
        # matching the equal-alpha reduction of the two-point special case
        bound = diagnostics.cardinality_inconsistency_bound(
            TWO_POINT, TWO_POINT, [1.0, 0.5], 0.5, 1
        )
        assert bound == pytest.approx(1.0, rel=1e-12)
        fused, _ = fusion.fused_cardinality_p2(TWO_POINT, TWO_POINT, [1.0, 0.5], 0.5)
        assert diagnostics.is_cardinality_inconsistent(fused, TWO_POINT, TWO_POINT, 1)

    def test_zero_probability_rejected(self):
        p = sf.CardinalityPmf([1.0, 0.0])
        with pytest.raises(ValueError, match="bound undefined"):
            diagnostics.cardinality_inconsistency_bound(p, TWO_POINT, [1.0, 1.0], 0.5, 1)

    def test_point_mass_case_returns_zero(self):
        p = sf.CardinalityPmf([0.0, 1.0])
        assert diagnostics.cardinality_inconsistency_bound(p, p, [1.0, 0.5], 0.5, 1) == 0.0

    def test_unit_scales_on_equal_pmfs_never_trigger(self, rng):
        # degenerate joint fusion: fused equals the inputs, and no unit
        # scale falls below its bound
        for _ in range(20):
            p = random_pmf(rng, 5, 0.02)
            z_seq = np.ones(5)
            omega = rng.uniform(0.1, 0.9)
            for n in range(5):
                assert not diagnostics.is_cardinality_inconsistent(p, p, p, n)
                bound = diagnostics.cardinality_inconsistency_bound(p, p, z_seq, omega, n)
                assert bound <= 1.0 + 1e-12  # exact value is 1; boundary is ulp-noisy

    def test_implication_on_random_instances(self, rng):
        triggered = 0
        for _ in range(300):
            size = int(rng.integers(2, 8))
            p_i, p_j = random_pmf(rng, size, 0.01), random_pmf(rng, size, 0.01)
            omega = rng.uniform(0.05, 0.95)
            z_seq = np.concatenate(([1.0], rng.uniform(0.02, 1.0, size - 1)))
            fused, _ = fusion.fused_cardinality_p2(p_i, p_j, z_seq, omega)
            for n in range(1, size):
                bound = diagnostics.cardinality_inconsistency_bound(
                    p_i, p_j, z_seq, omega, n
                )
                if z_seq[n] < bound:
                    triggered += 1
                    assert diagnostics.is_cardinality_inconsistent(fused, p_i, p_j, n)
        assert triggered > 50


class TestBernoulliBound:
    def test_equal_alphas_reduce_to_unity(self):
        for alpha in (0.2, 0.5, 0.8):
            assert diagnostics.bernoulli_inconsistency_bound(alpha, alpha, 0.5) == \
                pytest.approx(1.0, rel=1e-12)

    def test_near_unit_scale_still_drops_existence(self):
        z = 0.9999
        present = 0.8 * z
        alpha = present / (0.2 + present)
        assert alpha < 0.8
        assert z < diagnostics.bernoulli_inconsistency_bound(0.8, 0.8, 0.5)

    def test_scan_oracle_for_unequal_alphas(self):
        alpha_i, alpha_j, omega = 0.9, 0.5, 0.5
        bound = diagnostics.bernoulli_inconsistency_bound(alpha_i, alpha_j, omega)
        for z in np.linspace(0.001, bound * 0.999, 200):
            present = alpha_i ** (1 - omega) * alpha_j**omega * z
            absent = (1 - alpha_i) ** (1 - omega) * (1 - alpha_j) ** omega
            assert present / (absent + present) < min(alpha_i, alpha_j)

    def test_degenerate_alphas_rejected(self):
        with pytest.raises(ValueError):
            diagnostics.bernoulli_inconsistency_bound(0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            diagnostics.bernoulli_inconsistency_bound(0.5, 1.0, 0.5)


class TestPoissonCondition:
    def test_equal_rates_bound_is_one(self):
        bound, triggered = diagnostics.poisson_inconsistency(3.0, 3.0, 0.999)
        assert bound == 1.0 and triggered

    def test_rate_pair_bound_and_trigger(self):
        bound, triggered = diagnostics.poisson_inconsistency(2.0, 8.0, 0.2)
        assert bound == pytest.approx(0.25)
        assert triggered
        assert math.sqrt(2.0 * 8.0) * 0.2 < 2.0

    def test_bound_is_sufficient_not_necessary(self):
        bound, triggered = diagnostics.poisson_inconsistency(2.0, 8.0, 0.4)
        assert not triggered
        # yet the fused expectation still undershoots at the half weight
        assert math.sqrt(2.0 * 8.0) * 0.4 < 2.0

    def test_trigger_implies_drop_for_every_weight(self, rng):
        for _ in range(200):
            l_i, l_j = rng.uniform(0.2, 20.0, 2)
            z = rng.uniform(0.01, 1.0)
            bound, triggered = diagnostics.poisson_inconsistency(l_i, l_j, z)
            if triggered:
                for w in np.linspace(0.0, 1.0, 21):
                    assert l_i ** (1 - w) * l_j**w * z < min(l_i, l_j)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            diagnostics.poisson_inconsistency(0.0, 2.0, 0.5)


class TestIidBound:
    def test_algebraic_inverse_identity(self, rng):
        for _ in range(50):
            size = int(rng.integers(2, 9))
            p_i, p_j = random_pmf(rng, size, 0.01), random_pmf(rng, size, 0.01)
            omega = rng.uniform(0.05, 0.95)
            z = rng.uniform(0.05, 0.95)
            n = int(rng.integers(1, size))
            bound = diagnostics.iid_inconsistency_bound(p_i, p_j, omega, n, z)
            geo = p_i.prob(n) ** (1 - omega) * p_j.prob(n) ** omega
            norm = sum(
                p_i.prob(m) ** (1 - omega) * p_j.prob(m) ** omega * z**m
                for m in range(size)
            )
            assert bound**n * geo / norm == pytest.approx(
                min(p_i.prob(n), p_j.prob(n)), rel=1e-9
            )

    def test_brute_force_on_uniform_support(self):
        p = sf.CardinalityPmf([0.0, 0.5, 0.5])
        omega, z = 0.5, 0.5
        z_seq = z ** np.arange(3)
        fused, _ = fusion.fused_cardinality_p2(p, p, z_seq, omega)
        for n in (1, 2):
            bound = diagnostics.iid_inconsistency_bound(p, p, omega, n, z)
            if z < bound:
                assert diagnostics.is_cardinality_inconsistent(fused, p, p, n)

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError, match="n = 0"):
            diagnostics.iid_inconsistency_bound(TWO_POINT, TWO_POINT, 0.5, 0, 0.5)

    def test_bound_rises_with_count_for_binomial_pair(self):
        p_i, p_j = binomial_pmf(5, 0.95), binomial_pmf(5, 0.92)
        bounds = [
            diagnostics.iid_inconsistency_bound(p_i, p_j, 0.5, n, 0.5)
            for n in range(1, 6)
        ]
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_bound_approaches_one_for_large_counts(self):
        size = 51
        p = sf.CardinalityPmf(np.full(size, 1.0 / size))
        small = diagnostics.iid_inconsistency_bound(p, p, 0.5, 2, 0.5)
        large = diagnostics.iid_inconsistency_bound(p, p, 0.5, 50, 0.5)
        assert large > small
        assert abs(large - 1.0) < 0.1


class TestIidThreshold:
    def test_guarantee_on_binomial_pair(self):
        p_i, p_j = binomial_pmf(5, 0.95), binomial_pmf(5, 0.92)
        omega, z = 0.5, 0.8
        eta = diagnostics.iid_inconsistency_threshold(p_i, p_j, omega, z)
        fused, _ = fusion.fused_cardinality_p2(p_i, p_j, z ** np.arange(6), omega)
        for n in range(6):
            if n > eta and min(p_i.prob(n), p_j.prob(n)) > 0:
                assert diagnostics.is_cardinality_inconsistent(fused, p_i, p_j, n)

    def test_equal_inputs_threshold_positive(self, rng):
        p = random_pmf(rng, 6, 0.05)
        z = 0.5
        eta = diagnostics.iid_inconsistency_threshold(p, p, 0.5, z)
        norm = float(np.sum(p.probs * z ** np.arange(6)))
        assert eta == pytest.approx(math.log(norm) / math.log(z))
        assert eta > 0

    def test_unit_scale_rejected(self):
        with pytest.raises(ValueError, match="\\(0, 1\\)"):
            diagnostics.iid_inconsistency_threshold(TWO_POINT, TWO_POINT, 0.5, 1.0)

    def test_flushed_scale_gives_smallest_joint_count(self):
        p_i, p_j = binomial_pmf(20, 0.7), binomial_pmf(20, 0.9)
        assert diagnostics.iid_inconsistency_threshold(p_i, p_j, 0.5, 0.0) == 0.0

    def test_threshold_diverges_as_scale_approaches_one(self):
        p_i, p_j = binomial_pmf(5, 0.95), binomial_pmf(5, 0.92)
        moderate = diagnostics.iid_inconsistency_threshold(p_i, p_j, 0.5, 0.5)
        near_one = diagnostics.iid_inconsistency_threshold(p_i, p_j, 0.5, 1.0 - 1e-9)
        assert near_one > moderate
        assert near_one > 1e6  # no finite-count guarantee survives z -> 1


class TestPointwiseRatio:
    def test_unit_scales_give_unit_ratio(self, rng):
        p_i, p_j = random_pmf(rng, 4, 0.05), random_pmf(rng, 4, 0.05)
        for n in range(4):
            assert diagnostics.pointwise_ratio(p_i, p_j, np.ones(4), 0.4, n) == \
                pytest.approx(1.0, rel=1e-12)

    def test_hand_worked_two_point_case(self):
        ratio = diagnostics.pointwise_ratio(TWO_POINT, TWO_POINT, [1.0, 0.5], 0.5, 1)
        assert ratio == pytest.approx(1.2, rel=1e-12)

    def test_geometric_scales_exceed_one_for_large_counts(self):
        size = 12
        p = sf.CardinalityPmf(np.full(size, 1.0 / size))
        z_seq = 0.5 ** np.arange(size)
        assert diagnostics.pointwise_ratio(p, p, z_seq, 0.5, size - 1) > 1.0

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="ratio undefined"):
            diagnostics.pointwise_ratio(TWO_POINT, TWO_POINT, [1.0, 0.0], 0.5, 1)

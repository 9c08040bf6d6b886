import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import setfuse as sf
from setfuse import diagnostics, fusion
from conftest import binomial_pmf, random_pmf

TWO_POINT = sf.CardinalityPmf([0.2, 0.8])
THREE_POINT = sf.CardinalityPmf([0.2, 0.3, 0.5])


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

    def test_negative_or_nan_scale_rejected(self):
        for z in (-0.5, math.nan):
            with pytest.raises(ValueError, match="nonnegative"):
                diagnostics.iid_inconsistency_bound(TWO_POINT, TWO_POINT, 0.5, 1, z)

    def test_scale_above_one_rejected(self):
        # Hoelder bounds z_w by 1; the slack is the joint rule's on log z_w
        for z in (math.inf, 1e308, 2.0, 1.0 + 1e-9):
            with pytest.raises(ValueError, match="at most 1"):
                diagnostics.iid_inconsistency_bound(TWO_POINT, THREE_POINT, 0.5, 1, z)
        assert diagnostics.iid_inconsistency_bound(TWO_POINT, THREE_POINT, 0.5, 1, 1.0) > 0.0

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


    def test_tiny_scale_stays_positive(self):
        # z^n underflows to 0 at z = 1e-200, n = 2, 3; the bound reads n log z
        p_i, p_j = sf.CardinalityPmf([0, 0, 0.5, 0.5]), sf.CardinalityPmf([0, 0, 0.3, 0.7])
        assert diagnostics.iid_inconsistency_bound(p_i, p_j, 0.5, 3, 1e-200) > 0.0

    def test_flushed_scale_gives_limit(self):
        # at z = 0 only the n = 0 term of the normalizer survives
        p_i, p_j = sf.CardinalityPmf([0.2, 0.3, 0.5]), sf.CardinalityPmf([0.4, 0.4, 0.2])
        geo = np.sqrt(p_i.probs * p_j.probs)
        expected = math.sqrt(geo[0] * 0.2 / geo[2])
        assert diagnostics.iid_inconsistency_bound(p_i, p_j, 0.5, 2, 0.0) == pytest.approx(expected, rel=1e-12)
        p_i, p_j = sf.CardinalityPmf([0, 0, 0.5, 0.5]), sf.CardinalityPmf([0, 0, 0.3, 0.7])
        assert diagnostics.iid_inconsistency_bound(p_i, p_j, 0.5, 3, 0.0) == 0.0


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

    def test_tiny_scale_on_support_above_zero(self):
        p_i, p_j = sf.CardinalityPmf([0, 0, 0.5, 0.5]), sf.CardinalityPmf([0, 0, 0.3, 0.7])
        eta = diagnostics.iid_inconsistency_threshold(p_i, p_j, 0.5, 1e-200)
        assert eta == pytest.approx(2.003, abs=5e-4)

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


def _decimal_reference(p_i, p_j, omega, z, n):
    """The IID bound at count n and the threshold, from the gather formula
    over the joint support in 50-digit decimal arithmetic: N_w = sum of
    p_i(m)^(1-w) p_j(m)^w z^m, gamma = the least min(p_i, p_j) / (p_i^(1-w)
    p_j^w), bound = (N_w min(p_i(n), p_j(n)) / (p_i(n)^(1-w) p_j(n)^w))^(1/n)
    and threshold = log(N_w gamma) / log z, or the smallest joint count at
    z = 0."""
    with localcontext() as ctx:
        ctx.prec = 50
        w, z = Decimal(omega), Decimal(z)
        joint = [(m, Decimal(a), Decimal(b)) for m, (a, b) in enumerate(zip(p_i.probs, p_j.probs)) if a > 0 and b > 0]
        geo = {m: a ** (1 - w) * b**w for m, a, b in joint}
        norm = sum(geo[m] * (z**m if m else 1) for m, _, _ in joint)
        gamma = min(min(a, b) / geo[m] for m, a, b in joint)
        bound = None
        if n is not None:
            ratio = Decimal(min(p_i.prob(n), p_j.prob(n))) / geo[n]
            bound = float(((norm * ratio).ln() / n).exp()) if norm else 0.0
        if z == 0:
            return bound, float(joint[0][0])
        threshold = float((norm * gamma).ln() / z.ln()) if z < 1 else None
        return bound, threshold


def _iid_pairs(rng):
    """Seeded pmf pairs: of unequal lengths with zero cells inside the
    common range, then pairs whose log ratio q = log p_j - log p_i is
    negative at every joint count, each also swapped, so q is positive."""
    pairs = []
    for _ in range(16):
        probs = [rng.dirichlet(np.ones(size)) for size in rng.integers(3, 14, 2)]
        for p in probs:
            p[rng.random(p.size) < 0.3] = 0.0
        joint = rng.integers(0, min(p.size for p in probs))
        for p in probs:
            p[joint] = rng.uniform(0.05, 0.5)
        pairs.append(tuple(sf.CardinalityPmf(p / p.sum()) for p in probs))
    for _ in range(6):
        a = rng.dirichlet(np.ones(rng.integers(2, 10)))
        b = a * rng.uniform(0.2, 0.9, a.size)
        # the rest of b's mass lies past a's last count, off the joint support
        b = np.concatenate((b, [1.0 - b.sum()]))
        pairs += [(sf.CardinalityPmf(a), sf.CardinalityPmf(b)), (sf.CardinalityPmf(b), sf.CardinalityPmf(a))]
    return pairs


class TestIidAgainstDecimalReference:
    """Both IID diagnostics against a 50-digit gather over the joint
    support, a reference that shares no code with the joint rule's
    evaluator."""

    def test_bound_and_threshold_match_reference(self):
        rng = np.random.default_rng(20261022)
        checked = 0
        for p_i, p_j in _iid_pairs(rng):
            positive = [m for m in range(1, min(p_i.n_max, p_j.n_max) + 1) if p_i.prob(m) > 0 and p_j.prob(m) > 0]
            for omega in (0.01, 0.3, 0.5, 0.99):
                for z in (0.0, 5e-324, 1e-300, 0.5, 1.0 - 1e-12, 1.0):
                    n = int(rng.choice(positive)) if positive else None
                    bound, threshold = _decimal_reference(p_i, p_j, omega, z, n)
                    if n is not None:
                        got = diagnostics.iid_inconsistency_bound(p_i, p_j, omega, n, z)
                        assert got == pytest.approx(bound, rel=1e-12, abs=0.0)
                    if z < 1.0:
                        got = diagnostics.iid_inconsistency_threshold(p_i, p_j, omega, z)
                        assert got == pytest.approx(threshold, rel=1e-12, abs=0.0)
                    checked += 1
        assert checked == 28 * 4 * 6

    def test_sign_of_the_log_ratio_on_the_joint_support(self):
        # the pairs past the first 16 have q < 0, then q > 0, at every joint count
        pairs = _iid_pairs(np.random.default_rng(20261022))[16:]
        for k, (p_i, p_j) in enumerate(pairs):
            a, b = fusion._common_probs(p_i, p_j)
            joint = (a > 0) & (b > 0)
            q = np.log(b[joint]) - np.log(a[joint])
            assert (q < 0).all() if k % 2 == 0 else (q > 0).all()
            assert not joint.all()


# the three general-sequence functions, each with z_seq as its third argument
GENERAL_SEQUENCE_CALLS = {
    "joint rule": lambda p_i, p_j, z: fusion.fused_cardinality_p2(p_i, p_j, z, 0.5),
    "bound": lambda p_i, p_j, z: diagnostics.cardinality_inconsistency_bound(p_i, p_j, z, 0.5, 1),
    "ratio": lambda p_i, p_j, z: diagnostics.pointwise_ratio(p_i, p_j, z, 0.5, 1),
}


class TestScaleSequenceCheck:
    P_I, P_J = sf.CardinalityPmf([0.2, 0.5, 0.3]), sf.CardinalityPmf([0.1, 0.3, 0.6])

    @pytest.mark.parametrize("name", GENERAL_SEQUENCE_CALLS)
    @pytest.mark.parametrize("z_seq", [[1.0, 0.5, math.nan], [1.0, 0.5, -5.0], [1.0, 0.5, math.inf]],
                             ids=["nan", "negative", "inf"])
    def test_value_outside_unit_interval_rejected(self, name, z_seq):
        with pytest.raises(ValueError, match=r"scale factors must lie in \(0, 1\] on the joint support"):
            GENERAL_SEQUENCE_CALLS[name](self.P_I, self.P_J, z_seq)

    @pytest.mark.parametrize("name", GENERAL_SEQUENCE_CALLS)
    def test_first_scale_must_be_one(self, name):
        with pytest.raises(ValueError, match=r"z_seq\[0\] must be 1"):
            GENERAL_SEQUENCE_CALLS[name](self.P_I, self.P_J, [0.9, 0.5, 0.25])

    def test_ratio_needs_the_common_range_at_every_weight(self):
        # at w = 0 the fused pmf is the two-count input, yet z_seq must still
        # cover the three counts of the pair
        p_i, p_j = sf.CardinalityPmf([0.5, 0.5]), sf.CardinalityPmf([0.2, 0.3, 0.5])
        for omega in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError, match="z_seq must cover the joint support"):
                diagnostics.pointwise_ratio(p_i, p_j, [1.0, 0.5], omega, 1)

    @pytest.mark.parametrize("name", GENERAL_SEQUENCE_CALLS)
    def test_values_off_the_joint_support_are_free(self, name):
        # count 2 is joint for neither pair below, so its scale is never read
        p_i, p_j = sf.CardinalityPmf([0.5, 0.5]), sf.CardinalityPmf([0.2, 0.3, 0.5])
        GENERAL_SEQUENCE_CALLS[name](p_i, p_j, [1.0, 0.5, -5.0])


class TestArgumentRanges:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: fusion.fused_cardinality_p2(THREE_POINT, THREE_POINT, [1.0, 0.5], 0.5),
             "z_seq must cover every cardinality of the joint support"),
            (lambda: diagnostics.cardinality_inconsistency_bound(THREE_POINT, THREE_POINT, [1.0, 0.5], 0.5, 1),
             "z_seq must cover every cardinality of the joint support"),
            (lambda: diagnostics.pointwise_ratio(THREE_POINT, THREE_POINT, [1.0, 0.5], 0.5, 1),
             "z_seq must cover the joint support"),
            (lambda: diagnostics.iid_inconsistency_bound(sf.CardinalityPmf([0.5, 0.0, 0.5]), THREE_POINT, 0.5, 1, 0.5),
             "bound undefined: both pmfs must be positive at n"),
            (lambda: diagnostics.poisson_inconsistency(math.nan, 2.0, 0.5), "rates must be positive and finite"),
            (lambda: diagnostics.poisson_inconsistency(2.0, math.nan, 0.5), "rates must be positive and finite"),
            (lambda: diagnostics.poisson_inconsistency(math.inf, 2.0, 0.5), "rates must be positive and finite"),
            (lambda: diagnostics.poisson_inconsistency(2.0, 8.0, math.nan), "scale factor must be nonnegative"),
            (lambda: diagnostics.poisson_inconsistency(2.0, 8.0, -1.0), "scale factor must be nonnegative"),
        ],
        ids=["short z_seq in the joint rule", "short z_seq in the bound", "short z_seq in the ratio",
             "iid bound where a pmf is 0", "nan first Poisson rate", "nan second Poisson rate",
             "infinite Poisson rate", "nan Poisson scale factor", "negative Poisson scale factor"],
    )
    def test_input_the_rule_cannot_use_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_negative_count_rejected(self):
        p_i, p_j = sf.CardinalityPmf([0.2, 0.3, 0.5]), sf.CardinalityPmf([0.3, 0.3, 0.4])
        z_seq = [1.0, 0.5, 0.25]
        for n in (-1, -3):
            with pytest.raises(ValueError, match="n must be >= 0"):
                diagnostics.pointwise_ratio(p_i, p_j, z_seq, 0.5, n)

    @pytest.mark.parametrize("omega", [-0.1, 1.5, math.nan])
    def test_weight_outside_unit_interval_rejected(self, omega):
        p_i, p_j = sf.CardinalityPmf([0.2, 0.3, 0.5]), sf.CardinalityPmf([0.3, 0.3, 0.4])
        calls = (
            lambda: diagnostics.cardinality_inconsistency_bound(p_i, p_j, [1.0, 0.5, 0.25], omega, 1),
            lambda: diagnostics.bernoulli_inconsistency_bound(0.8, 0.6, omega),
            lambda: diagnostics.iid_inconsistency_bound(p_i, p_j, omega, 1, 0.5),
            lambda: diagnostics.iid_inconsistency_threshold(p_i, p_j, omega, 0.5),
            lambda: diagnostics.pointwise_ratio(p_i, p_j, [1.0, 0.5, 0.25], omega, 1),
        )
        for call in calls:
            with pytest.raises(ValueError, match="omega must lie in"):
                call()

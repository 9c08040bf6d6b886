import dataclasses
import math
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

import setfuse as sf
from setfuse import fusion, gaussian, quadrature, solvers
from setfuse.solvers import DEGENERATE_CARD_FLAG, SINGLE_COUNT_FLAG
from conftest import binomial_pmf, check_outcome, make_gaussian, random_pmf

UNIT = sf.GaussianDensity([0.0, 0.0], np.eye(2))
SHIFTED = sf.GaussianDensity([2.0, 0.0], np.eye(2))


def two_sensor_pair(kappa):
    cov_i = gaussian.make_rotated_covariance(kappa, 1.0 / kappa, math.pi / 4)
    cov_j = gaussian.make_rotated_covariance(kappa, 1.0 / kappa, -math.pi / 4)
    return (
        sf.GaussianDensity([0.25, 0.25], cov_i),
        sf.GaussianDensity([-0.75, -0.25], cov_j),
    )


class TestNewtonConfig:
    def test_defaults_are_valid(self):
        cfg = sf.NewtonConfig()
        assert cfg.omega_init == 0.5 and cfg.epsilon == 1e-4 and cfg.max_iters == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega_init": 1.5},
            {"epsilon": 0.0},
            {"omega_clamp": 0.7},
            {"max_iters": 0},
            {"max_iters": 2.5},
            {"max_iters": True},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            sf.NewtonConfig(**kwargs)

    def test_seed_is_discarded(self):
        assert sf.NewtonConfig(seed=3) == sf.NewtonConfig()
        assert "seed" not in repr(sf.NewtonConfig(seed=3))
        names = [f.name for f in dataclasses.fields(sf.NewtonConfig)]
        assert names == ["omega_init", "epsilon", "max_iters", "omega_clamp"]

    def test_seed_is_not_an_attribute(self):
        assert not hasattr(sf.NewtonConfig(seed=3), "seed")
        assert dataclasses.replace(sf.NewtonConfig(seed=3), max_iters=5) == sf.NewtonConfig(max_iters=5)

    def test_sample_count_is_gone(self):
        with pytest.raises(TypeError):
            sf.NewtonConfig(mc_samples=1000)


class TestChernoffObjective:
    def test_endpoints_and_identity(self):
        assert sf.chernoff_objective(UNIT, SHIFTED, 0.0) == 0.0
        assert sf.chernoff_objective(UNIT, UNIT, 0.37) == pytest.approx(0.0, abs=1e-12)

    def test_canonical_value(self):
        assert sf.chernoff_objective(UNIT, SHIFTED, 0.5) == pytest.approx(0.5, rel=1e-9)

    def test_grid_path_agrees(self):
        gi, gj = quadrature.discretize_gaussians([UNIT, SHIFTED])
        assert sf.chernoff_objective(gi, gj, 0.5) == pytest.approx(0.5, rel=1e-3)


class TestNewtonLocalisation:
    def test_symmetric_pair_converges_to_half(self):
        rho_i, rho_j = two_sensor_pair(1.0)
        omega, fused, z, trace = sf.newton_localisation(rho_i, rho_j, sf.NewtonConfig(seed=0))
        assert omega == pytest.approx(0.5, abs=1e-3)
        assert trace.converged and trace.iterations <= 10

    def test_identical_inputs_degenerate(self):
        omega, fused, z, trace = sf.newton_localisation(UNIT, UNIT, sf.NewtonConfig())
        assert omega == 0.5 and z == 1.0 and fused is UNIT
        assert any(flag.startswith("degenerate") for flag in trace.flags)

    def test_trace_reproducible_for_fixed_seed(self):
        rho_i, rho_j = two_sensor_pair(10.0)
        cfg = sf.NewtonConfig(seed=99)
        first = sf.newton_localisation(rho_i, rho_j, cfg)
        second = sf.newton_localisation(rho_i, rho_j, cfg)
        assert first[0] == second[0]
        assert first[3].records == second[3].records

    def test_seed_has_no_effect(self):
        rho_i, rho_j = two_sensor_pair(10.0)
        first = sf.newton_localisation(rho_i, rho_j, sf.NewtonConfig(seed=0))
        second = sf.newton_localisation(rho_i, rho_j, sf.NewtonConfig(seed=7))
        assert first[0] == second[0]
        assert first[3].records == second[3].records

    def test_exchange_symmetry(self, rng):
        cfg = sf.NewtonConfig(epsilon=1e-8)
        # offsets up to 80 against variances down to 0.1 put many pairs so far
        # apart that their density products underflow
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            a = make_gaussian(rng, dim=dim, mean_scale=40.0, var_lo=0.1, var_hi=2.0)
            b = make_gaussian(rng, dim=dim, mean_scale=40.0, var_lo=0.1, var_hi=2.0)
            w_ij = sf.newton_localisation(a, b, cfg)[0]
            w_ji = sf.newton_localisation(b, a, cfg)[0]
            assert w_ij == pytest.approx(1.0 - w_ji, abs=1e-6)

    def test_disjoint_grids_rejected(self):
        gi = sf.GridDensity([0.0], [0.5], [2.0, 0.0])
        gj = sf.GridDensity([0.0], [0.5], [0.0, 2.0])
        with pytest.raises(sf.IncompatibleInputs, match="disjoint support"):
            sf.newton_localisation(gi, gj, sf.NewtonConfig())

    def test_grid_path_matches_gaussian_path(self):
        rho_i, rho_j = two_sensor_pair(10.0)
        grid_i, grid_j = quadrature.discretize_gaussians([rho_i, rho_j])
        w_gauss, _, _, _ = sf.newton_localisation(
            rho_i, rho_j, sf.NewtonConfig(seed=1, epsilon=1e-6)
        )
        w_grid, _, _, trace = sf.newton_localisation(
            grid_i, grid_j, sf.NewtonConfig(epsilon=1e-6)
        )
        assert trace.converged
        assert w_grid == pytest.approx(w_gauss, abs=5e-3)

    def test_divergences_balance_at_optimum(self):
        rho_i, rho_j = two_sensor_pair(20.0)
        cfg = sf.NewtonConfig(seed=2, epsilon=1e-6)
        omega, fused, z, _ = sf.newton_localisation(rho_i, rho_j, cfg)
        residual = sf.kld_balance_residual(fused, rho_i, rho_j)
        assert abs(residual) < 1e-4

    def test_objective_nondecreasing_along_trace(self):
        rho_i, rho_j = two_sensor_pair(30.0)
        _, _, _, trace = sf.newton_localisation(rho_i, rho_j, sf.NewtonConfig(seed=3))
        objectives = [r.objective for r in trace.records]
        assert all(b >= a - 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_poor_start_is_safeguarded(self):
        rho_i, rho_j = two_sensor_pair(40.0)
        cfg = sf.NewtonConfig(omega_init=0.999, seed=4)
        omega, _, _, trace = sf.newton_localisation(rho_i, rho_j, cfg)
        assert trace.converged
        assert 0.0 < omega < 1.0

    def test_default_clamp_bounds_the_start(self):
        # a start at an end of [0, 1] moves in to the default clamp, 1e-6
        for start, first in ((0.0, 1e-6), (1.0, 1.0 - 1e-6)):
            _, _, _, trace = sf.newton_localisation(UNIT, SHIFTED, sf.NewtonConfig(omega_init=start))
            assert trace.converged and trace.records[0].omega == first

    def test_creeping_grid_pair_converges(self):
        # one shared cell holds the mass; on every other joint cell q is
        # about -99, so l' < 0 at every weight with l'' / |l'| near 99, and
        # each plain Newton step moves w by about 0.01: 50 of them end at
        # w = 0.9974. A Newton step longer than half the step before last
        # bisects instead.
        rho_i = sf.GridDensity([1000.0], [624.1], [1.6e-3, 1e-40, 1e-45, 0.0, 1e-42])
        rho_j = sf.GridDensity([1000.0], [624.1], [1.6e-3, 1e-83, 1e-88, 0.0, 1e-85])
        omega, _, _, trace = sf.newton_localisation(rho_i, rho_j, sf.NewtonConfig())
        assert trace.converged and trace.iterations <= 20
        assert 1.0 - 1e-4 < omega < 1.0
        assert all(record.slope < 0.0 for record in trace.records)

    def test_newton_step_that_grows_the_slope_is_rejected(self):
        # from w = 0.5 the Newton step lands at w = 0.91, where |l'| is
        # larger; that evaluation is dropped unrecorded and w bisects to 0.75
        evaluate = solvers._localisation_pair(sf.GaussianDensity([0.0], [[1.0]]), sf.GaussianDensity([1.0], [[25.0]]))
        weights = []

        def recording(w):
            weights.append(w)
            return evaluate(w)

        omega, _, trace = solvers._newton_weight(recording, sf.NewtonConfig())
        iterates = [record.omega for record in trace.records]
        assert weights == [0.5, pytest.approx(0.9104364801320559, rel=1e-9), *iterates[1:]]
        expected = [0.5, 0.7499995, 0.7340946065575147, 0.7331741072498846, 0.7331713280358202]
        assert iterates == pytest.approx(expected, rel=1e-9)
        assert omega == iterates[-1] and trace.iterations == 4

    def test_mixed_representation_rejected(self):
        grid = quadrature.discretize_gaussians([UNIT])[0]
        with pytest.raises(TypeError, match="share a representation"):
            sf.newton_localisation(UNIT, grid, sf.NewtonConfig())


class TestNewtonCardinality:
    def test_low_binomial_pair(self):
        p_i, p_j = binomial_pmf(5, 0.95), binomial_pmf(5, 0.92)
        omega, fused, trace = sf.newton_cardinality(p_i, p_j, sf.NewtonConfig())
        assert omega == pytest.approx(0.5182, abs=1e-3)
        assert trace.iterations <= 5
        assert abs(sf.kld_balance_residual(fused, p_i, p_j)) < 1e-6

    def test_high_binomial_pair(self):
        p_i, p_j = binomial_pmf(35, 0.98), binomial_pmf(35, 0.975)
        omega, _, trace = sf.newton_cardinality(p_i, p_j, sf.NewtonConfig())
        assert omega == pytest.approx(0.5090, abs=1e-3)
        assert trace.iterations <= 5

    def test_identical_pmfs_degenerate(self):
        p = sf.CardinalityPmf([0.3, 0.7])
        omega, fused, trace = sf.newton_cardinality(p, p, sf.NewtonConfig())
        assert omega == 0.5 and fused is p
        assert any(flag.startswith("degenerate") for flag in trace.flags)
        short, padded = sf.CardinalityPmf([0.0, 1.0]), sf.CardinalityPmf([0.0, 1.0, 0.0])
        for a, b in ((short, padded), (padded, short)):
            assert sf.newton_cardinality(a, b, sf.NewtonConfig())[1] is padded

    def test_single_common_support_point_fuses_to_it(self):
        p_i = sf.CardinalityPmf([0.5, 0.5, 0.0])
        p_j = sf.CardinalityPmf([0.0, 0.5, 0.5])
        for a, b in ((p_i, p_j), (p_j, p_i)):
            omega, fused, trace = sf.newton_cardinality(a, b, sf.NewtonConfig(max_iters=1))
            assert omega == 0.5
            np.testing.assert_array_equal(fused.probs, [0.0, 1.0, 0.0])
            assert trace.flags == (SINGLE_COUNT_FLAG,) and trace.converged and trace.iterations == 0

    def test_disjoint_supports_rejected(self):
        p_i = sf.CardinalityPmf([1.0, 0.0])
        p_j = sf.CardinalityPmf([0.0, 0.5, 0.5])
        with pytest.raises(sf.IncompatibleInputs, match="disjoint support"):
            sf.newton_cardinality(p_i, p_j, sf.NewtonConfig())

    def test_exhausted_iterations_raise_with_trace(self):
        p_i, p_j = binomial_pmf(5, 0.95), binomial_pmf(5, 0.92)
        cfg = sf.NewtonConfig(omega_init=0.99, max_iters=1)
        with pytest.raises(sf.SolverError) as err:
            sf.newton_cardinality(p_i, p_j, cfg)
        assert not err.value.trace.converged
        assert len(err.value.trace.records) >= 1

    @pytest.mark.parametrize("nan_below", [1.0, 0.4], ids=["at start", "at a later step"])
    def test_nan_slope_raises_with_trace(self, nan_below):
        # a NaN slope compares as neither negative nor larger in size, so
        # read as a number it would steer the bracket towards the clamp
        def evaluate(w):
            slope = math.nan if w < nan_below else 1.0
            return SimpleNamespace(log_z=-0.1, slope=slope, curvature=1.0)

        with pytest.raises(sf.SolverError, match="non-finite") as err:
            solvers._newton_weight(evaluate, sf.NewtonConfig())
        trace = err.value.trace
        assert not trace.converged
        assert math.isnan(trace.records[-1].slope)
        assert all(not math.isnan(record.slope) for record in trace.records[:-1])

    def test_exchange_symmetry(self, rng):
        for _ in range(15):
            p_i, p_j = random_pmf(rng, 6, 0.01), random_pmf(rng, 6, 0.01)
            cfg = sf.NewtonConfig(epsilon=1e-8)
            w_ij, fused_ij, _ = sf.newton_cardinality(p_i, p_j, cfg)
            w_ji, fused_ji, _ = sf.newton_cardinality(p_j, p_i, cfg)
            assert w_ij == pytest.approx(1.0 - w_ji, abs=1e-6)
            np.testing.assert_allclose(fused_ij.probs, fused_ji.probs, rtol=1e-6)

    def test_final_gradient_is_stationary(self, rng):
        for _ in range(10):
            p_i, p_j = random_pmf(rng, 7, 0.01), random_pmf(rng, 7, 0.01)
            _, _, trace = sf.newton_cardinality(p_i, p_j, sf.NewtonConfig(epsilon=1e-8))
            final = trace.records[-1]
            assert abs(final.slope) < 1e-6


class TestClosedForms:
    def test_bernoulli_symmetric_case(self):
        out = sf.bernoulli_closed_form(0.8, 0.8)
        assert out == (0.5, 0.8, False)

    def test_bernoulli_against_dense_grid_search(self):
        omega_grid = np.linspace(0.0, 1.0, 100001)
        for a_i, a_j in [(0.8, 0.6), (0.6, 0.8)]:
            out = sf.bernoulli_closed_form(a_i, a_j)
            norms = (1 - a_i) ** (1 - omega_grid) * (1 - a_j) ** omega_grid \
                + a_i ** (1 - omega_grid) * a_j**omega_grid
            assert out.omega == pytest.approx(omega_grid[np.argmin(norms)], abs=1e-4)
        fwd, rev = sf.bernoulli_closed_form(0.8, 0.6), sf.bernoulli_closed_form(0.6, 0.8)
        assert fwd.omega == pytest.approx(1.0 - rev.omega, abs=1e-12)
        assert fwd.alpha == pytest.approx(rev.alpha, abs=1e-12)

    def test_bernoulli_rejects_degenerate_alphas(self):
        for bad in [(0.0, 0.5), (0.5, 1.0)]:
            with pytest.raises(ValueError):
                sf.bernoulli_closed_form(*bad)

    def test_poisson_symmetric_case(self):
        assert sf.poisson_closed_form(3.0, 3.0) == (0.5, 3.0)

    def test_poisson_against_truncated_grid_search(self):
        from scipy.stats import poisson as sp_poisson

        n = np.arange(61)
        omega_grid = np.linspace(0.0, 1.0, 10001)[:, None]
        for l_i, l_j in [(2.0, 3.0), (3.0, 2.0), (0.7, 11.0)]:
            p_i = sp_poisson.pmf(n, l_i)
            p_j = sp_poisson.pmf(n, l_j)
            terms = np.exp(
                (1 - omega_grid) * np.log(p_i) + omega_grid * np.log(p_j)
            ).sum(axis=1)
            grid_best = omega_grid[np.argmin(terms), 0]
            out = sf.poisson_closed_form(l_i, l_j)
            assert out.omega == pytest.approx(grid_best, abs=1e-3)
            assert out.rate == pytest.approx(l_i ** (1 - out.omega) * l_j**out.omega)
        fwd, rev = sf.poisson_closed_form(3.0, 2.0), sf.poisson_closed_form(2.0, 3.0)
        assert fwd.omega == pytest.approx(1.0 - rev.omega, abs=1e-9)

    def test_poisson_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            sf.poisson_closed_form(-1.0, 2.0)

    @pytest.mark.parametrize("rates", [(math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0), (2.0, math.inf)])
    def test_poisson_rejects_non_finite_rates(self, rates):
        with pytest.raises(ValueError, match="rates must be positive and finite"):
            sf.poisson_closed_form(*rates)

    def test_cardinality_solver_agrees_with_bernoulli_closed_form(self, rng):
        for _ in range(100):
            a_i, a_j = rng.uniform(0.05, 0.95, 2)
            closed = sf.bernoulli_closed_form(a_i, a_j)
            newton, _, _ = sf.newton_cardinality(
                sf.CardinalityPmf([1 - a_i, a_i]),
                sf.CardinalityPmf([1 - a_j, a_j]),
                sf.NewtonConfig(epsilon=1e-8),
            )
            assert newton == pytest.approx(closed.omega, abs=1e-4)

    def test_cardinality_solver_agrees_with_poisson_closed_form(self, rng):
        for _ in range(100):
            l_i, l_j = rng.uniform(0.5, 20.0, 2)
            closed = sf.poisson_closed_form(l_i, l_j)
            n_max = sf.default_poisson_n_max(max(l_i, l_j))
            newton, _, _ = sf.newton_cardinality(
                sf.cardinality_of(sf.PoissonRfs(l_i, UNIT), n_max),
                sf.cardinality_of(sf.PoissonRfs(l_j, UNIT), n_max),
                sf.NewtonConfig(epsilon=1e-8),
            )
            assert newton == pytest.approx(closed.omega, abs=1e-3)


def _decimal_log_ratio(num: Decimal, den: Decimal, diff: Decimal) -> Decimal:
    """ln(num / den), given diff = num - den, to about 35 digits."""
    x = diff / den
    return x - x * x / 2 + x**3 / 3 if abs(x) < Decimal("1e-12") else (num / den).ln()


def decimal_bernoulli_weight(alpha_i: float, alpha_j: float) -> float:
    """(log(A / P) - logit alpha_i) / (A + P) in 50-digit arithmetic, with
    A = log((1 - alpha_i) / (1 - alpha_j)) and P = log(alpha_j / alpha_i)."""
    with localcontext() as ctx:
        ctx.prec = 50
        a_i, a_j = Decimal(alpha_i), Decimal(alpha_j)
        absent = _decimal_log_ratio(1 - a_i, 1 - a_j, a_j - a_i)
        present = _decimal_log_ratio(a_j, a_i, a_j - a_i)
        return float(((absent / present).ln() - (a_i / (1 - a_i)).ln()) / (absent + present))


def decimal_poisson_weight(rate_i: float, rate_j: float) -> float:
    """log((r - 1) / log r) / log r for r = rate_j / rate_i, in 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        l_i, l_j = Decimal(rate_i), Decimal(rate_j)
        log_r = _decimal_log_ratio(l_j, l_i, l_j - l_i)
        return float(((l_j - l_i) / l_i / log_r).ln() / log_r)


def near_and_extreme_pairs(bases, upper):
    """Each base against a neighbour a few ulps to a relative 0.1 away,
    and every base against every other."""
    pairs = set()
    for a in bases:
        for rel in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1):
            for b in (a * (1 - rel), a * (1 + rel), math.nextafter(a, 0.0), math.nextafter(a, upper)):
                if 0.0 < b < upper and b != a:
                    pairs.add((a, b))
        pairs.update((a, b) for b in bases if b != a)
    return sorted(pairs)


BERNOULLI_PAIRS = near_and_extreme_pairs([1e-300, 1e-13, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6, 1 - 1e-12], 1.0)
POISSON_PAIRS = near_and_extreme_pairs([1e-300, 1e-13, 1e-6, 0.5, 1.0, 3.0, 1e6, 1e13, 1e150], math.inf)


class TestClosedFormAccuracy:
    def test_bernoulli_matches_decimal_reference(self):
        for a_i, a_j in BERNOULLI_PAIRS:
            out = sf.bernoulli_closed_form(a_i, a_j)
            assert not out.clamped
            assert out.omega == pytest.approx(decimal_bernoulli_weight(a_i, a_j), abs=1e-14), (a_i, a_j)

    def test_poisson_matches_decimal_reference(self):
        for l_i, l_j in POISSON_PAIRS:
            out = sf.poisson_closed_form(l_i, l_j)
            assert out.omega == pytest.approx(decimal_poisson_weight(l_i, l_j), abs=1e-14), (l_i, l_j)

    @pytest.mark.parametrize("closed_form,pairs", [
        (sf.bernoulli_closed_form, BERNOULLI_PAIRS),
        (sf.poisson_closed_form, POISSON_PAIRS),
    ])
    def test_swapping_inputs_mirrors_the_weight(self, closed_form, pairs):
        for x_i, x_j in pairs:
            fwd, rev = closed_form(x_i, x_j), closed_form(x_j, x_i)
            assert fwd.omega == pytest.approx(1.0 - rev.omega, abs=1e-14), (x_i, x_j)
            assert 0.0 <= fwd.omega <= 1.0


class TestKldBalanceResidual:
    def test_endpoint_sign(self):
        p_i, p_j = binomial_pmf(5, 0.95), binomial_pmf(5, 0.92)
        residual = sf.kld_balance_residual(p_i, p_i, p_j)
        assert residual == pytest.approx(-sf.pmf_kld(p_i, p_j), rel=1e-12)
        assert residual < 0

    def test_identical_inputs_zero(self):
        assert sf.kld_balance_residual(UNIT, UNIT, UNIT) == 0.0

    def test_grid_dispatch(self):
        gi, gj = quadrature.discretize_gaussians([UNIT, SHIFTED])
        fused, _ = fusion.localisation_emd(gi, gj, 0.5)
        residual = sf.kld_balance_residual(fused, gi, gj)
        assert residual == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: sf.kld_balance_residual("fused", UNIT, UNIT),
                     (TypeError, "unsupported density type str"), id="kld_balance_residual type"),
        pytest.param(lambda: sf.consistent_fuse(SimpleNamespace(loc=UNIT), SimpleNamespace(loc=UNIT),
                                                sf.NewtonConfig()),
                     (TypeError, "unsupported finite-set distribution SimpleNamespace"), id="consistent_fuse type"),
        pytest.param(lambda: sf.FusionResult(sf.PoissonRfs(1.0, UNIT), 1.5, (0.5,), (1.0,)),
                     (ValueError, "all fusion weights must lie in [0, 1]"), id="FusionResult weights"),
    ],
)
def test_rarely_taken_branches(call, expected):
    check_outcome(call, expected)


class TestConsistentFuse:
    def test_family_mismatch_rejected(self):
        f_b = sf.BernoulliRfs(0.5, UNIT)
        f_p = sf.PoissonRfs(2.0, UNIT)
        with pytest.raises(ValueError, match="families"):
            sf.consistent_fuse(f_b, f_p, sf.NewtonConfig())

    @pytest.mark.parametrize("family", ["bernoulli", "poisson", "iid"])
    def test_identical_inputs_are_fixed_points(self, family):
        if family == "bernoulli":
            f = sf.BernoulliRfs(0.8, UNIT)
        elif family == "poisson":
            f = sf.PoissonRfs(2.5, UNIT)
        else:
            f = sf.IidClusterRfs(sf.CardinalityPmf([0.2, 0.5, 0.3]), UNIT)
        result = sf.consistent_fuse(f, f, sf.NewtonConfig())
        assert result.omega_card == 0.5
        assert result.omega_loc == (0.5,)
        assert any(flag.startswith("degenerate") for flag in result.flags)
        if family == "bernoulli":
            assert result.fused.alpha == 0.8
        elif family == "poisson":
            assert result.fused.rate == 2.5
        else:
            np.testing.assert_array_equal(result.fused.card.probs, f.card.probs)

    def test_equal_existence_beliefs_survive_any_diversity(self):
        # fused existence stays at the shared input value no matter how the
        # localisation problem resolves
        for kappa in (1.0, 10.0, 25.0, 40.0):
            rho_i, rho_j = two_sensor_pair(kappa)
            result = sf.consistent_fuse(
                sf.BernoulliRfs(0.8, rho_i),
                sf.BernoulliRfs(0.8, rho_j),
                sf.NewtonConfig(seed=7),
            )
            assert result.omega_card == pytest.approx(0.5, abs=1e-9)
            assert result.fused.alpha == pytest.approx(0.8, abs=1e-9)

    def test_poisson_uses_closed_form_rate(self):
        rho_i, rho_j = two_sensor_pair(5.0)
        result = sf.consistent_fuse(
            sf.PoissonRfs(2.0, rho_i), sf.PoissonRfs(8.0, rho_j), sf.NewtonConfig(seed=8)
        )
        closed = sf.poisson_closed_form(2.0, 8.0)
        assert result.omega_card == pytest.approx(closed.omega, rel=1e-12)
        assert result.fused.rate == pytest.approx(closed.rate, rel=1e-12)
        # fused rate never falls below both inputs
        assert result.fused.rate >= min(2.0, 8.0)

    def test_iid_map_preserved_where_joint_fusion_dropped_it(self):
        rho_i, rho_j = two_sensor_pair(30.0)
        f_i = sf.IidClusterRfs(binomial_pmf(5, 0.95), rho_i)
        f_j = sf.IidClusterRfs(binomial_pmf(5, 0.92), rho_j)
        result = sf.consistent_fuse(f_i, f_j, sf.NewtonConfig(seed=9))
        assert result.fused.card.map_estimate() == 5
        joint, z, _ = fusion.iid_fuse_p2(f_i, f_j, 0.5, 5)
        assert z < 0.3
        assert joint.card.map_estimate() < 5

    def test_exchange_symmetry(self):
        rho_i, rho_j = two_sensor_pair(12.0)
        f_i = sf.BernoulliRfs(0.9, rho_i)
        f_j = sf.BernoulliRfs(0.6, rho_j)
        cfg = sf.NewtonConfig(seed=10, epsilon=1e-8)
        fwd = sf.consistent_fuse(f_i, f_j, cfg)
        rev = sf.consistent_fuse(f_j, f_i, cfg)
        assert fwd.omega_card == pytest.approx(1.0 - rev.omega_card, abs=1e-9)
        assert fwd.omega_loc[0] == pytest.approx(1.0 - rev.omega_loc[0], abs=1e-6)
        assert fwd.fused.alpha == pytest.approx(rev.fused.alpha, abs=1e-9)

    @pytest.mark.parametrize("dim,distance", [(2, 100.0), (3, 120.0)])
    def test_far_apart_inputs_converge(self, dim, distance):
        # every density product underflows; the log-space solver still
        # finds the symmetric weight and reports the flushed scale factor
        mean_j = np.zeros(dim)
        mean_j[0] = distance
        f_i = sf.BernoulliRfs(0.6, sf.GaussianDensity(np.zeros(dim), np.eye(dim)))
        f_j = sf.BernoulliRfs(0.8, sf.GaussianDensity(mean_j, np.eye(dim)))
        result = sf.consistent_fuse(f_i, f_j, sf.NewtonConfig())
        assert result.omega_loc[0] == pytest.approx(0.5, abs=1e-6)
        assert result.z_values[0] == 0.0
        assert result.fused.alpha >= 0.6

    @pytest.mark.parametrize("grid", [False, True])
    @pytest.mark.parametrize("family", ["bernoulli", "poisson", "iid"])
    def test_fused_density_built_once_without_validation(self, monkeypatch, family, grid):
        rho_i, rho_j = two_sensor_pair(10.0)
        if grid:
            rho_i, rho_j = quadrature.discretize_gaussians([rho_i, rho_j], points_per_axis=41)
        if family == "bernoulli":
            f_i, f_j = sf.BernoulliRfs(0.9, rho_i), sf.BernoulliRfs(0.6, rho_j)
        elif family == "poisson":
            f_i, f_j = sf.PoissonRfs(2.0, rho_i), sf.PoissonRfs(5.0, rho_j)
        else:
            f_i, f_j = sf.IidClusterRfs(binomial_pmf(5, 0.95), rho_i), sf.IidClusterRfs(binomial_pmf(5, 0.92), rho_j)
        calls = []

        def counted(owner, name):
            # a density() call is recorded by the type it builds: the array
            # evaluator builds IID count pmfs as well as fused grids
            method = getattr(owner, name)

            def call(*args):
                out = method(*args)
                calls.append(type(out).__name__ if name == "density" else name)
                return out

            monkeypatch.setattr(owner, name, call)

        counted(sf.GaussianDensity, "__post_init__")
        counted(sf.GridDensity, "__post_init__")
        counted(gaussian._Fused, "density")
        counted(quadrature._Fused, "density")
        loc = "GridDensity" if grid else "GaussianDensity"
        sf.newton_localisation(rho_i, rho_j, sf.NewtonConfig())
        assert calls == [loc]
        sf.consistent_fuse(f_i, f_j, sf.NewtonConfig())
        pmfs = ["CardinalityPmf"] if family == "iid" else []
        assert calls == [loc, loc, *pmfs]

    @pytest.mark.parametrize("family", ["bernoulli", "poisson"])
    def test_closed_form_families_never_iterate_on_counts(self, monkeypatch, family):
        def forbidden(*args):
            raise AssertionError("newton_cardinality called")

        monkeypatch.setattr(sf.solvers, "newton_cardinality", forbidden)
        pairs, make = (BERNOULLI_PAIRS, sf.BernoulliRfs) if family == "bernoulli" else (POISSON_PAIRS, sf.PoissonRfs)
        for x_i, x_j in pairs + [(0.3, 0.3 + 1e-10), (0.5, 0.5 + 1e-9)]:
            result = sf.consistent_fuse(make(x_i, UNIT), make(x_j, SHIFTED), sf.NewtonConfig())
            assert result.card_trace is None

    @pytest.mark.parametrize("family", ["bernoulli", "poisson", "iid"])
    def test_count_degenerate_flag_iff_inputs_equal(self, family):
        if family == "iid":
            # the last two agree wherever both are positive, but are not equal
            pmfs = ([0.2, 0.5, 0.3], [0.2, 0.5 + 1e-9, 0.3 - 1e-9], [0.2, 0.4, 0.4, 0.0], [0.0, 0.4, 0.4, 0.2])
            make, values = sf.IidClusterRfs, [sf.CardinalityPmf(p) for p in pmfs]
        else:
            make = sf.BernoulliRfs if family == "bernoulli" else sf.PoissonRfs
            values = [0.0, 1e-13, 5e-13, 0.3, 0.3 + 1e-10, math.nextafter(0.3, 1.0), 0.5, 0.5 + 1e-9]
        for a in range(len(values)):
            for b in range(a, len(values)):
                result = sf.consistent_fuse(make(values[a], UNIT), make(values[b], UNIT), sf.NewtonConfig())
                assert (DEGENERATE_CARD_FLAG in result.flags) == (a == b), (values[a], values[b])

    @pytest.mark.parametrize("family", ["bernoulli", "poisson", "iid"])
    def test_single_joint_count_fuses_to_it_as_p2_does(self, family):
        if family == "bernoulli":
            make, pairs = sf.BernoulliRfs, [(0.0, 0.5), (0.3, 0.0), (1.0, 0.5), (0.7, 1.0)]
            p2, count = fusion.bernoulli_fuse_p2, lambda f: f.alpha
        elif family == "poisson":
            make, pairs = sf.PoissonRfs, [(0.0, 2.5), (4.0, 0.0)]
            p2, count = fusion.poisson_fuse_p2, lambda f: f.rate
        else:
            make = sf.IidClusterRfs
            pairs = [(sf.CardinalityPmf([0.5, 0.5, 0.0]), sf.CardinalityPmf([0.0, 0.2, 0.8])),
                     (sf.CardinalityPmf([0.0, 0.0, 1.0]), sf.CardinalityPmf([0.1, 0.3, 0.6]))]
            p2 = lambda f_i, f_j, w: fusion.iid_fuse_p2(f_i, f_j, w, 2)
            count = lambda f: tuple(f.card.probs)
        for x_i, x_j in pairs:
            f_i, f_j = make(x_i, UNIT), make(x_j, SHIFTED)
            result = sf.consistent_fuse(f_i, f_j, sf.NewtonConfig())
            assert result.omega_card == 0.5
            assert SINGLE_COUNT_FLAG in result.flags and DEGENERATE_CARD_FLAG not in result.flags
            for w in (0.2, 0.5, 0.9):
                assert count(result.fused) == count(p2(f_i, f_j, w).fused)

    def test_alphas_zero_and_one_still_rejected(self):
        with pytest.raises(ValueError, match="incompatible existence"):
            sf.consistent_fuse(sf.BernoulliRfs(0.0, UNIT), sf.BernoulliRfs(1.0, SHIFTED), sf.NewtonConfig())

    def test_diagnostics_attach_without_mutation(self):
        f = sf.BernoulliRfs(0.8, UNIT)
        result = sf.consistent_fuse(f, f, sf.NewtonConfig())
        tagged = sf.with_diagnostics(result, {"inconsistent": False})
        assert tagged.diagnostics == {"inconsistent": False}
        assert result.diagnostics == {}

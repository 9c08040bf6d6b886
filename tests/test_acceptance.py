"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here and are not meant to be tuned.
"""

import math

import numpy as np
import pytest

import setfuse as sf
from setfuse import diagnostics, fusion, gaussian, quadrature, scenarios
from conftest import binomial_pmf, make_gaussian, random_pmf

UNIT = sf.GaussianDensity([0.0, 0.0], np.eye(2))
SHIFTED = sf.GaussianDensity([2.0, 0.0], np.eye(2))


def _verdict(number, name):
    print(f"[acceptance] criterion {number:02d} ({name}): PASS")


def two_sensor_pair(kappa, sigma1_sq=1.0):
    cov_i = gaussian.make_rotated_covariance(kappa, sigma1_sq**2 / kappa, math.pi / 4)
    cov_j = gaussian.make_rotated_covariance(kappa, sigma1_sq**2 / kappa, -math.pi / 4)
    return (
        sf.GaussianDensity([0.25, 0.25], cov_i),
        sf.GaussianDensity([-0.75, -0.25], cov_j),
    )


def test_criterion_01_binomial_cardinality_weights():
    """Newton cardinality solver hits the reference weights for the two
    binomial pairs, from the half-weight start at the 1e-4 threshold."""
    config = sf.NewtonConfig(omega_init=0.5, epsilon=1e-4)

    p_i, p_j = binomial_pmf(5, 0.95), binomial_pmf(5, 0.92)
    omega_low, _, trace_low = sf.newton_cardinality(p_i, p_j, config)
    assert abs(omega_low - 0.5182) <= 1e-3
    assert trace_low.converged and trace_low.iterations <= 5

    q_i, q_j = binomial_pmf(35, 0.98), binomial_pmf(35, 0.975)
    omega_high, _, trace_high = sf.newton_cardinality(q_i, q_j, config)
    assert abs(omega_high - 0.5090) <= 1e-3
    assert trace_high.converged
    _verdict(1, "binomial cardinality weights")


def test_criterion_02_equal_existence_closed_form_independence():
    """Equal input existence probabilities fuse to themselves at the half
    weight, no matter how diverse the localisation geometry is."""
    closed = sf.bernoulli_closed_form(0.8, 0.8)
    assert abs(closed.omega - 0.5) <= 1e-9
    assert abs(closed.alpha - 0.8) <= 1e-9
    for idx, kappa in enumerate(np.linspace(1.0, 40.0, 79)):
        rho_i, rho_j = two_sensor_pair(float(kappa))
        result = sf.consistent_fuse(
            sf.BernoulliRfs(0.8, rho_i),
            sf.BernoulliRfs(0.8, rho_j),
            sf.NewtonConfig(seed=idx),
        )
        assert abs(result.omega_card - 0.5) <= 1e-9
        assert abs(result.fused.alpha - 0.8) <= 1e-9
    _verdict(2, "equal existence beliefs are preserved across the sweep")


def test_criterion_03_two_sensor_sweep_behaviour(tmp_path):
    """Joint-fusion sweep: scales below one, monotone in diversity, fused
    existence always below the inputs and dipping under one half."""
    scenario = scenarios.two_sensor_scenario()
    path = scenarios.run_sweep(scenario, tmp_path)
    rows = np.genfromtxt(path, delimiter=",", names=True, encoding="utf-8")
    n_k, n_w = scenario.sweep.kappa[2], scenario.sweep.omega[2]
    z = rows["z_omega"].reshape(n_k, n_w)
    alpha = rows["alpha_omega"].reshape(n_k, n_w)
    interior = slice(1, -1)
    assert np.all(z[:, interior] < 1.0)
    assert np.all(np.diff(z, axis=0) <= 1e-9)
    assert np.all(alpha[:, interior] < 0.8)
    assert alpha[:, interior].min() < 0.5
    _verdict(3, "diversity sweep of the joint rule")


def test_criterion_04_localisation_weight_solver_on_sweep_geometry():
    """Weight solver on the two-sensor geometry: exact symmetry at kappa=1
    and near the reference weights at kappa=10 and 20.

    The sweep holds the major-axis variance at 1 while the minor axis
    shrinks with kappa; reference weights are approximate by construction.
    """
    config = sf.NewtonConfig(omega_init=0.5, epsilon=1e-4, mc_samples=1000, seed=0)
    results = {}
    for kappa in (1.0, 10.0, 20.0):
        rho_i, rho_j = two_sensor_pair(kappa)
        omega, _, _, trace = sf.newton_localisation(rho_i, rho_j, config)
        assert trace.converged and trace.iterations <= 10
        results[kappa] = omega
    assert abs(results[1.0] - 0.500) <= 1e-3
    assert abs(results[10.0] - 0.397) <= 0.05
    assert abs(results[20.0] - 0.387) <= 0.05
    assert results[1.0] > results[10.0] > results[20.0]
    _verdict(4, "localisation weights on the diversity geometry")


def test_criterion_05_closed_forms_match_grid_search():
    """Closed-form weights agree with dense grid maximisation of the count
    Chernoff objectives on 100 random parameter pairs each."""
    rng = np.random.default_rng(2024)
    omega_grid = np.linspace(0.0, 1.0, 10001)

    for _ in range(100):
        a_i, a_j = rng.uniform(0.02, 0.98, 2)
        if abs(a_i - a_j) < 1e-3:
            a_j = min(a_i + 0.05, 0.97)
        norms = (1 - a_i) ** (1 - omega_grid) * (1 - a_j) ** omega_grid \
            + a_i ** (1 - omega_grid) * a_j**omega_grid
        best = omega_grid[np.argmin(norms)]
        assert abs(sf.bernoulli_closed_form(a_i, a_j).omega - best) <= 1e-3

    from scipy.stats import poisson as sp_poisson

    counts = np.arange(61)
    for _ in range(100):
        l_i, l_j = rng.uniform(0.5, 20.0, 2)
        if abs(l_i - l_j) < 1e-3:
            l_j = l_i + 0.5
        log_p_i = sp_poisson.logpmf(counts, l_i)
        log_p_j = sp_poisson.logpmf(counts, l_j)
        norms = np.exp(
            (1 - omega_grid[:, None]) * log_p_i + omega_grid[:, None] * log_p_j
        ).sum(axis=1)
        best = omega_grid[np.argmin(norms)]
        assert abs(sf.poisson_closed_form(l_i, l_j).omega - best) <= 1e-3
    _verdict(5, "closed forms against grid search")


def test_criterion_06_derivative_oracles():
    """Quadrature derivatives match finite differences, the exact Gaussian
    curvature matches the grid-quadrature curvature of the same pair, and
    the gradient identity holds for random Gaussian pairs."""
    gi, gj = quadrature.discretize_gaussians([UNIT, SHIFTED])
    grid_moments = quadrature.grid_log_moments(gi, gj)
    h = 1e-4
    for w in (0.2, 0.5, 0.8):
        log_z, slope, curvature = grid_moments(w)[:3]
        z = math.exp(log_z)
        fd1 = (quadrature.grid_z_omega(gi, gj, w + h)
               - quadrature.grid_z_omega(gi, gj, w - h)) / (2 * h)
        assert z * slope == pytest.approx(fd1, rel=1e-3)
        fd2 = (quadrature.grid_z_omega(gi, gj, w + h)
               - 2 * quadrature.grid_z_omega(gi, gj, w)
               + quadrature.grid_z_omega(gi, gj, w - h)) / h**2
        assert z * (curvature + slope**2) == pytest.approx(fd2, rel=1e-3)

        assert gaussian._pair(UNIT, SHIFTED)(w).curvature == pytest.approx(curvature, rel=1e-3)

    rng = np.random.default_rng(7)
    fd_step = 1e-5
    for _ in range(20):
        a, b = make_gaussian(rng), make_gaussian(rng)
        w = rng.uniform(0.1, 0.9)
        z = gaussian.emd_scale(a, b, w)
        fused = gaussian.emd_params(a, b, w)
        identity = z * (gaussian.kld(fused, a) - gaussian.kld(fused, b))
        fd = (gaussian.emd_scale(a, b, w + fd_step)
              - gaussian.emd_scale(a, b, w - fd_step)) / (2 * fd_step)
        assert identity == pytest.approx(fd, rel=1e-3, abs=1e-9)
    _verdict(6, "derivative oracles")


def test_criterion_07_pointwise_consistency_of_joint_fusion():
    """The jointly fused set density never undercuts both inputs on a
    thousand random finite sets per family pair."""
    rng = np.random.default_rng(11)
    rho_i, rho_j = make_gaussian(rng), make_gaussian(rng)
    pairs = {
        "bernoulli": (sf.BernoulliRfs(0.75, rho_i), sf.BernoulliRfs(0.35, rho_j)),
        "poisson": (sf.PoissonRfs(2.8, rho_i), sf.PoissonRfs(1.1, rho_j)),
        "iid": (
            sf.IidClusterRfs(random_pmf(rng, 5, 0.02), rho_i),
            sf.IidClusterRfs(random_pmf(rng, 5, 0.02), rho_j),
        ),
    }
    for family, (f_i, f_j) in pairs.items():
        for _ in range(1000):
            w = rng.uniform(0.02, 0.98)
            if family == "bernoulli":
                fused = fusion.bernoulli_fuse_p2(f_i, f_j, w)[0]
            elif family == "poisson":
                fused = fusion.poisson_fuse_p2(f_i, f_j, w)[0]
            else:
                fused = fusion.iid_fuse_p2(f_i, f_j, w, 4)[0]
            n = int(rng.integers(0, 5))
            x = sf.FiniteSet(rng.uniform(-2.5, 2.5, (n, 2))) if n else sf.FiniteSet.empty(2)
            floor = min(sf.rfs_density_eval(f_i, x), sf.rfs_density_eval(f_j, x))
            assert sf.rfs_density_eval(fused, x) >= floor - 1e-12
    _verdict(7, "pointwise consistency of the joint rule")


def test_criterion_08_cardinality_consistency_of_decoupled_fusion():
    """Decoupled fusion dominates the pointwise minimum of the input count
    pmfs on every draw; no violations tolerated."""
    rng = np.random.default_rng(12)

    for draw in range(100):
        rho_i, rho_j = make_gaussian(rng), make_gaussian(rng)
        a_i, a_j = rng.uniform(0.05, 0.95, 2)
        result = sf.consistent_fuse(
            sf.BernoulliRfs(a_i, rho_i),
            sf.BernoulliRfs(a_j, rho_j),
            sf.NewtonConfig(seed=draw),
        )
        fused = np.array([1.0 - result.fused.alpha, result.fused.alpha])
        floor = np.minimum([1 - a_i, a_i], [1 - a_j, a_j])
        assert np.all(fused >= floor)

    from scipy.stats import poisson as sp_poisson

    for draw in range(100):
        rho_i, rho_j = make_gaussian(rng), make_gaussian(rng)
        l_i, l_j = rng.uniform(0.5, 20.0, 2)
        result = sf.consistent_fuse(
            sf.PoissonRfs(l_i, rho_i),
            sf.PoissonRfs(l_j, rho_j),
            sf.NewtonConfig(seed=1000 + draw),
        )
        counts = np.arange(sf.default_poisson_n_max(max(l_i, l_j)) + 1)
        fused = sp_poisson.pmf(counts, result.fused.rate)
        floor = np.minimum(sp_poisson.pmf(counts, l_i), sp_poisson.pmf(counts, l_j))
        assert np.all(fused >= floor)

    for draw in range(100):
        rho_i, rho_j = make_gaussian(rng), make_gaussian(rng)
        size = int(rng.integers(2, 9))
        p_i, p_j = random_pmf(rng, size, 0.01), random_pmf(rng, size, 0.01)
        result = sf.consistent_fuse(
            sf.IidClusterRfs(p_i, rho_i),
            sf.IidClusterRfs(p_j, rho_j),
            sf.NewtonConfig(seed=2000 + draw),
        )
        assert np.all(result.fused.card.probs >= np.minimum(p_i.probs, p_j.probs))
    _verdict(8, "cardinality consistency of the decoupled rule")


def test_criterion_09_sufficient_condition_implications():
    """Whenever any inconsistency bound triggers, the direct inequality on
    the fused object holds; a thousand random instances per bound."""
    rng = np.random.default_rng(13)

    general_hits = 0
    for _ in range(1000):
        size = int(rng.integers(2, 8))
        p_i, p_j = random_pmf(rng, size, 0.01), random_pmf(rng, size, 0.01)
        w = rng.uniform(0.05, 0.95)
        z_seq = np.concatenate(([1.0], rng.uniform(0.02, 1.0, size - 1)))
        fused, _ = fusion.fused_cardinality_p2(p_i, p_j, z_seq, w)
        n = int(rng.integers(1, size))
        bound = diagnostics.cardinality_inconsistency_bound(p_i, p_j, z_seq, w, n)
        if z_seq[n] < bound:
            general_hits += 1
            assert diagnostics.is_cardinality_inconsistent(fused, p_i, p_j, n)

    bernoulli_hits = 0
    for _ in range(1000):
        a_i, a_j = rng.uniform(0.02, 0.98, 2)
        w = rng.uniform(0.05, 0.95)
        z = rng.uniform(0.01, 1.0)
        bound = diagnostics.bernoulli_inconsistency_bound(a_i, a_j, w)
        if z < bound:
            bernoulli_hits += 1
            present = a_i ** (1 - w) * a_j**w * z
            absent = (1 - a_i) ** (1 - w) * (1 - a_j) ** w
            assert present / (absent + present) < min(a_i, a_j)

    poisson_hits = 0
    for _ in range(1000):
        l_i, l_j = rng.uniform(0.2, 20.0, 2)
        z = rng.uniform(0.01, 1.0)
        _, triggered = diagnostics.poisson_inconsistency(l_i, l_j, z)
        if triggered:
            poisson_hits += 1
            for w in np.linspace(0.0, 1.0, 11):
                assert l_i ** (1 - w) * l_j**w * z < min(l_i, l_j)

    iid_hits = 0
    eta_hits = 0
    for _ in range(1000):
        size = int(rng.integers(2, 9))
        p_i, p_j = random_pmf(rng, size, 0.01), random_pmf(rng, size, 0.01)
        w = rng.uniform(0.05, 0.95)
        z = rng.uniform(0.02, 0.98)
        z_seq = z ** np.arange(size)
        fused, _ = fusion.fused_cardinality_p2(p_i, p_j, z_seq, w)
        n = int(rng.integers(1, size))
        if z < diagnostics.iid_inconsistency_bound(p_i, p_j, w, n, z):
            iid_hits += 1
            assert diagnostics.is_cardinality_inconsistent(fused, p_i, p_j, n)
        eta = diagnostics.iid_inconsistency_threshold(p_i, p_j, w, z)
        for m in range(1, size):
            if m > eta and min(p_i.prob(m), p_j.prob(m)) > 0:
                eta_hits += 1
                assert diagnostics.is_cardinality_inconsistent(fused, p_i, p_j, m)

    # the guarantee is vacuous if the bounds never fire; make sure they did
    assert min(general_hits, bernoulli_hits, poisson_hits, iid_hits, eta_hits) > 50
    _verdict(9, "sufficient-condition implications")


def test_criterion_10_variational_optimality():
    """The normalized geometric mean minimises the weighted divergence
    objective against random normalized perturbations, in both discrete and
    grid representations."""
    rng = np.random.default_rng(14)

    for _ in range(5):
        size = int(rng.integers(3, 9))
        p_i, p_j = random_pmf(rng, size, 0.02), random_pmf(rng, size, 0.02)
        w = rng.uniform(0.1, 0.9)
        fused, _ = fusion.cardinality_emd(p_i, p_j, w)

        def objective(p):
            return (1 - w) * sf.pmf_kld(p, p_i) + w * sf.pmf_kld(p, p_j)

        best = objective(fused)
        for _ in range(100):
            noise = np.exp(0.3 * rng.standard_normal(size))
            perturbed = sf.CardinalityPmf(
                fused.probs * noise / (fused.probs * noise).sum()
            )
            assert objective(perturbed) >= best - 1e-12

    g_i = sf.GaussianDensity([0.0], [[1.0]])
    g_j = sf.GaussianDensity([1.5], [[0.6]])
    gi, gj = quadrature.discretize_gaussians([g_i, g_j], points_per_axis=101)
    w = 0.4
    fused, _ = quadrature.grid_emd(gi, gj, w)

    def grid_objective(g):
        return (1 - w) * quadrature.grid_kld(g, gi) + w * quadrature.grid_kld(g, gj)

    best = grid_objective(fused)
    for _ in range(100):
        noise = np.exp(0.2 * rng.standard_normal(fused.values.shape))
        vals = fused.values * noise
        vals /= vals.sum() * fused.cell_volume
        perturbed = sf.GridDensity(fused.origin, fused.cell_size, vals)
        assert grid_objective(perturbed) >= best - 1e-12
    _verdict(10, "variational optimality of the geometric mean")

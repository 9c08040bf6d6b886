import itertools
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import setfuse as sf
from setfuse import fusion, gaussian, quadrature, solvers
from conftest import grid_z_omega, make_gaussian

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
        assert z == pytest.approx(grid_z_omega(gi, gj, 0.5), rel=1e-3)

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
                grid_z_omega(gi, gj, w), rel=1e-3
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


def ill_conditioned_pair(rng, cond, dim=None):
    """Random pair of dimension dim (1 to 4 if not given), each covariance
    with condition number up to cond and its own overall scale, means up to
    100 sigma_i apart."""
    dim = dim or int(rng.integers(1, 5))
    covs = []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eig = np.exp(rng.uniform(0.0, math.log(cond), dim)) * math.exp(rng.uniform(-3, 3))
        cov = q @ np.diag(eig) @ q.T
        covs.append(0.5 * (cov + cov.T))
    direction = rng.standard_normal(dim)
    offset = np.linalg.cholesky(covs[0]) @ direction * rng.uniform(0, 100) / np.linalg.norm(direction)
    mean = rng.uniform(-1, 1, dim)
    return sf.GaussianDensity(mean, covs[0]), sf.GaussianDensity(mean + offset, covs[1])


def covariance_form_log_z(a, b, w):
    """log z_w = 1/2 (w log|C_i| + (1-w) log|C_j| - log|S|) - w(1-w)/2 d'S^-1 d
    with S = (1-w) C_j + w C_i and d = m_j - m_i."""
    s = (1 - w) * b.cov + w * a.cov
    d = b.mean - a.mean
    det_i, det_j, det_s = (np.linalg.slogdet(c)[1] for c in (a.cov, b.cov, s))
    return 0.5 * (w * det_i + (1 - w) * det_j - det_s) - 0.5 * w * (1 - w) * d @ np.linalg.solve(s, d)


class TestPairEvaluator:
    def test_weight_array_matches_scalar_calls(self, rng):
        ws = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 30)])
        for _ in range(20):
            a, b = ill_conditioned_pair(rng, 1e6)
            at = gaussian._pair(a, b)
            row = at(ws)
            cells = [at(float(w)) for w in ws]
            for field in ("log_z", "slope", "curvature"):
                want = [getattr(cell, field) for cell in cells]
                np.testing.assert_allclose(getattr(row, field), want, rtol=1e-14, err_msg=field)
            # the scalar weights 0 and 1 give back the inputs
            for cell, rho in zip(cells[:2], (a, b)):
                fused = cell.density()
                scale = np.abs(rho.cov).max()
                np.testing.assert_allclose(fused.cov, rho.cov, rtol=0, atol=1e-11 * scale)
                np.testing.assert_allclose(
                    fused.mean, rho.mean, rtol=0, atol=1e-12 * math.sqrt(scale) * (1 + np.abs(b.mean - a.mean).max())
                )

    def test_scalar_weight_gives_floats(self, rng):
        fused = gaussian._pair(make_gaussian(rng), make_gaussian(rng))(0.4)
        assert all(type(v) is float for v in fused[:3])

    @pytest.mark.parametrize("weight", [np.float64(0.4), np.array(0.4)], ids=["float64", "0-d"])
    def test_numpy_scalar_weight_gives_floats(self, rng, weight):
        at = gaussian._pair(make_gaussian(rng), make_gaussian(rng))
        fused = at(weight)
        assert all(type(v) is float for v in fused[:3])
        assert fused[:3] == at(0.4)[:3]

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("dim", [4, 6])
    def test_extreme_covariance_scales(self, rng, dim, scale):
        # x -> sqrt(scale) x leaves z_w unchanged, while any product of the
        # frame variances s under- or overflows at these scales
        ws = rng.uniform(0.02, 0.98, 7)
        for _ in range(20):
            a, b = ill_conditioned_pair(rng, 1e2, dim)
            at = gaussian._pair(
                *(sf.GaussianDensity(rho.mean * math.sqrt(scale), rho.cov * scale) for rho in (a, b))
            )
            row, unscaled = at(ws), gaussian._pair(a, b)(ws)
            cells = [at(float(w)) for w in ws]
            for field in ("log_z", "slope", "curvature"):
                got = getattr(row, field)
                assert np.isfinite(got).all(), field
                np.testing.assert_allclose(got, [getattr(cell, field) for cell in cells], rtol=1e-14, err_msg=field)
                np.testing.assert_allclose(got, getattr(unscaled, field), rtol=1e-10, atol=1e-10, err_msg=field)

    def test_endpoints_give_unit_scale(self, rng):
        for _ in range(10):
            row = gaussian._pair(*ill_conditioned_pair(rng, 1e10))(np.array([0.0, 1.0]))
            np.testing.assert_array_equal(row.log_z, [0.0, 0.0])

    def test_endpoints_give_unit_scale_on_random_pairs(self):
        # np.log and math.log differ in the last bit on about 1 in 10^4
        # values, and two of these pairs meet such a value: each path must
        # sum the frame logs with the log it takes of s
        rng = np.random.default_rng(0)
        for k in range(3000):
            dim = 1 + k % 4
            pair = []
            for _ in range(2):
                q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
                cov = q @ np.diag(10.0 ** rng.uniform(-3, 3, dim)) @ q.T
                pair.append(sf.GaussianDensity(rng.normal(0.0, 3.0, dim), 0.5 * (cov + cov.T)))
            at = gaussian._pair(*pair)
            assert at(np.array([0.0, 1.0])).log_z.tolist() == [0.0, 0.0]
            assert at(0.0).log_z == at(1.0).log_z == 0.0

    @pytest.mark.parametrize("cond, tol", [(1e2, 1e-12), (1e6, 1e-9), (1e10, 1e-5)])
    def test_log_z_matches_covariance_form(self, rng, cond, tol):
        for _ in range(60):
            a, b = ill_conditioned_pair(rng, cond)
            ws = rng.uniform(0.02, 0.98, 5)
            got = gaussian._pair(a, b)(ws).log_z
            want = np.array([covariance_form_log_z(a, b, w) for w in ws])
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
    def test_derivatives_match_central_differences(self, rng, cond):
        # Richardson-extrapolated central differences of the evaluator's own
        # log z, so the truncation error is O(h^4)
        h = 1e-3
        for _ in range(60):
            at = gaussian._pair(*ill_conditioned_pair(rng, cond))
            w = rng.uniform(0.05, 0.95)
            far_lo, lo, mid, hi, far_hi = at(w + h * np.array([-1.0, -0.5, 0.0, 0.5, 1.0])).log_z
            slope = (4 * (hi - lo) / h - (far_hi - far_lo) / (2 * h)) / 3
            curvature = (16 * (hi - 2 * mid + lo) / h**2 - (far_hi - 2 * mid + far_lo) / h**2) / 3
            fused = at(w)
            scale = max(1.0, abs(mid))
            assert fused.slope == pytest.approx(slope, rel=1e-6, abs=1e-10 * scale)
            assert fused.curvature == pytest.approx(curvature, rel=1e-4, abs=1e-7 * scale)

    @pytest.mark.parametrize("cond", [1e2, 1e6, 1e10])
    def test_trusted_density_equals_public_constructor(self, rng, cond):
        for _ in range(30):
            fused = gaussian._pair(*ill_conditioned_pair(rng, cond))(rng.uniform(0.02, 0.98)).density()
            public = sf.GaussianDensity(fused.mean, fused.cov)
            np.testing.assert_array_equal(fused.mean, public.mean)
            np.testing.assert_array_equal(fused.cov, public.cov)
            assert not (fused.mean.flags.writeable or fused.cov.flags.writeable)

    def test_density_matches_information_form(self, rng):
        for _ in range(30):
            a, b = ill_conditioned_pair(rng, 1e4)
            w = rng.uniform(0.05, 0.95)
            info = (1 - w) * np.linalg.inv(a.cov) + w * np.linalg.inv(b.cov)
            cov = np.linalg.inv(info)
            mean = cov @ ((1 - w) * np.linalg.solve(a.cov, a.mean) + w * np.linalg.solve(b.cov, b.mean))
            fused = gaussian._pair(a, b)(w).density()
            scale = np.abs(cov).max()
            np.testing.assert_allclose(fused.cov, cov, rtol=1e-6, atol=1e-9 * scale)
            np.testing.assert_allclose(
                fused.mean, mean, rtol=1e-6, atol=1e-6 * math.sqrt(scale) * (1 + np.abs(mean).max())
            )


def _public_frame(rho_i, rho_j):
    """The pair frame built through the public ``np.linalg`` wrappers: the
    (c_i, c_j, d) triples and the map T back to space."""
    cov_i, cov_j = rho_i.cov, rho_j.cov
    tr_i, tr_j = sum(cov_i.diagonal().tolist()), sum(cov_j.diagonal().tolist())
    chol = np.linalg.cholesky(cov_i / tr_i + cov_j / tr_j)
    whiten = np.linalg.inv(chol)
    eigvecs = np.linalg.eigh(whiten @ cov_i @ whiten.T)[1]
    to_frame = eigvecs.T @ whiten
    var_i = ((to_frame @ cov_i) * to_frame).sum(1)
    var_j = ((to_frame @ cov_j) * to_frame).sum(1)
    delta = to_frame @ (rho_j.mean - rho_i.mean)
    return list(zip(var_i.tolist(), var_j.tolist(), delta.tolist())), chol @ eigvecs


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestFrameBuild:
    """``_pair`` calls LAPACK's kernels directly; its frame, evaluations and
    fused density equal, bit for bit, those of a build through the public
    ``np.linalg`` wrappers and of the fused density symmetrised as
    0.5 (C + C')."""

    WEIGHTS = (1e-6, 0.3, 0.5, 0.9, 1.0 - 1e-6)

    @staticmethod
    def random_pair(rng):
        dim = int(rng.integers(1, 5))
        scale = 10.0 ** rng.uniform(-150, 150)
        covs = []
        for _ in range(2):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            eig = np.exp(rng.uniform(0.0, math.log(0.99e12), dim)) * (scale * 10.0 ** rng.uniform(-3, 3))
            covs.append(0.5 * ((q * eig) @ q.T + ((q * eig) @ q.T).T))
        # offsets from about one to far past 2^480 standard deviations
        offset = rng.standard_normal(dim) * math.sqrt(scale) * 10.0 ** rng.uniform(0, 200)
        mean = rng.uniform(-1, 1, dim) * math.sqrt(scale)
        return sf.GaussianDensity(mean, covs[0]), sf.GaussianDensity(mean + offset, covs[1])

    @staticmethod
    def reference(frame, pair, w):
        """log z_w, slope and curvature as ``_pair`` documents them: the plain
        sums, or the scaled ones where those are not finite past 2^960."""
        fused = gaussian._sums(frame, pair, 0)(w)
        if max(d * d / min(c_i, c_j) for c_i, c_j, d in frame) <= 2.0**960:
            return fused
        if math.isfinite(fused.slope) and math.isfinite(fused.curvature):
            return fused
        p = 1 + max(math.frexp(d)[1] - math.frexp(math.sqrt(min(c_i, c_j)))[1] for c_i, c_j, d in frame)
        return gaussian._sums(frame, pair, p)(w)

    @staticmethod
    def reference_density(frame, to_space, origin, w):
        r = [1.0 / ((1.0 - w) * c_j + w * c_i) for c_i, c_j, _ in frame]
        var = [min(c_i, c_j) * (max(c_i, c_j) * r_k) for (c_i, c_j, _), r_k in zip(frame, r)]
        shift = [w * (c_i * r_k) * d for (c_i, _, d), r_k in zip(frame, r)]
        cov = (to_space * var) @ to_space.T
        return origin + to_space @ shift, 0.5 * (cov + cov.T)

    def test_matches_the_public_wrappers_bit_for_bit(self):
        rng = np.random.default_rng(26)
        far = 0
        for _ in range(300):
            rho_i, rho_j = self.random_pair(rng)
            at = gaussian._pair(rho_i, rho_j)
            frame, to_space = _public_frame(rho_i, rho_j)
            pair = (frame, to_space, rho_i.mean)
            got_frame, got_to_space, origin = at(0.5).pair
            assert _same_bits(got_frame, frame) and _same_bits(got_to_space, to_space)
            assert origin is rho_i.mean
            far += max(d * d / min(c_i, c_j) for c_i, c_j, d in frame) > 2.0**960
            for w in self.WEIGHTS:
                fused, expected = at(w), self.reference(frame, pair, w)
                assert all(_same_bits(x, y) for x, y in zip(fused[:3], expected[:3])), (rho_i, rho_j, w)
                density = fused.density()
                mean, cov = self.reference_density(frame, to_space, rho_i.mean, w)
                assert _same_bits(density.mean, mean) and _same_bits(density.cov, cov), (rho_i, rho_j, w)
        # both evaluators are pinned
        assert 30 <= far <= 270

    def test_factorisation_failure_raises_linalg_error(self):
        # a covariance that bypasses the checks: the trace-scaled sum is not positive definite
        rho_i = sf.GaussianDensity._trusted(np.zeros(2), np.array([[1.0, 3.0], [3.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                gaussian._pair(rho_i, UNIT)


def _exact_diagonal_pair(var_i, var_j, offset, w):
    """log z_w, slope and curvature of a pair with diagonal covariances
    var_i and var_j and means ``offset`` apart, in ``decimal`` at 50 digits,
    each with the sum of the absolute values of its terms. Per coordinate,
    with s = (1-w) b + w a:
    log z_w = 1/2 (w log a + (1-w) log b - log s - w(1-w) d^2/s),
    slope = 1/2 (log a - log b - (a-b)/s - d^2 g'), g' = (1-2w)/s - w(1-w)(a-b)/s^2,
    curvature = 1/2 (a-b)^2/s^2 + a b d^2/s^3."""
    with localcontext() as ctx:
        ctx.prec = 50
        w = Decimal(w)
        v = 1 - w
        terms = ([], [], [])
        for a, b, d in zip(map(Decimal, var_i), map(Decimal, var_j), map(Decimal, offset)):
            s, d2 = v * b + w * a, d * d
            g_prime = (1 - 2 * w) / s - w * v * (a - b) / (s * s)
            terms[0].extend((w * a.ln(), v * b.ln(), -s.ln(), -w * v * d2 / s))
            terms[1].extend((a.ln(), -b.ln(), -(a - b) / s, -d2 * g_prime))
            terms[2].extend(((a - b) ** 2 / (s * s), 2 * a * b * d2 / s**3))
        return [(float(sum(t) / 2), float(sum(map(abs, t)) / 2)) for t in terms]


class TestFiftyDigitOracle:
    """``_pair`` against the closed form of diagonal pairs. The error of each
    output is held to TOL times the sum of the absolute values of its terms,
    which bounds what rounding the terms can lose; over these 242 cases the
    largest error seen is 6.0e-16 of that sum."""

    TOL = 2e-14
    SCALES = (1e-150, 1e-50, 1.0, 1e50, 1e150)
    OFFSETS = (0.0, 1.0, 1e50, 1e150)
    WEIGHTS = (1e-12, 0.3, 0.5, 1.0 - 1e-12)

    def check(self, mean_i, offset, var_i, var_j, w):
        at = gaussian._pair(sf.GaussianDensity(mean_i, np.diag(var_i)),
                            sf.GaussianDensity(mean_i + offset, np.diag(var_j)))(w)
        exact = _exact_diagonal_pair(var_i, var_j, (mean_i + offset) - mean_i, w)
        for field, (value, scale) in zip(("log_z", "slope", "curvature"), exact):
            assert abs(getattr(at, field) - value) <= self.TOL * scale, (field, var_i, var_j, offset, w)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_diagonal_pairs(self, dim):
        rng = np.random.default_rng(dim)
        cases = 0
        for k, (scale_i, scale_j, offset) in enumerate(itertools.product(self.SCALES, self.SCALES, self.OFFSETS)):
            var_i = scale_i * 10.0 ** rng.uniform(-3, 3, dim)
            var_j = scale_j * 10.0 ** rng.uniform(-3, 3, dim)
            # d^2 / s past the float range is item 9's overflow, not this check
            if offset and 2 * math.log10(offset) - math.log10(min(var_i.min(), var_j.min())) > 300:
                continue
            self.check(rng.normal(size=dim), offset * rng.uniform(-1, 1, dim), var_i, var_j,
                       self.WEIGHTS[k % len(self.WEIGHTS)])
            cases += 1
        assert cases >= 70

    def test_offset_1e154_control(self):
        # the largest offset whose square fits a float on unit covariances
        self.check(np.zeros(2), np.array([1e154, 0.0]), np.ones(2), np.ones(2), 0.5)
        self.check(np.zeros(2), np.array([1e154, 0.0]), np.ones(2), np.full(2, 4.0), 0.3)


# (offset along the first axis, covariance scale): the 1e154 control, whose
# d^2 / s fits a float, and four pairs past it
FAR_APART = [(1e154, 1.0), (1.4e154, 1.0), (1e200, 1.0), (1e300, 1.0), (1e5, 1e-300)]


class TestFarApartPairs:
    """d^2 / s near or past the float range: z_w is 0 inside (0, 1) and 1
    at its ends, the slope and curvature stay finite, and the solver finds
    the weight that balances the two d^2 terms, with no warning. On the
    control, weights up to 0.3 are evaluated as before and 0.9 overflows
    the plain sums."""

    @staticmethod
    def pair(offset, scale, var_j=(1.0, 1.0)):
        return (sf.GaussianDensity([0.0, 0.0], np.eye(2) * scale),
                sf.GaussianDensity([offset, 0.0], np.diag(var_j) * scale))

    @pytest.mark.parametrize("offset, scale", FAR_APART)
    def test_evaluations(self, offset, scale):
        at = gaussian._pair(*self.pair(offset, scale, (4.0, 1.0)))
        ws = np.array([0.0, 1e-6, 0.3, 0.5, 0.9, 1.0])
        row = at(ws)
        cells = [at(float(w)) for w in ws]
        for k, cell in enumerate(cells):
            assert all(type(v) is float for v in cell[:3])
            assert row.log_z[k] == cell.log_z
            assert math.isfinite(cell.slope) and cell.curvature > 0.0
            np.testing.assert_allclose([row.slope[k], row.curvature[k]], cell[1:3], rtol=1e-14)
        assert cells[0].log_z == cells[-1].log_z == 0.0
        assert all(math.exp(cell.log_z) == 0.0 for cell in cells[1:-1])
        # the d^2 terms balance at w = 2/3 (see test_solved_weight)
        assert [cell.slope > 0.0 for cell in cells] == [False] * 4 + [True] * 2

    @pytest.mark.parametrize("offset, scale", FAR_APART)
    def test_solved_weight(self, offset, scale):
        config = sf.NewtonConfig(epsilon=1e-10)
        w, fused, z, trace = solvers.newton_localisation(*self.pair(offset, scale), config)
        assert (w, z) == (0.5, 0.0) and trace.converged
        assert np.isfinite(fused.mean).all() and np.isfinite(fused.cov).all()
        # the d^2 term w(1-w) d^2 / ((1-w) c_j + w c_i), with c_i = 1 and c_j = 4
        w, _, z, _ = solvers.newton_localisation(*self.pair(offset, scale, (4.0, 1.0)), config)
        assert w == pytest.approx(2.0 / 3.0, abs=1e-9) and z == 0.0

    # the first pair's d^2 / min(c_i, c_j) is 2^959.8, just below the threshold
    # at which _pair builds the scaled evaluator; on the second, the
    # c_i - c_j terms are not lost beside the d^2 ones
    @pytest.mark.parametrize("offset", [2.0**479.9, 3.0])
    def test_scaled_sums_are_the_plain_ones_over_4_to_the_p(self, offset):
        rho_i = sf.GaussianDensity([0.0, 0.0], np.diag([1.0, 3.0]))
        rho_j = sf.GaussianDensity([offset, -1.0], np.diag([4.0, 0.5]))
        pair = gaussian._pair(rho_i, rho_j)(0.5).pair
        frame = pair[0]
        assert max(d * d / min(c_i, c_j) for c_i, c_j, d in frame) < 2.0**960
        p = 1 + max(math.frexp(d)[1] - math.frexp(math.sqrt(min(c_i, c_j)))[1] for c_i, c_j, d in frame)
        plain, scaled = gaussian._sums(frame, pair, 0), gaussian._sums(frame, pair, p)
        ws = np.array([1e-6, 0.3, 0.5, 0.9, 1.0 - 1e-6])
        for w in [*ws, ws]:
            expected, got = plain(w), scaled(w)
            assert np.isfinite(expected.slope).all() and np.isfinite(got.slope).all()
            np.testing.assert_allclose(np.ldexp(got.slope, 2 * p), expected.slope, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(np.ldexp(got.curvature, 2 * p), expected.curvature, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(got.log_z, expected.log_z, rtol=1e-15, atol=0.0)

    def test_consistent_fusion(self):
        f_i, f_j = (sf.BernoulliRfs(alpha, loc) for alpha, loc in zip((0.8, 0.6), self.pair(1.4e154, 1.0)))
        result = solvers.consistent_fuse(f_i, f_j, sf.NewtonConfig())
        assert result.omega_loc == (0.5,) and result.z_values == (0.0,)


class TestTopOfFloatRange:
    """Pairs near the top of the float range fuse to finite Gaussians, with
    no warning, or raise ``IncompatibleInputs`` naming the pair limit on
    mean coordinates and covariance traces."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("scale_i, scale_j, w", [(1e60, 1e297, 0.4), (5e267, 1e-102, 0.7)])
    def test_fused_variance_is_formed_from_ratios(self, dim, scale_i, scale_j, w):
        # c_i c_j overflows, or c_j / s underflows; 1 / ((1-w)/c_i + w/c_j) does neither
        rho_i = sf.GaussianDensity(np.zeros(dim), np.eye(dim) * scale_i)
        rho_j = sf.GaussianDensity(np.zeros(dim), np.eye(dim) * scale_j)
        fused, _ = fusion.localisation_emd(rho_i, rho_j, w)
        expected = 1.0 / ((1.0 - w) / scale_i + w / scale_j)
        np.testing.assert_allclose(fused.cov, np.eye(dim) * expected, rtol=1e-14, atol=0.0)

    def test_fused_mean_is_formed_from_ratios(self):
        # w c_i d overflows; the mean, 0.8e310 / (0.2e51 + 0.8e10), does not
        rho_i = sf.GaussianDensity([0.0, 0.0], np.eye(2) * 1e10)
        rho_j = sf.GaussianDensity([1e300, 0.0], np.eye(2) * 1e51)
        fused, _ = fusion.localisation_emd(rho_i, rho_j, 0.8)
        assert fused.mean[0] == pytest.approx(4e259, rel=1e-14)
        assert abs(fused.mean[1]) <= 1e-14 * fused.mean[0]

    def test_consistent_fusion_gives_a_finite_density(self):
        f_i = sf.PoissonRfs(2.0, sf.GaussianDensity([0.0, 0.0], np.eye(2) * 1e60))
        f_j = sf.PoissonRfs(3.0, sf.GaussianDensity([0.0, 0.0], np.eye(2) * 1e297))
        result = solvers.consistent_fuse(f_i, f_j, sf.NewtonConfig())
        w = result.omega_loc[0]
        expected = 1.0 / ((1.0 - w) * 1e-60 + w * 1e-297)
        np.testing.assert_allclose(result.fused.loc.cov, np.eye(2) * expected, rtol=1e-14, atol=0.0)

    def test_covariance_near_the_float_maximum_is_stored(self):
        assert sf.GaussianDensity([0.0], [[1e308]]).cov.tolist() == [[1e308]]
        cov = np.array([[1e308, 5e307], [5e307, 1e308]])
        assert (sf.GaussianDensity([0.0, 0.0], cov).cov == cov).all()
        with pytest.raises(ValueError, match="symmetric"):
            sf.GaussianDensity([0.0, 0.0], [[1e308, 1e308], [-1e308, 1e308]])

    def test_covariance_whose_eigenvalue_overflows_is_accepted(self):
        # condition number 19; its larger eigenvalue, 1.9e308, is past the float range
        cov = np.array([[1e308, 9e307], [9e307, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = sf.GaussianDensity([0.0, 0.0], cov)
        assert (rho.cov == cov).all()
        with pytest.raises(sf.IncompatibleInputs, match="within 1e\\+300"):
            gaussian._pair(rho, UNIT)

    @pytest.mark.parametrize("mean_j, scale", [
        ((1e308, 0.0), 1.0),
        ((-1e301, 0.0), 1.0),
        ((0.0, 0.0), 1e308),
        ((0.0, 0.0), 6e299),
    ])
    def test_pair_past_the_limit_raises(self, mean_j, scale):
        rho_i = sf.GaussianDensity([0.0, 0.0], np.eye(2))
        rho_j = sf.GaussianDensity(mean_j, np.eye(2) * scale)
        for pair in ((rho_i, rho_j), (rho_j, rho_i)):
            with pytest.raises(sf.IncompatibleInputs, match="within 1e\\+300"):
                gaussian._pair(*pair)

    def test_pair_at_the_limit_fuses(self):
        rho_i = sf.GaussianDensity([-1e300, 0.0], np.eye(2) * 5e299)
        rho_j = sf.GaussianDensity([1e300, 0.0], np.diag([9.99e299, 1e289]))
        fused, z = fusion.localisation_emd(rho_i, rho_j, 0.5)
        assert np.isfinite(fused.mean).all() and np.isfinite(fused.cov).all() and 0.0 <= z <= 1.0


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


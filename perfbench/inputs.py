"""Seeded input generator for the stream workloads.

Every pair is a plain dict of floats and numpy arrays made from
``numpy.random.default_rng(seed)``; the program only ever sees the
setfuse objects built from these dicts. A pool is a list of blocks with
the same make-up (families, dimensions, grid sizes); a run takes one block
per round and cycles through the pool. Within each class the parameters
are drawn by stratified sampling over the whole pool, so the cost of a
pool barely moves between seeds while its values do.

The far-apart pairs do not depend on the seed. On the parent code they
fail every time (see ``FAR_APART``), and a run counts them as failed.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

FAMILIES = ("bernoulli", "poisson", "iid")
KAPPA_RANGE = (1.0, 40.0)
MAJOR_VAR_RANGE = (0.5, 2.0)
MAX_OFFSET_SIGMAS = 3.0
ALPHA_RANGE = (0.05, 0.95)
RATE_RANGE = (0.5, 30.0)
COUNT_RANGE = (2, 40)
BINOMIAL_P_RANGE = (0.3, 0.98)
WEIGHT_RANGE = (0.05, 0.95)
IID_MAX_LOG_SCALE = 500.0

# gauss-stream block, per family: (dimension, pairs); 80% 2-D, 10% 3-D, 10% 4-D
GAUSS_BLOCK = ((2, 40), (3, 5), (4, 5))
GAUSS_BLOCKS = 8
# grid-stream block: (points per axis, dimension, pairs per family)
GRID_BLOCK = ((100, 2, (6, 6, 6)), (200, 2, (2, 2, 2)), (40, 3, (0, 1, 0)))
GRID_BLOCKS = 8
# discretize_gaussians spans each mean +- 6 per-axis standard deviations.
# Where a per-axis standard deviation covers only about half a cell, the
# midpoint rule misses unit mass by more than 1% and GridDensity raises
# (seen on 40^3 grids). A grid pair whose orientation gives less than
# MIN_SIGMA_CELLS cells is drawn again with a new orientation; at 0.8 the
# mass error is below 1e-5.
GRID_EXTENT_SIGMAS = 6.0
MIN_SIGMA_CELLS = 0.8
# consistent_fuse's Monte Carlo curvature raises once more than 10% of its
# draws land where an input density reads 0, that is, where its log lies
# below exp's range. Near w = 0 the fused density is input i, so the share
# of i's mass where j reads 0 is what a Newton step landing near an
# endpoint meets (and likewise near w = 1); a few percent of w away from
# the endpoints that share is already 0. A Gaussian pair with a share above
# MAX_UNDERFLOW_SHARE at either end is drawn again: such a pair fails now
# and then, depending on where the Newton iterates of its seed fall. At 5%
# the curvature would need twice its expected rejections to raise.
LOG_UNDERFLOW = -745.0
MAX_UNDERFLOW_SHARE = 0.05
# fixed standard-normal draws for underflow_share, so that the check does
# not take draws from the generator's stream
UNIT_DRAWS = np.random.default_rng(0).standard_normal((2000, 4))
# A pair that fails a rule is drawn again with a new orientation, keeping
# its sizes and offset; after every ORIENTATION_REDRAWS failures its offset
# is halved. A Gaussian pair with no offset has a share of at most 1.75%
# (4-D, kappa 40 against kappa 1), so the Monte Carlo rule always ends.
ORIENTATION_REDRAWS = 50
MAX_REDRAWS = 1000


def binomial_pmf(k: int, p: float) -> np.ndarray:
    n = np.arange(k + 1)
    log_coef = np.array([math.lgamma(k + 1) - math.lgamma(m + 1) - math.lgamma(k - m + 1) for m in n])
    probs = np.exp(log_coef + n * math.log(p) + (k - n) * math.log1p(-p))
    return probs / probs.sum()


def _from_range(u: float, lo: float, hi: float, log: bool = False) -> float:
    if log:
        return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


def _covariance(rng, dim: int, u_kappa: float, u_major: float, u_angle: float) -> np.ndarray:
    """SPD covariance with condition number kappa and a random orientation."""
    kappa = _from_range(u_kappa, *KAPPA_RANGE, log=True)
    major = _from_range(u_major, *MAJOR_VAR_RANGE)
    if dim == 2:
        phi = u_angle * math.pi
        c, s = math.cos(phi), math.sin(phi)
        rot = np.array([[c, -s], [s, c]])
        return rot @ np.diag([major, major / kappa]) @ rot.T
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    exponents = np.concatenate(([0.0], rng.uniform(0.0, 1.0, dim - 2), [1.0]))
    eig = major * kappa ** (-exponents)
    cov = q @ np.diag(eig) @ q.T
    return 0.5 * (cov + cov.T)


def _counts(rng, family: str, u: dict, log_z: float) -> dict:
    if family == "bernoulli":
        return {"alpha_i": _from_range(u["count_i"], *ALPHA_RANGE), "alpha_j": _from_range(u["count_j"], *ALPHA_RANGE)}
    if family == "poisson":
        return {
            "rate_i": _from_range(u["count_i"], *RATE_RANGE, log=True),
            "rate_j": _from_range(u["count_j"], *RATE_RANGE, log=True),
        }
    k = int(rng.integers(COUNT_RANGE[0], COUNT_RANGE[1] + 1))
    # iid_fuse_p2 raises once z_w^k underflows (k |log z_w| above ~745); seeded
    # pairs stay clear of that fault, which the fixed far-apart pairs show
    k = max(COUNT_RANGE[0], min(k, int(IID_MAX_LOG_SCALE / max(-log_z, 1e-300))))
    return {
        "pmf_i": binomial_pmf(k, _from_range(u["count_i"], *BINOMIAL_P_RANGE)),
        "pmf_j": binomial_pmf(k, _from_range(u["count_j"], *BINOMIAL_P_RANGE)),
    }


# parameters drawn by stratified sampling within each class of a pool, so
# that every seed covers the ranges alike
STRATIFIED = (
    "kappa_i", "kappa_j", "major_i", "major_j", "angle_i", "angle_j",
    "offset", "direction", "w", "count_i", "count_j",
)


def sigma_cells(mean_i, cov_i, mean_j, cov_j, points: int) -> float:
    """Smallest per-axis standard deviation of the pair, in cells of the
    grid that discretize_gaussians lays over it."""
    sds = [np.sqrt(np.diag(cov_i)), np.sqrt(np.diag(cov_j))]
    lo = np.minimum(mean_i - GRID_EXTENT_SIGMAS * sds[0], mean_j - GRID_EXTENT_SIGMAS * sds[1])
    hi = np.maximum(mean_i + GRID_EXTENT_SIGMAS * sds[0], mean_j + GRID_EXTENT_SIGMAS * sds[1])
    cell = (hi - lo) / points
    return float(min(np.min(sd / cell) for sd in sds))


def _chi_tail(r: float, dim: int) -> float:
    """P(|Z| > r) for Z standard normal in ``dim`` dimensions: the upper
    regularised gamma Q(dim/2, r^2/2), by Q(a+1, h) = Q(a, h) + h^a e^-h / Gamma(a+1)."""
    if r <= 0.0:
        return 1.0
    h = 0.5 * r * r
    a, q = (1.0, math.exp(-h)) if dim % 2 == 0 else (0.5, math.erfc(math.sqrt(h)))
    while a < 0.5 * dim:
        q += math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
        a += 1.0
    return q


def _underflow_limit(dim: int, log_det_b: float) -> float:
    """Squared Mahalanobis distance beyond which a Gaussian density reads 0."""
    return -2.0 * LOG_UNDERFLOW - dim * math.log(2.0 * math.pi) - log_det_b


def underflow_share_bound(mean_a, eig_a, mean_b, eig_b) -> float:
    """Cheap upper bound on ``underflow_share`` from the eigenvalues alone:
    in b's Mahalanobis distance, x = mean_a + A z lies at most
    |mean_a - mean_b| / sqrt(min eig_b) + sqrt(max eig_a / min eig_b) |z|
    from mean_b."""
    limit = _underflow_limit(mean_a.size, float(np.log(eig_b).sum()))
    centre = float(np.linalg.norm(mean_a - mean_b)) / math.sqrt(eig_b[0])
    return _chi_tail((math.sqrt(limit) - centre) / math.sqrt(eig_a[-1] / eig_b[0]), mean_a.size)


def underflow_share(mean_a, cov_a, mean_b, cov_b) -> float:
    """Share of the mass of N(mean_a, cov_a) where the density of
    N(mean_b, cov_b) reads 0, estimated on the fixed draws UNIT_DRAWS."""
    dim = mean_a.size
    x = mean_a + UNIT_DRAWS[:, :dim] @ np.linalg.cholesky(cov_a).T
    chol_b = np.linalg.cholesky(cov_b)
    u = np.linalg.solve(chol_b, (x - mean_b).T)
    limit = _underflow_limit(dim, 2.0 * float(np.log(np.diag(chol_b)).sum()))
    return float(np.mean((u * u).sum(axis=0) > limit))


def _resolved(mean_i, cov_i, mean_j, cov_j, points: int | None) -> bool:
    """Whether a pair stays clear of the faults that would make it fail on
    some seeds only: grid pairs must resolve their narrowest axis, Gaussian
    pairs must keep the Monte Carlo curvature's rejections rare."""
    if points is not None:
        return sigma_cells(mean_i, cov_i, mean_j, cov_j, points) >= MIN_SIGMA_CELLS
    eig_i, eig_j = np.linalg.eigvalsh(cov_i), np.linalg.eigvalsh(cov_j)
    bound = max(underflow_share_bound(mean_i, eig_i, mean_j, eig_j), underflow_share_bound(mean_j, eig_j, mean_i, eig_i))
    if bound <= MAX_UNDERFLOW_SHARE:
        return True
    share = max(underflow_share(mean_i, cov_i, mean_j, cov_j), underflow_share(mean_j, cov_j, mean_i, cov_i))
    return share <= MAX_UNDERFLOW_SHARE


def _geometry(rng, dim: int, u: dict, redraw: bool):
    """Covariances and means of one pair; a redraw keeps the stratified
    sizes and offset and draws a new orientation."""
    angle_i, angle_j = (rng.random(), rng.random()) if redraw else (u["angle_i"], u["angle_j"])
    cov_i = _covariance(rng, dim, u["kappa_i"], u["major_i"], angle_i)
    cov_j = _covariance(rng, dim, u["kappa_j"], u["major_j"], angle_j)
    mean_i = rng.normal(0.0, 1.0, dim)
    if dim == 2:
        theta = 2.0 * math.pi * (rng.random() if redraw else u["direction"])
        direction = np.array([math.cos(theta), math.sin(theta)])
    else:
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
    scale = math.sqrt(max(np.linalg.eigvalsh(cov_i)[-1], np.linalg.eigvalsh(cov_j)[-1]))
    offset = u["offset"] * MAX_OFFSET_SIGMAS * scale
    return cov_i, cov_j, mean_i, mean_i + offset * direction


def _pairs(rng, family: str, dim: int, count: int, points: int | None = None) -> list[dict]:
    strata = {key: (rng.permutation(count) + rng.random(count)) / count for key in STRATIFIED}
    pairs = []
    for k in range(count):
        u = {key: float(strata[key][k]) for key in STRATIFIED}
        for attempt in range(MAX_REDRAWS):
            if attempt and attempt % ORIENTATION_REDRAWS == 0:
                u = dict(u, offset=0.5 * u["offset"])
            cov_i, cov_j, mean_i, mean_j = _geometry(rng, dim, u, redraw=attempt > 0)
            if _resolved(mean_i, cov_i, mean_j, cov_j, points):
                break
        else:
            raise RuntimeError(f"no orientation keeps a {dim}-D pair within the generator's limits")
        w = _from_range(u["w"], *WEIGHT_RANGE)
        log_z = ref.gauss_log_z(mean_i, cov_i, mean_j, cov_j, w)
        pairs.append({
            "family": family,
            "dim": dim,
            "mean_i": mean_i,
            "cov_i": cov_i,
            "mean_j": mean_j,
            "cov_j": cov_j,
            "w": w,
            "newton_seed": int(rng.integers(0, 2**31 - 1)),
            **_counts(rng, family, u, log_z),
        })
    return pairs


def _blocks(rng, make_up, blocks: int, extra=()) -> list[list[dict]]:
    """``blocks`` lists with the same make-up; make_up is a sequence of
    (family, dimension, pairs per block, extra keys). Each class is drawn
    once for the whole pool, so its strata span all blocks, and dealt out
    to the blocks in turn."""
    pool = [[] for _ in range(blocks)]
    for family, dim, count, keys in make_up:
        pairs = _pairs(rng, family, dim, count * blocks, keys.get("points"))
        for b, block in enumerate(pool):
            block.extend({**pair, **keys} for pair in pairs[b * count : (b + 1) * count])
    return [block + list(extra) for block in pool]


def _far(family: str, dim: int, distance: float, counts: dict) -> dict:
    mean_j = np.zeros(dim)
    mean_j[0] = distance
    return {
        "family": family,
        "dim": dim,
        "mean_i": np.zeros(dim),
        "cov_i": np.eye(dim),
        "mean_j": mean_j,
        "cov_j": np.eye(dim),
        "w": 0.5,
        "newton_seed": 0,
        "far": True,
        **counts,
    }


# Unit covariances 75 to 120 standard deviations apart. On the parent code
# consistent_fuse raises "Monte Carlo rejection rate above 10%" for all four
# (the input densities underflow to 0), and iid_fuse_p2 raises "scale
# factors must lie in (0, 1]" for the two IID pairs (z_w^n underflows).
FAR_APART = (
    _far("bernoulli", 2, 80.0, {"alpha_i": 0.6, "alpha_j": 0.8}),
    _far("poisson", 2, 100.0, {"rate_i": 2.0, "rate_j": 5.0}),
    _far("iid", 2, 75.0, {"pmf_i": binomial_pmf(10, 0.6), "pmf_j": binomial_pmf(10, 0.8)}),
    _far("iid", 3, 120.0, {"pmf_i": binomial_pmf(20, 0.7), "pmf_j": binomial_pmf(20, 0.9)}),
)


def gauss_pool(seed: int, blocks: int = GAUSS_BLOCKS, shrink: int = 1) -> list[list[dict]]:
    """Blocks of seeded Gaussian pairs, each followed by the fixed far-apart
    pairs. ``shrink`` divides every class (keeping at least one pair), for
    the quick mode."""
    rng = np.random.default_rng([seed, 1])
    make_up = [(family, dim, max(1, count // shrink), {}) for family in FAMILIES for dim, count in GAUSS_BLOCK]
    return _blocks(rng, make_up, blocks, FAR_APART)


def grid_pool(seed: int, blocks: int = GRID_BLOCKS, shrink: int = 1) -> list[list[dict]]:
    """Blocks of seeded Gaussian pairs to be discretised onto aligned grids."""
    rng = np.random.default_rng([seed, 2])
    make_up = [
        (family, dim, max(1, count // shrink), {"points": points})
        for points, dim, counts in GRID_BLOCK
        for family, count in zip(FAMILIES, counts)
        if count
    ]
    return _blocks(rng, make_up, blocks)

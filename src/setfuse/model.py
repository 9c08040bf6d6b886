"""Domain types for finite-set distributions.

A finite-set distribution factorises into a cardinality pmf p(n) over the
number of objects and a localisation density for the object states given n.
This module holds the building blocks (pmfs, Gaussian and grid localisation
densities, the three supported set families) plus evaluation of the set
density and a normalization check.

All types are immutable after construction and safe to share across threads.
Sampling always takes a caller-owned ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

PMF_SUM_TOL = 1e-10
POISSON_TAIL_TOL = 1e-9
GRID_MASS_TOL = 1e-2
COV_CONDITION_LIMIT = 1e12


class IncompatibleInputs(ValueError):
    """Inputs that are each valid but cannot be fused or evaluated together:
    existence beliefs of 0 and 1, count pmfs or grids with no common support,
    a count range that would cut off positive probability, or a Gaussian
    pair with a mean or covariance trace past ``gaussian.PAIR_LIMIT``."""


DISJOINT_SUPPORT = "inputs have disjoint supports: no point where both are positive"


def _set_frozen(obj, **arrays: np.ndarray) -> None:
    """Store arrays, made read-only, on a frozen dataclass instance."""
    for name, value in arrays.items():
        value.flags.writeable = False
        object.__setattr__(obj, name, value)


def _point_rows(points, dim: int) -> np.ndarray:
    """The points a localisation density is evaluated at, as a (k, d) float
    array: ``points`` is shaped (k, d), or (d,) for one point, and every
    coordinate is finite; anything else raises a ValueError."""
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(f"points must be shaped (k, {dim}) or ({dim},), got {np.shape(points)}")
    if not np.isfinite(x).all():
        raise ValueError("points must be finite")
    return x


@dataclass(frozen=True, eq=False)
class CardinalityPmf:
    """Finite-support pmf over object counts n = 0..n_max."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("cardinality pmf must be a nonempty 1-D sequence")
        if np.any(p < 0):
            raise ValueError("cardinality probabilities must be nonnegative")
        total = float(p.sum())
        if not math.isfinite(total):
            raise ValueError("cardinality probabilities must be finite")
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise ValueError(f"cardinality pmf must sum to 1 (got {total!r})")
        _set_frozen(self, probs=p.copy())

    @classmethod
    def _trusted(cls, probs: np.ndarray) -> "CardinalityPmf":
        """Freeze nonnegative probabilities of unit mass (a fused or padded
        pmf). The array is taken over, not copied."""
        self = object.__new__(cls)
        _set_frozen(self, probs=probs)
        return self

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    def prob(self, n: int) -> float:
        """p(n), zero outside the stored support."""
        if n < 0 or n > self.n_max:
            return 0.0
        return float(self.probs[n])

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs > 0)

    def padded(self, n_max: int) -> np.ndarray:
        """Probabilities extended with zeros out to index n_max."""
        if n_max < self.n_max:
            if np.any(self.probs[n_max + 1:] > 0):
                raise IncompatibleInputs("cannot truncate pmf with positive tail mass")
            return self.probs[: n_max + 1].copy()
        out = np.zeros(n_max + 1)
        out[: self.probs.size] = self.probs
        return out

    def map_estimate(self) -> int:
        return int(np.argmax(self.probs))

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)


def pmf_kld(p: CardinalityPmf, q: CardinalityPmf) -> float:
    """Discrete Kullback-Leibler divergence D(p||q) in nats.

    Returns +inf when p puts mass where q does not.
    """
    n = max(p.n_max, q.n_max)
    a = p.padded(n)
    b = q.padded(n)
    mask = a > 0
    if np.any(b[mask] == 0):
        return math.inf
    return float(np.sum(a[mask] * (np.log(a[mask]) - np.log(b[mask]))))


@dataclass(frozen=True, eq=False)
class GaussianDensity:
    """Multivariate Gaussian with mean vector and SPD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        c = np.asarray(self.cov, dtype=float)
        if c.ndim == 0:
            c = c.reshape(1, 1)
        if m.ndim != 1 or c.shape != (m.size, m.size):
            raise ValueError("mean must be a d-vector and covariance d x d")
        scale = np.abs(c).max()
        if not (np.isfinite(m).all() and math.isfinite(scale)):
            raise ValueError("mean and covariance must be finite")
        if scale == 0:
            raise ValueError("covariance must be positive definite")
        if np.abs(0.5 * c - 0.5 * c.T).max() > 0.5e-12 * scale:
            raise ValueError("covariance must be symmetric")
        # on c / scale, so that no eigenvalue overflows and both checks are scale-free
        eig = np.linalg.eigvalsh(c / scale)
        if eig[0] <= 0:
            raise ValueError("covariance must be positive definite")
        if eig[-1] / eig[0] > COV_CONDITION_LIMIT:
            raise ValueError("covariance condition number exceeds 1e12")
        _set_frozen(self, mean=m.copy(), cov=0.5 * c + 0.5 * c.T)

    @classmethod
    def _trusted(cls, mean: np.ndarray, cov: np.ndarray) -> "GaussianDensity":
        """Freeze arrays that already pass every check (a fused output): a
        finite mean and a symmetric positive definite covariance within the
        condition limit. The arrays are taken over, not copied."""
        self = object.__new__(cls)
        _set_frozen(self, mean=mean, cov=cov)
        return self

    @property
    def dim(self) -> int:
        return self.mean.size

    def log_evaluate(self, points: np.ndarray) -> np.ndarray:
        """Log density at each row of ``points`` (see ``_point_rows``).

        The offsets from the mean are laid out coordinate-major, a (d, k)
        array, and whitened by one product with the inverse Cholesky factor,
        so the squared Mahalanobis distance is one sum of squares down the d
        rows. The mean is subtracted first, so points far from the origin
        lose nothing to cancellation. Against a 60-digit reference the error
        is that of a solve with the same factor to within 8 eps sqrt(kappa)
        relative, kappa the condition number; near the 1e12 limit both are
        dominated by the rounding of the factor itself, up to about 1e-3
        relative. A finite point too far away to resolve gives -inf, with no
        warning.
        """
        x = _point_rows(points, self.dim)

        def squares(inv_chol):
            w = inv_chol @ np.subtract(x.T, self.mean[:, None], order="C")
            return np.einsum("ij,ij->j", w, w)

        return self._log_density(squares)

    def _log_evaluate_lattice(self, axes: list[np.ndarray]) -> np.ndarray:
        """``log_evaluate`` at every point of the lattice whose coordinate k
        runs over ``axes[k]``, shaped (len(axes[0]), ..., len(axes[d-1])).

        The inverse Cholesky factor is lower-triangular, so whitened
        coordinate r, sum over k <= r of inv_chol[r, k] (a_k - m_k), is a
        broadcast sum of per-axis vectors and spans axes 0..r only. No point
        is stored: only coordinate d-1 and the sum of squares span the whole
        lattice.
        """
        dim = self.dim

        def squares(inv_chol):
            # offset k as a column over axis k, broadcast against the later axes
            offsets = [
                np.subtract(axis, m).reshape((-1,) + (1,) * (dim - 1 - k))
                for k, (axis, m) in enumerate(zip(axes, self.mean))
            ]
            maha = 0.0
            for r in range(dim):
                w = inv_chol[r, 0] * offsets[0]
                for k in range(1, r + 1):
                    w = w + inv_chol[r, k] * offsets[k]
                w *= w
                w += maha
                maha = w
            return maha

        return self._log_density(squares)

    def _log_density(self, squares) -> np.ndarray:
        """-1/2 (squares(inverse Cholesky factor) + d log 2 pi + log det):
        the log density from its squared Mahalanobis distances. Overflow
        in ``squares`` is silent, and a NaN there, which only an overflow
        gives (inf - inf or 0 * inf), reads +inf."""
        chol = np.linalg.cholesky(self.cov)
        with np.errstate(over="ignore", invalid="ignore"):
            maha = squares(np.linalg.inv(chol))
            np.fmin(maha, np.inf, out=maha)  # NaN -> inf, in one pass
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        maha += self.dim * math.log(2 * math.pi) + logdet
        maha *= -0.5
        return maha

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        log_density = self.log_evaluate(points)
        return np.exp(log_density, out=log_density)

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Draw ``count`` i.i.d. points, shape (count, d)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        chol = np.linalg.cholesky(self.cov)
        z = rng.standard_normal((count, self.dim))
        return self.mean + z @ chol.T


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Piecewise-constant density on an axis-aligned rectangular lattice.

    ``values[i, j, ...]`` is the density on the cell whose lower corner is
    ``origin + index * cell_size``. Values off by less than 1% from unit mass
    are renormalized at construction; anything worse is rejected.
    """

    origin: np.ndarray
    cell_size: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        origin = np.atleast_1d(np.asarray(self.origin, dtype=float))
        cell = np.atleast_1d(np.asarray(self.cell_size, dtype=float))
        vals = np.asarray(self.values, dtype=float)
        if origin.ndim != 1 or cell.shape != origin.shape:
            raise ValueError("origin and cell_size must be d-vectors")
        if not np.isfinite(origin).all():
            raise ValueError("origin must be finite")
        if not ((cell > 0) & (cell < np.inf)).all():  # NaN fails both
            raise ValueError("cell sizes must be positive and finite")
        if vals.ndim != origin.size:
            raise ValueError("values must have one axis per dimension")
        if np.any(vals < 0):
            raise ValueError("grid density values must be nonnegative")
        mass = float(vals.sum()) * math.prod(cell.tolist())
        if not abs(mass - 1.0) <= GRID_MASS_TOL:  # also rejects NaN and inf
            raise ValueError(f"grid mass {mass!r} too far from 1 to renormalize")
        _set_frozen(self, origin=origin, cell_size=cell, values=vals / mass)

    @classmethod
    def _trusted(cls, like: "GridDensity", values: np.ndarray) -> "GridDensity":
        """Freeze nonnegative values of unit mass (a fused output) on the
        lattice of ``like``. The array is taken over, not copied or
        renormalized."""
        self = object.__new__(cls)
        vars(self).update(origin=like.origin, cell_size=like.cell_size)  # read-only already
        _set_frozen(self, values=values)
        return self

    @property
    def dim(self) -> int:
        return self.origin.size

    @property
    def cell_volume(self) -> float:
        # bitwise float(np.prod(cell_size)): both multiply left to right
        return math.prod(self.cell_size.tolist())

    def log_evaluate(self, points: np.ndarray) -> np.ndarray:
        """The log of ``evaluate``: -inf off the lattice and on zero cells."""
        with np.errstate(divide="ignore"):
            return np.log(self.evaluate(points))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Density at each row of ``points`` (see ``_point_rows``); 0 off the
        lattice."""
        x = _point_rows(points, self.dim)
        # cell positions are compared as floats, so a far point is never cast
        with np.errstate(over="ignore"):
            pos = np.floor((x - self.origin) / self.cell_size)
        inside = np.all((pos >= 0) & (pos < self.values.shape), axis=1)
        out = np.zeros(x.shape[0])
        if np.any(inside):
            flat = np.ravel_multi_index(tuple(pos[inside].astype(int).T), self.values.shape)
            out[inside] = self.values.ravel()[flat]
        return out

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """Categorical draw over cells, then uniform within the cell."""
        if count < 1:
            raise ValueError("count must be >= 1")
        masses = self.values.ravel() * self.cell_volume
        cdf = np.cumsum(masses)
        cdf /= cdf[-1]
        flat = np.searchsorted(cdf, rng.random(count), side="right")
        idx = np.column_stack(np.unravel_index(flat, self.values.shape))
        u = rng.random((count, self.dim))
        return self.origin + (idx + u) * self.cell_size


LocalisationDensity = Union[GaussianDensity, GridDensity]


@dataclass(frozen=True, eq=False)
class BernoulliRfs:
    """At most one object: empty with probability 1 - alpha."""

    alpha: float
    loc: LocalisationDensity

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("existence probability must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class PoissonRfs:
    """Poisson object count with factorized localisation."""

    rate: float
    loc: LocalisationDensity

    def __post_init__(self):
        if not math.isfinite(self.rate):
            raise ValueError("expected count must be finite")
        if self.rate < 0:
            raise ValueError("expected count must be nonnegative")


@dataclass(frozen=True, eq=False)
class IidClusterRfs:
    """Arbitrary finite-support count pmf with factorized localisation."""

    card: CardinalityPmf
    loc: LocalisationDensity


FiniteSetDistribution = Union[BernoulliRfs, PoissonRfs, IidClusterRfs]


@dataclass(frozen=True, eq=False)
class FiniteSet:
    """An unordered finite collection of d-dimensional points.

    Points are stored in insertion order; every operation treats them as a
    set, and density evaluation is invariant to the stored order.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[1] if pts.ndim == 2 else 0)
        if pts.ndim != 2:
            raise ValueError("points must form an (n, d) array")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        _set_frozen(self, points=pts.copy())

    @classmethod
    def empty(cls, dim: int) -> "FiniteSet":
        return cls(np.empty((0, dim)))

    @property
    def size(self) -> int:
        return self.points.shape[0]


def default_poisson_n_max(rate: float) -> int:
    """Truncation point leaving negligible Poisson tail mass."""
    return max(30, int(math.ceil(rate + 10.0 * math.sqrt(rate))))


def _log_factorials(n_max: int) -> np.ndarray:
    """log n! for n = 0..n_max."""
    return np.array([math.lgamma(n + 1.0) for n in range(n_max + 1)])


def _poisson_log_pmf(n_max: int, rate: float) -> np.ndarray:
    """Poisson log-pmf on 0..n_max for a positive rate."""
    return -rate + np.arange(n_max + 1) * math.log(rate) - _log_factorials(n_max)


def cardinality_of(f: FiniteSetDistribution, n_max: int) -> CardinalityPmf:
    """Materialize the cardinality pmf of ``f`` on 0..n_max.

    Poisson counts are truncated and renormalized; the truncation must leave
    tail mass below 1e-9 or a ValueError is raised. An IID-cluster pmf that
    already ends at n_max is returned itself; truncating its positive mass
    raises a ValueError. A Bernoulli count needs n_max >= 1, the others
    n_max >= 0.
    """
    if isinstance(f, BernoulliRfs):
        if n_max < 1:
            raise ValueError("n_max must be >= 1 for a Bernoulli count")
        card = CardinalityPmf([1.0 - f.alpha, f.alpha])
    elif n_max < 0:
        raise ValueError("n_max must be >= 0")
    elif isinstance(f, PoissonRfs) and f.rate == 0.0:
        card = CardinalityPmf([1.0])
    elif isinstance(f, PoissonRfs):
        # Past the mean the tail is summed term by term out to 20 standard
        # deviations, so a tail near the tolerance is decided exactly, where
        # 1 - head sum would lose it to roundoff. Below the mean the tail
        # exceeds 1/4 and 1 - head sum is accurate.
        above_mean = n_max >= f.rate
        upper = n_max + int(20.0 * math.sqrt(f.rate)) + 40 if above_mean else n_max
        terms = np.exp(_poisson_log_pmf(upper, f.rate))
        tail = float(terms[n_max + 1:].sum()) if above_mean else 1.0 - float(terms.sum())
        if tail > POISSON_TAIL_TOL:
            raise ValueError(
                f"truncation too aggressive: tail mass {tail:.3e} beyond n_max={n_max}"
            )
        probs = terms[: n_max + 1]
        return CardinalityPmf(probs / probs.sum())
    elif isinstance(f, IidClusterRfs):
        card = f.card
    else:
        raise TypeError(f"unsupported finite-set distribution {type(f).__name__}")
    return card if card.n_max == n_max else CardinalityPmf._trusted(card.padded(n_max))


def _log(value: float) -> float:
    """log of a nonnegative float, with log 0 = -inf."""
    return math.log(value) if value > 0.0 else -math.inf


def rfs_log_density(f: FiniteSetDistribution, x: FiniteSet) -> float:
    """log of the set density p(|X|) |X|! prod rho(x) for the factorized
    families, -inf where the density is 0: the log count weight plus the
    points' log densities, summed by ``math.fsum``. That sum is correctly
    rounded, so the stored point order cannot move the result."""
    n = x.size
    if n > 0 and x.points.shape[1] != f.loc.dim:
        raise ValueError("point dimension does not match localisation density")
    if isinstance(f, BernoulliRfs):
        log_weight = _log((1.0 - f.alpha, f.alpha, 0.0)[min(n, 2)])
    elif isinstance(f, PoissonRfs):
        log_weight = -f.rate + (n * _log(f.rate) if n else 0.0)  # 0 log 0 = 0
    elif isinstance(f, IidClusterRfs):
        log_weight = _log(f.card.prob(n)) + math.lgamma(n + 1.0)
    else:
        raise TypeError(f"unsupported finite-set distribution {type(f).__name__}")
    if n == 0 or log_weight == -math.inf:
        return log_weight
    return log_weight + math.fsum(f.loc.log_evaluate(x.points))


def rfs_density_eval(f: FiniteSetDistribution, x: FiniteSet) -> float:
    """Set-density value p(|X|) |X|! prod rho(x), the exp of
    ``rfs_log_density``. A value past the float range (a log above about
    709.78) raises ``OverflowError``; ``rfs_log_density`` still gives its log."""
    log_density = rfs_log_density(f, x)
    try:
        return math.exp(log_density)
    except OverflowError:
        raise OverflowError(
            f"set density e^{log_density:.17g} exceeds the float range; use rfs_log_density"
        ) from None


def validate_normalization(f: FiniteSetDistribution, n_max: int) -> float:
    """Partial sum of the cardinality series; should be close to 1.

    Localisation integrals are unity by construction, so the set integral
    reduces to the cardinality sum. n_max must be >= 0.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if isinstance(f, BernoulliRfs):
        return (1.0 - f.alpha) + (f.alpha if n_max >= 1 else 0.0)
    if isinstance(f, PoissonRfs):
        if f.rate == 0.0:
            return 1.0
        return float(np.exp(_poisson_log_pmf(n_max, f.rate)).sum())
    if isinstance(f, IidClusterRfs):
        return float(f.card.probs[: n_max + 1].sum())
    raise TypeError(f"unsupported finite-set distribution {type(f).__name__}")

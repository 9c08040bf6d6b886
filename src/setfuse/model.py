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
    or a count range that would cut off positive probability."""


DISJOINT_SUPPORT = "inputs have disjoint supports: no point where both are positive"


def _set_frozen(obj, **arrays: np.ndarray) -> None:
    """Store arrays, made read-only, on a frozen dataclass instance."""
    for name, value in arrays.items():
        value.flags.writeable = False
        object.__setattr__(obj, name, value)


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
        if scale > 0 and np.abs(c - c.T).max() > 1e-12 * scale:
            raise ValueError("covariance must be symmetric")
        eig = np.linalg.eigvalsh(c)
        if eig[0] <= 0:
            raise ValueError("covariance must be positive definite")
        if eig[-1] / eig[0] > COV_CONDITION_LIMIT:
            raise ValueError("covariance condition number exceeds 1e12")
        _set_frozen(self, mean=m.copy(), cov=0.5 * (c + c.T))

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
        """Log density at each row of ``points`` (shape (k, d) or (d,))."""
        x = np.atleast_2d(np.asarray(points, dtype=float))
        if x.shape[1] != self.dim:
            raise ValueError("point dimension mismatch")
        chol = np.linalg.cholesky(self.cov)
        delta = x - self.mean
        w = np.linalg.solve(chol, delta.T)
        maha = np.sum(w * w, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        return -0.5 * (self.dim * math.log(2 * math.pi) + logdet + maha)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.exp(self.log_evaluate(points))

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
        if np.any(cell <= 0):
            raise ValueError("cell sizes must be positive")
        if vals.ndim != origin.size:
            raise ValueError("values must have one axis per dimension")
        if np.any(vals < 0):
            raise ValueError("grid density values must be nonnegative")
        mass = float(vals.sum()) * float(np.prod(cell))
        if not abs(mass - 1.0) <= GRID_MASS_TOL:  # also rejects NaN and inf
            raise ValueError(f"grid mass {mass!r} too far from 1 to renormalize")
        _set_frozen(self, origin=origin, cell_size=cell, values=vals / mass)

    @classmethod
    def _trusted(cls, like: "GridDensity", values: np.ndarray) -> "GridDensity":
        """Freeze nonnegative values of unit mass (a fused output) on the
        lattice of ``like``. The array is taken over, not copied or
        renormalized."""
        self = object.__new__(cls)
        _set_frozen(self, origin=like.origin, cell_size=like.cell_size, values=values)
        return self

    @property
    def dim(self) -> int:
        return self.origin.size

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_size))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(points, dtype=float))
        if x.shape[1] != self.dim:
            raise ValueError("point dimension mismatch")
        idx = np.floor((x - self.origin) / self.cell_size).astype(int)
        inside = np.all((idx >= 0) & (idx < np.array(self.values.shape)), axis=1)
        out = np.zeros(x.shape[0])
        if np.any(inside):
            flat = np.ravel_multi_index(tuple(idx[inside].T), self.values.shape)
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
        probs = np.zeros(n_max + 1)
        probs[0] = 1.0 - f.alpha
        probs[1] = f.alpha
        return CardinalityPmf(probs)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if isinstance(f, PoissonRfs):
        if f.rate == 0.0:
            probs = np.zeros(n_max + 1)
            probs[0] = 1.0
            return CardinalityPmf(probs)
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
    if isinstance(f, IidClusterRfs):
        card = f.card
        return card if card.n_max == n_max else CardinalityPmf._trusted(card.padded(n_max))
    raise TypeError(f"unsupported finite-set distribution {type(f).__name__}")


def _point_density_product(loc: LocalisationDensity, points: np.ndarray) -> float:
    # sorted before multiplying so the stored point order cannot perturb
    # the product in the last ulp
    dens = np.sort(loc.evaluate(points))
    return float(np.prod(dens))


def rfs_density_eval(f: FiniteSetDistribution, x: FiniteSet) -> float:
    """Set-density value p(|X|) |X|! prod rho(x) for the factorized families."""
    n = x.size
    if n > 0:
        loc_dim = f.loc.dim
        if x.points.shape[1] != loc_dim:
            raise ValueError("point dimension does not match localisation density")
    if isinstance(f, BernoulliRfs):
        if n == 0:
            return 1.0 - f.alpha
        if n == 1:
            return f.alpha * float(f.loc.evaluate(x.points)[0])
        return 0.0
    if isinstance(f, PoissonRfs):
        # p(n) n! = exp(-rate) rate^n
        if f.rate == 0.0:
            return 1.0 if n == 0 else 0.0
        weight = math.exp(-f.rate) * f.rate**n
        if n == 0:
            return weight
        return weight * _point_density_product(f.loc, x.points)
    if isinstance(f, IidClusterRfs):
        p_n = f.card.prob(n)
        if p_n == 0.0:
            return 0.0
        if n == 0:
            return p_n
        return p_n * math.factorial(n) * _point_density_product(f.loc, x.points)
    raise TypeError(f"unsupported finite-set distribution {type(f).__name__}")


def validate_normalization(f: FiniteSetDistribution, n_max: int) -> float:
    """Partial sum of the cardinality series; should be close to 1.

    Localisation integrals are unity by construction, so the set integral
    reduces to the cardinality sum.
    """
    if isinstance(f, BernoulliRfs):
        return (1.0 - f.alpha) + f.alpha
    if isinstance(f, PoissonRfs):
        if f.rate == 0.0:
            return 1.0
        return float(np.exp(_poisson_log_pmf(n_max, f.rate)).sum())
    if isinstance(f, IidClusterRfs):
        return float(f.card.probs[: n_max + 1].sum())
    raise TypeError(f"unsupported finite-set distribution {type(f).__name__}")

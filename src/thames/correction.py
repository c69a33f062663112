"""Constrained-support adjustment.

When the truncation ellipsoid A sticks out of the posterior support S,
the estimator sums over A intersect S, whose volume is V(A) times the
volume ratio R = V(A intersect S) / V(A). R is estimated by uniform
Monte Carlo sampling inside the ellipsoid.

Sampling uses the counter-based Philox generator, so a 64-bit seed fully
determines the draw; parallel replications should derive per-replication
seeds with seeds.spawn_seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ZeroSupportOverlap
from .estimator import _check_level, _two_sided_z
from .geometry import Ellipsoid
from .seeds import _check_seed, _rng


@dataclass(frozen=True)
class SupportPredicate:
    """Membership test for the posterior support.

    kind is one of "unbounded", "positive_orthant", "box", "simplex",
    "callback". Simplex membership means the selected coordinates are
    strictly positive and sum to less than 1 (the last, dropped simplex
    coordinate holds the remainder). A callback's func takes an n x d
    array and returns n booleans.
    """

    kind: str
    indices: tuple = None
    lower: tuple = None
    upper: tuple = None
    func: object = None

    @classmethod
    def unbounded(cls):
        return cls("unbounded")

    @classmethod
    def positive_orthant(cls, indices):
        return cls("positive_orthant", indices=_nonempty_indices(indices))

    @classmethod
    def box(cls, lower, upper):
        lower = tuple(float(x) for x in lower)
        upper = tuple(float(x) for x in upper)
        # not l < u, so that a NaN bound is rejected too
        if len(lower) != len(upper) or any(not l < u for l, u in zip(lower, upper)):
            raise InvalidInput("box bounds must satisfy lower < upper componentwise")
        return cls("box", lower=lower, upper=upper)

    @classmethod
    def simplex(cls, indices=None):
        idx = None if indices is None else _nonempty_indices(indices)
        return cls("simplex", indices=idx)

    @classmethod
    def callback(cls, func):
        return cls("callback", func=func)

    def contains(self, points):
        """Vectorized membership for an n x d matrix; returns a bool vector."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n, d = pts.shape
        if self.kind == "unbounded":
            return np.ones(n, dtype=bool)
        if self.kind == "positive_orthant":
            self._check_indices(d)
            hits = np.ones(n, dtype=bool)
            for i in self.indices:
                hits &= pts[:, i] > 0.0
            return hits
        if self.kind == "box":
            if len(self.lower) != d:
                raise InvalidInput("box bounds do not match dimension")
            lo = np.asarray(self.lower)
            up = np.asarray(self.upper)
            return np.all((pts > lo) & (pts < up), axis=1)
        if self.kind == "simplex":
            if self.indices is not None:
                self._check_indices(d)
            sub = pts[:, list(range(d) if self.indices is None else self.indices)]
            return np.all(sub > 0.0, axis=1) & (sub.sum(axis=1) < 1.0)
        if self.kind == "callback":
            hits = np.asarray(self.func(pts))
            if hits.shape != (n,):
                raise InvalidInput(f"support callback returned shape {hits.shape} "
                                   f"for {n} points; expected ({n},)")
            return hits.astype(bool)
        raise InvalidInput(f"unknown support kind {self.kind!r}")

    def _check_indices(self, d):
        if any(i < 0 or i >= d for i in self.indices):
            raise InvalidInput("support indices out of range")


def _nonempty_indices(indices):
    """The column indices of a support as a tuple of ints; at least one."""
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise InvalidInput("support needs at least one index")
    return idx


def _check_sample_count(n):
    """Raise InvalidInput unless n is a usable sample count, >= 1."""
    if n < 1:
        raise InvalidInput(f"sample count must be >= 1, got {n}")


@dataclass(frozen=True)
class ConstrainedCorrectionConfig:
    support: SupportPredicate
    n_samples: int = 100
    seed: int = 0

    def __post_init__(self):
        _check_sample_count(self.n_samples)
        _check_seed(self.seed)


_BLOCK_ROWS = 1 << 14


def _uniform_blocks(e: Ellipsoid, n, seed):
    """Yield n iid uniform points in the open ellipsoid, _BLOCK_ROWS rows
    at a time, deterministic per seed.

    Direction from a normalized Gaussian vector, radius from c * u^(1/d).
    Each block draws its normals g, then its radii r, from the seed's one
    Philox stream and maps them to center + (g @ scale.T) * (r / |g|), so
    the points for a seed depend on _BLOCK_ROWS.
    """
    _check_sample_count(n)
    rng = _rng(seed)
    d = e.dim
    for start in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - start)
        g = rng.standard_normal((rows, d))
        r = e.radius * rng.random(rows) ** (1.0 / d)
        norms = np.sqrt(np.einsum("ij,ij->i", g, g))
        norms[norms == 0.0] = 1.0  # measure-zero guard
        pts = g @ e.scale.T
        pts *= (r / norms)[:, None]
        pts += e.center
        yield pts


def estimate_volume_ratio(e: Ellipsoid, support: SupportPredicate, n, seed,
                          ci_level=0.95):
    """Monte Carlo volume ratio R_hat with a normal-approximation CI.

    The points of _uniform_blocks(e, n, seed) are counted block by
    block, so memory does not grow with n. Raises ZeroSupportOverlap
    (carrying the CI) when no sample lands in the support, since dividing
    by R_hat = 0 is undefined.
    """
    _check_level(ci_level)
    hits = sum(np.count_nonzero(support.contains(pts))
               for pts in _uniform_blocks(e, n, seed))
    r_hat = hits / n
    half = _two_sided_z(ci_level) * np.sqrt(r_hat * (1.0 - r_hat) / n)
    ci = (max(0.0, r_hat - half), min(1.0, r_hat + half))
    if r_hat == 0.0:
        raise ZeroSupportOverlap(
            "no uniform sample fell inside the support; increase n or check "
            "the support specification", ci=ci)
    return r_hat, ci


"""Constrained-support adjustment.

When the truncation ellipsoid A sticks out of the posterior support S,
the estimator sums over A intersect S, whose volume is V(A) times the
volume ratio R = V(A intersect S) / V(A). R is estimated by uniform
Monte Carlo sampling inside the ellipsoid.

Sampling uses the counter-based Philox generator, so a 64-bit seed fully
determines the draw; parallel replications should derive per-replication
seeds with seeds.spawn_seed. The sample is drawn in blocks of
_BLOCK_ROWS points, and block b draws from the seed's Philox stream
jumped b times (by 2^128 draws each), so blocks are independent streams.
Each block is drawn, mapped into the ellipsoid and counted on the
calling thread before the next is drawn, into two block-sized arrays
made once per call: the normals, which the points then overwrite, and
their product with the scale factor. So a count with a built-in support
holds two blocks whatever n is (26 MB at d = 100); a callback count also
holds the C-ordered copy of each block that the callback is given.

The product is g @ scale.T in the rows x d layout of the whole-array
formula, so BLAS rounds every point as that formula does; scale @ g.T
would save a transposing pass but rounds differently for some row
counts and dimensions. The r / |g| scaling writes the product's
transpose into the normals' memory as a d x rows array, so the scaling,
the centre and the support test run along one coordinate of every point
at a time.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ZeroSupportOverlap, _check_count, _check_level
from .geometry import Ellipsoid, _two_sided_z
from .seeds import _check_seed, _rng


@dataclass(frozen=True)
class SupportPredicate:
    """Membership test for the posterior support.

    kind is one of "positive_orthant", "box", "simplex", "callback".
    There is no kind for a support that holds every point: the estimate
    without a correction is that estimate. Simplex membership means the
    selected coordinates are strictly positive and sum to less than 1
    (the last, dropped simplex coordinate holds the remainder). A
    callback's func takes an n x d C-contiguous float64 array, once per
    block of the volume-ratio count (which may reuse the array for the
    next block), and returns n booleans. Every check that needs no points
    runs at construction, however the predicate is built.
    """

    kind: str
    indices: tuple = None
    lower: tuple = None
    upper: tuple = None
    func: object = None

    def __post_init__(self):
        if self.kind not in ("positive_orthant", "box", "simplex", "callback"):
            raise InvalidInput(f"unknown support kind {self.kind!r}")
        try:  # indices and bounds become tuples; a missing one is a TypeError
            if self.indices is not None or self.kind == "positive_orthant":
                object.__setattr__(self, "indices",
                                   tuple(map(operator.index, self.indices)))
            if self.kind == "box":
                object.__setattr__(self, "lower", tuple(map(float, self.lower)))
                object.__setattr__(self, "upper", tuple(map(float, self.upper)))
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"{self.kind} support: {exc}") from None
        if self.indices == ():
            raise InvalidInput("support needs at least one index")
        if self.indices and min(self.indices) < 0:
            raise InvalidInput("support indices out of range: one is negative")
        lo, up = self.lower, self.upper
        # not l < u, so that a NaN bound is rejected too
        if self.kind == "box" and (not lo or len(lo) != len(up)
                                   or any(not l < u for l, u in zip(lo, up))):
            raise InvalidInput("box bounds must be non-empty and satisfy "
                               "lower < upper componentwise")
        if self.kind == "callback" and not callable(self.func):
            raise InvalidInput("support callback needs a callable func")

    @classmethod
    def positive_orthant(cls, indices):
        return cls("positive_orthant", indices=indices)

    @classmethod
    def box(cls, lower, upper):
        return cls("box", lower=lower, upper=upper)

    @classmethod
    def simplex(cls, indices=None):
        return cls("simplex", indices=indices)

    @classmethod
    def callback(cls, func):
        return cls("callback", func=func)

    def contains(self, points):
        """Vectorized membership for an n x d matrix; returns a bool vector."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n, d = pts.shape
        if self.indices is not None and max(self.indices) >= d:
            raise InvalidInput("support indices out of range")
        if self.kind == "positive_orthant":
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
            sub = pts[:, list(range(d) if self.indices is None else self.indices)]
            return np.all(sub > 0.0, axis=1) & (sub.sum(axis=1) < 1.0)
        hits = np.asarray(self.func(np.ascontiguousarray(pts)))  # a callback
        if hits.shape != (n,):
            raise InvalidInput(f"support callback returned shape {hits.shape} "
                               f"for {n} points; expected ({n},)")
        return hits.astype(bool)


@dataclass(frozen=True)
class ConstrainedCorrectionConfig:
    support: SupportPredicate
    n_samples: int = 100
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.support, SupportPredicate):
            raise InvalidInput(f"support must be a SupportPredicate, "
                               f"got {type(self.support).__name__}")
        _check_count(self.n_samples, "sample")
        _check_seed(self.seed)


_BLOCK_ROWS = 1 << 14


def _into_ellipsoid(e: Ellipsoid, g, u, work):
    """Map normals g (rows x d, C order) and uniforms u to the points
    center + (g @ scale.T) * (r / |g|), with radius r = c * u^(1/d).

    The points are returned as the transpose of a d x rows array written
    over g's memory, and u is overwritten with r / |g|; work, a rows x d
    array, takes the product.
    """
    u **= 1.0 / e.dim
    u *= e.radius
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    norms[norms == 0.0] = 1.0  # measure-zero guard
    u /= norms
    prod = np.matmul(g, e.scale.T, out=work)
    pts = g.reshape(e.dim, len(g))
    np.multiply(prod.T, u, out=pts)
    pts += e.center[:, None]
    return pts.T


def _uniform_blocks(e: Ellipsoid, n, seed):
    """Yield n iid uniform points in the open ellipsoid, _BLOCK_ROWS rows
    at a time, deterministic per seed.

    Direction from a normalized Gaussian vector, radius from c * u^(1/d).
    Block b draws its normals, then its uniforms, from
    Generator(Philox(key=seed).jumped(b)); block 0 is the seed's own
    stream. Block b + 1 is drawn only when block b has been consumed,
    into the same arrays: a yielded block is valid until the next one is
    drawn, so a caller that keeps the points copies them.
    """
    _check_count(n, "sample")
    bits = _rng(seed).bit_generator
    size = min(n, _BLOCK_ROWS)
    normals, work, radii = (np.empty((size, e.dim)), np.empty((size, e.dim)),
                            np.empty(size))
    for b, start in enumerate(range(0, n, _BLOCK_ROWS)):
        gen = np.random.Generator(bits.jumped(b))
        rows = min(_BLOCK_ROWS, n - start)
        g, u = normals[:rows], radii[:rows]
        gen.standard_normal(out=g)  # the normals, then the radii
        gen.random(out=u)
        yield _into_ellipsoid(e, g, u, work[:rows])


def estimate_volume_ratio(e: Ellipsoid, support: SupportPredicate, n, seed,
                          ci_level=0.95):
    """Monte Carlo volume ratio R_hat with a normal-approximation CI.

    The points of _uniform_blocks(e, n, seed) are counted block by
    block, so memory does not grow with n. Raises ZeroSupportOverlap
    when no sample lands in the support, since dividing by R_hat = 0 is
    undefined.
    """
    _check_level(ci_level)
    hits = sum(int(np.count_nonzero(support.contains(pts)))
               for pts in _uniform_blocks(e, n, seed))
    if hits == 0:
        raise ZeroSupportOverlap(
            "no uniform sample fell inside the support; increase n or check "
            "the support specification")
    r_hat = hits / n
    half = _two_sided_z(ci_level) * math.sqrt(r_hat * (1.0 - r_hat) / n)
    return r_hat, (max(0.0, r_hat - half), min(1.0, r_hat + half))


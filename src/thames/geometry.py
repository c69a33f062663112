"""Dense linear algebra and ellipsoid geometry.

All density arithmetic elsewhere in the package is done in natural-log
space; this module provides the geometric primitives (moment estimates,
Cholesky factors, Mahalanobis distances, ellipsoid volumes) they rest on.
Everything here is a pure function over immutable inputs. The module
needs only numpy and the standard library.

The moment fit and the distances each take one pass over the draws,
_BLOCK_ROWS rows at a time, so beyond its input neither makes more than
a length-T vector and one block's worth of temporaries. Neither tests
the draws for finiteness: a non-finite draw makes the mean or the
distances non-finite, so the estimator checks shape alone up front and
runs the elementwise test (_require_finite) only when a pass's result is
not finite or an error is on its way out. The public functions here
check finiteness themselves.
"""

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import InvalidInput, NotPositiveDefinite

SYMMETRY_RTOL = 1e-10
# rows per block of the moment fit and of the distances, so their
# temporaries stay a few MB whatever T is; 2048 rows of d = 100 fit in
# cache, and 8192 ran slower
_BLOCK_ROWS = 2048
# rows of the centre pattern _centered_blocks subtracts from a block seen
# as wide rows; 64 rows of d = 100 are 51 KB
_TILE_ROWS = 64


def _as_matrix(draws, min_rows=1):
    """draws as a T x d float matrix, its shape checked but not its values."""
    a = np.asarray(draws, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise InvalidInput(f"draws must be 2-dimensional, got ndim={a.ndim}")
    t, d = a.shape
    if t < min_rows or d < 1:
        raise InvalidInput(f"draw matrix of shape {a.shape} is too small")
    return a


def _require_finite(a):
    """Raise InvalidInput unless every entry of a is finite: the elementwise
    test, which makes a T x d temporary."""
    if not np.isfinite(a).all():
        raise InvalidInput("draw matrix contains non-finite entries")


def as_draw_matrix(draws, min_rows=1):
    """Validate and return a T x d float matrix of posterior draws."""
    a = _as_matrix(draws, min_rows)
    _require_finite(a)
    return a


def as_log_density_vector(values, n_rows):
    """Validate per-draw log unnormalized posterior values.

    -inf encodes a zero-density draw; +inf and NaN are rejected.
    """
    try:
        v = np.asarray(values, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        raise InvalidInput("log-density vector is not numeric") from None
    if v.shape[0] != n_rows:
        raise InvalidInput(
            f"log-density vector has length {v.shape[0]}, expected {n_rows}"
        )
    if np.any(np.isnan(v)) or np.any(v == np.inf):
        raise InvalidInput("log-density vector contains NaN or +inf")
    return v


def _centered_blocks(a, center):
    """(rows, a[rows] - center) for each block of _BLOCK_ROWS rows of a,
    the difference written into one buffer that every block reuses.

    Broadcast against a short centre, the subtraction runs an inner loop
    of d elements, slow for small d. When a is C-contiguous and d > 1,
    the leading multiple of _TILE_ROWS rows of a block is seen as rows of
    _TILE_ROWS * d entries and the centre tiled _TILE_ROWS times is
    subtracted from those; each entry's difference is the same.
    """
    t, d = a.shape
    buf = np.empty((min(t, _BLOCK_ROWS), d))
    wide = d > 1 and a.flags.c_contiguous
    pattern = np.tile(center, _TILE_ROWS) if wide else None
    for start in range(0, t, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = a[rows]
        out = buf[:block.shape[0]]
        n = block.shape[0] // _TILE_ROWS * _TILE_ROWS if wide else 0
        if n:
            np.subtract(block[:n].reshape(-1, _TILE_ROWS * d), pattern,
                        out=out[:n].reshape(-1, _TILE_ROWS * d))
        np.subtract(block[n:], center, out=out[n:])
        yield rows, out


def _moments(a):
    """(mean, unbiased covariance) of a T x d float matrix, the covariance
    with divisor T-1 and symmetric by construction.

    The mean is one sequential pass over the rows, and the covariance
    sums (x - mean)^T (x - mean) block by block (a SYRK product), so no
    centered copy of a is made.
    """
    t, d = a.shape
    center = np.einsum("ij->j", a) / t
    s = np.zeros((d, d))
    for _, z in _centered_blocks(a, center):
        s += z.T @ z
    s /= t - 1
    return center, 0.5 * (s + s.T)


def cholesky_factor(sigma):
    """Lower-triangular factor Lo with Lo Lo^T = sigma.

    sigma must be symmetric to 1e-10 relative; it is symmetrized before
    factorization. A failed factorization raises NotPositiveDefinite.
    """
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {s.shape}")
    scale = np.max(np.abs(s))
    if scale > 0 and np.max(np.abs(s - s.T)) > SYMMETRY_RTOL * scale:
        raise InvalidInput("matrix is not symmetric within tolerance")
    try:
        return np.linalg.cholesky(0.5 * (s + s.T))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            "covariance matrix is not positive definite") from None


@dataclass(frozen=True)
class Ellipsoid:
    """Truncation set: {theta : (theta-center)^T Sigma^-1 (theta-center) < radius^2}.

    scale is the lower-triangular factor of Sigma, so log|Sigma| is
    twice the sum of the log diagonal, computed at construction.
    """

    center: np.ndarray
    scale: np.ndarray
    radius: float
    log_det_sigma: float = field(init=False)

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(-1)
        scale = np.asarray(self.scale, dtype=float)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "scale", scale)
        if scale.ndim != 2 or scale.shape != (center.size, center.size):
            raise InvalidInput("scale factor shape does not match center")
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(scale))):
            raise InvalidInput("ellipsoid center and scale must be finite")
        diag = np.diag(scale)
        if np.any(diag <= 0):
            raise InvalidInput("scale factor must have strictly positive diagonal")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise InvalidInput("radius must be finite and positive")
        object.__setattr__(self, "log_det_sigma", 2.0 * float(np.sum(np.log(diag))))

    @property
    def dim(self):
        return self.center.size

    @classmethod
    def from_moments(cls, center, sigma, radius):
        return cls(center, cholesky_factor(sigma), radius)

    @classmethod
    def fit(cls, draws, radius):
        """Fit center and shape to a draw matrix (empirical mean/covariance)."""
        return _fit(as_draw_matrix(draws, min_rows=2), radius)


def _fit(a, radius):
    """Ellipsoid.fit for a T x d float matrix, its values unchecked."""
    return Ellipsoid.from_moments(*_moments(a), radius)


def mahalanobis_sq(theta, e: Ellipsoid):
    """(theta - center)^T Sigma^-1 (theta - center), the squared norm of
    the standardized point.

    Accepts a single d-vector or a T x d matrix; returns a scalar or a
    length-T vector accordingly. Rows are standardized a block at a
    time, so no T x d temporary is made.
    """
    t = np.asarray(theta, dtype=float)
    single = t.ndim == 1
    out = _mahalanobis_sq(as_draw_matrix(t.reshape(1, -1) if single else t), e)
    return float(out[0]) if single else out


def _mahalanobis_sq(a, e: Ellipsoid):
    """mahalanobis_sq for a T x d float matrix, its values unchecked."""
    if a.shape[1] != e.dim:
        raise InvalidInput("theta dimension does not match ellipsoid")
    # row i of z is Lo^-1 (a[i] - center), computed as (a - center) @ Lo^-T
    inv_t = np.linalg.inv(e.scale).T
    out = np.empty(a.shape[0])
    for rows, x in _centered_blocks(a, e.center):
        z = x @ inv_t
        out[rows] = np.einsum("ij,ij->i", z, z)
    return out


def logsumexp(a):
    """log(sum(exp(a))) over every entry of a, as scipy.special.logsumexp
    computes it: shifted by the maximum, whose entries are counted apart
    and enter through log1p. A maximum that is not finite (NaN, +inf, or
    every entry -inf) is itself the result; empty input gives -inf.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    a_max = a.max()
    if not np.isfinite(a_max):
        return float(a_max)
    at_max = a == a_max
    n_max = np.count_nonzero(at_max)
    x = a - a_max
    x[at_max] = -np.inf
    s = np.sum(np.exp(x, out=x))
    return float(np.log1p(s / n_max) + np.log(n_max) + a_max)


def _two_sided_z(level):
    """The standard normal z with P(|Z| <= z) = level."""
    return NormalDist().inv_cdf(0.5 * (1.0 + level))


def log_volume(e: Ellipsoid):
    """Log volume of the ellipsoid, evaluated through log-gamma."""
    d = e.dim
    return (
        d * np.log(e.radius)
        + 0.5 * d * np.log(np.pi)
        + 0.5 * e.log_det_sigma
        - math.lgamma(0.5 * d + 1.0)
    )

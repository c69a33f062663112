"""Dense linear algebra and ellipsoid geometry.

All density arithmetic elsewhere in the package is done in natural-log
space; this module provides the geometric primitives (moment estimates,
Cholesky factors, Mahalanobis distances, ellipsoid volumes) they rest on.
Everything here is a pure function over immutable inputs. The module
needs only numpy and the standard library.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NotPositiveDefinite

SYMMETRY_RTOL = 1e-10
# rows per block of the standardizing product, so its temporaries stay a
# few MB whatever T is
_BLOCK_ROWS = 2048


def as_draw_matrix(draws, min_rows=1):
    """Validate and return a T x d float matrix of posterior draws."""
    a = np.asarray(draws, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise InvalidInput(f"draws must be 2-dimensional, got ndim={a.ndim}")
    t, d = a.shape
    if t < min_rows or d < 1:
        raise InvalidInput(f"draw matrix of shape {a.shape} is too small")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("draw matrix contains non-finite entries")
    return a


def as_log_density_vector(values, n_rows):
    """Validate per-draw log unnormalized posterior values.

    -inf encodes a zero-density draw; +inf and NaN are rejected.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.shape[0] != n_rows:
        raise InvalidInput(
            f"log-density vector has length {v.shape[0]}, expected {n_rows}"
        )
    if np.any(np.isnan(v)) or np.any(v == np.inf):
        raise InvalidInput("log-density vector contains NaN or +inf")
    return v


def _covariance(a):
    """Unbiased (divisor T-1) sample covariance of a matrix as_draw_matrix
    has validated; symmetric by construction."""
    c = np.atleast_2d(np.cov(a, rowvar=False, ddof=1))
    return 0.5 * (c + c.T)


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
    """Ellipsoid.fit for a matrix as_draw_matrix has validated."""
    return Ellipsoid.from_moments(a.mean(axis=0), _covariance(a), radius)


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
    """mahalanobis_sq for a matrix as_draw_matrix has validated."""
    if a.shape[1] != e.dim:
        raise InvalidInput("theta dimension does not match ellipsoid")
    # row i of z is Lo^-1 (a[i] - center), computed as (a - center) @ Lo^-T
    inv_t = np.linalg.inv(e.scale).T
    out = np.empty(a.shape[0])
    for start in range(0, a.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        z = (a[rows] - e.center) @ inv_t
        out[rows] = np.einsum("ij,ij->i", z, z)
    return out


def logsumexp(a):
    """log(sum(exp(a))) over every entry of a, as scipy.special.logsumexp
    computes it: shifted by the maximum, whose entries are counted apart
    and enter through log1p. The unshifted sum is taken only when that
    result is not finite (all entries -inf, an entry +inf or NaN, or an
    overflow); empty input gives -inf.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return -math.inf
    a_max = a.max()
    if np.isfinite(a_max):
        at_max = a == a_max
        n_max = np.count_nonzero(at_max)
        x = a - a_max
        x[at_max] = -np.inf
        s = np.sum(np.exp(x, out=x))
        out = np.log1p(s / n_max if s else s) + np.log(n_max) + a_max
        if np.isfinite(out):
            return float(out)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return float(np.log(np.sum(np.exp(a))))


def log_volume(e: Ellipsoid):
    """Log volume of the ellipsoid, evaluated through log-gamma."""
    d = e.dim
    return (
        d * np.log(e.radius)
        + 0.5 * d * np.log(np.pi)
        + 0.5 * e.log_det_sigma
        - math.lgamma(0.5 * d + 1.0)
    )

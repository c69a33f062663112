"""Truncated harmonic mean estimation of marginal likelihoods."""

from .correction import (
    ConstrainedCorrectionConfig,
    SupportPredicate,
    estimate_volume_ratio,
    sample_uniform_ellipsoid,
)
from .errors import (
    DegenerateTerm,
    EmptyTruncationSet,
    InsufficientData,
    InvalidInput,
    NotPositiveDefinite,
    NumericalFailure,
    Overflow,
    ParseError,
    ThamesError,
    ZeroSupportOverlap,
)
from .estimator import (
    ThamesOptions,
    ThamesResult,
    ar1_inflation,
    confidence_interval,
    empirical_scv,
    harmonic_mean_log_z,
    thames,
    variance_recip_iid,
)
from .geometry import (
    Ellipsoid,
    cholesky_factor,
    log_volume,
    mahalanobis_sq,
)
from .models import (
    DirMultModel,
    GaussianMeanModel,
    LinRegModel,
    dirmult_dataset,
    dirmult_mu,
    gaussian_dataset,
    prostate_data,
    prostate_models,
)
from .radius import (
    OptimalRadius,
    RadiusPolicy,
    chi_square_median_radius,
    log_f,
    optimal_radius,
    resolve_radius,
    scv_bounds,
    scv_normal,
)
from .seeds import spawn_seed

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

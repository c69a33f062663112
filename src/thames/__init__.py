"""Truncated harmonic mean estimation of marginal likelihoods.

``import thames`` loads the estimator and the modules it uses. The
oracle models of the experiments are left to ``thames.models``, so that
a command that runs no experiment never loads them.
"""

from .correction import ConstrainedCorrectionConfig, SupportPredicate, estimate_volume_ratio
from .errors import (
    DegenerateTerm, EmptyTruncationSet, InsufficientData, InvalidInput,
    NotPositiveDefinite, NumericalError, NumericalFailure, Overflow, ParseError,
    ThamesError, ZeroSupportOverlap)
from .estimator import (
    ThamesOptions, ThamesResult, ar1_inflation, confidence_interval, empirical_scv,
    harmonic_mean_log_z, thames, variance_recip_iid)
from .geometry import Ellipsoid, cholesky_factor, log_volume, mahalanobis_sq
from .radius import (
    OptimalRadius, RadiusPolicy, chi_square_median_radius, log_f, optimal_radius,
    resolve_radius, scv_bounds, scv_normal)
from .seeds import spawn_seed

__version__ = "0.1.0"

"""Truncated harmonic mean estimation of marginal likelihoods.

The public names are resolved on first use (PEP 562), so ``import
thames`` loads no submodule, and a command imports only the submodules
it runs.
"""

import importlib

_SUBMODULES = ("correction", "errors", "estimator", "geometry", "models",
               "radius", "seeds")

# public name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys(["ConstrainedCorrectionConfig", "SupportPredicate",
                     "estimate_volume_ratio"], "correction"),
    **dict.fromkeys(["DegenerateTerm", "EmptyTruncationSet", "InsufficientData",
                     "InvalidInput", "NotPositiveDefinite", "NumericalFailure",
                     "Overflow", "ParseError", "ThamesError",
                     "ZeroSupportOverlap"], "errors"),
    **dict.fromkeys(["ThamesOptions", "ThamesResult", "ar1_inflation",
                     "confidence_interval", "empirical_scv",
                     "harmonic_mean_log_z", "thames", "variance_recip_iid"],
                    "estimator"),
    **dict.fromkeys(["Ellipsoid", "cholesky_factor", "log_volume",
                     "mahalanobis_sq"], "geometry"),
    **dict.fromkeys(["DirMultModel", "GaussianMeanModel", "LinRegModel",
                     "dirmult_dataset", "dirmult_mu", "gaussian_dataset",
                     "prostate_data", "prostate_models"], "models"),
    **dict.fromkeys(["OptimalRadius", "RadiusPolicy", "chi_square_median_radius",
                     "log_f", "optimal_radius", "resolve_radius", "scv_bounds",
                     "scv_normal"], "radius"),
    "spawn_seed": "seeds",
}

__all__ = sorted([*_SUBMODULES, *_SOURCES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})

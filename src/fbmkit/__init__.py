"""fbmkit: fractional Brownian motion prediction, inversion, and bound toolkit."""

from .context import HurstContext, make_context, xi
from .errors import AccuracyError, FbmkitError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "FbmkitError",
    "HurstContext",
    "ValidationError",
    "make_context",
    "xi",
    "__version__",
]

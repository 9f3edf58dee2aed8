"""Dense Gaussian sampling and covariance estimation utilities.

:class:`CovMatrix` wraps a symmetric positive semi-definite matrix with a
Cholesky factor obtained through an escalating jitter ladder (semi-definite
matrices arise legitimately here, e.g. any covariance pinned to zero at
``t = 0``).  The estimation helpers implement the zero-mean empirical
covariance and its entrywise Monte-Carlo standard errors, which the
validation experiments use to build "within ``k`` standard errors" bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, ValidationError

__all__ = [
    "cholesky_with_jitter",
    "CovMatrix",
    "estimate_cov",
    "cov_standard_errors",
]

_JITTER_LADDER = (0.0, 1.0e-12, 1.0e-10, 1.0e-8)


def cholesky_with_jitter(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, adding ``jitter * trace/dim`` to the diagonal if needed.

    Returns ``(L, jitter_used)`` where ``jitter_used`` is the relative jitter
    level that succeeded.  Raises :class:`ValidationError` if the matrix is
    not square, has a non-finite entry, or is asymmetric by more than
    ``1e-10 * max(1, max |A|)``, and :class:`AccuracyError` if the whole
    ladder fails.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("covariance matrix must be square")
    # One pass finds the largest magnitude and, through it, any inf or NaN.
    largest = float(np.abs(matrix).max(initial=0.0))
    if not np.isfinite(largest):
        raise ValidationError("covariance matrix must be finite")
    if np.abs(matrix - matrix.T).max(initial=0.0) > 1.0e-10 * max(1.0, largest):
        raise ValidationError("covariance matrix must be symmetric")
    dim = matrix.shape[0]
    scale = float(np.trace(matrix)) / dim if dim else 0.0
    if scale <= 0:
        scale = 1.0
    for jitter in _JITTER_LADDER:
        try:
            bumped = matrix if jitter == 0.0 else matrix + (jitter * scale) * np.eye(dim)
            return np.linalg.cholesky(bumped), jitter
        except np.linalg.LinAlgError:
            continue
    raise AccuracyError(
        "covariance matrix is not positive semi-definite within jitter ladder "
        f"{_JITTER_LADDER}",
        estimate=None,
        budget=_JITTER_LADDER[-1],
    )


@dataclass(frozen=True)
class CovMatrix:
    """A covariance matrix with a cached Cholesky factor for sampling."""

    matrix: np.ndarray = field(repr=False)
    cholesky: np.ndarray = field(repr=False, default=None)
    jitter: float = 0.0

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        if self.cholesky is None:
            factor, jitter = cholesky_with_jitter(matrix)
            object.__setattr__(self, "cholesky", factor)
            object.__setattr__(self, "jitter", jitter)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def sample(self, rng: np.random.Generator, n_samples: int) -> np.ndarray:
        """Draw ``n_samples`` zero-mean Gaussian vectors, shape ``(n_samples, dim)``.

        The normal draw has a fixed shape/order so results depend only on the
        generator state, not on downstream chunking choices.
        """
        if n_samples < 1:
            raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
        z = rng.standard_normal((self.dim, n_samples))
        return (self.cholesky @ z).T


def estimate_cov(samples: np.ndarray) -> np.ndarray:
    """Zero-mean empirical covariance ``X.T @ X / N`` of rows of ``samples``."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValidationError("samples must be a 2-d array with >= 2 rows")
    n = samples.shape[0]
    return samples.T @ samples / n


def cov_standard_errors(samples: np.ndarray) -> np.ndarray:
    """Entrywise standard errors of :func:`estimate_cov`.

    Entry ``(k, l)`` is ``std(X_k * X_l) / sqrt(N)``; computed without
    materializing the ``N x d x d`` product tensor.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValidationError("samples must be a 2-d array with >= 2 rows")
    n = samples.shape[0]
    mean_prod = samples.T @ samples / n
    sq = samples * samples
    mean_prod_sq = sq.T @ sq / n
    var = np.maximum(mean_prod_sq - mean_prod**2, 0.0)
    return np.sqrt(var / n)

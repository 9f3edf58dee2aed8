"""Dense Gaussian sampling, regression solves and covariance estimation.

:class:`CovMatrix` is the one place that factors a covariance and uses the
factor: it wraps a symmetric positive semi-definite matrix with a Cholesky
factor obtained through an escalating jitter ladder (semi-definite matrices
arise legitimately here, e.g. any covariance pinned to zero at ``t = 0``),
draws zero-mean Gaussian vectors with it and solves regression systems on
it.  :func:`estimate_cov` returns the zero-mean empirical covariance and its
entrywise Monte-Carlo standard errors, which the validation experiments use
to build "within ``k`` standard errors" bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, ValidationError

__all__ = [
    "cholesky_with_jitter",
    "CovMatrix",
    "estimate_cov",
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


# Rows per block of the substitutions in :meth:`CovMatrix.solve`: each
# diagonal block is solved densely, the rest is matrix products.
_SOLVE_BLOCK = 64


@dataclass(frozen=True)
class CovMatrix:
    """A covariance matrix with its Cholesky factor, for sampling and solving.

    ``cholesky`` is the lower factor ``L`` of ``matrix``, with the relative
    diagonal ``jitter`` that :func:`cholesky_with_jitter` needed added
    first; both are computed here, never passed in.
    """

    matrix: np.ndarray = field(repr=False)
    cholesky: np.ndarray = field(init=False, repr=False)
    jitter: float = field(init=False)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        factor, jitter = cholesky_with_jitter(matrix)
        object.__setattr__(self, "matrix", matrix)
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

    def solve(self, rhs) -> np.ndarray:
        """``X`` with ``L L^T X = rhs``, for ``rhs`` of shape ``(dim,)`` or ``(dim, k)``.

        Forward substitution with ``L``, then back substitution with ``L^T``,
        both by blocks of ``_SOLVE_BLOCK`` rows: O(dim^2) per right-hand
        side.  ``L L^T`` is the matrix plus its jitter, if any was needed.
        """
        x = np.array(rhs, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ValidationError(
                f"right-hand side must have {self.dim} rows, got shape {x.shape}"
            )
        low = self.cholesky
        starts = range(0, self.dim, _SOLVE_BLOCK)
        for a in starts:
            b = a + _SOLVE_BLOCK
            x[a:b] = np.linalg.solve(low[a:b, a:b], x[a:b] - low[a:b, :a] @ x[:a])
        for a in reversed(starts):
            b = a + _SOLVE_BLOCK
            x[a:b] = np.linalg.solve(low[a:b, a:b].T, x[a:b] - low[b:, a:b].T @ x[b:])
        return x


def estimate_cov(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mean empirical covariance of the rows of ``samples``, and its standard errors.

    Returns ``(cov, se)``: ``cov = X.T @ X / N`` and entry ``(k, l)`` of
    ``se`` is ``std(X_k * X_l) / sqrt(N)``, computed without materializing
    the ``N x d x d`` product tensor.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValidationError("samples must be a 2-d array with >= 2 rows")
    n = samples.shape[0]
    cov = samples.T @ samples / n
    sq = samples * samples
    var = np.maximum(sq.T @ sq / n - cov**2, 0.0)
    return cov, np.sqrt(var / n)

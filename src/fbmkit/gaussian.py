"""Dense Gaussian sampling, regression solves and covariance estimation.

:class:`CovMatrix` is the one place that factors a covariance and uses the
factor: it wraps a symmetric positive semi-definite matrix with a Cholesky
factor obtained through an escalating jitter ladder (semi-definite matrices
arise legitimately here, e.g. any covariance pinned to zero at ``t = 0``),
draws zero-mean Gaussian vectors with it and solves regression systems on
it; its ``sample`` is the sampler contract of :func:`fbmkit.rng.draw_reduce`.
:class:`CrossMoments` adds the cross moments of blocks of rows and finishes
to the zero-mean empirical covariance and its entrywise Monte Carlo standard
errors, which the acceptance criteria use as "within ``k`` SE" bands.

The two memory budgets live here: ``MAX_ARRAY_VALUES``, the largest array,
and ``_PANEL_VALUES``, the largest temporary of a dense pass.  Every such
pass whose block size cannot change a byte walks :func:`_row_panels`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, ValidationError

__all__ = [
    "cholesky_with_jitter",
    "CovMatrix",
    "CrossMoments",
]

# The most float64 values one array of a CLI call may hold: 2**25, 256 MiB.
# Requests past it are refused before anything of their size is allocated.
MAX_ARRAY_VALUES = 256 * 2**20 // 8

# The most float64 values of one temporary of a dense pass: 2**15, 256 KiB.
_PANEL_VALUES = 2**15


def _row_panels(n_rows: int, n_cols: int):
    """Slices of ``n_rows`` rows, each of about ``_PANEL_VALUES`` values over ``n_cols``."""
    rows = max(1, _PANEL_VALUES // max(n_cols, 1))
    return (slice(i, min(i + rows, n_rows)) for i in range(0, n_rows, rows))


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
    # max and min propagate NaN, and any inf lands in one of them.
    high = float(matrix.max(initial=0.0))
    low = float(matrix.min(initial=0.0))
    if not (np.isfinite(high) and np.isfinite(low)):
        raise ValidationError("covariance matrix must be finite")
    tol = 1.0e-10 * max(1.0, high, -low)
    # A row panel against its mirror, from the diagonal on: every pair
    # (i, j) is compared once, in the panel of min(i, j).
    dim = matrix.shape[0]
    for rows in _row_panels(dim, dim):
        gap = matrix[rows, rows.start:] - matrix[rows.start:, rows].T
        if np.abs(gap, out=gap).max(initial=0.0) > tol:
            raise ValidationError("covariance matrix must be symmetric")
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


# Columns per block of the in-place product in CovMatrix.sample; it fixes
# bytes, as OpenBLAS rounds products of fewer columns differently.
_SAMPLE_BLOCK = 4096

# Rows per block of the substitutions in :meth:`CovMatrix.solve`; it fixes
# bytes, as OpenBLAS rounds products of other shapes differently.
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

    def sample(
        self, rng: np.random.Generator, n_samples: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Draw ``n_samples`` zero-mean Gaussian vectors, shape ``(n_samples, dim)``.

        The normals are one ``(dim, n_samples)`` draw, so results depend only
        on the generator state, not on downstream chunking choices.  They are
        overwritten with ``L @ z`` a block of ``_SAMPLE_BLOCK`` columns at a
        time, the last block taking the remainder: besides the draw, only one
        block's product (at most ``2 * _SAMPLE_BLOCK - 1`` columns, 4.2 MB at
        dim 64) is held.  The values are the one-shot product's bit for bit
        (``tests/test_gaussian.py`` compares them, with OpenBLAS 0.3.31 on
        Haswell).  The result is the transpose of the draw, a view.

        ``out``, a flat float64 array of at least ``dim * n_samples``
        elements, receives the draw in place of a new array.
        """
        z = draw_buffer(out, (self.dim, n_samples))
        rng.standard_normal(out=z)
        # Narrower blocks can round differently from the one-shot product:
        # with OpenBLAS, blocks of 512 columns or fewer did at some n and
        # 1024 or more did not.
        edges = block_edges(n_samples, _SAMPLE_BLOCK)
        for a, b in zip(edges, edges[1:]):
            z[:, a:b] = self.cholesky @ z[:, a:b]
        return z.T

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


def draw_buffer(out: np.ndarray | None, shape: tuple[int, int]) -> np.ndarray:
    """A new C-ordered array of ``shape``, or a view of the head of the flat float64 ``out``."""
    if min(shape) < 1:
        raise ValidationError(f"a draw needs a positive shape, got {shape}")
    if out is None:
        return np.empty(shape)
    size = shape[0] * shape[1]
    if out.dtype != np.float64 or out.ndim != 1 or out.size < size or not out.flags.c_contiguous:
        raise ValidationError(f"out must be a contiguous flat float64 array of >= {size} elements")
    return out[:size].reshape(shape)


def block_edges(n: int, block: int) -> list[int]:
    """Edges of blocks of ``block`` rows over ``range(n)``; the remainder joins the last block."""
    blocks = max(1, n // block)
    return [k * block for k in range(blocks)] + [n]


class CrossMoments:
    """Sums of ``a.T @ b`` and ``(a*a).T @ (b*b)`` over blocks of paired rows.

    ``add(a)`` is ``add(a, a)`` with ``a`` squared once, so BLAS takes the
    symmetric product for both sums.  ``finish`` gives ``(cov, se)``:
    ``cov = sum a.T @ b / N`` and ``se[k, l] = std(a_k b_l) / sqrt(N)``.
    """

    def __init__(self) -> None:
        self.n = 0
        self.cross = 0.0
        self.square = 0.0

    def add(self, a: np.ndarray, b: np.ndarray | None = None) -> CrossMoments:
        if a.ndim != 2 or (b is not None and (b.ndim != 2 or b.shape[0] != a.shape[0])):
            raise ValidationError("moment blocks must be 2-d arrays with equal row counts")
        sq_a = a * a
        sq_b = sq_a if b is None else b * b
        self.n += a.shape[0]
        self.cross = self.cross + a.T @ (a if b is None else b)
        self.square = self.square + sq_a.T @ sq_b
        return self

    def merge(self, other: CrossMoments) -> CrossMoments:
        self.n += other.n
        self.cross = self.cross + other.cross
        self.square = self.square + other.square
        return self

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        if self.n < 2:
            raise ValidationError(f"moments need >= 2 rows, got {self.n}")
        cov = self.cross / self.n
        var = np.maximum(self.square / self.n - cov**2, 0.0)
        return cov, np.sqrt(var / self.n)

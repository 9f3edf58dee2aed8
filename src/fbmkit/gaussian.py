"""Dense Gaussian sampling, regression solves and covariance estimation.

:class:`CovMatrix` is the one place that factors a covariance and uses the
factor: it keeps the Cholesky factor of a symmetric positive semi-definite
matrix, obtained through an escalating jitter ladder (semi-definite matrices
arise legitimately here, e.g. any covariance pinned to zero at ``t = 0``),
draws zero-mean Gaussian vectors with it and solves regression systems on
it; its ``sample`` is the sampler contract of :func:`fbmkit.rng.draw_reduce`.
:class:`CrossMoments` adds the cross moments of blocks of rows and finishes
to the zero-mean empirical covariance and its entrywise Monte Carlo standard
errors, which acceptance criterion 1 uses as "within ``k`` SE" bands.

The factor works in place: :func:`cholesky_with_jitter` overwrites the
matrix it is given with ``L``, so a caller that needs the matrix afterwards
passes a copy.  Factoring an n x n matrix holds the matrix, one block row
of ``_CHOLESKY_BLOCK x n`` values and a few blocks; ``np.linalg.cholesky``
on the whole matrix would hold three n x n arrays (the input, its Fortran
copy and the output).

The two memory budgets live here: ``MAX_ARRAY_VALUES``, the largest array,
and ``_PANEL_VALUES``, the largest temporary of a dense pass.  Every such
pass whose block size cannot change a byte walks :func:`_row_panels`.
Three block sizes do change bytes, so they are constants that the budget
does not set: ``_CHOLESKY_BLOCK`` (the factor's diagonal blocks),
``_SAMPLE_BLOCK`` and ``_SOLVE_BLOCK``.

A hot loop over panels allocates its panel-sized buffers once and writes
into them (``out=``).  A freed 256 KiB temporary goes back to the OS:
glibc maps a block above its mmap threshold (128 KiB at start, raised to
the size of the largest mapped block freed since) afresh, and trims the
heap top once more than twice that threshold lies free there.  A process
that has freed no multi-MB block keeps both at a few hundred KiB, so each
panel's fresh temporaries fault their pages in again, at about 1.6 µs a
page on a 2-vCPU VM (Linux, glibc, one BLAS thread).  On ``drift
validate``'s default window (535 times),
:func:`~fbmkit.fbm.joint_wz_image_cov` took 1,440 minor faults and
12.4–13.1 ms per call in a fresh interpreter when it made each panel's
temporaries afresh, and 10.4 ms without faults in one whose thresholds an
earlier free had raised; its panel kernels, which reuse one workspace,
take 0–112 faults and 8.1–8.4 ms.
"""

from __future__ import annotations

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


def _panel_workspace(n_cols: int) -> np.ndarray:
    """Two buffers, each of room for any panel of :func:`_row_panels` over at most ``n_cols``."""
    return np.empty((2, max(_PANEL_VALUES, n_cols)))


_JITTER_LADDER = (0.0, 1.0e-12, 1.0e-10, 1.0e-8)

# Rows of the diagonal blocks of the in-place factor; it fixes bytes.  A
# matrix of at most this dim is one LAPACK call, bit for bit
# np.linalg.cholesky; a larger one rounds by these blocks.
_CHOLESKY_BLOCK = 128


def cholesky_with_jitter(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor in place, adding ``jitter * trace/dim`` to the diagonal if needed.

    Returns ``(L, jitter_used)`` where ``jitter_used`` is the relative jitter
    level that succeeded.  ``L`` is ``matrix`` itself, overwritten, when that
    is a writeable C-ordered float64 array, and a factored copy otherwise.
    Raises :class:`ValidationError`, with ``matrix`` untouched, if the matrix
    is not square, has a non-finite entry, or is asymmetric by more than
    ``1e-10 * max(1, max |A|)``, and :class:`AccuracyError` if the whole
    ladder fails, with ``matrix`` restored from its diagonal and strict upper
    triangle.  The factor reads the lower triangle only.
    """
    matrix = np.require(matrix, dtype=float, requirements="CW")
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
    # The strict upper triangle keeps the matrix until a factor succeeds:
    # with the diagonal saved here, it restores the matrix after a failure.
    diagonal = matrix.diagonal().copy()
    for jitter in _JITTER_LADDER:
        if jitter:
            np.fill_diagonal(matrix, diagonal + jitter * scale)
        try:
            _factor_lower(matrix)
        except np.linalg.LinAlgError:
            _mirror_upper(matrix)
            np.fill_diagonal(matrix, diagonal)
            continue
        for rows, lower in _diagonal_blocks(dim):
            matrix[rows, rows.stop:] = 0.0
            np.copyto(matrix[rows, rows], 0.0, where=~lower)
        return matrix, jitter
    raise AccuracyError(
        "covariance matrix is not positive semi-definite within jitter ladder "
        f"{_JITTER_LADDER}",
        estimate=None,
        budget=_JITTER_LADDER[-1],
    )


def _diagonal_blocks(dim: int):
    """``(rows, lower)`` per diagonal block: its rows and the mask of its lower triangle."""
    tri = np.tri(_CHOLESKY_BLOCK, dtype=bool)
    for start in range(0, dim, _CHOLESKY_BLOCK):
        rows = slice(start, min(start + _CHOLESKY_BLOCK, dim))
        yield rows, tri[: rows.stop - start, : rows.stop - start]


def _factor_lower(a: np.ndarray) -> None:
    """Overwrite the lower triangle of ``a`` with its Cholesky factor, by blocks.

    Right-looking: each diagonal block is factored by ``np.linalg.cholesky``
    (which reads its lower triangle only), the panel below it is solved
    against that factor ``L11``, and the trailing lower triangle is updated
    a block of rows at a time.  The solve is a product with ``inv(L11)^T``
    plus one step of iterative refinement by the same product: the product
    alone leaves a backward error of about ``cond(L11)`` ulps (3.1e-15 of
    max |A| on a pinned fBm matrix, against LAPACK's 5.6e-16), the refined
    solve that of a triangular solve.  The strict upper triangle is never
    written.  Besides ``a``, one block row of the trailing update
    (``_CHOLESKY_BLOCK x dim`` values) and a few blocks are held.
    Raises ``np.linalg.LinAlgError`` where a diagonal block is not positive
    definite.
    """
    blocks = list(_diagonal_blocks(a.shape[0]))
    for k, (cols, lower) in enumerate(blocks):
        factor = np.linalg.cholesky(a[cols, cols])
        np.copyto(a[cols, cols], factor, where=lower)
        trailing = blocks[k + 1:]
        inv_t = np.linalg.inv(factor).T if trailing else None
        for rows, lower_r in trailing:
            panel = a[rows, cols]
            solved = panel @ inv_t
            solved += (panel - solved @ factor.T) @ inv_t
            panel[...] = solved
            update = panel @ a[cols.stop:rows.stop, cols].T
            left = rows.start - cols.stop
            a[rows, cols.stop:rows.start] -= update[:, :left]
            np.subtract(a[rows, rows], update[:, left:], out=a[rows, rows], where=lower_r)
            del update  # before the next block row's is allocated


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the strict upper triangle of ``a`` onto its strict lower triangle, by blocks."""
    for rows, lower in _diagonal_blocks(a.shape[0]):
        a[rows, : rows.start] = a[: rows.start, rows].T
        square = a[rows, rows]
        np.copyto(square, square.T, where=lower)


# Columns per block of the in-place product in CovMatrix.sample; it fixes
# bytes, as OpenBLAS rounds products of fewer columns differently.
_SAMPLE_BLOCK = 4096

# Rows per block of the substitutions in :meth:`CovMatrix.solve`; it fixes
# bytes, as OpenBLAS rounds products of other shapes differently.
_SOLVE_BLOCK = 64


class CovMatrix:
    """The Cholesky factor of a covariance matrix, for sampling and solving.

    ``CovMatrix(matrix)`` factors ``matrix`` by :func:`cholesky_with_jitter`,
    in place when it is a writeable C-ordered float64 array: the caller's
    array becomes ``cholesky``, the lower factor ``L`` of the matrix with
    the relative diagonal ``jitter`` that the factor needed added first.  Only
    the factor is kept.
    """

    __slots__ = ("cholesky", "jitter")

    def __init__(self, matrix: np.ndarray) -> None:
        self.cholesky, self.jitter = cholesky_with_jitter(matrix)

    @property
    def dim(self) -> int:
        return int(self.cholesky.shape[0])

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
    """Sums of ``a.T @ a`` and ``(a*a).T @ (a*a)`` over blocks of rows.

    Each sum is one symmetric BLAS product per block.  ``finish`` gives
    ``(cov, se)``: ``cov = sum a.T @ a / N`` and
    ``se[k, l] = std(a_k a_l) / sqrt(N)``.
    """

    def __init__(self) -> None:
        self.n = 0
        self.cross = 0.0
        self.square = 0.0

    def add(self, a: np.ndarray) -> CrossMoments:
        if a.ndim != 2:
            raise ValidationError("moment blocks must be 2-d arrays")
        sq = a * a
        self.n += a.shape[0]
        self.cross = self.cross + a.T @ a
        self.square = self.square + sq.T @ sq
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

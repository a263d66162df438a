"""Dense numeric kernels shared across the library.

Matrices are plain 2-D ``float64`` numpy arrays in row-major order; this
module is the single place where the low-level conventions live:
coercion, normalization, stable softmax, and the probability floor used
to score cache entries.  All public functions are pure -- inputs are never
mutated and results contain no NaN/Inf entries.  Public functions check
their inputs; the private helpers :func:`_normalize_rows_inplace` (which
overwrites a matrix the caller owns) and :func:`_softmax` do not, so
callers use them only on matrices the library has already validated.

Row-wise work over large matrices runs in row blocks (:func:`_row_blocks`)
of about :data:`_BLOCK_BYTES` each, so no kernel holds a second
full-size temporary.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "PROB_FLOOR",
    "ZeroRowWarning",
    "as_matrix",
    "l2_normalize_rows",
]

# Floor applied to probabilities before taking logarithms.  Bounds the
# divergence at -ln(1e-12) ~= 27.63 so exp(gamma * kl) stays finite.
PROB_FLOOR = 1e-12

# Rows whose norm is already within this band of 1 pass through untouched,
# which makes normalization bitwise idempotent.
_UNIT_BAND = 1e-12

# Bytes of float64 scratch per row block.  Blocks only bound memory: rows
# are independent, so every blocked result equals the unblocked one bitwise.
_BLOCK_BYTES = 8 << 20


class ZeroRowWarning(UserWarning):
    """Emitted when a zero row passes through a normalization step."""


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce ``values`` to a finite 2-D float64 array.

    Raises:
        ValueError: if the input is not 2-D or has NaN/Inf entries.
    """
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def l2_normalize_rows(m) -> np.ndarray:
    """Scale every row of ``m`` to unit Euclidean norm.

    Zero rows cannot be normalized; they are returned unchanged and a
    :class:`ZeroRowWarning` is emitted.  Rows already unit within 1e-12
    also pass through unchanged, so applying the function twice is a
    bitwise no-op.
    """
    return _normalize_rows_inplace(as_matrix(m, "m").copy())


def _row_blocks(n: int, cols: int) -> list[slice]:
    """Consecutive row slices covering ``range(n)``, each of about
    ``_BLOCK_BYTES`` of float64 at ``cols`` columns.

    Sizes differ by at most one row, the first block is the largest, and
    no block has a single row unless ``n == 1``: numpy sends a one-row
    matmul to BLAS GEMV, whose sums can differ in the last bit from the
    GEMM that a whole matrix goes through.
    """
    rows = max(2, _BLOCK_BYTES // (8 * max(cols, 1)))
    return _even_slices(n, max(1, min(-(-n // rows), n // 2)))


def _even_slices(n: int, count: int) -> list[slice]:
    """``count`` consecutive slices covering ``range(n)`` whose sizes differ
    by at most one, the first the largest."""
    bounds = [-(-n * i // count) for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _row_norms(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D float64 matrix.

    Bitwise equal to ``np.sqrt((m * m).sum(axis=1))`` on a C-ordered
    matrix, with one block of squares in place of an N x D temporary.
    """
    norms = np.empty(m.shape[0])
    blocks = _row_blocks(*m.shape)
    squares = np.empty((blocks[0].stop, m.shape[1]))
    for rows in blocks:
        sq = np.multiply(m[rows], m[rows], out=squares[: rows.stop - rows.start])
        sq.sum(axis=1, out=norms[rows])
    return np.sqrt(norms, out=norms)


def _normalize_rows_inplace(m: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """:func:`l2_normalize_rows` that overwrites and returns ``m``, a 2-D
    float64 matrix the caller owns (``norms``: its ``_row_norms``, if known)."""
    if m.size == 0:
        raise ValueError("m must be nonempty")
    norms = _row_norms(m) if norms is None else norms
    zero = norms == 0.0
    if zero.any():
        warnings.warn(
            f"{int(zero.sum())} zero row(s) passed through unnormalized",
            ZeroRowWarning,
            stacklevel=3,
        )
    rows = (np.abs(norms - 1.0) > _UNIT_BAND) & ~zero
    return np.divide(m, norms[:, None], out=m, where=rows[:, None])


def _softmax(m: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Unchecked row-wise softmax of ``m / temperature`` (``m`` finite 2-D
    float64, ``temperature`` > 0), stable: the row maximum is subtracted first."""
    z = m / temperature
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


"""Dense numeric kernels shared across the library.

Matrices are plain 2-D ``float64`` numpy arrays in row-major order; this
module is the single place where the low-level conventions live:
coercion, normalization, stable softmax, and the probability floor used
to score cache entries.  Feature rows may also be ``float32``, as stored
on disk: they stand for the float64 rows that :func:`_unit64` gives,
widened and normalized where they are used.  All public functions are
pure -- inputs are never mutated and results contain no NaN/Inf entries.
Public functions check their inputs; the private helpers
:func:`_normalize_rows_inplace` (which overwrites a matrix the caller
owns) and :func:`_softmax` do not, so callers use them only on matrices
the library has already validated.

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
    return _checked(np.asarray(values, dtype=np.float64), name)


def _as_features(values, name: str) -> np.ndarray:
    """:func:`as_matrix` that keeps a float32 array float32: stored feature
    rows, which :func:`_unit64` widens and normalizes where they are used."""
    m = np.asarray(values)
    return _checked(m if m.dtype == np.float32 else np.asarray(m, dtype=np.float64), name)


def _checked(m: np.ndarray, name: str) -> np.ndarray:
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
    """Float64 Euclidean norm of each row of a 2-D float64 or float32 matrix.

    Bitwise equal to ``np.sqrt((w * w).sum(axis=1))`` for ``w`` the
    C-ordered float64 widening of ``m``, with one block of squares in
    place of an N x D temporary.
    """
    norms = np.empty(m.shape[0])
    blocks = _row_blocks(*m.shape)
    squares = np.empty((blocks[0].stop, m.shape[1]))
    for rows in blocks:
        sq = np.multiply(m[rows], m[rows], out=squares[: rows.stop - rows.start], dtype=np.float64)
        sq.sum(axis=1, out=norms[rows])
    return np.sqrt(norms, out=norms)


def _normalize_rows_inplace(m: np.ndarray, norms: np.ndarray | None = None, out=None) -> np.ndarray:
    """:func:`l2_normalize_rows` that overwrites and returns ``m``, a 2-D
    float64 matrix the caller owns (``norms``: its ``_row_norms``, if known).
    Given a float64 ``out`` of ``m``'s shape, it writes the result there in
    one pass instead, and ``m`` may be float32."""
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
    if out is None:
        out = m
    else:
        out[~rows] = m[~rows]
    return np.divide(m, norms[:, None], out=out, where=rows[:, None])


def _unit64(m: np.ndarray, norms: np.ndarray | None = None, rows=slice(None)) -> np.ndarray:
    """The float64 rows ``m[rows]`` stand for, ``m`` a checked 2-D matrix.

    Float64 rows are taken as they are (a view for a slice).  Float32 rows
    give a new matrix: each row outside the unit band divided by its norm
    (``norms``: :func:`_row_norms` of all of ``m``, when known), the others
    widened, which is bitwise :func:`_normalize_rows_inplace` of the widened
    matrix.
    """
    if m.dtype != np.float32:
        return m[rows]
    norms = _row_norms(m) if norms is None else norms
    part = m[rows]
    return _normalize_rows_inplace(part, norms[rows], out=np.empty(part.shape))


def _softmax(m: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Unchecked row-wise softmax of ``m / temperature`` (``m`` finite 2-D
    float64, ``temperature`` > 0), stable: the row maximum is subtracted first."""
    z = m / temperature
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


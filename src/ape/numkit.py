"""Dense numeric kernels shared across the library.

Matrices are plain 2-D ``float64`` numpy arrays in row-major order; this
module is the single place where the low-level conventions live:
coercion, normalization, and the probability floor used to score cache
entries.  Feature rows may also be ``float32``, as stored on disk: they
stand for the float64 rows that :func:`_unit64` gives, widened and
normalized where they are used.  All public functions are pure -- inputs
are never mutated and results contain no NaN/Inf entries.  A matrix is
checked once, where it enters (:func:`_as_features`), by the pass made
there anyway: finite float64 row norms vouch for finite entries, and a
writer checks each block it narrows to float32.  The private helper
:func:`_normalize_rows_inplace` (which overwrites a matrix the caller
owns) checks nothing, so callers use it only on validated matrices.

Row-wise work over large matrices runs in row blocks (:func:`_row_blocks`)
of about :data:`_BLOCK_BYTES` each, so no kernel holds a second
full-size temporary.  Passes over stored rows that view a file mapping
go through :func:`_stored_blocks`, which gives each block's pages back.
"""

from __future__ import annotations

import mmap
import warnings

import numpy as np

__all__ = [
    "PROB_FLOOR",
    "ZeroRowWarning",
    "as_matrix",
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

# madvise advice that drops a mapping's resident pages (None where mmap lacks it).
_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


class ZeroRowWarning(UserWarning):
    """Emitted when a zero row passes through a normalization step."""


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce ``values`` to a finite 2-D float64 array.

    Raises:
        ValueError: if the input is not 2-D or has NaN/Inf entries.
    """
    return _as_features(np.asarray(values, dtype=np.float64), name)


def _as_features(values, name: str, finite: bool = True, norms=None) -> np.ndarray:
    """:func:`as_matrix` that keeps a float32 array float32: stored feature
    rows, which :func:`_unit64` widens and normalizes where they are used.
    ``finite=False`` skips the entrywise finiteness pass, for a caller that
    reads it off the rows' float64 :func:`_row_norms`; given those
    ``norms``, the pass runs only if one is not finite, to name its cause."""
    m = np.asarray(values)
    m = m if m.dtype == np.float32 else np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    finite = finite and (norms is None or not np.isfinite(norms).all())
    if finite and not all(np.isfinite(blk).all() for _, blk in _stored_blocks(m)):  # no N x D mask
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _release(m: np.ndarray) -> None:
    """Drop the resident pages of the read-only file mapping that ``m`` views
    (``dataio._read_payload``), so a pass over stored rows keeps about one
    row block of them in memory; a later read faults them back in from the
    file, bit for bit.  Any other array, writable mappings included, is left
    as it is."""
    base = m
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, memoryview) and base.readonly and isinstance(base.obj, mmap.mmap) and _DONTNEED:
        base.obj.madvise(_DONTNEED)


def _stored_blocks(m: np.ndarray):
    """Yield ``(rows, m[rows])`` for each :func:`_row_blocks` block of a 2-D
    ``m``, giving the block's file pages back (:func:`_release`) once the
    caller asks for the next one, so a pass over stored rows holds one block."""
    for rows in _row_blocks(*m.shape):
        yield rows, m[rows]
        _release(m)


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
    C-ordered float64 widening of ``m``: each row is summed on its own, so
    the squares are taken a few rows at a time (about 1/64 of
    ``_BLOCK_BYTES``) within each :func:`_stored_blocks` block, never an
    N x D temporary or a whole block of them.
    """
    norms = np.empty(m.shape[0])
    step = max(1, _BLOCK_BYTES // (64 * 8 * max(m.shape[1], 1)))
    squares = np.empty((min(step, m.shape[0]), m.shape[1]))
    for rows, _ in _stored_blocks(m):
        for lo in range(rows.start, rows.stop, step):
            sub = slice(lo, min(lo + step, rows.stop))
            sq, part = squares[: sub.stop - sub.start], m[sub]
            if part.dtype != sq.dtype:
                sq[...] = part  # widened by the copy, so the product needs no cast buffers
                part = sq
            np.multiply(part, part, out=sq).sum(axis=1, out=norms[sub])
    return np.sqrt(norms, out=norms)


def _normalize_rows_inplace(m: np.ndarray, norms: np.ndarray | None = None, out=None) -> np.ndarray:
    """Scale every row of ``m``, a 2-D float64 matrix the caller owns, to
    unit Euclidean norm in place and return it (``norms``: its
    ``_row_norms``, if known).  Given a float64 ``out`` of ``m``'s shape, it
    writes the result there in one pass instead, and ``m`` may be float32.

    Zero rows cannot be normalized; they pass through unchanged and one
    :class:`ZeroRowWarning` is emitted.  Rows already unit within 1e-12
    also pass through unchanged, so normalizing twice is a bitwise no-op.
    """
    if m.size == 0:
        raise ValueError("m must be nonempty")
    norms = _row_norms(m) if norms is None else norms
    zero = norms == 0.0
    where = True  # the unmasked divide is about a quarter cheaper, so the mask is for zero rows only
    if zero.any():
        where = ~zero[:, None]
        warnings.warn(
            f"{int(zero.sum())} zero row(s) passed through unnormalized",
            ZeroRowWarning,
            stacklevel=3,
        )
    if out is not None:  # widened first, so the division makes no cast temporary
        out[...] = m
        m = out
    return np.divide(m, _divisors(norms)[:, None], out=m, where=where)


def _divisors(norms: np.ndarray) -> np.ndarray:
    """Each row's divisor in :func:`_normalize_rows_inplace`: its norm, but 1
    inside the unit band (bits kept) and 0 for a zero row (left as it is)."""
    return np.where(np.abs(norms - 1.0) > _UNIT_BAND, norms, 1.0)


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
    out = _normalize_rows_inplace(part, norms[rows], out=np.empty(part.shape))
    _release(m)
    return out

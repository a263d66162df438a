"""Dense numeric kernels shared across the library.

Matrices are plain 2-D ``float64`` numpy arrays in row-major order; this
module is the single place where the low-level conventions live:
coercion, normalization, stable softmax, and the probability floor used
to score cache entries.  All functions are pure -- inputs are never mutated and
results contain no NaN/Inf entries.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "PROB_FLOOR",
    "ZeroRowWarning",
    "as_matrix",
    "l2_normalize_rows",
    "softmax_rows",
]

# Floor applied to probabilities before taking logarithms.  Bounds the
# divergence at -ln(1e-12) ~= 27.63 so exp(gamma * kl) stays finite.
PROB_FLOOR = 1e-12

# Rows whose norm is already within this band of 1 pass through untouched,
# which makes normalization bitwise idempotent.
_UNIT_BAND = 1e-12


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
    m = as_matrix(m, "m")
    if m.size == 0:
        raise ValueError("m must be nonempty")
    norms = np.sqrt((m * m).sum(axis=1))
    zero = norms == 0.0
    if zero.any():
        warnings.warn(
            f"{int(zero.sum())} zero row(s) passed through unnormalized",
            ZeroRowWarning,
            stacklevel=2,
        )
    rows = (np.abs(norms - 1.0) > _UNIT_BAND) & ~zero
    return np.divide(m, norms[:, None], out=m.copy(), where=rows[:, None])


def softmax_rows(m, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax of ``m / temperature``.

    The row maximum is subtracted before exponentiation, so rows such as
    (1000, 0) do not overflow.  Every output row sums to 1 within 1e-12.

    Raises:
        ValueError: if ``temperature`` is not strictly positive.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    m = as_matrix(m, "m")
    z = m / temperature
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


"""Shared constructors and oracles for randomized test instances."""

import math

import numpy as np

from ape import FewShotTask, l2_normalize_rows
from ape.numkit import PROB_FLOOR


def unit_rows(rng, n, d):
    return l2_normalize_rows(rng.standard_normal((n, d)))


def one_hot_labels(c, k):
    """The dense C*K x C label matrix that class-major support rows imply."""
    return np.kron(np.eye(c), np.ones((k, 1)))


def random_task(rng, c=3, k=2, d=8, n_test=5, with_labels=True):
    """A valid random task: unit feature rows, class-major support rows."""
    return FewShotTask(
        text_features=unit_rows(rng, c, d),
        support_features=unit_rows(rng, c * k, d),
        test_features=unit_rows(rng, n_test, d),
        test_labels=rng.integers(0, c, n_test) if with_labels else None,
        c=c,
        k=k,
        d=d,
    )


def kl_one_hot(pred_row, label_index: int) -> float:
    """Divergence of a predicted distribution from a one-hot target.

    With a hard one-hot target all 0*log(0) terms vanish by convention and
    the divergence reduces to the negative log-probability of the true
    class.  The probability is clamped to [PROB_FLOOR, 1] before the
    logarithm, so the result is always finite and nonnegative.  A scalar
    oracle for the vectorized cache scores.

    Raises:
        ValueError: if ``pred_row`` is not a distribution or
            ``label_index`` is out of range.
    """
    p = np.asarray(pred_row, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"pred_row must be 1-D, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("pred_row contains non-finite entries")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"pred_row does not sum to 1 (sum={p.sum()!r})")
    if not 0 <= label_index < p.shape[0]:
        raise ValueError(
            f"label_index {label_index} out of range for {p.shape[0]} classes"
        )
    q = min(max(float(p[label_index]), PROB_FLOOR), 1.0)
    return -math.log(q)

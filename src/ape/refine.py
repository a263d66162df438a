"""Channel refinement over class prototypes.

Feature channels are scored by two criteria computed on the per-class
prototype matrix: the average inter-class channel product (channels that
make classes look alike) and the inter-class variance (channels that
actually move between classes).  Blending the two and keeping the
channels with the smallest blended score yields a mask that drops the
least discriminative dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit

__all__ = [
    "ChannelMask",
    "inter_class_similarity",
    "inter_class_variance",
    "select_channels",
    "full_mask",
    "save_mask",
    "load_mask",
]

MASK_HEADER = "APE-MASK v1"


@dataclass(frozen=True, eq=False)
class ChannelMask:
    """A set of Q kept channel indices plus the scores that produced it.

    ``selected`` is stored in ascending index order so masked matrices keep
    the relative column order of the input.  The selected channels always
    carry scores less than or equal to every unselected channel's score.
    """

    selected: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        sel = np.asarray(self.selected, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 1 or not np.isfinite(scores).all():
            raise ValueError("scores must be a finite 1-D vector, one per channel")
        if sel.ndim != 1 or len(sel) == 0:
            raise ValueError("selected must be a nonempty 1-D index vector")
        if len(np.unique(sel)) != len(sel):
            raise ValueError("selected indices must be distinct")
        if sel.min() < 0 or sel.max() >= len(scores):
            raise ValueError("selected indices out of range")
        unsel = np.setdiff1d(np.arange(len(scores)), sel)
        if len(unsel) and scores[sel].max() > scores[unsel].min():
            raise ValueError("selected channels must carry the smallest scores")
        object.__setattr__(self, "selected", np.sort(sel))
        object.__setattr__(self, "scores", scores)

    @property
    def q(self) -> int:
        return int(len(self.selected))

    @property
    def d_total(self) -> int:
        return len(self.scores)


def inter_class_similarity(w) -> np.ndarray:
    """Average inter-class channel product of unit-norm prototypes, one float64 per channel.

    For channel k the score is (1/C^2) * sum over ordered pairs of distinct
    classes (i, j) of w[i, k] * w[j, k].  Because the prototype rows are
    L2-normalized, summing these scores over any channel subset equals the
    average pairwise cosine similarity restricted to that subset, so the
    criterion decomposes exactly per channel.  Float32 rows are stored
    prototypes, widened and normalized first (``numkit._unit64``), as a
    loaded task reads them.  Finiteness is read off the rows' norms.

    Raises:
        ValueError: if fewer than two classes, an entry is not finite, or
            rows are not unit-norm within 1e-6.
    """
    with np.errstate(invalid="ignore"):  # a non-finite entry is named below, not warned about
        w = numkit._unit64(numkit._as_features(w, "w", finite=False))
    norms = numkit._row_norms(w)
    numkit._as_features(w, "w", norms=norms)
    c = w.shape[0]
    if c < 2:
        raise ValueError("inter-class similarity needs at least 2 classes")
    if np.abs(norms - 1.0).max() > 1e-6:
        raise ValueError("prototype rows must be L2-normalized (within 1e-6)")
    colsum = w.sum(axis=0)
    return (colsum * colsum - (w * w).sum(axis=0)) / (c * c)


def inter_class_variance(w) -> np.ndarray:
    """Per-channel population variance of the prototype values across
    classes, as a float64 vector of D scores; float32 rows are widened and
    normalized first, as above.  Finiteness is read off the variances."""
    with np.errstate(invalid="ignore"):  # as above
        w = numkit._unit64(numkit._as_features(w, "w", finite=False))
        if w.shape[0] < 2:
            raise ValueError("inter-class variance needs at least 2 classes")
        var = np.var(w, axis=0)
    if not np.isfinite(var).all():
        raise ValueError("w contains non-finite entries, or entries too large for their variance")
    return var


def select_channels(sim, var, lam: float, q: int) -> ChannelMask:
    """Keep the q channels with the smallest blended score
    lam * sim - (1 - lam) * var: small inter-class similarity and large
    inter-class variance mark the channels worth keeping.

    Ties break toward the lower channel index, so the result is
    deterministic and the selection for q is a subset of the selection
    for q + 1.

    Raises:
        ValueError: unless lam lies in [0, 1], ``sim`` and ``var`` are 1-D
            vectors of one length D, and q lies in [1, D].
    """
    sim, var = np.asarray(sim, dtype=np.float64), np.asarray(var, dtype=np.float64)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if sim.ndim != 1 or sim.shape != var.shape:
        raise ValueError("criterion vectors must be 1-D and of equal length")
    if not 1 <= q <= len(sim):
        raise ValueError(f"q must lie in [1, {len(sim)}], got {q}")
    scores = lam * sim - (1.0 - lam) * var
    return ChannelMask(selected=np.sort(np.argsort(scores, kind="stable")[:q]), scores=scores)


def _take_channels(m: np.ndarray, indices: np.ndarray, renormalize: bool, norms=None) -> tuple[np.ndarray, np.ndarray]:
    """Keep the given columns of the float64 rows a checked 2-D ``m`` stands
    for (``numkit._unit64`` with ``norms``), optionally re-normalizing each
    row; the indices must be in range.  Returns the rows and each row's r,
    what re-normalization divided it by (``numkit._divisors`` of the kept
    channels' norms; 1 without it), so that r times a row is its kept channels.

    Float32 rows give up their columns first, one row block at a time, and
    only those are widened and divided by the full rows' norms: each entry
    is the same ``float64(x) / norm``, and no full-width float64 copy of
    ``m`` exists, and each block's file pages are dropped
    (``numkit._stored_blocks``) once taken.  Zero rows survive renormalization
    unchanged (with a warning), as in :func:`ape.numkit._normalize_rows_inplace`.
    """
    out = np.empty((m.shape[0], len(indices)))
    stored = m.dtype == np.float32
    if stored and norms is None:
        norms = numkit._row_norms(m)
    for rows, blk in numkit._stored_blocks(m):
        if stored:
            numkit._normalize_rows_inplace(np.take(blk, indices, axis=1), norms[rows], out=out[rows])
        else:
            np.take(blk, indices, axis=1, out=out[rows])
    if not renormalize:
        return out, np.ones(len(out))
    kept = numkit._row_norms(out)
    return numkit._normalize_rows_inplace(out, kept), numkit._divisors(kept)


def _check_width(mask: ChannelMask, d: int) -> None:
    """Raise ValueError unless the mask covers ``d`` channels."""
    if d != mask.d_total:
        raise ValueError(f"mask covers {mask.d_total} channels, matrix has {d}")


def full_mask(d: int) -> ChannelMask:
    """Mask keeping all ``d`` channels (zero scores)."""
    return ChannelMask(selected=np.arange(d), scores=np.zeros(d))


def save_mask(path, mask: ChannelMask, lam: float) -> None:
    """Write a mask as text: a header line, then one line per channel.

    Format: ``APE-MASK v1 D=<d> Q=<q> lambda=<lam>`` followed by D lines
    ``index score selected(0|1)``.
    """
    flags = np.zeros(mask.d_total, dtype=np.int64)
    flags[mask.selected] = 1
    lines = [f"{MASK_HEADER} D={mask.d_total} Q={mask.q} lambda={float(lam)!r}"]
    for i in range(mask.d_total):
        lines.append(f"{i} {float(mask.scores[i])!r} {flags[i]}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mask(path) -> tuple[ChannelMask, float]:
    """Read a mask file written by :func:`save_mask`.

    Returns:
        The mask and the lambda recorded in the header.

    Raises:
        ValueError: naming the file, unless the header gives D, Q and a lambda in [0, 1]
            and the rows list each channel 0..D-1 once, in any order, flagged 0 or 1.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or lines[0].split()[:2] != MASK_HEADER.split():
            raise ValueError("not a mask file")
        fields = dict(tok.split("=", 1) for tok in lines[0].split()[2:])
        if not {"D", "Q", "lambda"} <= fields.keys():
            raise ValueError("header must give D, Q and lambda")
        d, q, lam = int(fields["D"]), int(fields["Q"]), float(fields["lambda"])
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must lie in [0, 1], got {lam}")
        if len(lines) - 1 != d:
            raise ValueError(f"header declares D={d} but the file has {len(lines) - 1} rows")
        scores, flags = np.empty(d), np.full(d, -1)
        for ln in lines[1:]:
            row = ln.split()
            if len(row) != 3 or row[2] not in ("0", "1"):
                raise ValueError(f"row {ln!r} is not 'index score selected(0|1)'")
            i = int(row[0])
            if not 0 <= i < d or flags[i] >= 0:
                raise ValueError(f"rows must list channels 0..{d - 1} once each")
            scores[i], flags[i] = float(row[1]), int(row[2])
        selected = np.flatnonzero(flags)
        if len(selected) != q:
            raise ValueError(f"header declares Q={q} but {len(selected)} channels are flagged")
        return ChannelMask(selected=selected, scores=scores), lam
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

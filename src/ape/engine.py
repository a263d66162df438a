"""Training-free inference over a few-shot task.

The classifier combines three pairwise relations between the test
features, the class text prototypes and the cached support features:

* test-to-text cosine logits (the zero-shot prediction),
* test-to-support affinities through a sharpened exponential kernel,
* support-to-text scores that weight each cache entry by how well the
  prototypes classify it.

Support rows are class-major (row c*K + j is shot j of class c), so the
labels are implicit: one routing kernel sums each class's K cache columns.
It runs over row blocks of the test rows, so inference and the grid
search hold one block of affinities (about ``numkit._BLOCK_BYTES``),
never an N x C*K matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit, refine

__all__ = [
    "EngineConfig",
    "FewShotTask",
    "zero_shot_logits",
    "cache_affinity",
    "cache_scores",
    "ape_logits",
    "predict",
    "accuracy",
]


@dataclass(frozen=True)
class EngineConfig:
    """Scalar knobs of the classifier, checked at construction and by ``replace``.

    The channel set and its lambda belong to the mask, not here.
    ``kl_sign`` selects whether high-divergence cache entries are
    up-weighted (+1) or down-weighted (-1).
    """

    alpha: float = 1.0
    beta: float = 5.5
    gamma: float = 0.2
    kl_sign: int = 1
    kl_temperature: float = 1.0
    renormalize: bool = True

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {val}")
        if not isinstance(self.kl_sign, (int, np.integer)) or self.kl_sign not in (1, -1):
            raise ValueError(f"kl_sign must be +1 or -1, got {self.kl_sign}")
        if not self.kl_temperature > 0:
            raise ValueError(f"kl_temperature must be > 0, got {self.kl_temperature}")


@dataclass(eq=False)
class FewShotTask:
    """A bundled C-way-K-shot dataset of precomputed embeddings.

    Support rows are grouped class-major: row c*K + j is the j-th shot of
    class c, which is all the support labels say.  All feature rows are
    unit-norm.  C and D are the text shape; K is support rows // C.
    """

    text_features: np.ndarray      # C x D
    support_features: np.ndarray   # C*K x D
    test_features: np.ndarray      # N x D
    test_labels: np.ndarray | None  # N class ids, optional

    def __post_init__(self):
        self.text_features = numkit.as_matrix(self.text_features, "text_features")
        self.support_features = numkit.as_matrix(self.support_features, "support_features")
        self.test_features = numkit.as_matrix(self.test_features, "test_features")
        (c, d), (n_support, d_support) = self.text_features.shape, self.support_features.shape
        if c < 1 or n_support < c or n_support % c or d_support != d:
            raise ValueError(
                f"a task needs C >= 1 text rows and C*K x {d} support_features with K >= 1, "
                f"got C = {c} and {n_support}x{d_support}"
            )
        if self.test_features.shape[0] == 0 or self.test_features.shape[1] != d:
            raise ValueError(
                f"test_features must be N x {d} with N >= 1, got {self.test_features.shape}"
            )
        for name in ("text_features", "support_features", "test_features"):
            norms = numkit._row_norms(getattr(self, name))
            if np.abs(norms - 1.0).max() > 1e-6:
                raise ValueError(f"{name} rows must be unit-norm within 1e-6")
        if self.test_labels is not None:
            labels = np.asarray(self.test_labels)
            if labels.shape != (self.test_features.shape[0],):
                raise ValueError("test_labels length must match test_features rows")
            if not _are_class_ids(labels, c):
                raise ValueError(f"test_labels must be integral class ids in [0, {c})")
            self.test_labels = labels.astype(np.int64, copy=False)

    @property
    def c(self) -> int:
        return self.text_features.shape[0]

    @property
    def d(self) -> int:
        return self.text_features.shape[1]

    @property
    def k(self) -> int:
        return self.support_features.shape[0] // self.c

    def support_class_ids(self) -> np.ndarray:
        """Class id of each support row, in class-major order."""
        return np.repeat(np.arange(self.c), self.k)


def _are_class_ids(labels: np.ndarray, c: int) -> bool:
    """Whether all entries are integral ids in [0, c); NaN fails every comparison."""
    return bool(((labels >= 0) & (labels < c) & (labels == np.round(labels))).all())


def zero_shot_logits(f_batch, w) -> np.ndarray:
    """Cosine logits between test rows and class prototypes: f @ w.T.

    For unit rows every entry lies in [-1, 1].

    Raises:
        ValueError: on feature-dimension mismatch.
    """
    f_batch = numkit.as_matrix(f_batch, "f_batch")
    w = numkit.as_matrix(w, "w")
    if f_batch.shape[1] != w.shape[1]:
        raise ValueError(
            f"feature dims differ: {f_batch.shape[1]} vs {w.shape[1]}"
        )
    return f_batch @ w.T


def cache_affinity(f_refined, f_support_refined, beta: float) -> np.ndarray:
    """Query-key affinities exp(-beta * (1 - f @ F.T)).

    With unit rows the cosine gap 1 - f @ F.T is a distance in [0, 2], so
    every affinity lies in (0, 1].  beta controls the sharpness; beta = 0
    degenerates to all-ones.
    """
    f_refined = numkit.as_matrix(f_refined, "f_refined")
    f_support_refined = numkit.as_matrix(f_support_refined, "f_support_refined")
    if f_refined.shape[1] != f_support_refined.shape[1]:
        raise ValueError(
            f"refined dims differ: {f_refined.shape[1]} vs {f_support_refined.shape[1]}"
        )
    EngineConfig(beta=beta)  # raises on a bad beta
    cos = f_refined @ f_support_refined.T
    return _sharpen(cos, beta, out=cos)


def _sharpen(cos, beta: float, out) -> np.ndarray:
    """exp(-beta * (1 - cos)) written into ``out`` (which may be ``cos``).

    Bitwise equal to the expression, without its temporaries: ``out`` is
    the only matrix written, so the peak stays at one output's bytes.
    """
    np.subtract(1.0, cos, out=out)
    out *= -beta
    return np.exp(out, out=out)


def cache_scores(
    f_support_refined,
    w_refined,
    gamma: float,
    kl_sign: int = 1,
    kl_temperature: float = 1.0,
) -> np.ndarray:
    """Per-entry reliability weights for the cache.

    Each support row is classified against the refined prototypes; the
    softmax prediction's divergence from the row's one-hot label (class
    row // K, as rows are class-major) measures how well the embedding
    represents its class.  The weight is exp(kl_sign * gamma * divergence),
    so gamma = 0 yields exactly 1 for every entry and a perfectly predicted
    entry scores 1 for any gamma.

    Raises:
        ValueError: if the support rows are not K >= 1 per class or a scalar is out of range.
    """
    f_support_refined = numkit.as_matrix(f_support_refined, "f_support_refined")
    w_refined = numkit.as_matrix(w_refined, "w_refined")
    EngineConfig(gamma=gamma, kl_sign=kl_sign, kl_temperature=kl_temperature)  # raises on bad scalars
    n, c = f_support_refined.shape[0], w_refined.shape[0]
    k, rest = divmod(n, c)
    if k < 1 or rest:
        raise ValueError(f"{n} support rows do not make {c} classes of K >= 1 shots")
    p_true = np.empty(n)
    for rows in numkit._row_blocks(n, c):
        probs = numkit._softmax(f_support_refined[rows] @ w_refined.T, kl_temperature)
        ids = np.arange(rows.start, rows.stop)
        p_true[rows] = probs[ids - rows.start, ids // k]
    p_true = np.clip(p_true, numkit.PROB_FLOOR, 1.0)
    return np.exp(kl_sign * gamma * -np.log(p_true))


def _class_sums(weighted, c: int) -> np.ndarray:
    """N x C sums of each class's K cache columns (K = columns // c).

    The cache columns are class-major, so summing each run of K columns
    routes every entry into its own class column.
    """
    return weighted.reshape(weighted.shape[0], c, -1).sum(axis=-1)


def _cosine_blocks(f_ref, keys):
    """Yield ``(rows, f_ref[rows] @ keys.T)`` over ``numkit._row_blocks`` of
    ``f_ref``, each written into one reused buffer (so a caller is done with
    a block when it asks for the next)."""
    blocks = numkit._row_blocks(f_ref.shape[0], keys.shape[0])
    buf = np.empty((blocks[0].stop, keys.shape[0]))
    for rows in blocks:
        yield rows, np.matmul(f_ref[rows], keys.T, out=buf[: rows.stop - rows.start])


def _add_cache_term(zs, f_ref, keys, scores, alpha: float, beta: float, res=None):
    """Add alpha * class sums of scores * exp(-beta * (1 - f_ref @ keys.T))
    into the N x C ``zs`` in place, one row block at a time; returns ``zs``.

    A C x Q residual ``res`` shifting each class's keys scales its class sum
    by the gain exp(beta * f_ref @ res.T), formed per block like the rest:
    only one block is alive at once.  Rows are independent, so the result
    is bitwise that of the whole matrix.
    """
    for rows, blk in _cosine_blocks(f_ref, keys):
        _sharpen(blk, beta, out=blk)
        blk *= scores
        sums = _class_sums(blk, zs.shape[1])
        if res is not None:
            sums *= np.exp(beta * (f_ref[rows] @ res.T))
        zs[rows] += alpha * sums
    return zs


def _grid_hits(zs, f_ref, keys, labels, alphas, betas, score_sets) -> np.ndarray:
    """Count of rows whose ``labels`` entry is the argmax of
    ``_add_cache_term(zs.copy(), f_ref, keys, score_sets[g], alphas[a],
    betas[b])``, bitwise, as an alphas x betas x score_sets array.

    Each block's cosines are sharpened once per (beta, scores) into one
    reused block of weights; alpha only scales the finished class sums.
    """
    hits = np.zeros((len(alphas), len(betas), len(score_sets)), dtype=np.int64)
    weights = None
    for rows, cos in _cosine_blocks(f_ref, keys):
        if weights is None:  # the first block is the largest
            weights = np.empty_like(cos)
        blk = weights[: cos.shape[0]]
        for g, scores in enumerate(score_sets):
            for b, beta in enumerate(betas):
                _sharpen(cos, float(beta), out=blk)
                blk *= scores
                sums = _class_sums(blk, zs.shape[1])
                for a, alpha in enumerate(alphas):
                    pred = (zs[rows] + float(alpha) * sums).argmax(axis=1)  # as predict()
                    hits[a, b, g] += np.count_nonzero(pred == labels[rows])
    return hits


def _ape_core(zs, task: FewShotTask, mask: refine.ChannelMask, cfg: EngineConfig) -> np.ndarray:
    """:func:`ape_logits` from the task's zero-shot logits ``zs`` (not modified)."""
    w_ref = refine.apply_mask(task.text_features, mask, cfg.renormalize)
    s_ref = refine.apply_mask(task.support_features, mask, cfg.renormalize)
    scores = cache_scores(s_ref, w_ref, cfg.gamma, cfg.kl_sign, cfg.kl_temperature)
    f_ref = refine.apply_mask(task.test_features, mask, cfg.renormalize)
    return _add_cache_term(zs.copy(), f_ref, s_ref, scores, cfg.alpha, cfg.beta)


def _tip_core(zs, task: FewShotTask, alpha: float, beta: float) -> np.ndarray:
    """Tip-Adapter cache baseline from the zero-shot logits ``zs`` (not modified):
    :func:`ape_logits` with every channel kept, gamma = 0 and no renormalization."""
    return _add_cache_term(zs.copy(), task.test_features, task.support_features, 1.0, alpha, beta)


def ape_logits(task: FewShotTask, mask: refine.ChannelMask, cfg: EngineConfig) -> np.ndarray:
    """Combined logits: zero-shot term plus the score-weighted refined cache.

    The zero-shot term uses the full feature space; the cache term runs on
    the mask's channels (re-normalized when ``cfg.renormalize``) and routes
    each support entry's affinity, scaled by its reliability score, into
    its own class column.
    """
    return _ape_core(zero_shot_logits(task.test_features, task.text_features), task, mask, cfg)


def predict(logits) -> np.ndarray:
    """Predicted class ids (row-wise argmax; ties go to the lower id)."""
    return np.asarray(logits).argmax(axis=1)


def accuracy(logits, labels) -> float:
    """Fraction of rows whose argmax matches ``labels``."""
    labels = np.asarray(labels)
    return float((predict(logits) == labels).mean())

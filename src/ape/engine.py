"""Training-free inference over a few-shot task.

The classifier combines three pairwise relations between the test
features, the class text prototypes and the cached support features:

* test-to-text cosine logits (the zero-shot prediction),
* test-to-support affinities through a sharpened exponential kernel,
* support-to-text scores that weight each cache entry by how well the
  prototypes classify it.

Support rows are class-major (row c*K + j is shot j of class c), so the
labels are implicit: one routing kernel sums each class's K cache columns.
It runs over tiles of test rows x whole classes, so inference, the grid
search and the training history hold one tile of affinities (about
``numkit._BLOCK_BYTES``), never an N x C*K matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numkit, refine

__all__ = [
    "EngineConfig",
    "FewShotTask",
    "zero_shot_logits",
    "cache_affinity",
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
    class c, which is all the support labels say.  C and D are the text
    shape; K is support rows // C.  Float64 feature rows must be unit-norm.
    Text, support and test rows may instead be float32, as stored on disk
    (zero rows rejected): they stay float32 and stand for their normalized
    float64 widening, ``numkit._unit64`` with the norms derived here (a
    warning names a role whose rows are off unit norm by more than 1e-4).
    """

    text_features: np.ndarray      # C x D
    support_features: np.ndarray   # C*K x D
    test_features: np.ndarray      # N x D
    test_labels: np.ndarray | None  # N class ids, optional
    # float64 norm of each text, support and test row, derived, never passed in
    text_norms: np.ndarray = field(init=False, repr=False)
    support_norms: np.ndarray = field(init=False, repr=False)
    test_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        roles, norms = ("text_features", "support_features", "test_features"), {}
        for role in roles:  # one norm pass per role; float64 entries are named before the shapes
            m = numkit._as_features(getattr(self, role), role, finite=False)
            if m.dtype != np.float32:
                norms[role] = numkit._row_norms(m)
                numkit._as_features(m, role, norms=norms[role])
            setattr(self, role, m)
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
        for role in roles:
            norms[role] = _checked_norms(role, getattr(self, role), norms.get(role))
            setattr(self, role.replace("features", "norms"), norms[role])
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


def _checked_norms(name: str, m: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """The float64 row norms (``norms``, if known) of a task's feature rows
    ``m``, checked as :class:`FewShotTask` says; a ValueError names ``name``.
    Finiteness is read off the norms: only a non-finite norm sends ``m``
    through the entrywise check, which tells a NaN or inf entry from a
    finite float64 one too large to square."""
    norms = numkit._row_norms(m) if norms is None else norms
    numkit._as_features(m, name, norms=norms)
    off = np.abs(norms - 1.0).max()
    if m.dtype == np.float32 and off > 1e-4:
        warnings.warn(f"{name}: rows off unit norm by up to {off:.2e}; renormalizing")
    if (norms == 0.0).any() if m.dtype == np.float32 else off > 1e-6:
        raise ValueError(f"{name} rows must be unit-norm within 1e-6")
    return norms


def _are_class_ids(labels: np.ndarray, c: int) -> bool:
    """Whether all entries are integral ids in [0, c); NaN fails every comparison."""
    return bool(((labels >= 0) & (labels < c) & (labels == np.round(labels))).all())


def zero_shot_logits(f_batch, w, norms=None, w_norms=None) -> np.ndarray:
    """Cosine logits between test rows and class prototypes: f @ w.T.

    For unit rows every entry lies in [-1, 1].  Float32 rows are stored
    features: they are widened and normalized first, as ``FewShotTask``
    reads them, by ``norms`` and ``w_norms`` (their float64 row norms, such
    as a task's ``test_norms`` and ``text_norms``) when given; rows whose
    given norms are finite are finite, so they take no entrywise pass.  Test rows
    go one ``numkit._row_blocks`` block at a time into the N x C output, so
    no float64 copy of all N rows exists; float32 prototypes are widened
    whole, for this product only.

    Raises:
        ValueError: on feature-dimension mismatch.
    """
    f_batch = numkit._as_features(f_batch, "f_batch", norms=norms)
    w = numkit._as_features(w, "w", norms=w_norms)
    if f_batch.shape[1] != w.shape[1]:
        raise ValueError(
            f"feature dims differ: {f_batch.shape[1]} vs {w.shape[1]}"
        )
    w = numkit._unit64(w, w_norms)
    if f_batch.dtype != np.float32:
        return f_batch @ w.T
    norms = numkit._row_norms(f_batch) if norms is None else norms
    out = np.empty((f_batch.shape[0], w.shape[0]))
    for rows in numkit._row_blocks(*f_batch.shape):
        np.matmul(numkit._unit64(f_batch, norms, rows), w.T, out=out[rows])
    return out


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
    return _decay(np.subtract(1.0, cos, out=out), beta, out)


def _decay(gap, beta: float, out) -> np.ndarray:
    """exp(-beta * gap) into ``out`` by :func:`_sharpen`'s last two operations, so its bits."""
    np.multiply(gap, -beta, out=out)
    return np.exp(out, out=out)


def _cache_scores(s_ref, w_ref, cfg: EngineConfig, classes: slice, gammas) -> np.ndarray:
    """One row of cache scores exp(kl_sign * gamma * divergence) for each of
    ``gammas``, for the refined class-major support rows ``s_ref`` of the run
    of whole ``classes`` against the refined prototypes ``w_ref``.  A row's
    divergence is -log of its softmax probability (at ``cfg.kl_temperature``)
    of its own class, floored at ``numkit.PROB_FLOOR``.  When every gamma is
    0 every score is exp(+-0 * divergence) = 1 exactly, as the divergences
    are finite, so the GEMM is skipped and ``w_ref`` is not read.

    The softmax runs in place on one reused block of the GEMM: only the
    true-class entry of each row is divided by its row sum, with the bits
    a whole-row softmax gives it.  The block takes about a quarter of
    ``numkit._BLOCK_BYTES``, and a score's bits depend on it, so its one
    caller, :func:`_support_runs`, scores the runs of :func:`_run_plan`,
    whose keys and tile hold the rest of the budget.
    """
    gammas = [float(g) for g in gammas]
    n = s_ref.shape[0]
    if not any(gammas):
        return np.ones((len(gammas), n))
    c = w_ref.shape[0]
    blocks = numkit._row_blocks(n, 4 * c)
    k = n // (classes.stop - classes.start)
    p_true = np.empty(n)
    buf = np.empty((blocks[0].stop, c))
    for rows in blocks:
        z = np.matmul(s_ref[rows], w_ref.T, out=buf[: rows.stop - rows.start])
        z /= cfg.kl_temperature
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        ids = np.arange(rows.start, rows.stop)
        p_true[rows] = z[ids - rows.start, classes.start + ids // k] / z.sum(axis=1)
    divergences = -np.log(np.clip(p_true, numkit.PROB_FLOOR, 1.0))
    return np.stack([np.exp(cfg.kl_sign * gamma * divergences) for gamma in gammas])


# Score columns are zero-padded to a multiple of this width, so every
# class-sum GEMM takes the same BLAS kernel: unpadded, numpy sends E = 1 and
# E = 2 to other kernels, whose sums differed from E = 11's by up to 2.7e-15.
_SCORE_COLS = 8


def _score_cols(scores, c: int) -> np.ndarray:
    """:func:`_class_sums`'s C x K x E' blocks of the E x C*K ``scores``, E zero-padded to E'."""
    cols = np.zeros((c, scores.shape[1] // c, -(-len(scores) // _SCORE_COLS) * _SCORE_COLS))
    cols[..., : len(scores)] = scores.reshape(len(scores), c, -1).transpose(1, 2, 0)
    return cols


def _class_sums(aff, cols, e: int, out=None) -> np.ndarray:
    """E x N x C sums (into ``out``, if given) of each class's K columns of
    ``aff`` (N x C*K, class-major) times that class's K entries in each of
    the E score rows that :func:`_score_cols` made ``cols`` of.

    One C-batched GEMM of the strided class views of ``aff`` by the score
    blocks; no one-hot matrix is formed.  It runs in class chunks whose
    output holds about 1/8 of ``aff``'s values.  A sum's bits depend on
    neither E, the chunk nor the other rows of the call
    (``tests/class_sums_property.py``); a one-row call goes to GEMV.
    """
    n, (c, k, width) = aff.shape[0], cols.shape
    views = aff.reshape(n, c, k).transpose(1, 0, 2)
    step = max(1, -(-c // 8) * k // width)  # classes per chunk
    scratch = np.empty((n, min(step, c), width))
    sums = np.empty((e, n, c)) if out is None else out
    for lo in range(0, c, step):
        part = scratch[:, : min(step, c - lo)]
        np.matmul(views[lo : lo + step], cols[lo : lo + step], out=part.transpose(1, 0, 2))
        sums[:, :, lo : lo + step] = part[..., :e].transpose(2, 0, 1)
    return sums


# Query rows per tile once the keys are split: every call re-packs its
# keys, so the 2000 x 512 by 512 x 16000 product (C=1000, K=16) took 0.69 s
# in 65-row blocks, 0.39 s in 256-row blocks and 0.35 s in one call (2 cores).
_TILE_ROWS = 256


def _tile_plan(n: int, c: int, k: int) -> tuple[list[slice], list[slice]]:
    """The row blocks of ``n`` query rows and the runs of whole classes of
    ``c`` x ``k`` class-major keys whose products make the cosine tiles.

    The row target is min(n, 256), capped at the rows the budget holds at
    C columns so that a block's class sums fit it too.  Full-width
    ``numkit._row_blocks`` that reach the target are kept whole; otherwise
    the rows go in even blocks of at least the target and the classes in
    even runs that keep a tile near ``numkit._BLOCK_BYTES``.  No tile has
    one row or one key column unless the whole product has: numpy sends
    those to GEMV, whose sums can differ in the last bit from GEMM's.
    """
    rows = numkit._row_blocks(n, c * k)
    target = min(n, _TILE_ROWS, numkit._BLOCK_BYTES // (8 * c))
    if rows[0].stop >= target:
        return rows, [slice(0, c)]
    rows = numkit._even_slices(n, n // target)
    per_run = max(1, numkit._BLOCK_BYTES // (8 * rows[0].stop * k))
    runs = min(-(-c // per_run), c if k > 1 else c // 2)
    return rows, numkit._even_slices(c, max(1, runs))


def _cosine_tiles(f_ref, keys, c: int, plan=None):
    """Yield ``(rows, classes, q, q @ keys[K * classes].T)`` for ``q =
    f_ref[rows]`` (or ``f_ref(rows)``, once per row block, given a function
    and a ``plan``) over the tiles of ``plan`` (default :func:`_tile_plan`),
    every class run of a row block before the next block.  Each tile is
    written into one reused buffer, so a caller is done with a tile when it
    asks for the next.  A row block's ``q`` is dropped before the next one
    is made, so a caller that drops it too holds one block at a time."""
    k = keys.shape[0] // c
    blocks, runs = _tile_plan(f_ref.shape[0], c, k) if plan is None else plan
    buf = np.empty(blocks[0].stop * (runs[0].stop * k))  # the first block and run are the largest
    for rows in blocks:
        q = f_ref(rows) if callable(f_ref) else f_ref[rows]
        for cls in runs:
            out = buf[: (rows.stop - rows.start) * (cls.stop - cls.start) * k]
            out = out.reshape(rows.stop - rows.start, -1)
            yield rows, cls, q, np.matmul(q, keys[k * cls.start : k * cls.stop].T, out=out)
        del q


def _add_cache_term(zs, f_ref, keys, scores, alpha: float, beta: float, res=None, scale=None, plan=None):
    """Add alpha * class sums of scores * exp(-beta * (1 - f_ref @ keys.T))
    into the N x C ``zs`` in place, one cosine tile of ``plan`` (as in
    :func:`_cosine_tiles`) at a time; returns ``zs``.

    A C x Q residual ``res`` first adds its text shift ``scale * p`` (``scale``:
    one factor per row) and then scales each class sum by the gain exp(beta *
    p), where p = f_ref @ res.T is formed once per row block.  Only one tile
    is alive at once.  Rows are independent and each class sum sees only its
    own K columns, so the result is bitwise that of the whole matrix.
    """
    c = zs.shape[1]
    k = keys.shape[0] // c
    cols, buf = _score_cols(scores[None], c), None
    for rows, cls, q, blk in _cosine_tiles(f_ref, keys, c, plan):
        if buf is None:  # the first tile is the largest; its sums buffer is reused
            buf = np.empty(blk.size // k)
        if res is not None and cls.start == 0:
            p = q @ res.T
            zs[rows] += scale[rows, None] * p
            gain = np.exp(beta * p)
        _sharpen(blk, beta, out=blk)
        out = buf[: blk.size // k].reshape(1, len(blk), -1)
        sums = _class_sums(blk, cols[cls], 1, out)[0]
        if res is not None:
            sums *= gain[:, cls]
        zs[rows, cls] += alpha * sums
    return zs


def _grid_run(top, pred, zs, f_ref, keys, score_sets, alphas, betas, plan, first: int) -> None:
    """Raise each candidate's top logit ``top`` and class id ``pred`` (both
    alphas x betas x score sets x N) in place by the logits of the class run
    ``first`` + range(C'): its zero-shot columns ``zs`` plus the
    ``_add_cache_term`` of ``keys`` at ``score_sets[g]`` (one C'*K row per
    set), ``alphas[a]`` and ``betas[b]``, bitwise, over the tiles of ``plan``
    for the refined rows ``f_ref`` (or a function of a row slice giving
    them, as in :func:`_cosine_tiles`; each block is dropped with its tile).

    Each tile's gap 1 - cos is taken once, in place; :func:`_decay` makes it
    one reused tile of weights per beta, which :func:`_class_sums` takes into
    the sums of up to ``_SCORE_COLS`` score sets at once; all alphas scale a
    set's sums in one alphas x rows x C' scratch.  A later run takes a row
    only with a strictly larger logit, so ties go to the lower id as in
    ``predict``."""
    c = zs.shape[1]
    groups = [(lo, _score_cols(score_sets[lo : lo + _SCORE_COLS], c)) for lo in range(0, len(score_sets), _SCORE_COLS)]
    rows0 = plan[0][0].stop  # the first row block is the largest; both buffers are reused
    weights, buf = np.empty((rows0, len(keys))), np.empty(min(len(score_sets), _SCORE_COLS) * rows0 * c)
    for rows, _, q, gap in _cosine_tiles(f_ref, keys, c, plan):
        del q  # not read: dropped so that the next block is refined without it
        blk = weights[: len(gap)]
        np.subtract(1.0, gap, out=gap)
        for b, beta in enumerate(betas):
            _decay(gap, float(beta), out=blk)
            for lo, cols in groups:
                e = min(_SCORE_COLS, len(score_sets) - lo)
                out = buf[: e * len(gap) * c].reshape(e, len(gap), c)
                for g, sums in enumerate(_class_sums(blk, cols, e, out), lo):
                    z = np.multiply.outer(alphas, sums)
                    z += zs[rows]
                    arg = z.argmax(axis=2)
                    z = np.take_along_axis(z, arg[..., None], axis=2)[..., 0]
                    better = z > top[:, b, g, rows]
                    np.copyto(top[:, b, g, rows], z, where=better)
                    np.copyto(pred[:, b, g, rows], arg + first, where=better)


def _run_plan(n: int, c: int, k: int, q: int) -> tuple[list[slice], list[slice]]:
    """:func:`_tile_plan` of ``n`` query rows and ``c`` x ``k`` keys, ``q``
    columns wide, with its class runs split further, evenly, until one run's
    keys take at most half of ``numkit._BLOCK_BYTES``: the runs of
    :func:`_support_runs`.  No run has one key column unless C*K = 1, and a
    one-row product (a GEMV, whose sums depend on its key count) is not split."""
    blocks, runs = _tile_plan(n, c, k)
    if n > 1:
        per_run = max(1, numkit._BLOCK_BYTES // (16 * k * q))  # classes in half a budget
        count = min(max(len(runs), -(-c // per_run)), c if k > 1 else c // 2)
        runs = numkit._even_slices(c, max(1, count))
    return blocks, runs


def _support_runs(task: FewShotTask, n: int, mask: refine.ChannelMask, cfg: EngineConfig, gammas, shots=None,
                  refined=None):
    """Yield ``(classes, plan, keys, scores)`` for each class run of
    :func:`_run_plan` for ``n`` query rows: the refined first ``shots``
    (default: all K) support rows of each class of the run, their tiling and
    their ``_cache_scores`` at ``gammas``.  The text channels are taken once,
    and not if every gamma is 0.  Once the caller drops each run's keys
    before the next, one run's keys (and its gather of fewer than K shots,
    whose file pages are dropped) exist at a time, never all C*K rows.
    Given ``refined``, the C*K support rows already refined (bitwise what
    the runs take, as refinement is per row), each run's keys are its slice
    of them, all K shots, and no support row is taken."""
    def take(m, norms):
        return refine._take_channels(m, mask.selected, cfg.renormalize, norms)[0]

    w_ref = take(task.text_features, task.text_norms) if any(gammas) else None
    k = task.k if shots is None else shots
    blocks, runs = _run_plan(n, task.c, k, mask.q)
    f, norms = task.support_features.reshape(task.c, task.k, -1), task.support_norms.reshape(task.c, task.k)
    for cls in runs:
        if refined is not None:
            keys = refined[task.k * cls.start : task.k * cls.stop]
        else:
            keys = take(f[cls, :k].reshape(-1, f.shape[2]), norms[cls, :k].ravel())
            numkit._release(task.support_features)
        yield cls, (blocks, [slice(0, cls.stop - cls.start)]), keys, _cache_scores(keys, w_ref, cfg, cls, gammas)
        del keys  # freed before the next run's keys are taken


def _ape_core(zs, task: FewShotTask, mask: refine.ChannelMask, cfg: EngineConfig) -> np.ndarray:
    """:func:`ape_logits` built in the task's zero-shot logits ``zs``, which it
    overwrites and returns, for a mask whose width the caller has checked
    against the task; each class run's keys serve its cache scores and
    tiles.  Under every channel, no renormalization and gamma = 0 this is
    the Tip-Adapter baseline."""
    f_ref = refine._take_channels(task.test_features, mask.selected, cfg.renormalize, task.test_norms)[0]
    for cls, plan, keys, scores in _support_runs(task, len(f_ref), mask, cfg, [cfg.gamma]):
        _add_cache_term(zs[:, cls], f_ref, keys, scores[0], cfg.alpha, cfg.beta, plan=plan)
        del keys  # freed before the next run's keys are taken
    return zs


def ape_logits(task: FewShotTask, mask: refine.ChannelMask, cfg: EngineConfig) -> np.ndarray:
    """Combined logits: zero-shot term plus the score-weighted refined cache.

    The zero-shot term uses the full feature space; the cache term runs on
    the mask's channels (re-normalized when ``cfg.renormalize``) and routes
    each support entry's affinity, scaled by its reliability score, into
    its own class column.

    Raises:
        ValueError: if the mask does not cover the task's D channels.
    """
    refine._check_width(mask, task.d)
    zs = zero_shot_logits(task.test_features, task.text_features, task.test_norms, task.text_norms)
    return _ape_core(zs, task, mask, cfg)


def predict(logits) -> np.ndarray:
    """Predicted class ids (row-wise argmax; ties go to the lower id)."""
    return np.asarray(logits).argmax(axis=1)


def accuracy(logits, labels) -> float:
    """Fraction of rows whose argmax matches ``labels``."""
    labels = np.asarray(labels)
    return float((predict(logits) == labels).mean())

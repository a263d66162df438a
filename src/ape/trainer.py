"""Lightweight residual training on top of the training-free classifier.

Only two tensors learn: a per-class residual over the refined channels
and the per-entry cache scores.  One Q-wide product p = f @ res.T serves
both uses of the residual: the text shift r * p (the residual zero-padded
and added to the prototypes) and the gain exp(beta * p) on each class's
frozen cache affinities (its keys shifted, with no C*K x Q key matrix).
Everything else -- prototypes, cache features, channel mask -- stays
frozen and read-only.  Gradients are derived analytically and the update
rule is AdamW with decoupled weight decay under a cosine learning-rate
schedule.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import astuple, dataclass, field
from typing import ClassVar

import numpy as np

from . import dataio, numkit, refine
from .engine import (
    EngineConfig,
    FewShotTask,
    _add_cache_term,
    _cache_scores,
    _class_sums,
    _cosine_tiles,
    _score_cols,
    _sharpen,
    _tile_plan,
    cache_affinity,  # unused; perfbench/test_perfbench.py rebinds it (ROADMAP item 1b)
    zero_shot_logits,
)

__all__ = [
    "OptimConfig",
    "TrainState",
    "init_state",
    "forward",
    "adamw_step",
    "cosine_lr",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

CKPT_MAGIC = b"APE-CKPT v2\n"
_CKPT_MAGIC_V1 = b"APE-CKPT v1\n"  # v2 without the config block
_CFG_BLOCK = struct.Struct("<dddqd?")
# The learnables and their moments in checkpoint order: each *res is C x Q, each *scores C*K.
_LEARNED = ("res", "scores", "m_res", "v_res", "m_scores", "v_scores")
# The frozen context: set once, at construction; its arrays are read-only views.
_FROZEN = ("mask_idx", "text_features", "text_norms", "support_features", "support_norms", "cfg",
           "w", "f_support_refined", "support_scale")
# Snapshots per class-sum call in the history: at C=100 and 625-row tiles
# their sums take 2 MB, where 8 (the padded width) raised a desk train's peak RSS by 4%.
_SNAPSHOT_GROUP = 4
# ``train`` holds the C*K x C*K support affinity within this many
# ``numkit._BLOCK_BYTES`` (C*K <= 2048 at 8 MiB); a step reads it in 8 class chunks.
_HELD_BLOCKS, _STEP_CHUNKS = 4, 8


class _ConfigDefaultedWarning(UserWarning):
    """A v1 checkpoint, which stores no engine config, loaded under ``EngineConfig()``."""


@dataclass(frozen=True)
class OptimConfig:
    """AdamW and schedule settings, checked at construction.  The cosine
    schedule spans epochs * ceil(support / batch_size) steps; the moment
    decays and eps are AdamW's fixed defaults."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    lr: float = 1e-3
    weight_decay: float = 0.01
    epochs: int = 20
    batch_size: int = 256
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")


@dataclass(eq=False)
class TrainState:
    """Learnable tensors, their optimizer moments, and the read-only frozen
    context with its engine config, from which every construction (``replace``
    too) derives the float64 prototypes and the refined support rows; sizes
    C, K, Q and D come from the arrays."""

    # learnable
    res: np.ndarray        # C x Q class residuals
    scores: np.ndarray     # C*K cache scores
    # AdamW moments
    m_res: np.ndarray
    v_res: np.ndarray
    m_scores: np.ndarray
    v_scores: np.ndarray
    step: int
    # frozen context: read-only views of the caller's arrays, never copies
    mask_idx: np.ndarray           # Q selected channel indices
    text_features: np.ndarray      # C x D text rows, float64 or stored float32
    text_norms: np.ndarray         # C float64 norms of the text rows
    support_features: np.ndarray   # C*K x D support rows, class-major
    support_norms: np.ndarray      # C*K float64 norms of the support rows
    cfg: EngineConfig              # alpha, beta and refinement of every pass
    # derived from the frozen context above; not saved
    w: np.ndarray = field(init=False, repr=False)                  # C x D float64 prototypes
    f_support_refined: np.ndarray = field(init=False, repr=False)  # C*K x Q
    support_scale: np.ndarray = field(init=False, repr=False)      # C*K r of the support rows (see _refine)

    def __post_init__(self):
        c, q, n = len(self.text_features), len(self.mask_idx), len(self.support_features)
        if self.res.shape != (c, q) or self.scores.shape != (n,):
            raise ValueError("the learnables do not fit the frozen context: res must be C x Q and scores C*K")
        self.w = numkit._unit64(self.text_features, self.text_norms)
        self.f_support_refined, self.support_scale = _refine(
            self.support_features, self.mask_idx, self.cfg.renormalize, self.support_norms
        )

    def __setattr__(self, name, value):
        if name in _FROZEN and hasattr(self, name):
            raise AttributeError(f"{name} is set at construction: the frozen context stays as built")
        if name in _FROZEN and isinstance(value, np.ndarray):
            value = value.view()  # the caller's array keeps its flags
            value.flags.writeable = False
        super().__setattr__(name, value)

    @property
    def c(self) -> int:
        return self.res.shape[0]

    @property
    def q(self) -> int:
        return self.res.shape[1]

    @property
    def k(self) -> int:
        return self.scores.shape[0] // self.c

    @property
    def d_total(self) -> int:
        return self.w.shape[1]

    def param_count(self) -> int:
        """Number of learnable scalars: C*Q residuals plus C*K cache scores."""
        if not (self.res.size and self.scores.size):
            raise ValueError("counts must be positive")
        return self.res.size + self.scores.size


def init_state(task: FewShotTask, mask: refine.ChannelMask, cfg: EngineConfig) -> TrainState:
    """Fresh state: zero residuals and cache scores from the frozen model;
    its forward pass reproduces the training-free logits bitwise."""
    refine._check_width(mask, task.d)
    w_ref = refine._take_channels(task.text_features, mask.selected, cfg.renormalize, task.text_norms)
    zeros = {name: np.zeros(task.c * task.k if name.endswith("scores") else (task.c, mask.q)) for name in _LEARNED}
    state = TrainState(**zeros, step=0, mask_idx=mask.selected, text_features=task.text_features,
                       text_norms=task.text_norms, support_features=task.support_features,
                       support_norms=task.support_norms, cfg=cfg)
    state.scores = _cache_scores(state.f_support_refined, w_ref, cfg)[0]
    return state


def _refine(m, mask_idx, renormalize: bool, norms=None) -> tuple[np.ndarray, np.ndarray]:
    """``refine._take_channels`` of the rows ``m`` stands for, bit for bit,
    and each row's r, what re-normalization divided it by (``numkit._divisors``;
    1 without it), so that r * q is the row's kept channels."""
    q = refine._take_channels(m, mask_idx, False, norms)
    if not renormalize:
        return q, np.ones(len(q))
    kept = numkit._row_norms(q)
    return numkit._normalize_rows_inplace(q, kept), numkit._divisors(kept)


def forward(state: TrainState, f_batch, norms=None) -> np.ndarray:
    """Logits of the residual-augmented classifier for a batch of full-width
    rows, under the state's own engine config.

    The frozen zero-shot logits f @ w.T take the text shift r * p (r: see
    :func:`_refine`), as if the padded residual shifted the prototypes, and
    each class's sum of frozen cache affinities the gain exp(beta * p), as
    if it shifted that class's keys; p = f_ref @ res.T is formed once per
    row block.  Float32 rows are stored features: they are widened and
    normalized by row blocks, as ``FewShotTask`` reads them, by ``norms``
    (their float64 row norms, such as a task's ``test_norms``) when given.
    """
    f_batch = numkit._as_features(f_batch, "f_batch", norms=norms)
    if f_batch.shape[1] != state.d_total:
        raise ValueError(f"f_batch has {f_batch.shape[1]} columns, state expects {state.d_total}")
    cfg = state.cfg
    if norms is None and f_batch.dtype == np.float32:
        norms = numkit._row_norms(f_batch)
    f_ref, scale = _refine(f_batch, state.mask_idx, cfg.renormalize, norms)
    zs = zero_shot_logits(f_batch, state.w, norms)
    return _add_cache_term(zs, f_ref, state.f_support_refined, state.scores, cfg.alpha, cfg.beta, state.res, scale)


def _ce_terms(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row softmax cross-entropy of the logits ``z`` against int64 class
    ids ``y``, with the shifted ``exp`` of ``z`` and its row sums, whose
    quotient is the row-wise softmax."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=1)
    return np.log(sums) - z[np.arange(len(y)), y], e, sums


def _grad_parts(state: TrainState, zs, f_ref, scale, label_ids, aff=None, idx=None):
    """The batch logits and the analytic gradients of the mean cross-entropy
    w.r.t. the learnables, from the batch's zero-shot logits ``zs``, refined
    channels and r (see :func:`_refine`).  The batch's affinities are its
    rows ``idx`` of the held support affinity ``aff`` (see :func:`train`),
    else its own sharpened product; either is read by class chunks (a
    gather of held rows), so no second B x C*K matrix exists.

    Returns (logits, loss, d_res, d_scores): the batch's mean cross-entropy
    and the gradients shaped (C, Q) and (C*K,).  The residual gradient sums the text-shift path and the
    cache-gain path; both are linear in the refined rows, so it is one GEMM.
    """
    y = np.asarray(label_ids, dtype=np.int64)
    b, c, k, cfg = len(zs), state.c, state.k, state.cfg
    if aff is None:
        aff, idx = f_ref @ state.f_support_refined.T, slice(None)
        _sharpen(aff, cfg.beta, out=aff)
    # The batch's affinities to each class chunk; the operations are forward's, bit for bit.
    chunks = [(cls, slice(k * cls.start, k * cls.stop)) for cls in numkit._even_slices(c, min(c, _STEP_CHUNKS))]
    p = f_ref @ state.res.T
    gain = np.exp(cfg.beta * p)
    cols, cache = _score_cols(state.scores[None], c), np.empty((b, c))
    for cls, keys in chunks:
        _class_sums(aff[idx, keys], cols[cls], 1, out=cache[None, :, cls])
    cache *= gain
    logits = (zs + scale[:, None] * p) + cfg.alpha * cache

    terms, e, sums = _ce_terms(logits, y)
    g = np.divide(e, sums[:, None], out=e)
    g[np.arange(b), y] -= 1.0
    g /= b

    # d logits[:, c] / d res_c = (r + alpha * beta * cache[:, c]) * f_ref; scores pass the gain.
    d_res = (scale[:, None] * g + cfg.alpha * cfg.beta * g * cache).T @ f_ref
    g *= gain
    d_scores = np.empty((c, k))
    for cls, keys in chunks:
        np.einsum("bc,bck->ck", g[:, cls], aff[idx, keys].reshape(b, -1, k), out=d_scores[cls])
    return logits, float(terms.mean()), d_res, cfg.alpha * d_scores.reshape(c * k)


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Cosine-annealed learning rate from base_lr (step 0) to 0 (final step)."""
    if total_steps <= 0:
        raise ValueError(f"total_steps must be > 0, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * step / total_steps))


def adamw_step(state: TrainState, grads, lr_t: float, optim: OptimConfig) -> TrainState:
    """One AdamW update of both learnable tensors, in place.

    Weight decay is decoupled: parameters shrink by lr_t * wd * param
    independently of the adaptive step, which uses bias-corrected moments.
    Each update is written into two scratch buffers of its tensor's shape,
    with the operations and order of the plain expressions, so its bits are
    theirs without their temporaries.
    """
    d_res, d_scores = grads
    if d_res.shape != state.res.shape or d_scores.shape != state.scores.shape:
        raise ValueError("gradient shapes do not match the state")
    t = state.step + 1
    bc1 = 1.0 - optim.beta1 ** t
    bc2 = 1.0 - optim.beta2 ** t
    for p, g, m, v in (
        (state.res, d_res, state.m_res, state.v_res),
        (state.scores, d_scores, state.m_scores, state.v_scores),
    ):
        a, b = np.empty_like(p), np.empty_like(p)
        if optim.weight_decay:
            p -= np.multiply(lr_t * optim.weight_decay, p, out=a)
        m *= optim.beta1
        m += np.multiply(1.0 - optim.beta1, g, out=a)
        v *= optim.beta2
        np.multiply(1.0 - optim.beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, bc1, out=a)  # lr_t * (m / bc1)
        a *= lr_t
        np.divide(v, bc2, out=b)  # / (sqrt(v / bc2) + eps)
        np.sqrt(b, out=b)
        b += optim.eps
        p -= np.divide(a, b, out=a)
    state.step = t
    return state


def _support_affinity(s_ref, c: int, beta: float) -> np.ndarray:
    """The sharpened C*K x C*K affinity of the support rows ``s_ref`` to
    themselves, each row block written by ``forward``'s tile GEMMs and
    sharpened in place."""
    n, k = len(s_ref), len(s_ref) // c
    aff, (blocks, runs) = np.empty((n, n)), _tile_plan(n, c, k)
    for rows in blocks:
        for cls in runs:
            keys = slice(k * cls.start, k * cls.stop)
            np.matmul(s_ref[rows], s_ref[keys].T, out=aff[rows, keys])
        _sharpen(aff[rows], beta, out=aff[rows])
    return aff


def _snapshot_accuracies(state: TrainState, ress, scores, f_batch, norms, f_ref, scale, labels, terms=None,
                         aff=None, zs=None):
    """Accuracy of ``forward`` under each snapshot ``(ress[e], scores[e])``
    (``scores``: one row of C*K cache scores per residual), then that of the
    zero-shot logits, on the full-width task rows ``f_batch`` (with their
    ``norms``, widened one row block at a time), their refined channels
    ``f_ref`` (or a function of a row slice giving them, which may fill
    ``scale`` for it), their r ``scale`` and ``labels``; ``terms``, if
    given, receives snapshot 0's per-row cross-entropy terms.  The held
    support affinity ``aff`` and zero-shot logits ``zs``, if given, give the
    tiles and row blocks.  A row block's zero-shot product and each cosine
    tile serve all snapshots; :func:`_class_sums` takes a tile into the
    class sums of up to ``_SNAPSHOT_GROUP`` snapshots at once (all of them
    where a row block is split into several tiles, whose sums wait for its
    last tile), and a snapshot's Q-wide product gives its gain and text
    shift.  No logits matrix exists whole.
    """
    cfg, c, k = state.cfg, state.c, state.k
    hits = np.zeros(len(ress) + 1, dtype=np.int64)
    plan = _tile_plan(len(labels), c, k)
    size = len(ress) if len(plan[1]) > 1 else min(len(ress), _SNAPSHOT_GROUP)
    buf = np.empty(size * plan[0][0].stop * c)  # one for the pass: fresh sums per call took 5 MB more RSS
    tiles = _cosine_tiles(f_ref, state.f_support_refined, c, plan) if aff is None else (
        (rows, cls, f_ref[rows], aff[rows, k * cls.start : k * cls.stop]) for rows in plan[0] for cls in plan[1]
    )
    for rows, cls, q, blk in tiles:
        if aff is None:
            _sharpen(blk, cfg.beta, out=blk)
        if cls.stop == c:
            zs0 = numkit._unit64(f_batch, norms, rows) @ state.w.T if zs is None else zs[rows]
            hits[-1] += np.count_nonzero(zs0.argmax(axis=1) == labels[rows])
        for lo in range(0, len(ress), size):
            group = scores[lo : lo + size, k * cls.start : k * cls.stop]
            sums = buf[: len(group) * len(blk) * c].reshape(len(group), len(blk), c)
            _class_sums(blk, _score_cols(group, cls.stop - cls.start), len(group), out=sums[:, :, cls])
            if cls.stop < c:
                continue
            for e, acc in enumerate(sums, lo):
                p = q @ ress[e].T
                acc *= np.exp(cfg.beta * p)
                z = zs0 + scale[rows, None] * p
                z += cfg.alpha * acc
                hits[e] += np.count_nonzero(z.argmax(axis=1) == labels[rows])  # as accuracy()
                if e == 0 and terms is not None:
                    terms[rows] = _ce_terms(z, labels[rows])[0]
    return [float(h / len(labels)) for h in hits]


def train(
    task: FewShotTask,
    mask: refine.ChannelMask,
    cfg: EngineConfig,
    optim: OptimConfig,
) -> tuple[TrainState, list[dict]]:
    """Run the full training loop over the support set.

    Batches are sampled without replacement from a seeded shuffle each
    epoch (last short batch kept).  While the frozen C*K x C*K support
    affinity fits ``_HELD_BLOCKS`` row blocks, it and the support zero-shot
    logits are formed once; the steps and the history read their rows.  The
    history holds one row per epoch plus the pre-training row 0 (which also
    holds ``zero_shot_acc``), each with the mean batch loss and support/test
    accuracy.  It is scored once, after the last step, from the residual
    and cache scores kept at each epoch: one pass over the cosine tiles of
    the support rows, then the test rows (refined by row blocks), computes
    each tile's frozen affinities once for all epochs.  Row 0's loss
    averages per-row terms taken block by block, so the C*K x C support
    logits never exist whole.  Every history value is bitwise that of
    ``forward``.
    """
    state = init_state(task, mask, cfg)

    n = task.c * task.k
    y_support = task.support_class_ids()
    steps_per_epoch = math.ceil(n / optim.batch_size)
    total_steps = optim.epochs * steps_per_epoch
    rng = np.random.default_rng(optim.seed)
    ress, scores, losses = [state.res.copy()], np.empty((optim.epochs + 1, n)), []
    scores[0] = state.scores
    f, norms, s_ref = task.support_features, task.support_norms, state.f_support_refined
    aff = zs = None
    if 8 * n * n <= _HELD_BLOCKS * numkit._BLOCK_BYTES:
        aff, zs = _support_affinity(s_ref, task.c, cfg.beta), zero_shot_logits(f, state.w, norms)

    for _ in range(optim.epochs):
        perm = rng.permutation(n)
        batch_losses = []
        for b in range(steps_per_epoch):
            idx = perm[b * optim.batch_size : (b + 1) * optim.batch_size]
            zb = numkit._unit64(f, norms, idx) @ state.w.T if zs is None else zs[idx]
            yb = y_support[idx]
            _, loss, d_res, d_scores = _grad_parts(state, zb, s_ref[idx], state.support_scale[idx], yb, aff, idx)
            batch_losses.append(loss)
            lr_t = cosine_lr(state.step, total_steps, optim.lr)
            adamw_step(state, (d_res, d_scores), lr_t, optim)
        losses.append(float(np.mean(batch_losses)))
        ress.append(state.res.copy())
        scores[len(losses)] = state.scores

    terms = np.empty(n)
    *support_acc, _ = _snapshot_accuracies(
        state, ress, scores, f, norms, s_ref, state.support_scale, y_support, terms, aff, zs
    )
    del aff, zs  # freed before the test pass
    test_acc, zero_shot_acc = [None] * len(ress), None
    if task.test_labels is not None:
        f, norms, scale = task.test_features, task.test_norms, np.empty(len(task.test_labels))

        def test_ref(rows):  # one test row block's channels and r, when its tiles need them
            q, scale[rows] = _refine(f[rows], state.mask_idx, cfg.renormalize, norms[rows])
            return q

        *test_acc, zero_shot_acc = _snapshot_accuracies(
            state, ress, scores, f, norms, test_ref, scale, task.test_labels
        )
    rows = zip([float(terms.mean())] + losses, support_acc, test_acc)
    history = [{"epoch": e, "loss": loss, "support_acc": s, "test_acc": t} for e, (loss, s, t) in enumerate(rows)]
    history[0]["zero_shot_acc"] = zero_shot_acc
    return state, history


def save_checkpoint(path, state: TrainState) -> None:
    """Serialize the learnable tensors, optimizer state and engine config.

    Layout after the magic line: u64 C, K, Q; Q u64 mask indices; the
    engine config as f64 alpha, beta, gamma, i64 kl_sign, f64
    kl_temperature, u8 renormalize; then float64 little-endian row-major
    res, scores, m_res, v_res, m_scores, v_scores; then u64 step.
    """
    parts = [CKPT_MAGIC, struct.pack("<QQQ", state.c, state.k, state.q)]
    parts.append(state.mask_idx.astype("<u8").tobytes())
    parts.append(_CFG_BLOCK.pack(*astuple(state.cfg)))
    for name in _LEARNED:
        parts.append(np.ascontiguousarray(getattr(state, name)).astype("<f8").tobytes())
    parts.append(struct.pack("<Q", state.step))
    with dataio._atomic_file(path) as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path, task: FewShotTask) -> TrainState:
    """Bind a checkpoint to a task sharing its class layout, under the engine
    config it stores (a v1 file stores none: it loads under ``EngineConfig()``
    with a ``UserWarning``).

    The frozen context views ``task``'s rows under that config, so the task
    must match the checkpoint's class count and shot count, and every mask
    index must fit its width.

    Raises:
        ValueError: on class/shot/width mismatch, a bad config or a malformed file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith((CKPT_MAGIC, _CKPT_MAGIC_V1)):
        raise ValueError(f"not a checkpoint file: {path}")
    off = len(CKPT_MAGIC)

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise ValueError(f"checkpoint truncated: {path}")
        out = blob[off : off + n]
        off += n
        return out

    c, k, q = struct.unpack("<QQQ", take(24))
    if c != task.c:
        raise ValueError(f"checkpoint has {c} classes, task has {task.c}")
    if k != task.k:
        raise ValueError(f"checkpoint has {k} shots per class, task has {task.k}")
    raw_idx = np.frombuffer(take(8 * q), dtype="<u8")
    # range-check on the unsigned view so corrupt indices cannot wrap negative
    if not 1 <= q <= task.d or raw_idx.max() >= task.d:
        raise ValueError(f"checkpoint mask does not fit a {task.d}-channel task")
    if len(np.unique(raw_idx)) != q:
        raise ValueError("checkpoint mask indices are not distinct")
    if blob.startswith(CKPT_MAGIC):
        block = take(_CFG_BLOCK.size)
        try:
            if block[-1] > 1:  # unpacking "?" reads any nonzero byte as True
                raise ValueError(f"renormalize must be 0 or 1, got {block[-1]}")
            cfg = EngineConfig(*_CFG_BLOCK.unpack(block))
        except ValueError as exc:
            raise ValueError(f"checkpoint holds a bad engine config: {path}: {exc}") from None
    else:
        warnings.warn(
            f"{path} is a v1 checkpoint with no engine config; loading it under the defaults", _ConfigDefaultedWarning
        )
        cfg = EngineConfig()

    def take_f64(shape) -> np.ndarray:
        return np.frombuffer(take(8 * int(np.prod(shape))), dtype="<f8").astype(np.float64).reshape(shape)

    learned = {name: take_f64(c * k if name.endswith("scores") else (c, q)) for name in _LEARNED}
    (step,) = struct.unpack("<Q", take(8))
    if off != len(blob):
        raise ValueError(f"checkpoint has trailing bytes: {path}")
    if not all(np.isfinite(a).all() for a in learned.values()):
        raise ValueError(f"checkpoint holds non-finite values: {path}")
    if (learned["v_res"] < 0).any() or (learned["v_scores"] < 0).any():
        raise ValueError(f"checkpoint holds negative second moments: {path}")

    return TrainState(**learned, step=int(step), mask_idx=raw_idx.astype(np.int64), text_features=task.text_features,
                      text_norms=task.text_norms, support_features=task.support_features,
                      support_norms=task.support_norms, cfg=cfg)

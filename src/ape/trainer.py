"""Lightweight residual training on top of the training-free classifier.

Only two tensors learn: a per-class residual over the refined channels
and the per-entry cache scores.  One Q-wide product p = f @ res.T serves
both uses of the residual: the text shift r * p (the residual zero-padded
and added to the prototypes) and the gain exp(beta * p) on each class's
frozen cache affinities (its keys shifted, with no C*K x Q key matrix).
Everything else -- the task's prototypes and cache, the channel mask --
stays frozen: a training state holds what a checkpoint stores, and the
cache stays the task's.  Gradients are derived analytically and the update
rule is AdamW with decoupled weight decay under a cosine learning-rate
schedule.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import astuple, dataclass
from typing import ClassVar

import numpy as np

from . import dataio, numkit, refine
from .engine import (
    EngineConfig,
    FewShotTask,
    _ape_core,
    _class_sums,
    _cosine_tiles,
    _score_cols,
    _sharpen,
    _support_runs,
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
# What the learnables were trained under: set once, at construction; the mask is a read-only view.
_SET_ONCE = ("mask_idx", "cfg")
# Snapshots per class-sum call in the history: at C=100 and 625-row tiles
# their sums take 2 MB, where 8 (the padded width) raised a desk train's peak RSS by 4%.
_SNAPSHOT_GROUP = 4
# ``train`` holds the C*K x C*K support affinity within this many
# ``numkit._BLOCK_BYTES`` (C*K <= 2048 at 8 MiB); a step reads it in 8 class chunks.
_HELD_BLOCKS, _STEP_CHUNKS = 4, 8


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
    """What a checkpoint stores: the learnable tensors, their optimizer
    moments and step, and the channel mask and engine config they were
    trained under.  The cache is the task's, which :func:`forward` scores a
    state on; sizes C, K and Q come from the arrays."""

    # learnable
    res: np.ndarray        # C x Q class residuals
    scores: np.ndarray     # C*K cache scores
    # AdamW moments
    m_res: np.ndarray
    v_res: np.ndarray
    m_scores: np.ndarray
    v_scores: np.ndarray
    step: int
    # what the learnables were trained under
    mask_idx: np.ndarray   # Q selected channel indices
    cfg: EngineConfig      # alpha, beta and refinement of every pass

    def __post_init__(self):
        if self.res.shape[1:] != self.mask_idx.shape or len(self.scores) % len(self.res):
            raise ValueError("the learnables do not fit the mask: res must be C x Q and scores C*K")

    def __setattr__(self, name, value):
        if name in _SET_ONCE and hasattr(self, name):
            raise AttributeError(f"{name} is set at construction: the learnables were trained under it")
        if name == "mask_idx" and isinstance(value, np.ndarray):
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

    def param_count(self) -> int:
        """Number of learnable scalars: C*Q residuals plus C*K cache scores."""
        if not (self.res.size and self.scores.size):
            raise ValueError("counts must be positive")
        return self.res.size + self.scores.size


def _check_fit(source: str, c: int, k: int, mask_idx: np.ndarray, task: FewShotTask) -> None:
    """Raise a ValueError naming the mismatch unless learnables of ``c``
    classes and ``k`` shots per class on the channels ``mask_idx`` fit the
    task: its class count, its shot count and a nonempty mask of its width.
    ``source`` names their holder, a checkpoint or a state."""
    if c != task.c:
        raise ValueError(f"{source} has {c} classes, task has {task.c}")
    if k != task.k:
        raise ValueError(f"{source} has {k} shots per class, task has {task.k}")
    # range-checked as given, so corrupt unsigned indices cannot wrap negative
    if not 1 <= len(mask_idx) <= task.d or mask_idx.min() < 0 or mask_idx.max() >= task.d:
        raise ValueError(f"{source} mask does not fit a {task.d}-channel task")


def init_state(task: FewShotTask, mask: refine.ChannelMask, cfg: EngineConfig) -> TrainState:
    """Fresh state: zero residuals and the cache scores that
    ``engine._support_runs`` gives ``ape_logits`` for the task's test rows,
    so its forward pass reproduces the training-free logits bitwise."""
    refine._check_width(mask, task.d)
    return _fresh_state(task, mask, cfg)


def _fresh_state(task: FewShotTask, mask: refine.ChannelMask, cfg: EngineConfig, refined=None) -> TrainState:
    """:func:`init_state`'s state for a checked mask.  Given ``refined``, the
    task's support rows already refined, the runs score their slices and
    take no support channels (see ``engine._support_runs``)."""
    zeros = {name: np.zeros(task.c * task.k if name.endswith("scores") else (task.c, mask.q)) for name in _LEARNED}
    state = TrainState(**zeros, step=0, mask_idx=mask.selected, cfg=cfg)
    n = len(task.test_features)
    for cls, _, _, scores in _support_runs(task, n, mask.selected, cfg, [cfg.gamma], refined=refined):
        state.scores[task.k * cls.start : task.k * cls.stop] = scores[0]
    return state


def forward(state: TrainState, task: FewShotTask, f_batch, norms=None) -> np.ndarray:
    """Logits of the residual-augmented classifier for a batch of full-width
    rows, scored with the state's learnables on the task's cache, under the
    state's own engine config, by ``ape eval``'s walk (``engine._ape_core``).

    The frozen zero-shot logits f @ w.T take the text shift r * p (r from
    ``refine._take_channels``), as if the padded residual shifted the
    prototypes, and each class's sum of frozen cache affinities the gain
    exp(beta * p), as if it shifted that class's keys; p = f_ref @ res.T is
    formed once per row block.  Float32 rows are stored features, widened
    and normalized by row blocks as ``FewShotTask`` reads them, by ``norms``
    (their float64 row norms, such as a task's ``test_norms``) when given.
    A state that does not fit the task (:func:`_check_fit`) raises ValueError.
    """
    _check_fit("state", state.c, state.k, state.mask_idx, task)
    f_batch = numkit._as_features(f_batch, "f_batch", norms=norms)
    if norms is None and f_batch.dtype == np.float32:
        norms = numkit._row_norms(f_batch)
    zs = zero_shot_logits(f_batch, task.text_features, norms, task.text_norms)  # raises on another width
    return _ape_core(zs, task, state.mask_idx, state.cfg, (state.res, state.scores), (f_batch, norms))


def _ce_terms(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row softmax cross-entropy of the logits ``z`` against int64 class
    ids ``y``, with the shifted ``exp`` of ``z`` and its row sums, whose
    quotient is the row-wise softmax."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=1)
    return np.log(sums) - z[np.arange(len(y)), y], e, sums


def _grad_parts(state: TrainState, zs, f_ref, scale, label_ids, s_ref, aff=None, idx=None):
    """The batch logits and the analytic gradients of the mean cross-entropy
    w.r.t. the learnables, from the batch's zero-shot logits ``zs``, refined
    channels and r (``refine._take_channels``).  Its affinities are the rows
    ``idx`` of the held support affinity ``aff`` (see :func:`train`), else
    its own sharpened product with the refined support rows ``s_ref``;
    either is read by class chunks (a gather of held rows), so no second
    B x C*K matrix exists.

    Returns (logits, loss, d_res, d_scores): the batch's mean cross-entropy
    and the gradients shaped (C, Q) and (C*K,).  The residual gradient sums the text-shift path and the
    cache-gain path; both are linear in the refined rows, so it is one GEMM.
    """
    y = np.asarray(label_ids, dtype=np.int64)
    b, c, k, cfg = len(zs), state.c, state.k, state.cfg
    if aff is None:
        aff, idx = f_ref @ s_ref.T, slice(None)
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
    themselves: each of ``forward``'s cosine tiles sharpened into its block."""
    k, aff = len(s_ref) // c, np.empty((len(s_ref), len(s_ref)))
    for rows, cls, _, cos in _cosine_tiles(s_ref, s_ref, c):
        _sharpen(cos, beta, out=aff[rows, k * cls.start : k * cls.stop])
    return aff


def _snapshot_accuracies(cfg: EngineConfig, w, s_ref, ress, scores, f_batch, norms, f_ref, scale, labels,
                         terms=None, aff=None, zs=None):
    """Accuracy of ``forward`` under ``cfg`` and each snapshot ``(ress[e],
    scores[e])`` (``scores``: one row of C*K cache scores per residual), then
    that of the zero-shot logits, on the cache of the float64 prototypes
    ``w`` and refined support rows ``s_ref``, for the full-width task rows ``f_batch`` (with their
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
    c, k = len(w), len(s_ref) // len(w)
    hits = np.zeros(len(ress) + 1, dtype=np.int64)
    plan = _tile_plan(len(labels), c, k)
    size = len(ress) if len(plan[1]) > 1 else min(len(ress), _SNAPSHOT_GROUP)
    buf = np.empty(size * plan[0][0].stop * c)  # one for the pass: fresh sums per call took 5 MB more RSS
    tiles = _cosine_tiles(f_ref, s_ref, c, plan) if aff is None else (
        (rows, cls, f_ref[rows], aff[rows, k * cls.start : k * cls.stop]) for rows in plan[0] for cls in plan[1]
    )
    for rows, cls, q, blk in tiles:
        if aff is None:
            _sharpen(blk, cfg.beta, out=blk)
        if cls.stop == c:
            zs0 = numkit._unit64(f_batch, norms, rows) @ w.T if zs is None else zs[rows]
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
        del q  # dropped with its block's last tile, so the next block is refined without it
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
    ``forward``.  The prototypes and the refined support rows with their r
    are locals, not in the state: the support channels are taken once.
    """
    refine._check_width(mask, task.d)
    f, norms = task.support_features, task.support_norms
    w = numkit._unit64(task.text_features, task.text_norms)
    s_ref, s_scale = refine._take_channels(f, mask.selected, cfg.renormalize, norms)
    state = _fresh_state(task, mask, cfg, s_ref)

    n = task.c * task.k
    y_support = task.support_class_ids()
    steps_per_epoch = math.ceil(n / optim.batch_size)
    total_steps = optim.epochs * steps_per_epoch
    rng = np.random.default_rng(optim.seed)
    ress, scores, losses = [state.res.copy()], np.empty((optim.epochs + 1, n)), []
    scores[0] = state.scores
    aff = zs = None
    if 8 * n * n <= _HELD_BLOCKS * numkit._BLOCK_BYTES:
        aff, zs = _support_affinity(s_ref, task.c, cfg.beta), zero_shot_logits(f, w, norms)

    for _ in range(optim.epochs):
        perm = rng.permutation(n)
        batch_losses = []
        for b in range(steps_per_epoch):
            idx = perm[b * optim.batch_size : (b + 1) * optim.batch_size]
            zb = numkit._unit64(f, norms, idx) @ w.T if zs is None else zs[idx]
            yb = y_support[idx]
            _, loss, d_res, d_scores = _grad_parts(state, zb, s_ref[idx], s_scale[idx], yb, s_ref, aff, idx)
            batch_losses.append(loss)
            lr_t = cosine_lr(state.step, total_steps, optim.lr)
            adamw_step(state, (d_res, d_scores), lr_t, optim)
        losses.append(float(np.mean(batch_losses)))
        ress.append(state.res.copy())
        scores[len(losses)] = state.scores

    terms = np.empty(n)
    *support_acc, _ = _snapshot_accuracies(cfg, w, s_ref, ress, scores, f, norms, s_ref, s_scale, y_support, terms,
                                           aff, zs)
    del aff, zs  # freed before the test pass
    test_acc, zero_shot_acc = [None] * len(ress), None
    if task.test_labels is not None:
        f, norms, scale = task.test_features, task.test_norms, np.empty(len(task.test_labels))

        def test_ref(rows):  # one test row block's channels and r, when its tiles need them
            q, scale[rows] = refine._take_channels(f[rows], mask.selected, cfg.renormalize, norms[rows])
            return q

        *test_acc, zero_shot_acc = _snapshot_accuracies(
            cfg, w, s_ref, ress, scores, f, norms, test_ref, scale, task.test_labels
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


def _read_checkpoint(path, task: FewShotTask) -> dict:
    """The ``TrainState`` fields that a checkpoint stores, by name, checked as
    :func:`load_checkpoint` says: the learnables, moments, step, mask and
    config.  Each field is read from the file into its own array, after a
    check that the file still holds its bytes; no copy of the file exists."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(count: int, dtype="<f8") -> np.ndarray:
            if count * np.dtype(dtype).itemsize > size - fh.tell():
                raise ValueError(f"checkpoint truncated: {path}")
            out = np.empty(count, dtype)
            fh.readinto(out)
            return out

        magic = fh.read(len(CKPT_MAGIC))
        if magic not in (CKPT_MAGIC, _CKPT_MAGIC_V1):
            raise ValueError(f"not a checkpoint file: {path}")
        c, k, q = take(3, "<u8").tolist()
        raw_idx = take(q, "<u8")
        _check_fit("checkpoint", c, k, raw_idx, task)
        if len(np.unique(raw_idx)) != q:
            raise ValueError("checkpoint mask indices are not distinct")
        if magic == CKPT_MAGIC:
            block = take(_CFG_BLOCK.size, np.uint8).tobytes()
            try:
                if block[-1] > 1:  # unpacking "?" reads any nonzero byte as True
                    raise ValueError(f"renormalize must be 0 or 1, got {block[-1]}")
                cfg = EngineConfig(*_CFG_BLOCK.unpack(block))
            except ValueError as exc:
                raise ValueError(f"checkpoint holds a bad engine config: {path}: {exc}") from None
        else:
            warnings.warn(f"{path} is a v1 checkpoint with no engine config; loading it under the defaults")
            cfg = EngineConfig()
        learned = {name: take(c * k) if name.endswith("scores") else take(c * q).reshape(c, q) for name in _LEARNED}
        (step,) = take(1, "<u8").tolist()
        if fh.tell() != size:
            raise ValueError(f"checkpoint has trailing bytes: {path}")
    extremes = np.array([(a.min(), a.max()) for a in learned.values()])  # NaN propagates; no mask of a tensor
    if not np.isfinite(extremes).all():
        raise ValueError(f"checkpoint holds non-finite values: {path}")
    if min(learned["v_res"].min(), learned["v_scores"].min()) < 0:
        raise ValueError(f"checkpoint holds negative second moments: {path}")
    return dict(learned, step=step, mask_idx=raw_idx.astype(np.int64), cfg=cfg)


def load_checkpoint(path, task: FewShotTask) -> TrainState:
    """The training state a checkpoint stores, under the engine config it
    stores (a v1 file stores none: it loads under ``EngineConfig()`` with a
    ``UserWarning``).

    The state holds no cache: :func:`forward` scores it on ``task``'s rows.
    So the task must match the checkpoint's class count and shot count, and
    every mask index must fit its width (:func:`_check_fit`).

    Raises:
        ValueError: on class/shot/width mismatch, a bad config or a malformed file.
    """
    return TrainState(**_read_checkpoint(path, task))

"""Lightweight residual training on top of the training-free classifier.

Only two tensors learn: a per-class residual over the refined channels
(added to the text prototypes, zero-padded to full width, and acting as a
per-class gain exp(beta * f @ res.T) on the frozen cache's affinities,
which equals shifting the class's keys but forms no C*K x Q key matrix) and the
per-entry cache scores.  Everything else -- prototypes, cache features,
channel mask -- stays frozen and read-only.  Gradients are derived
analytically and the update rule is AdamW with decoupled weight decay
under a cosine learning-rate schedule.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import astuple, dataclass
from typing import ClassVar

import numpy as np

from . import dataio, numkit, refine
from .engine import (
    EngineConfig,
    FewShotTask,
    _add_cache_term,
    _are_class_ids,
    _cosine_tiles,
    _refined_cache,
    _scored_class_sums,
    _sharpen,
    cache_affinity,  # unused; perfbench/test_perfbench.py rebinds it (ROADMAP item 3)
)

__all__ = [
    "OptimConfig",
    "TrainState",
    "param_count",
    "init_state",
    "forward",
    "cross_entropy",
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
# The frozen context: set once, at construction; its arrays are read-only.
_FROZEN = ("mask_idx", "w", "f_support_refined", "cfg")


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
    context with its engine config; sizes C, K, Q and D come from the arrays."""

    # learnable
    res: np.ndarray        # C x Q class residuals
    scores: np.ndarray     # C*K cache scores
    # AdamW moments
    m_res: np.ndarray
    v_res: np.ndarray
    m_scores: np.ndarray
    v_scores: np.ndarray
    step: int
    # frozen context
    mask_idx: np.ndarray           # Q selected channel indices
    w: np.ndarray                  # C x D text prototypes
    f_support_refined: np.ndarray  # C*K x Q, class-major
    cfg: EngineConfig              # alpha, beta and refinement of every pass

    def __setattr__(self, name, value):
        if name in _FROZEN and hasattr(self, name):
            raise AttributeError(f"{name} is set at construction: the frozen context stays as built")
        if name in _FROZEN and isinstance(value, np.ndarray):
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
        return param_count(self.c, self.q, self.k)


def param_count(c: int, q: int, k: int) -> int:
    """Number of learnable scalars: C*Q residuals plus C*K cache scores."""
    if c < 1 or q < 1 or k < 1:
        raise ValueError("counts must be positive")
    return c * q + c * k


def init_state(task: FewShotTask, mask: refine.ChannelMask, cfg: EngineConfig) -> TrainState:
    """Fresh state: zero residuals and cache scores from the frozen model.

    A forward pass of the fresh state reproduces the training-free logits
    bitwise.
    """
    refine._check_width(mask, task.d)
    s_ref, scores = _refined_cache(task, mask, cfg)
    return TrainState(
        res=np.zeros((task.c, mask.q)),
        scores=scores,
        m_res=np.zeros((task.c, mask.q)),
        v_res=np.zeros((task.c, mask.q)),
        m_scores=np.zeros_like(scores),
        v_scores=np.zeros_like(scores),
        step=0,
        mask_idx=np.asarray(mask.selected, dtype=np.int64).copy(),
        w=task.text_features.copy(),
        f_support_refined=s_ref,
        cfg=cfg,
    )


def _shifted(state: TrainState, res: np.ndarray, out: np.ndarray) -> np.ndarray:
    """w_shift into the C x D ``out``: the prototypes plus ``res``, zero-padded to full width."""
    out.fill(0.0)
    out[:, state.mask_idx] = res
    out += state.w
    return out


def forward(state: TrainState, f_batch) -> np.ndarray:
    """Logits of the residual-augmented classifier for a batch of full-width
    rows, under the state's own engine config.

    The residual shifts the text prototypes (padded to full width) and
    scales its class's sum of frozen cache affinities by the gain
    exp(beta * f_ref @ res.T), which equals shifting that class's cache
    keys by it without forming a C*K x Q key matrix.  Float32 rows are
    stored features: they are widened and normalized first, as
    ``FewShotTask`` reads them.
    """
    f_batch = numkit._unit64(numkit._as_features(f_batch, "f_batch"))
    if f_batch.shape[1] != state.d_total:
        raise ValueError(f"f_batch has {f_batch.shape[1]} columns, state expects {state.d_total}")
    cfg = state.cfg
    f_ref = refine._take_channels(f_batch, state.mask_idx, cfg.renormalize)
    zs = f_batch @ _shifted(state, state.res, np.empty_like(state.w)).T
    return _add_cache_term(zs, f_ref, state.f_support_refined, state.scores, cfg.alpha, cfg.beta, state.res)


def cross_entropy(logits, label_ids) -> float:
    """Mean softmax cross-entropy of logits against integer class ids.

    Raises:
        ValueError: unless ``label_ids`` holds one integral id in [0, C) per logits row.
    """
    z = numkit.as_matrix(logits, "logits")
    y = np.asarray(label_ids)
    if y.shape != (z.shape[0],) or not _are_class_ids(y, z.shape[1]):
        raise ValueError(f"label_ids must be {z.shape[0]} integral class ids in [0, {z.shape[1]})")
    return float(_ce_terms(z, y.astype(np.int64)).mean())


def _ce_terms(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row softmax cross-entropy of the logits ``z`` against int64 class ids ``y``."""
    z = z - z.max(axis=1, keepdims=True)
    return np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(y)), y]


def _grad_parts(state: TrainState, f_batch, f_ref, label_ids):
    """The batch logits and the analytic gradients of the mean cross-entropy
    w.r.t. the learnables, for full-width rows and their refined channels.

    Returns (logits, d_res, d_scores), the gradients shaped (C, Q) and
    (C*K,).  The residual gradient is the sum of the text-prototype path
    and the cache-gain path, which share the upstream softmax gradient.
    """
    y = np.asarray(label_ids, dtype=np.int64)
    b, c, k, cfg = f_batch.shape[0], state.c, state.k, state.cfg
    # The backward pass needs the whole B x C*K frozen-key affinity, so this
    # forward materializes it (and no second one); its operations are
    # forward's, bit for bit.
    aff = f_ref @ state.f_support_refined.T
    _sharpen(aff, cfg.beta, out=aff)
    gain = np.exp(cfg.beta * (f_ref @ state.res.T))
    cache = _scored_class_sums(aff, state.scores, np.empty((b, c))) * gain
    logits = f_batch @ _shifted(state, state.res, np.empty_like(state.w)).T + cfg.alpha * cache

    g = numkit._softmax(logits)
    g[np.arange(b), y] -= 1.0
    g /= b

    # Text path: residual columns live at the mask indices of W.
    d_res_text = g.T @ np.take(f_batch, state.mask_idx, axis=1)

    # Cache path: d cache[:, c] / d res_c = beta * cache[:, c] * f_ref; scores pass the gain.
    d_res_cache = (cfg.alpha * cfg.beta * g * cache).T @ f_ref
    d_scores = cfg.alpha * np.einsum("bc,bck->ck", g * gain, aff.reshape(b, c, k)).reshape(c * k)

    return logits, d_res_text + d_res_cache, d_scores


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
        if optim.weight_decay:
            p -= lr_t * optim.weight_decay * p
        m *= optim.beta1
        m += (1.0 - optim.beta1) * g
        v *= optim.beta2
        v += (1.0 - optim.beta2) * g * g
        p -= lr_t * (m / bc1) / (np.sqrt(v / bc2) + optim.eps)
    state.step = t
    return state


def _snapshot_accuracies(state: TrainState, snaps, f_batch, norms, f_ref, labels, terms=None) -> list[float]:
    """Accuracy of ``forward`` under each ``(res, scores)`` snapshot on the
    full-width task rows ``f_batch`` (with their ``norms``, widened one row
    block at a time), their refined channels and ``labels``; ``terms``, if
    given, receives snapshot 0's per-row cross-entropy terms.  Each cosine
    tile is computed and sharpened once for all snapshots; the scores
    product runs in class chunks (:func:`_scored_class_sums`), so no second
    tile and no logits matrix exist whole.  A row block split into several
    tiles keeps one row block of class sums per snapshot until its last tile.
    """
    cfg, c, k = state.cfg, state.c, state.k
    shifted, hits = np.empty_like(state.w), np.zeros(len(snaps), dtype=np.int64)
    for rows, cls, blk in _cosine_tiles(f_ref, state.f_support_refined, c):
        _sharpen(blk, cfg.beta, out=blk)
        if cls.start == 0:
            sums = np.empty((1 if cls.stop == c else len(snaps), len(blk), c))
        if cls.stop == c:
            f_rows = numkit._unit64(f_batch, norms, rows)
        for e, (res, scores) in enumerate(snaps):
            acc = sums[min(e, len(sums) - 1)]
            _scored_class_sums(blk, scores[k * cls.start : k * cls.stop], acc[:, cls])
            if cls.stop == c:
                acc *= np.exp(cfg.beta * (f_ref[rows] @ res.T))
                zs = f_rows @ _shifted(state, res, shifted).T
                zs += cfg.alpha * acc
                hits[e] += np.count_nonzero(zs.argmax(axis=1) == labels[rows])  # as accuracy()
                if e == 0 and terms is not None:
                    terms[rows] = _ce_terms(zs, labels[rows])
    return [float(h / len(labels)) for h in hits]


def train(
    task: FewShotTask,
    mask: refine.ChannelMask,
    cfg: EngineConfig,
    optim: OptimConfig,
) -> tuple[TrainState, list[dict]]:
    """Run the full training loop over the support set.

    Batches are sampled without replacement from a seeded shuffle each
    epoch (last short batch kept).  The history holds one row per epoch
    plus the pre-training row 0, each with the mean batch loss and
    support/test accuracy.  It is scored once, after the last step, from
    the residual and cache scores kept at each epoch: one pass over the
    cosine tiles of the support rows, then the test rows, computes each
    tile's frozen affinities once for all epochs.  Row 0's loss averages
    per-row terms taken block by block, so the C*K x C support logits never
    exist whole.  Every history value is bitwise that of ``forward``.
    """
    state = init_state(task, mask, cfg)

    n = task.c * task.k
    y_support = task.support_class_ids()
    steps_per_epoch = math.ceil(n / optim.batch_size)
    total_steps = optim.epochs * steps_per_epoch
    rng = np.random.default_rng(optim.seed)
    snaps, losses = [(state.res.copy(), state.scores.copy())], []

    for _ in range(optim.epochs):
        perm = rng.permutation(n)
        batch_losses = []
        for b in range(steps_per_epoch):
            idx = perm[b * optim.batch_size : (b + 1) * optim.batch_size]
            fb = numkit._unit64(task.support_features, task.support_norms, idx)
            fb_ref, yb = state.f_support_refined[idx], y_support[idx]
            logits, d_res, d_scores = _grad_parts(state, fb, fb_ref, yb)
            batch_losses.append(cross_entropy(logits, yb))
            lr_t = cosine_lr(state.step, total_steps, optim.lr)
            adamw_step(state, (d_res, d_scores), lr_t, optim)
        losses.append(float(np.mean(batch_losses)))
        snaps.append((state.res.copy(), state.scores.copy()))

    terms = np.empty(n)
    support_acc = _snapshot_accuracies(
        state, snaps, task.support_features, task.support_norms, state.f_support_refined, y_support, terms
    )
    test_acc = [None] * len(snaps)
    if task.test_labels is not None:
        test_ref = refine._take_channels(task.test_features, state.mask_idx, cfg.renormalize, task.test_norms)
        test_acc = _snapshot_accuracies(
            state, snaps, task.test_features, task.test_norms, test_ref, task.test_labels
        )
    rows = zip([float(terms.mean())] + losses, support_acc, test_acc)
    return state, [{"epoch": e, "loss": loss, "support_acc": s, "test_acc": t} for e, (loss, s, t) in enumerate(rows)]


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
    dataio._atomic_write(path, b"".join(parts))


def load_checkpoint(path, task: FewShotTask) -> TrainState:
    """Bind a checkpoint to a task sharing its class layout, under the engine
    config it stores (a v1 file stores none: it loads under ``EngineConfig()``
    with a ``UserWarning``).

    The frozen context is rebuilt from ``task`` and that config, so the task
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
    mask_idx = raw_idx.astype(np.int64)
    if blob.startswith(CKPT_MAGIC):
        block = take(_CFG_BLOCK.size)
        try:
            if block[-1] > 1:  # unpacking "?" reads any nonzero byte as True
                raise ValueError(f"renormalize must be 0 or 1, got {block[-1]}")
            cfg = EngineConfig(*_CFG_BLOCK.unpack(block))
        except ValueError as exc:
            raise ValueError(f"checkpoint holds a bad engine config: {path}: {exc}") from None
    else:
        warnings.warn(f"{path} is a v1 checkpoint with no engine config; loading it under the defaults")
        cfg = EngineConfig()

    def take_f64(shape) -> np.ndarray:
        count = int(np.prod(shape))
        return np.frombuffer(take(8 * count), dtype="<f8").astype(np.float64).reshape(shape)

    learned = {name: take_f64(c * k if name.endswith("scores") else (c, q)) for name in _LEARNED}
    (step,) = struct.unpack("<Q", take(8))
    if off != len(blob):
        raise ValueError(f"checkpoint has trailing bytes: {path}")
    if not all(np.isfinite(a).all() for a in learned.values()):
        raise ValueError(f"checkpoint holds non-finite values: {path}")
    if (learned["v_res"] < 0).any() or (learned["v_scores"] < 0).any():
        raise ValueError(f"checkpoint holds negative second moments: {path}")

    return TrainState(
        **learned,
        step=int(step),
        mask_idx=mask_idx,
        w=task.text_features.copy(),
        f_support_refined=refine._take_channels(
            task.support_features, mask_idx, cfg.renormalize, task.support_norms
        ),
        cfg=cfg,
    )

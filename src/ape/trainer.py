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

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import dataio, numkit, refine
from .engine import (
    EngineConfig,
    FewShotTask,
    _add_cache_term,
    _are_class_ids,
    _class_sums,
    _sharpen,
    accuracy,
    cache_affinity,  # unused; perfbench/test_perfbench.py rebinds it (ROADMAP item 3)
    cache_scores,
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
    "frozen_checksum",
    "save_checkpoint",
    "load_checkpoint",
]

CKPT_MAGIC = b"APE-CKPT v1\n"
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
    w_ref = refine.apply_mask(task.text_features, mask, cfg.renormalize)
    s_ref = refine.apply_mask(task.support_features, mask, cfg.renormalize)
    scores = cache_scores(s_ref, w_ref, cfg.gamma, cfg.kl_sign, cfg.kl_temperature)
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


def _shifted(state: TrainState) -> np.ndarray:
    """w_shift: the C x D prototypes plus their residual, zero-padded to full width."""
    padded = np.zeros((state.c, state.d_total))
    padded[:, state.mask_idx] = state.res
    return state.w + padded


def _logits(state: TrainState, f_batch, f_ref) -> np.ndarray:
    """Logits of full-width rows and their refined channels."""
    cfg = state.cfg
    zs = f_batch @ _shifted(state).T
    return _add_cache_term(zs, f_ref, state.f_support_refined, state.scores, cfg.alpha, cfg.beta, state.res)


def forward(state: TrainState, f_batch) -> np.ndarray:
    """Logits of the residual-augmented classifier for a batch of full-width
    rows, under the state's own engine config.

    The residual shifts the text prototypes (padded to full width) and
    scales its class's sum of frozen cache affinities by the gain
    exp(beta * f_ref @ res.T), which equals shifting that class's cache
    keys by it without forming a C*K x Q key matrix.
    """
    f_batch = numkit.as_matrix(f_batch, "f_batch")
    if f_batch.shape[1] != state.d_total:
        raise ValueError(f"f_batch has {f_batch.shape[1]} columns, state expects {state.d_total}")
    f_ref = refine._take_channels(f_batch, state.mask_idx, state.cfg.renormalize)
    return _logits(state, f_batch, f_ref)


def cross_entropy(logits, label_ids) -> float:
    """Mean softmax cross-entropy of logits against integer class ids.

    Raises:
        ValueError: unless ``label_ids`` holds one integral id in [0, C) per logits row.
    """
    z = numkit.as_matrix(logits, "logits")
    y = np.asarray(label_ids)
    if y.shape != (z.shape[0],) or not _are_class_ids(y, z.shape[1]):
        raise ValueError(f"label_ids must be {z.shape[0]} integral class ids in [0, {z.shape[1]})")
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    return float((log_norm - z[np.arange(len(y)), y.astype(np.int64)]).mean())


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
    # forward materializes it; its operations are forward's, bit for bit.
    aff = f_ref @ state.f_support_refined.T
    _sharpen(aff, cfg.beta, out=aff)
    gain = np.exp(cfg.beta * (f_ref @ state.res.T))
    cache = _class_sums(aff * state.scores, c) * gain
    logits = f_batch @ _shifted(state).T + cfg.alpha * cache

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


def frozen_checksum(state: TrainState) -> str:
    """Digest over every frozen tensor; must not change across training."""
    h = hashlib.sha256()
    for arr in (state.mask_idx, state.w, state.f_support_refined):
        h.update(arr.tobytes())
    h.update(struct.pack("<QQQQ", state.c, state.k, state.q, state.d_total))
    return h.hexdigest()


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
    support/test accuracy.  Support and test rows are refined once per call.
    """
    state = init_state(task, mask, cfg)

    n = task.c * task.k
    y_support = task.support_class_ids()
    steps_per_epoch = math.ceil(n / optim.batch_size)
    total_steps = optim.epochs * steps_per_epoch
    rng = np.random.default_rng(optim.seed)
    if task.test_labels is not None:
        test_ref = refine._take_channels(task.test_features, state.mask_idx, cfg.renormalize)

    def eval_row(epoch: int, loss: float | None = None) -> dict:
        """History row; ``loss`` None takes it from the support logits."""
        support_logits = _logits(state, task.support_features, state.f_support_refined)
        loss = cross_entropy(support_logits, y_support) if loss is None else loss
        support_acc = accuracy(support_logits, y_support)
        test_acc = None if task.test_labels is None else accuracy(
            _logits(state, task.test_features, test_ref), task.test_labels
        )
        return {"epoch": epoch, "loss": loss, "support_acc": support_acc, "test_acc": test_acc}

    history = [eval_row(0)]

    for epoch in range(optim.epochs):
        perm = rng.permutation(n)
        losses = []
        for b in range(steps_per_epoch):
            idx = perm[b * optim.batch_size : (b + 1) * optim.batch_size]
            fb, fb_ref, yb = task.support_features[idx], state.f_support_refined[idx], y_support[idx]
            logits, d_res, d_scores = _grad_parts(state, fb, fb_ref, yb)
            losses.append(cross_entropy(logits, yb))
            lr_t = cosine_lr(state.step, total_steps, optim.lr)
            adamw_step(state, (d_res, d_scores), lr_t, optim)
        history.append(eval_row(epoch + 1, float(np.mean(losses))))

    return state, history


def save_checkpoint(path, state: TrainState) -> None:
    """Serialize the learnable tensors and optimizer state.

    Layout after the magic line: u64 C, K, Q; Q u64 mask indices; then
    float64 little-endian row-major res, scores, m_res, v_res, m_scores,
    v_scores; then u64 step.
    """
    parts = [CKPT_MAGIC, struct.pack("<QQQ", state.c, state.k, state.q)]
    parts.append(state.mask_idx.astype("<u8").tobytes())
    for name in _LEARNED:
        parts.append(np.ascontiguousarray(getattr(state, name)).astype("<f8").tobytes())
    parts.append(struct.pack("<Q", state.step))
    dataio._atomic_write(path, b"".join(parts))


def load_checkpoint(path, task: FewShotTask, cfg: EngineConfig) -> TrainState:
    """Bind a checkpoint to a task sharing its class layout, under ``cfg``.

    The frozen context is rebuilt from ``task`` and ``cfg`` (the checkpoint
    stores only the learnables), so the task must match the checkpoint's
    class count and shot count, and every mask index must fit its width.

    Raises:
        ValueError: on class/shot/width mismatch or a malformed file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CKPT_MAGIC):
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
        f_support_refined=refine._take_channels(task.support_features, mask_idx, cfg.renormalize),
        cfg=cfg,
    )

"""Few-shot classification over precomputed vision-language embeddings.

The pipeline: score and select the most discriminative feature channels
from class text prototypes (:mod:`ape.refine`), classify with a
training-free combination of zero-shot logits and a score-weighted
support cache (:mod:`ape.engine`), and optionally train per-class
residuals plus cache scores with analytic gradients and AdamW
(:mod:`ape.trainer`).  Matrices move through a small binary format and
plain-text task manifests (:mod:`ape.dataio`); :mod:`ape.cli` ties it all
together.
"""

from .engine import (
    EngineConfig,
    FewShotTask,
    accuracy,
    ape_logits,
    cache_affinity,
    predict,
    zero_shot_logits,
)
from .numkit import ZeroRowWarning
from .refine import (
    ChannelMask,
    full_mask,
    inter_class_similarity,
    inter_class_variance,
    load_mask,
    save_mask,
    select_channels,
)
from .trainer import (
    OptimConfig,
    TrainState,
    adamw_step,
    cosine_lr,
    forward,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .dataio import gen_synthetic, load_task, read_matrix, save_task, write_matrix

__version__ = "0.1.0"

__all__ = [
    "EngineConfig",
    "FewShotTask",
    "ChannelMask",
    "OptimConfig",
    "TrainState",
    "ZeroRowWarning",
    "accuracy",
    "adamw_step",
    "ape_logits",
    "cache_affinity",
    "cosine_lr",
    "forward",
    "full_mask",
    "gen_synthetic",
    "init_state",
    "inter_class_similarity",
    "inter_class_variance",
    "load_checkpoint",
    "load_mask",
    "load_task",
    "predict",
    "read_matrix",
    "save_checkpoint",
    "save_mask",
    "save_task",
    "select_channels",
    "train",
    "write_matrix",
    "zero_shot_logits",
]

"""Shared constructors and oracles for randomized test instances."""

import hashlib
import math
import struct
from dataclasses import astuple, replace
from unittest import mock

import numpy as np

from ape import FewShotTask, accuracy, ape_logits, dataio, engine, numkit, refine, trainer
from ape.numkit import PROB_FLOOR


def l2_normalize_rows(m):
    """A checked float64 copy of ``m`` with every row scaled to unit
    Euclidean norm by ``numkit._normalize_rows_inplace``: zero rows and rows
    already unit within 1e-12 pass through unchanged."""
    return numkit._normalize_rows_inplace(numkit.as_matrix(m, "m").copy())


def unit_rows(rng, n, d):
    return l2_normalize_rows(rng.standard_normal((n, d)))


def block_budget(cols, rows):
    """Patch the row-block budget to ``rows`` rows of ``cols`` float64."""
    return mock.patch.object(numkit, "_BLOCK_BYTES", 8 * cols * rows)


def softmax(m, temperature=1.0):
    """Row-wise softmax of ``m / temperature``, stable: the row maximum is subtracted first."""
    z = m / temperature
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


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
    )


def stored_task(rng, c=3, k=2, d=8, n_test=5):
    """:func:`random_task` with float32 text, support and test rows, as a loaded task holds them."""
    task = random_task(rng, c=c, k=k, d=d, n_test=n_test)
    return FewShotTask(
        task.text_features.astype(np.float32),
        task.support_features.astype(np.float32),
        task.test_features.astype(np.float32),
        task.test_labels,
    )


def widened(m):
    """Reference widening of stored rows: the whole matrix to float64,
    re-normalized by ``numkit._normalize_rows_inplace``."""
    return numkit._normalize_rows_inplace(np.asarray(m, dtype=np.float64))


def load_task_float64(manifest_path):
    """Reference loader: every feature file read through ``read_matrix``
    (widened to float64) and re-normalized by ``numkit._normalize_rows_inplace``,
    the rule by which ``load_task`` held tasks before it kept support and test
    rows float32."""
    man = dataio.read_manifest(manifest_path)
    roles = ("text_features", "support_features", "test_features")
    rows = {role: numkit._normalize_rows_inplace(dataio.read_matrix(man[role])) for role in roles}
    labels = dataio.read_matrix(man["test_labels"])[:, 0] if "test_labels" in man else None
    return FewShotTask(**rows, test_labels=labels)


def apply_mask(m, mask, renormalize=True):
    """The rows ``m`` (checked float64) on the mask's channels, optionally
    re-normalized: the channel take the engine runs, for the tests' references."""
    m = numkit.as_matrix(m, "m")
    refine._check_width(mask, m.shape[1])
    return refine._take_channels(m, mask.selected, renormalize)[0]


def param_count(c, q, k):
    """Learnable scalars of a state of C classes, Q channels and K shots:
    C*Q residuals plus C*K cache scores."""
    return c * q + c * k


def tip_config(alpha, beta):
    """The engine config under which ``_ape_core`` is the Tip-Adapter baseline."""
    return engine.EngineConfig(alpha, beta, gamma=0.0, renormalize=False)


def tip_logits(task, alpha, beta):
    """The Tip-Adapter baseline as ``ape infer`` computes it: ``engine._ape_core``
    on the task's zero-shot logits, with every channel kept, gamma = 0 and no
    renormalization."""
    zs = engine.zero_shot_logits(task.test_features, task.text_features, task.test_norms)
    return engine._ape_core(zs, task, np.arange(task.d), tip_config(alpha, beta))


def tip_reference(task, alpha, beta):
    """Reference Tip-Adapter logits (Zhang et al., ECCV 2022) by the one-hot
    formula zs + alpha * exp(-beta * (1 - f @ F.T)) @ L over the widened
    full-width test rows f and support rows F, L the C*K x C one-hot labels."""
    f, s, w = widened(task.test_features), widened(task.support_features), numkit._unit64(task.text_features)
    return f @ w.T + alpha * np.exp(-beta * (1.0 - f @ s.T)) @ one_hot_labels(task.c, task.k)


def cross_entropy(logits, label_ids) -> float:
    """Reference mean softmax cross-entropy of logits against integer class
    ids, the mean of ``trainer._ce_terms``: the loss that the steps and the
    history of ``trainer.train`` report, bitwise.

    Raises:
        ValueError: unless ``label_ids`` holds one integral id in [0, C) per logits row.
    """
    z = numkit.as_matrix(logits, "logits")
    y = np.asarray(label_ids)
    if y.shape != (z.shape[0],) or not engine._are_class_ids(y, z.shape[1]):
        raise ValueError(f"label_ids must be {z.shape[0]} integral class ids in [0, {z.shape[1]})")
    return float(trainer._ce_terms(z, y.astype(np.int64))[0].mean())


def grads(state, f_batch, label_ids):
    """(d_res, d_scores) of ``trainer._grad_parts`` on a float64 batch of
    full-width rows, refined (channels and r) as ``trainer.forward`` refines
    it, with its zero-shot logits f @ w.T and its own affinities."""
    f_ref, scale = refine._take_channels(f_batch, state.mask_idx, state.cfg.renormalize)
    _, _, d_res, d_scores = trainer._grad_parts(state, f_batch @ state.w.T, f_ref, scale, label_ids)
    return d_res, d_scores


def adamw_reference(params, grad_list, moments, step, lr_t, optim):
    """Reference AdamW update of each array in ``params`` in place, with its
    gradient in ``grad_list`` and its (m, v) in ``moments``, by the plain
    expressions that ``trainer.adamw_step`` must match bitwise; ``step`` is
    the count after the update."""
    bc1 = 1.0 - optim.beta1 ** step
    bc2 = 1.0 - optim.beta2 ** step
    for p, g, (m, v) in zip(params, grad_list, moments):
        if optim.weight_decay:
            p -= lr_t * optim.weight_decay * p
        m *= optim.beta1
        m += (1.0 - optim.beta1) * g
        v *= optim.beta2
        v += (1.0 - optim.beta2) * g * g
        p -= lr_t * (m / bc1) / (np.sqrt(v / bc2) + optim.eps)


def holds_support(n):
    """Whether ``trainer.train`` holds the C*K x C*K support affinity of ``n`` support rows."""
    return 8 * n * n <= trainer._HELD_BLOCKS * numkit._BLOCK_BYTES


def support_affinity(state):
    """Reference held affinity: ``engine.cache_affinity`` of each tile of the
    support rows' plan, as ``forward`` tiles the support split, placed into
    one C*K x C*K matrix."""
    s, k = state.f_support_refined, state.k
    blocks, runs = engine._tile_plan(len(s), state.c, k)
    aff = np.empty((len(s), len(s)))
    for rows in blocks:
        for cls in runs:
            keys = slice(k * cls.start, k * cls.stop)
            aff[rows, keys] = engine.cache_affinity(s[rows], s[keys], state.cfg.beta)
    return aff


def kept_scale(f, mask_idx, renormalize):
    """Reference r of float64 rows ``f``: the norm of each row's kept
    channels, or 1 where re-normalization leaves the row undivided (inside
    the unit band, or without re-normalization); 0 for a zero row."""
    kept = f[:, mask_idx]
    norms = np.sqrt((kept * kept).sum(axis=1))
    return np.where(renormalize & (np.abs(norms - 1.0) > numkit._UNIT_BAND), norms, 1.0)


def shifted_forward_reference(f, w, f_ref, s_ref, state):
    """Whole-matrix reference of ``trainer.forward`` on float64 rows ``f``
    refined to ``f_ref``: the zero-shot logits plus the text shift r * p,
    then the cache term with its gain, p = f_ref @ res.T taken as one matrix."""
    cfg = state.cfg
    zs = f @ w.T + kept_scale(f, state.mask_idx, cfg.renormalize)[:, None] * (f_ref @ state.res.T)
    return cache_term_unblocked(zs, f_ref, s_ref, state.scores, cfg.alpha, cfg.beta, state.c, state.k, state.res)


def forward_reference(state, f_batch, norms=None):
    """Reference residual logits by one pass over the tiles of
    ``engine._tile_plan`` of all the state's refined support rows: a row
    block's first tile forms p = f_ref @ res.T at full width, adds the text
    shift r * p and keeps the gain exp(beta * p) for the block's class sums.
    ``trainer.forward`` and ``ape eval`` walk finer class runs and must give
    these logits bit for bit."""
    cfg, c, k = state.cfg, state.c, state.k
    if norms is None and f_batch.dtype == np.float32:
        norms = numkit._row_norms(f_batch)
    f_ref, scale = refine._take_channels(f_batch, state.mask_idx, cfg.renormalize, norms)
    zs = engine.zero_shot_logits(f_batch, state.w, norms)
    cols, buf = engine._score_cols(state.scores[None], c), None
    for rows, cls, q, blk in engine._cosine_tiles(f_ref, state.f_support_refined, c):
        if buf is None:
            buf = np.empty(blk.size // k)
        if cls.start == 0:
            p = q @ state.res.T
            zs[rows] += scale[rows, None] * p
            gain = np.exp(cfg.beta * p)
        engine._sharpen(blk, cfg.beta, out=blk)
        sums = engine._class_sums(blk, cols[cls], 1, buf[: blk.size // k].reshape(1, len(blk), -1))[0]
        sums *= gain[:, cls]
        zs[rows, cls] += cfg.alpha * sums
    return zs


def eval_logits(task, state):
    """The logits ``ape eval`` takes for a checkpoint of ``state`` on
    ``task``: ``engine._ape_core`` on the task's test rows with the state's
    mask, config and learnables, and no state of its own."""
    zs = engine.zero_shot_logits(task.test_features, task.text_features, task.test_norms, task.text_norms)
    return engine._ape_core(zs, task, state.mask_idx, state.cfg, (state.res, state.scores))


def check_labels_reference(labels, c, k):
    """Reference label check: the class-major one-hot test on the label
    file widened to float64, as ``load_task`` ran it before it checked the
    float32 payload."""
    dataio._check_shape("support_labels", labels.shape, c * k, c)
    if not np.isin(labels, (0.0, 1.0)).all() or not (labels.sum(axis=1) == 1.0).all():
        raise dataio.NonOneHotError("support_labels: rows must contain exactly one 1")
    if not np.array_equal(labels.argmax(axis=1), np.repeat(np.arange(c), k)):
        raise dataio.NonOneHotError(
            "support_labels: rows must be grouped class-major (row c*K+j hot at column c)"
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


def several_runs_instance():
    """``gen_synthetic(300, 16, 512, 3, 0.6, seed=0)`` and its lambda 0.7,
    Q=256 mask: ``ape_logits`` takes the keys of its 900 test rows, and the
    holdout search those of its 300 held-out shots, in several class runs,
    each scored in softmax blocks of its own."""
    task = dataio.gen_synthetic(300, 16, 512, 3, 0.6, seed=0)
    w = numkit._unit64(task.text_features, task.text_norms)
    sim, var = refine.inter_class_similarity(w), refine.inter_class_variance(w)
    return task, refine.select_channels(sim, var, 0.7, 256)


def holdout_split_loop(task):
    """Reference holdout: the last shot of every class becomes the test
    split, with the row indices built one by one.  Returns the kept
    support rows, the held-out rows and their class ids."""
    keep = np.array([c * task.k + j for c in range(task.c) for j in range(task.k - 1)])
    held = np.array([c * task.k + (task.k - 1) for c in range(task.c)])
    return task.support_features[keep], task.support_features[held], np.arange(task.c)


def brute_force_grid(task, mask, base_cfg, alphas, betas, gammas=None, val_task=None):
    """Reference grid search: one full ``ape_logits`` pipeline per
    candidate, scanned alpha-major; the strict ``>`` keeps the first of
    tied candidates."""
    alphas = np.sort(np.asarray(alphas, dtype=np.float64))
    betas = np.sort(np.asarray(betas, dtype=np.float64))
    gammas = np.sort(np.asarray(gammas, dtype=np.float64)) if gammas is not None else np.array([base_cfg.gamma])
    if val_task is not None:
        support, test, labels = task.support_features, val_task.test_features, val_task.test_labels
    else:
        support, test, labels = holdout_split_loop(task)
    probe = FewShotTask(
        text_features=task.text_features,
        support_features=support,
        test_features=test,
        test_labels=labels,
    )

    best_cfg, best_acc = None, -1.0
    for alpha in alphas:
        for beta in betas:
            for gamma in gammas:
                cfg = replace(base_cfg, alpha=float(alpha), beta=float(beta), gamma=float(gamma))
                acc = accuracy(ape_logits(probe, mask, cfg), probe.test_labels)
                if acc > best_acc:
                    best_cfg, best_acc = cfg, acc
    return best_cfg, best_acc


def cache_term_unblocked(zs, f_ref, keys, scores, alpha, beta, c, k, res=None):
    """Reference logits: zs plus the cache term over the whole N x C*K
    affinity matrix at once.  Each class sum is its K affinities times its
    K scores, one GEMM per class over a score column zero-padded to 8
    columns: the summation order of the engine's class-sum kernel, here
    taken over all rows and classes in one call.  A C x Q class residual
    ``res`` multiplies each class sum by the gain exp(beta * f_ref @ res.T),
    as a whole N x C matrix."""
    aff = np.exp(-beta * (1.0 - f_ref @ keys.T))
    cols = np.zeros((c, k, 8))
    cols[:, :, 0] = np.broadcast_to(scores, (c * k,)).reshape(c, k)
    sums = np.matmul(aff.reshape(len(f_ref), c, k).transpose(1, 0, 2), cols)[:, :, 0].T
    if res is not None:
        sums = sums * np.exp(beta * (f_ref @ res.T))
    return zs + alpha * sums


def shifted_keys_logits(state, f_batch):
    """Reference logits of a trained state by the shifted-keys formula:
    the padded residual added to the prototypes, and every cached support
    row of class c moved by res_c (``s_ref + repeat_K(res)``)."""
    cfg = state.cfg
    padded = np.zeros_like(state.w)
    padded[:, state.mask_idx] = state.res
    f_ref = refine._take_channels(f_batch, state.mask_idx, cfg.renormalize)[0]
    keys = state.f_support_refined + np.repeat(state.res, state.k, axis=0)
    zs = f_batch @ (state.w + padded).T
    return cache_term_unblocked(zs, f_ref, keys, state.scores, cfg.alpha, cfg.beta, state.c, state.k)


def cache_scores_unblocked(s_ref, w_ref, gamma, kl_sign=1, kl_temperature=1.0):
    """Reference cache scores: one softmax over all C*K support rows."""
    n = s_ref.shape[0]
    k = n // w_ref.shape[0]
    probs = softmax(s_ref @ w_ref.T, kl_temperature)
    p_true = np.clip(probs[np.arange(n), np.arange(n) // k], PROB_FLOOR, 1.0)
    return np.exp(kl_sign * gamma * -np.log(p_true))


def frozen_checksum(state):
    """Digest over the frozen context, the engine config included; it must
    not change across training."""
    h = hashlib.sha256()
    for arr in (state.mask_idx, state.text_features, state.text_norms, state.w, state.support_features,
                state.support_norms, state.f_support_refined, state.support_scale):
        h.update(arr.tobytes())
    h.update(struct.pack("<QQQQ", state.c, state.k, state.q, state.w.shape[1]))
    h.update(repr(astuple(state.cfg)).encode())
    return h.hexdigest()


def train_reference(task, mask, cfg, optim):
    """Reference training loop: every history row runs ``forward`` on the
    whole support and test splits.  Where ``train`` holds the support
    affinity (:func:`holds_support`), a step takes its batch's rows of
    :func:`support_affinity` and of the whole support split's zero-shot
    logits, and its loss from the step's logits; otherwise it refines its
    own batch through ``forward`` and :func:`grads`."""
    state = trainer.init_state(task, mask, cfg)
    n = task.c * task.k
    y_support = task.support_class_ids()
    steps_per_epoch = math.ceil(n / optim.batch_size)
    total_steps = optim.epochs * steps_per_epoch
    rng = np.random.default_rng(optim.seed)
    held = holds_support(n)
    if held:
        aff = support_affinity(state)
        zs = engine.zero_shot_logits(task.support_features, task.text_features, task.support_norms)

    def eval_row(epoch, loss=None):
        support_logits = trainer.forward(state, task.support_features)
        if loss is None:
            loss = cross_entropy(support_logits, y_support)
        test_acc = None
        if task.test_labels is not None:
            test_acc = accuracy(trainer.forward(state, task.test_features), task.test_labels)
        return {"epoch": epoch, "loss": loss,
                "support_acc": accuracy(support_logits, y_support), "test_acc": test_acc}

    history = [eval_row(0)]
    history[0]["zero_shot_acc"] = None
    if task.test_labels is not None:
        zero_shot = engine.zero_shot_logits(task.test_features, task.text_features, task.test_norms)
        history[0]["zero_shot_acc"] = accuracy(zero_shot, task.test_labels)
    for epoch in range(optim.epochs):
        perm = rng.permutation(n)
        losses = []
        for b in range(steps_per_epoch):
            idx = perm[b * optim.batch_size : (b + 1) * optim.batch_size]
            fb, yb = task.support_features[idx], y_support[idx]
            if held:
                s_ref, scale = state.f_support_refined[idx], state.support_scale[idx]
                logits, _, *step_grads = trainer._grad_parts(state, zs[idx], s_ref, scale, yb, aff, idx)
                losses.append(cross_entropy(logits, yb))
            else:
                losses.append(cross_entropy(trainer.forward(state, fb), yb))
                step_grads = grads(state, fb, yb)
            trainer.adamw_step(state, step_grads, trainer.cosine_lr(state.step, total_steps, optim.lr), optim)
        history.append(eval_row(epoch + 1, float(np.mean(losses))))
    return state, history

"""Command-line surface: refine, infer, train, search, synth, eval.

Every command is deterministic given ``--seed`` (falling back to the
APE_SEED environment variable, then 0) and writes reports that echo the
full effective configuration.  Exit codes: 0 success, 1 runtime error,
2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dataio, numkit, refine, trainer
from .engine import (
    EngineConfig,
    FewShotTask,
    _ape_core,
    _checked_norms,
    _grid_run,
    _support_runs,
    accuracy,
    ape_logits,
    zero_shot_logits,
)

__all__ = ["EvalReport", "MethodResult", "grid_search", "main", "main_entry"]

REPORT_HEADER = "APE-REPORT v1"


class UsageError(Exception):
    """Semantic misuse of a command; maps to exit code 2."""


@dataclass
class MethodResult:
    name: str
    params: int
    accuracy: float | None  # fraction in [0, 1], None when no labels


@dataclass
class EvalReport:
    """Per-method accuracy and parameter counts, the run's config echo and its warning counts."""

    methods: list[MethodResult]
    config: dict
    wall_time_s: float
    history: list[dict] | None = None
    warned: dict | None = None

    def render(self) -> str:
        lines = [REPORT_HEADER, ""]
        lines.append(f"{'method':<14} {'params':>10} {'accuracy%':>10}")
        for m in self.methods:
            acc = f"{100.0 * m.accuracy:10.2f}" if m.accuracy is not None else f"{'-':>10}"
            lines.append(f"{m.name:<14} {m.params:>10} {acc}")
        if self.history:
            lines.append("")
            lines.append(f"{'epoch':>5} {'loss':>12} {'support%':>9} {'test%':>9}")
            for row in self.history:
                test = f"{100.0 * row['test_acc']:9.2f}" if row["test_acc"] is not None else f"{'-':>9}"
                lines.append(
                    f"{row['epoch']:>5} {row['loss']:>12.6f} {100.0 * row['support_acc']:>9.2f} {test}"
                )
        lines.append("")
        for m in self.methods:
            if m.accuracy is not None:
                lines.append(f"accuracy.{m.name} = {100.0 * m.accuracy!r}")
            lines.append(f"params.{m.name} = {m.params}")
        for key in sorted(self.config):
            lines.append(f"config.{key} = {self.config[key]}")
        for key in sorted(self.warned or {}):
            lines.append(f"warnings.{key} = {self.warned[key]}")
        lines.append(f"wall_time_s = {self.wall_time_s:.3f}")
        return "\n".join(lines) + "\n"

    def publish(self, path) -> None:
        """Write the report to ``path`` and print it."""
        text = self.render()
        Path(path).write_text(text, encoding="utf-8")
        print(text, end="")


def _default_seed() -> int:
    raw = os.environ.get("APE_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"APE_SEED must be an integer, got {raw!r}") from None


def _validated(build, *args, **kwargs):
    """``build(*args, **kwargs)`` with a ValueError turned into a UsageError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _task_and_mask(args, split=None, holdout=False) -> tuple[FewShotTask, refine.ChannelMask, float]:
    """``--task``, ``--mask`` and its lambda; a mask of another width is a UsageError.

    Given another manifest ``split``, the task is ``--task``'s cache (text
    and support rows) with ``split``'s test rows and labels: neither the
    cache's test files nor the split's text, support and label files are
    read.  A split of another class count or width is a UsageError.  A
    ``holdout`` task's test rows are the last support shot of each class,
    which :func:`grid_search` holds out, and no test file is read.
    """
    if split is None and not holdout:
        task = dataio.load_task(args.task)
    else:
        man = dataio.read_manifest(args.task)
        split_man = None if split is None else dataio.read_manifest(split)
        cache = dataio._read_cache(man)
        test = (cache[1][man["k"] - 1 :: man["k"]], None) if holdout else dataio._read_split(split_man)
        if split_man and (split_man["c"], split_man["d"]) != (man["c"], man["d"]):
            raise UsageError("--val-task must share the task's class count and feature width")
        task = FewShotTask(*cache, *test)
    mask, lam = refine.load_mask(args.mask)
    if mask.d_total != task.d:
        raise UsageError(f"mask covers {mask.d_total} channels, task has {task.d}")
    return task, mask, lam


def _config(cls, args):
    """The ``cls`` config of the field flags given; the rest keep their dataclass defaults."""
    fields = (f.name for f in dataclasses.fields(cls))
    return _validated(cls, **{name: getattr(args, name) for name in fields if hasattr(args, name)})


def _config_echo(*configs, lam: float | None, **extra) -> dict:
    """The report's config lines: every field of the ``configs`` and the
    ``extra`` values; ``lam`` None (unknown) echoes no lambda."""
    echo = dict(extra)
    for cfg in configs:
        echo.update(dataclasses.asdict(cfg))
    if lam is not None:
        echo["lambda"] = lam
    return echo


def parse_grid(spec: str) -> np.ndarray:
    """Parse ``a0:a1:steps`` into a linspace; a bare number is a 1-point grid.

    Raises:
        UsageError: naming ``spec`` if it is malformed, has a non-finite
            end or no steps.
    """
    parts = spec.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError(spec)
        ends = np.array([float(p) for p in parts[:2]])
        steps = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise UsageError(f"grid must look like a0:a1:steps, got {spec!r}") from None
    if not np.isfinite(ends).all():
        raise UsageError(f"grid {spec!r} has a non-finite end")
    if steps < 1:
        raise UsageError(f"grid {spec!r} is empty")
    return ends if len(parts) == 1 else np.linspace(ends[0], ends[1], steps)


def grid_search(
    task: FewShotTask,
    mask: refine.ChannelMask,
    base_cfg: EngineConfig,
    alphas,
    betas,
    gammas=None,
    val_task: FewShotTask | None = None,
) -> tuple[EngineConfig, float]:
    """Exhaustive grid over alpha/beta (and optionally gamma).

    Candidates are scored on the validation split: ``val_task``'s test set
    when given, otherwise one held-out shot per class.  Ties break toward
    the smaller alpha, then beta, then gamma.

    The cache is frozen across candidates, so the search takes the split's
    zero-shot logits once and walks the class runs of
    ``engine._support_runs`` as ``ape_logits`` does (the holdout's cache is
    the first K - 1 shots of each class): a run's keys serve one softmax for
    the scores of every gamma and the tiles over which ``engine._grid_run``
    carries each candidate's top logit and argmax.  Each run refines the
    split one tile row block at a time and drops a block before it refines
    the next.  So it holds the N x C logits, those two per candidate and
    row, one run's keys and scores, one row block of refined rows and one
    tile with its weights: never the N x Q refined rows.  Every candidate's
    predictions equal ``ape_logits``'s bitwise, and its accuracy is the
    float ``accuracy`` returns.

    Raises:
        UsageError: if any grid is empty or holds a value the engine
            config rejects.
        ValueError: if the mask does not cover the task's D channels.
    """
    alphas = np.sort(np.asarray(alphas, dtype=np.float64))
    betas = np.sort(np.asarray(betas, dtype=np.float64))
    gammas = np.sort(np.asarray(gammas, dtype=np.float64)) if gammas is not None else np.array([base_cfg.gamma])
    if alphas.size == 0 or betas.size == 0 or gammas.size == 0:
        raise UsageError("grid must contain at least one point")
    for name, grid in (("alpha", alphas), ("beta", betas), ("gamma", gammas)):
        for value in grid:
            _validated(replace, base_cfg, **{name: float(value)})
    if val_task is not None:
        if val_task.test_labels is None:
            raise UsageError("--val-task manifest must provide test_labels")
        if val_task.c != task.c or val_task.d != task.d:
            raise UsageError("--val-task must share the task's class count and feature width")
        test, t_norms, labels, shots = val_task.test_features, val_task.test_norms, val_task.test_labels, task.k
    elif task.k < 2:
        raise UsageError("validation holdout needs K >= 2 (or pass --val-task)")
    else:
        held, labels, shots = slice(task.k - 1, None, task.k), np.arange(task.c), task.k - 1
        test, t_norms = task.support_features[held], task.support_norms[held]

    refine._check_width(mask, task.d)
    zs = zero_shot_logits(test, task.text_features, t_norms, task.text_norms)

    def f_ref(rows):  # one row block's refined channels, when its tile needs them
        return refine._take_channels(test[rows], mask.selected, base_cfg.renormalize, t_norms[rows])[0]

    top = np.full((alphas.size, betas.size, gammas.size, len(labels)), -np.inf)
    pred = np.zeros(top.shape, dtype=np.int64)
    for cls, plan, keys, score_sets in _support_runs(task, len(labels), mask.selected, base_cfg, gammas, shots):
        _grid_run(top, pred, zs[:, cls], f_ref, keys, score_sets, alphas, betas, plan, cls.start)
        del keys, score_sets  # freed before the next run's keys are taken
    hits = np.count_nonzero(pred == labels, axis=-1)
    # The first maximum in C order is the smallest alpha, then beta, then gamma.
    a, b, g = np.unravel_index(np.argmax(hits), hits.shape)
    best = replace(base_cfg, alpha=float(alphas[a]), beta=float(betas[b]), gamma=float(gammas[g]))
    return best, int(hits[a, b, g]) / labels.shape[0]


def cmd_refine(args) -> int:
    if not 0.0 <= args.lam <= 1.0:
        raise UsageError(f"lambda must lie in [0, 1], got {args.lam}")
    text = dataio._read_text(dataio.read_manifest(args.task))  # the only rows refinement reads
    w = numkit._unit64(text, _checked_norms("text_features", text))
    d = w.shape[1]
    if not 1 <= args.q <= d:
        raise UsageError(f"--q must lie in [1, {d}], got {args.q}")
    sim = refine.inter_class_similarity(w)
    var = refine.inter_class_variance(w)
    mask = refine.select_channels(sim, var, args.lam, args.q)
    refine.save_mask(args.out, mask, args.lam)
    order = np.argsort(mask.scores, kind="stable")
    print(f"selected {mask.q}/{d} channels (lambda={args.lam}) -> {args.out}")
    print("lowest-score channels (kept first):")
    for i in order[:10]:
        print(f"  {i:>5}  {mask.scores[i]: .6e}")
    print("highest-score channels (dropped first):")
    for i in order[::-1][:10]:
        print(f"  {i:>5}  {mask.scores[i]: .6e}")
    return 0


def cmd_infer(args) -> int:
    started = time.perf_counter()
    task, mask, mask_lam = _task_and_mask(args)
    cfg = _config(EngineConfig, args)
    labels = task.test_labels
    acc = dict.fromkeys(("zero_shot", "tip_adapter", "ape"))
    if labels is None:
        # Only the APE logits are written, so the baselines are not computed.
        logits_path = f"{args.report}.logits.apef"
        dataio.write_matrix(logits_path, ape_logits(task, mask, cfg))
        print(f"task has no test labels; wrote logits to {logits_path}")
    else:
        # Both baselines are scored before the APE cache term goes into zs.
        zs = zero_shot_logits(task.test_features, task.text_features, task.test_norms, task.text_norms)
        acc["zero_shot"] = accuracy(zs, labels)
        tip = EngineConfig(cfg.alpha, cfg.beta, gamma=0.0, renormalize=False)
        acc["tip_adapter"] = accuracy(_ape_core(zs.copy(), task, np.arange(task.d), tip), labels)
        acc["ape"] = accuracy(_ape_core(zs, task, mask.selected, cfg), labels)
    EvalReport(
        methods=[MethodResult(name, 0, value) for name, value in acc.items()],
        config=_config_echo(cfg, lam=mask_lam, q=mask.q, seed=args.seed, task=args.task, mask=args.mask),
        wall_time_s=time.perf_counter() - started,
    ).publish(args.report)
    return 0


def cmd_train(args) -> int:
    started = time.perf_counter()
    task, mask, mask_lam = _task_and_mask(args)
    cfg, optim = _config(EngineConfig, args), _config(trainer.OptimConfig, args)
    state, history = trainer.train(task, mask, cfg, optim)
    trainer.save_checkpoint(args.out, state)

    methods = []
    if task.test_labels is not None:
        # A fresh state reproduces the training-free logits bitwise, so the
        # history's first and last rows are the ape and ape_t accuracies.
        methods = [
            MethodResult("zero_shot", 0, history[0]["zero_shot_acc"]),
            MethodResult("ape", 0, history[0]["test_acc"]),
            MethodResult("ape_t", state.param_count(), history[-1]["test_acc"]),
        ]
    EvalReport(
        methods=methods,
        config=_config_echo(cfg, optim, lam=mask_lam, q=mask.q, task=args.task, mask=args.mask),
        wall_time_s=time.perf_counter() - started,
        history=history,
    ).publish(args.report)
    print(f"checkpoint -> {args.out}")
    return 0


def cmd_search(args) -> int:
    alphas, betas = parse_grid(args.alpha_grid), parse_grid(args.beta_grid)
    gammas = parse_grid(args.gamma_grid) if args.gamma_grid else None
    task, mask, mask_lam = _task_and_mask(args, args.val_task, holdout=not args.val_task)
    val_task = task if args.val_task else None  # its test split is the --val-task's
    best, best_acc = grid_search(task, mask, _config(EngineConfig, args), alphas, betas, gammas, val_task)
    found = {"alpha": best.alpha, "beta": best.beta, "gamma": best.gamma,
             "val_accuracy": 100.0 * best_acc}
    lines = [f"best.{key} = {value!r}" for key, value in found.items()]
    print("\n".join(lines))
    if args.report:
        echo = _config_echo(best, lam=mask_lam, q=mask.q, seed=args.seed, task=args.task, mask=args.mask)
        lines += [f"config.{key} = {value}" for key, value in sorted(echo.items())]
        Path(args.report).write_text("\n".join([REPORT_HEADER, "", *lines]) + "\n", encoding="utf-8")
    return 0


def cmd_synth(args) -> int:
    task = _validated(dataio.gen_synthetic, args.c, args.k, args.d, args.n_test, args.sigma, args.seed)
    manifest = dataio.save_task(task, args.out)
    print(f"manifest -> {manifest}")
    return 0


def cmd_eval(args) -> int:
    started = time.perf_counter()
    task = dataio.load_task(args.task)
    if task.test_labels is None:
        raise UsageError("eval task must provide test_labels")
    with warnings.catch_warnings(record=True) as caught:  # the reader warns only of a v1 file
        warnings.simplefilter("always")
        ckpt = _validated(trainer._read_checkpoint, args.ckpt, task)
    for w in caught:  # one line each, without Python's source echo
        print(f"warning: {w.message}", file=sys.stderr)
    learned, selected, cfg = (ckpt["res"], ckpt["scores"]), ckpt["mask_idx"], ckpt["cfg"]
    del ckpt  # with its optimizer moments: eval holds only the learnables it scores
    zs = zero_shot_logits(task.test_features, task.text_features, task.test_norms, task.text_norms)
    logits = _ape_core(zs, task, selected, cfg, learned)
    EvalReport(
        methods=[MethodResult("ape_t", sum(m.size for m in learned), accuracy(logits, task.test_labels))],
        config=_config_echo(cfg, lam=None, q=len(selected), seed=args.seed, task=args.task, ckpt=args.ckpt),
        wall_time_s=time.perf_counter() - started,
        warned={"config_defaulted": len(caught)} if caught else None,
    ).publish(args.report)
    return 0


def _add_engine_flags(p: argparse.ArgumentParser, grid_searched: bool = False) -> None:
    # A config flag left out sets no attribute, so ``_config`` keeps the field's dataclass default.
    if not grid_searched:  # search takes alpha, beta and gamma as grids
        p.add_argument("--alpha", type=float, default=argparse.SUPPRESS, help="cache term weight")
        p.add_argument("--beta", type=float, default=argparse.SUPPRESS, help="affinity sharpness")
        p.add_argument("--gamma", type=float, default=argparse.SUPPRESS, help="cache score smoothness")
    p.add_argument("--kl-sign", type=int, choices=(1, -1), default=argparse.SUPPRESS, dest="kl_sign")
    p.add_argument("--kl-temperature", type=float, default=argparse.SUPPRESS, dest="kl_temperature")
    p.add_argument("--no-renormalize", action="store_false", default=argparse.SUPPRESS, dest="renormalize",
                   help="skip re-normalizing rows after channel masking")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ape",
        description="Few-shot classification over precomputed embedding matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="score channels and write a mask file")
    p.add_argument("--task", required=True)
    p.add_argument("--lambda", type=float, default=0.7, dest="lam",
                   help="similarity/variance blend in [0, 1]")
    p.add_argument("--q", type=int, required=True,
                   help="number of channels to keep (500-900 is typical for "
                        "1024-channel encoders)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("infer", help="training-free evaluation of a task")
    p.add_argument("--task", required=True)
    p.add_argument("--mask", required=True)
    _add_engine_flags(p)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("train", help="train category residuals and cache scores")
    p.add_argument("--task", required=True)
    p.add_argument("--mask", required=True)
    _add_engine_flags(p)
    p.add_argument("--lr", type=float, default=argparse.SUPPRESS)
    p.add_argument("--weight-decay", type=float, default=argparse.SUPPRESS, dest="weight_decay")
    p.add_argument("--epochs", type=int, default=argparse.SUPPRESS)
    p.add_argument("--batch-size", type=int, default=argparse.SUPPRESS, dest="batch_size")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("search", help="grid-search alpha/beta (and gamma)")
    p.add_argument("--task", required=True)
    p.add_argument("--mask", required=True)
    _add_engine_flags(p, grid_searched=True)
    p.add_argument("--alpha-grid", required=True, dest="alpha_grid", help="a0:a1:steps")
    p.add_argument("--beta-grid", required=True, dest="beta_grid", help="b0:b1:steps")
    p.add_argument("--gamma-grid", dest="gamma_grid", help=f"g0:g1:steps (default: {EngineConfig.gamma})")
    p.add_argument("--val-task", dest="val_task",
                   help="manifest whose test split scores the grid "
                        "(default: hold out one shot per class)")
    p.add_argument("--report")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("synth", help="generate a synthetic task")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-test", type=int, required=True, dest="n_test",
                   help="test samples per class")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a task")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    for sp in sub.choices.values():
        sp.allow_abbrev = False  # so a removed flag cannot resolve to a longer one: --beta to --beta-grid
        sp.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: APE_SEED env var, then 0)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

"""Acceptance suite: one test per release criterion.

Each test enforces its stated tolerance and runtime budget and prints a
``[PASS]``/``[FAIL]`` line (visible with ``pytest -s`` or in captured
output).  Run with::

    pytest tests/test_acceptance.py -v
"""

import itertools
import math
import struct
import time

import numpy as np
import pytest

from ape import dataio, engine, numkit, refine, trainer
from ape.cli import grid_search
from ape.engine import EngineConfig
from ape.trainer import OptimConfig
from helpers import grads, param_count, random_task, tip_reference, unit_rows


def report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f" ({detail})" if detail else ""), flush=True)
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_refinement_optimality():
    """Selected channel subsets hit the exhaustive-search minimum exactly."""
    started = time.perf_counter()
    rng = np.random.default_rng(100)
    for _ in range(50):
        c = int(rng.integers(2, 7))
        d = int(rng.integers(4, 11))
        q = int(rng.integers(1, d + 1))
        lam = float(rng.choice([0.0, 0.2, 0.7, 1.0]))
        w = unit_rows(rng, c, d)
        s = refine.inter_class_similarity(w)
        v = refine.inter_class_variance(w)
        mask = refine.select_channels(s, v, lam, q)
        chosen = math.fsum(mask.scores[mask.selected])
        best = min(
            math.fsum(mask.scores[list(sub)])
            for sub in itertools.combinations(range(d), q)
        )
        assert chosen == best, f"subset sum {chosen} vs exhaustive minimum {best}"
    elapsed = time.perf_counter() - started
    report(
        "criterion 1: refinement optimality vs exhaustive oracle",
        elapsed < 5.0,
        f"50 instances in {elapsed:.2f}s",
    )


def test_criterion_2_degeneration_identities():
    """alpha=0 reduces to zero-shot bitwise; gamma=0 + full mask + no
    renormalization reduces to the plain cache baseline within 1e-12."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(20):
        c = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        d = int(rng.integers(4, 12))
        task = random_task(rng, c=c, k=k, d=d, n_test=6)
        mask = refine.full_mask(d)

        got = engine.ape_logits(task, mask, EngineConfig(alpha=0.0, beta=3.0, gamma=0.4))
        zs = engine.zero_shot_logits(task.test_features, task.text_features)
        assert got.tobytes() == zs.tobytes()

        alpha, beta = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.5, 8.0))
        cfg = EngineConfig(alpha=alpha, beta=beta, gamma=0.0, renormalize=False)
        got = engine.ape_logits(task, mask, cfg)
        want = tip_reference(task, alpha, beta)
        np.testing.assert_allclose(got, want, atol=1e-12)
    elapsed = time.perf_counter() - started
    report(
        "criterion 2: degeneration identities (alpha=0, gamma=0/full-mask)",
        elapsed < 1.0,
        f"20 tasks in {elapsed:.2f}s",
    )


def test_criterion_3_gradient_check():
    """Analytic gradients match central finite differences (h=1e-5)."""
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        c = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        q = int(rng.integers(2, 7))
        b = int(rng.integers(1, 7))
        d = q + int(rng.integers(0, 4))
        task = random_task(rng, c=c, k=k, d=d, n_test=2)
        mask = refine.ChannelMask(
            selected=np.sort(rng.choice(d, q, replace=False)),
            scores=np.zeros(d),
        )
        cfg = EngineConfig(
            alpha=float(rng.uniform(0.2, 1.5)),
            beta=float(rng.uniform(0.5, 6.0)),
            gamma=float(rng.uniform(0.0, 0.5)),
        )
        state = trainer.init_state(task, mask, cfg)
        state.res += 0.1 * rng.standard_normal(state.res.shape)
        state.scores += 0.1 * rng.standard_normal(state.scores.shape)
        f_batch = unit_rows(rng, b, d)
        y = rng.integers(0, c, b)
        d_res, d_scores = grads(state, f_batch, y)

        def loss():
            return trainer.cross_entropy(trainer.forward(state, f_batch), y)

        for arr, grad in ((state.res, d_res), (state.scores, d_scores)):
            flat = arr.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for i in range(flat.size):
                flat[i] += h
                up = loss()
                flat[i] -= 2 * h
                down = loss()
                flat[i] += h
                numeric = (up - down) / (2 * h)
                scale = max(abs(gflat[i]), abs(numeric))
                if scale < 1e-7:
                    continue
                worst = max(worst, abs(gflat[i] - numeric) / scale)
    elapsed = time.perf_counter() - started
    assert worst < 1e-4, f"max relative error {worst:.2e}"
    report(
        "criterion 3: analytic gradients vs central differences",
        elapsed < 10.0,
        f"max rel err {worst:.2e} in {elapsed:.2f}s",
    )


def test_criterion_4_parameter_accounting():
    """Learnable parameter counts line up with the documented budgets."""
    count = param_count(1000, 500, 16)
    assert count == 516_000
    assert abs(count / 1e6 - 0.51) < 0.01  # 0.51 M budget at two-figure rounding
    baseline = 16_000 * 1024  # full-cache fine-tuning comparison point
    assert baseline == 16_384_000
    assert abs(baseline / 1e6 - 16.3) < 0.1  # 16.3 M at the same rounding
    report("criterion 4: parameter accounting", True, "516000 and 16384000")


def test_criterion_5_desk_scale_ordering():
    """Tuned cache classifier does not lose to zero-shot, and training does
    not lose to training-free, on >= 8 of 10 synthetic seeds.

    Protocol: the command-line search's default validation (one held-out
    shot per class) picks alpha/beta from a 5x4 grid; training then runs at
    the selected config with the pinned recipe (20 epochs, lr 1e-3).
    """
    started = time.perf_counter()
    alphas = np.linspace(0.0, 2.0, 5)
    betas = np.linspace(1.0, 10.0, 4)
    ape_wins = train_wins = 0
    rows = []
    for seed in range(10):
        task = dataio.gen_synthetic(10, 16, 64, 50, 0.6, seed=seed)
        sim = refine.inter_class_similarity(task.text_features)
        var = refine.inter_class_variance(task.text_features)
        mask = refine.select_channels(sim, var, 0.7, 48)
        best, _ = grid_search(task, mask, EngineConfig(), alphas, betas)
        zs_acc = engine.accuracy(
            engine.zero_shot_logits(task.test_features, task.text_features),
            task.test_labels,
        )
        ape_acc = engine.accuracy(engine.ape_logits(task, mask, best), task.test_labels)
        state, _ = trainer.train(
            task, mask, best, OptimConfig(lr=1e-3, epochs=20, batch_size=256, seed=seed)
        )
        apet_acc = engine.accuracy(
            trainer.forward(state, task.test_features), task.test_labels
        )
        ape_wins += ape_acc >= zs_acc
        train_wins += apet_acc >= ape_acc
        rows.append((seed, zs_acc, ape_acc, apet_acc))
    elapsed = time.perf_counter() - started
    for seed, zs_acc, ape_acc, apet_acc in rows:
        print(
            f"  seed {seed}: zero-shot {zs_acc:.3f}  tuned {ape_acc:.3f}  trained {apet_acc:.3f}",
            flush=True,
        )
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over budget"
    report(
        "criterion 5: desk-scale ordering on synthetic tasks",
        ape_wins >= 8 and train_wins >= 8,
        f"tuned>=zero-shot in {ape_wins}/10, trained>=tuned in {train_wins}/10, "
        f"{elapsed:.1f}s. Known limitation of this generator: its text "
        "prototypes are the exact class centers, so the zero-shot rule is "
        "already Bayes-optimal and the tuned/trained variants can only tie "
        "or trail within sampling noise",
    )


def test_criterion_6_refinement_benefit():
    """Criterion-selected masks beat random masks of equal size on average."""
    started = time.perf_counter()
    cfg = EngineConfig()
    refined_accs, random_accs = [], []
    for seed in range(10):
        task = dataio.gen_synthetic(10, 16, 64, 50, 0.6, seed=seed)
        sim = refine.inter_class_similarity(task.text_features)
        var = refine.inter_class_variance(task.text_features)
        mask = refine.select_channels(sim, var, 0.7, 48)
        rng = np.random.default_rng(1000 + seed)
        rnd = refine.ChannelMask(
            selected=np.sort(rng.choice(64, 48, replace=False)),
            scores=np.zeros(64),
        )
        refined_accs.append(
            engine.accuracy(engine.ape_logits(task, mask, cfg), task.test_labels)
        )
        random_accs.append(
            engine.accuracy(engine.ape_logits(task, rnd, cfg), task.test_labels)
        )
    elapsed = time.perf_counter() - started
    mean_refined, mean_random = np.mean(refined_accs), np.mean(random_accs)
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s over budget"
    report(
        "criterion 6: refined mask vs random mask",
        mean_refined >= mean_random,
        f"refined {mean_refined:.4f} vs random {mean_random:.4f} over 10 seeds",
    )


def test_criterion_7_scheduler_and_optimizer_contracts():
    """Cosine schedule endpoints, AdamW single-step arithmetic, loss finiteness."""
    assert trainer.cosine_lr(0, 20, 1e-3) == 1e-3
    assert trainer.cosine_lr(10, 20, 1e-3) == 0.5e-3
    assert trainer.cosine_lr(20, 20, 1e-3) == 0.0

    state = trainer.TrainState(
        res=np.zeros((1, 1)),
        scores=np.zeros(1),
        m_res=np.zeros((1, 1)),
        v_res=np.zeros((1, 1)),
        m_scores=np.zeros(1),
        v_scores=np.zeros(1),
        step=0,
        mask_idx=np.arange(1),
        text_features=np.zeros((1, 1)),
        text_norms=np.zeros(1),
        support_features=np.ones((1, 1)),
        support_norms=np.ones(1),
        cfg=EngineConfig(),
    )
    optim = OptimConfig(lr=1e-3, weight_decay=0.01)
    trainer.adamw_step(state, (np.ones((1, 1)), np.zeros(1)), 1e-3, optim)
    expected = -1e-3 / (1.0 + optim.eps)  # decay of a zero parameter is zero
    assert abs(state.res[0, 0] - expected) < 1e-9

    task = dataio.gen_synthetic(10, 16, 64, 10, 0.6, seed=0)
    sim = refine.inter_class_similarity(task.text_features)
    var = refine.inter_class_variance(task.text_features)
    mask = refine.select_channels(sim, var, 0.7, 48)
    _, history = trainer.train(
        task, mask, EngineConfig(), OptimConfig(lr=1e-3, epochs=20, batch_size=256, seed=0)
    )
    assert all(math.isfinite(row["loss"]) for row in history)
    report("criterion 7: scheduler and optimizer unit contracts", True)


def test_criterion_8_io_bit_exactness(tmp_path):
    """100 random round trips are bitwise stable; corrupt headers raise the
    named error kinds."""
    rng = np.random.default_rng(103)
    shapes = [(1, 1), (1, 4096)] + [
        (int(rng.integers(1, 40)), int(rng.integers(1, 40))) for _ in range(98)
    ]
    for i, shape in enumerate(shapes):
        path = tmp_path / f"m{i}.apef"
        m = rng.standard_normal(shape) * float(rng.uniform(0.1, 100))
        dataio.write_matrix(path, m)
        first = path.read_bytes()
        got = dataio.read_matrix(path)
        dataio.write_matrix(path, got)
        assert path.read_bytes() == first, f"round trip drifted for shape {shape}"

    bad_magic = tmp_path / "bad_magic.apef"
    bad_magic.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(dataio.BadMagicError):
        dataio.read_matrix(bad_magic)

    truncated = tmp_path / "truncated.apef"
    truncated.write_bytes(
        b"APEF" + struct.pack("<I", 1) + struct.pack("<QQ", 2, 2) + b"\x00" * 12
    )
    with pytest.raises(dataio.TruncatedError):
        dataio.read_matrix(truncated)

    overflow = tmp_path / "overflow.apef"
    overflow.write_bytes(
        b"APEF" + struct.pack("<I", 1) + struct.pack("<QQ", 1 << 40, 1 << 20)
    )
    with pytest.raises(dataio.ShapeOverflowError):
        dataio.read_matrix(overflow)

    report("criterion 8: binary format bit-exactness and error kinds", True)


def test_criterion_9_init_identity(tmp_path):
    """Fresh training state reproduces training-free logits bitwise, and
    zero-epoch training reports match training-free reports."""
    for seed in (0, 1, 2):
        task = dataio.gen_synthetic(8, 4, 32, 10, 0.5, seed=seed)
        sim = refine.inter_class_similarity(task.text_features)
        var = refine.inter_class_variance(task.text_features)
        mask = refine.select_channels(sim, var, 0.7, 24)
        cfg = EngineConfig(alpha=1.0, beta=5.5, gamma=0.2)
        want = engine.ape_logits(task, mask, cfg)

        state = trainer.init_state(task, mask, cfg)
        got = trainer.forward(state, task.test_features)
        assert got.tobytes() == want.tobytes()

        trained, history = trainer.train(task, mask, cfg, OptimConfig(epochs=0))
        got = trainer.forward(trained, task.test_features)
        assert got.tobytes() == want.tobytes()
        assert history[0]["test_acc"] == engine.accuracy(want, task.test_labels)

    # command-level: an epochs=0 training report carries the training-free
    # accuracies unchanged
    from ape.cli import main

    workdir = tmp_path / "c9"
    assert main([
        "synth", "--c", "8", "--k", "4", "--d", "32", "--n-test", "10",
        "--sigma", "0.5", "--seed", "0", "--out", str(workdir),
    ]) == 0
    manifest = workdir / "task.manifest"
    mask_path = workdir / "mask.txt"
    assert main([
        "refine", "--task", str(manifest), "--q", "24", "--out", str(mask_path),
    ]) == 0
    infer_report = workdir / "infer.report"
    train_report = workdir / "train.report"
    assert main([
        "infer", "--task", str(manifest), "--mask", str(mask_path),
        "--report", str(infer_report),
    ]) == 0
    assert main([
        "train", "--task", str(manifest), "--mask", str(mask_path),
        "--epochs", "0", "--out", str(workdir / "m.ckpt"),
        "--report", str(train_report),
    ]) == 0

    def kv(path):
        return dict(
            line.split(" = ", 1)
            for line in path.read_text().splitlines()
            if " = " in line
        )

    infer_kv, train_kv = kv(infer_report), kv(train_report)
    assert train_kv["accuracy.ape_t"] == train_kv["accuracy.ape"]
    assert train_kv["accuracy.ape"] == infer_kv["accuracy.ape"]
    assert train_kv["accuracy.zero_shot"] == infer_kv["accuracy.zero_shot"]
    report("criterion 9: initialization identity", True)

"""End-to-end tests of the command-line surface."""

import argparse
import contextlib
import dataclasses
import itertools
import os
import re
import shlex
import struct
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ape import cli, dataio, engine, numkit, refine, trainer
from ape.cli import grid_search, main, parse_grid
from ape.engine import EngineConfig, FewShotTask
from helpers import (
    block_budget,
    brute_force_grid,
    holdout_split_loop,
    param_count,
    random_task,
    several_runs_instance,
    tip_config,
    tip_reference,
    unit_rows,
)


@pytest.fixture()
def workspace(tmp_path):
    """A synthetic task on disk plus a matching mask file."""
    rc = main([
        "synth", "--c", "6", "--k", "4", "--d", "32", "--n-test", "10",
        "--sigma", "0.5", "--seed", "0", "--out", str(tmp_path),
    ])
    assert rc == 0
    manifest = tmp_path / "task.manifest"
    mask_path = tmp_path / "mask.txt"
    rc = main([
        "refine", "--task", str(manifest), "--lambda", "0.7", "--q", "24",
        "--out", str(mask_path),
    ])
    assert rc == 0
    return tmp_path, manifest, mask_path


def read_kv(path):
    out = {}
    for line in path.read_text().splitlines():
        m = re.match(r"^([\w.]+) = (.*)$", line)
        if m:
            out[m.group(1)] = m.group(2)
    return out


def strip_volatile(path):
    return "\n".join(
        ln for ln in path.read_text().splitlines() if not ln.startswith("wall_time_s")
    )


class TestParseGrid:
    def test_linspace_form(self):
        np.testing.assert_allclose(parse_grid("0:2:5"), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_single_point(self):
        np.testing.assert_allclose(parse_grid("1:1:1"), [1.0])
        np.testing.assert_allclose(parse_grid("5.5"), [5.5])

    def test_empty_grid_rejected(self):
        from ape.cli import UsageError

        with pytest.raises(UsageError):
            parse_grid("0:1:0")


class TestRefineCommand:
    def test_writes_mask_and_prints_extremes(self, workspace, capsys):
        tmp_path, manifest, mask_path = workspace
        mask, lam = refine.load_mask(mask_path)
        assert lam == 0.7
        assert mask.q == 24
        capsys.readouterr()
        rc = main([
            "refine", "--task", str(manifest), "--lambda", "0.7", "--q", "24",
            "--out", str(tmp_path / "again.txt"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lowest-score channels" in out
        assert "highest-score channels" in out

    def test_q_above_d_is_usage_error(self, workspace):
        tmp_path, manifest, _ = workspace
        rc = main([
            "refine", "--task", str(manifest), "--q", "33",
            "--out", str(tmp_path / "m2.txt"),
        ])
        assert rc == 2

    def test_full_mask_allowed(self, workspace):
        tmp_path, manifest, _ = workspace
        rc = main([
            "refine", "--task", str(manifest), "--q", "32",
            "--out", str(tmp_path / "full.txt"),
        ])
        assert rc == 0
        mask, _ = refine.load_mask(tmp_path / "full.txt")
        assert mask.q == 32

    def test_zeroed_channels_left_out_when_informative_scores_negative(self):
        """On calibrated tasks where every live channel scores below zero,
        the dead quarter is never selected at matching q."""
        premise_held = 0
        for seed in range(10):
            task = dataio.gen_synthetic(10, 16, 64, 2, 0.6, seed=seed)
            dead = np.flatnonzero((task.text_features == 0.0).all(axis=0))
            sim = refine.inter_class_similarity(task.text_features)
            var = refine.inter_class_variance(task.text_features)
            mask = refine.select_channels(sim, var, 0.7, 48)
            live_scores = np.delete(mask.scores, dead)
            if live_scores.max() < 0.0:
                premise_held += 1
                assert not np.intersect1d(mask.selected, dead).size
        assert premise_held >= 1


class TestInferCommand:
    def test_report_contents(self, workspace):
        tmp_path, manifest, mask_path = workspace
        report = tmp_path / "infer.report"
        rc = main([
            "infer", "--task", str(manifest), "--mask", str(mask_path),
            "--alpha", "1.0", "--beta", "5.5", "--report", str(report),
        ])
        assert rc == 0
        kv = read_kv(report)
        assert kv["params.zero_shot"] == "0"
        assert kv["params.tip_adapter"] == "0"
        assert kv["params.ape"] == "0"
        assert 0.0 <= float(kv["accuracy.ape"]) <= 100.0
        assert kv["config.alpha"] == "1.0"
        assert kv["config.seed"] == "0"

    def test_alpha_zero_matches_zero_shot(self, workspace):
        tmp_path, manifest, mask_path = workspace
        report = tmp_path / "a0.report"
        rc = main([
            "infer", "--task", str(manifest), "--mask", str(mask_path),
            "--alpha", "0", "--report", str(report),
        ])
        assert rc == 0
        kv = read_kv(report)
        assert kv["accuracy.ape"] == kv["accuracy.zero_shot"]

    def test_deterministic_reports(self, workspace):
        tmp_path, manifest, mask_path = workspace
        r1, r2 = tmp_path / "r1.report", tmp_path / "r2.report"
        for rp in (r1, r2):
            rc = main([
                "infer", "--task", str(manifest), "--mask", str(mask_path),
                "--report", str(rp),
            ])
            assert rc == 0
        assert strip_volatile(r1) == strip_volatile(r2)

    def test_zero_shot_logits_computed_once(self, workspace):
        """All three methods share one zero-shot pass and match the public
        functions."""
        tmp_path, manifest, mask_path = workspace
        report = tmp_path / "once.report"
        spy = mock.Mock(wraps=engine.zero_shot_logits)
        with mock.patch.object(cli, "zero_shot_logits", spy), \
                mock.patch.object(engine, "zero_shot_logits", spy):
            rc = main([
                "infer", "--task", str(manifest), "--mask", str(mask_path),
                "--alpha", "1.3", "--gamma", "0.4", "--report", str(report),
            ])
        assert rc == 0 and spy.call_count == 1
        kv = read_kv(report)
        task = dataio.load_task(manifest)
        mask, _ = refine.load_mask(mask_path)
        cfg = EngineConfig(alpha=1.3, gamma=0.4)
        for name, logits in (
            ("zero_shot", engine.zero_shot_logits(task.test_features, task.text_features)),
            ("tip_adapter", tip_reference(task, cfg.alpha, cfg.beta)),
            ("ape", engine.ape_logits(task, mask, cfg)),
        ):
            assert kv[f"accuracy.{name}"] == repr(100.0 * engine.accuracy(logits, task.test_labels))

    def test_unlabeled_task_emits_logits(self, tmp_path):
        task = dataio.gen_synthetic(4, 2, 16, 3, 0.4, seed=2)
        task.test_labels = None
        manifest = dataio.save_task(task, tmp_path, name="unlabeled")
        mask_path = tmp_path / "mask.txt"
        main(["refine", "--task", str(manifest), "--q", "12", "--out", str(mask_path)])
        report = tmp_path / "u.report"
        rc = main([
            "infer", "--task", str(manifest), "--mask", str(mask_path),
            "--report", str(report),
        ])
        assert rc == 0
        logits = dataio.read_matrix(f"{report}.logits.apef")
        assert logits.shape == (task.test_features.shape[0], task.c)
        assert "accuracy.ape" not in read_kv(report)

    def test_tip_adapter_pass_only_with_labels(self, workspace):
        """The baseline runs only where its accuracy is reported; an
        unlabelled task's logits file holds the APE logits, which
        ``ape_logits`` builds through ``engine._ape_core``."""
        tmp_path, manifest, mask_path = workspace
        task = dataio.gen_synthetic(4, 2, 32, 3, 0.4, seed=2)
        task.test_labels = None
        unlabeled = dataio.save_task(task, tmp_path / "u", name="unlabeled")
        for path, calls in ((unlabeled, 0), (manifest, 1)):
            report = tmp_path / f"tip{calls}.report"
            spy = mock.Mock(wraps=engine._ape_core)
            with mock.patch.object(cli, "_ape_core", spy), mock.patch.object(engine, "_ape_core", spy):
                rc = main([
                    "infer", "--task", str(path), "--mask", str(mask_path),
                    "--report", str(report),
                ])
            baseline = [call for call in spy.call_args_list if call.args[3] == tip_config(1.0, 5.5)]
            assert rc == 0 and spy.call_count == calls + 1 and len(baseline) == calls
            assert all(len(call.args[2]) == call.args[1].d for call in baseline)  # every channel kept
        loaded = dataio.load_task(unlabeled)
        mask, _ = refine.load_mask(mask_path)
        expected = engine.ape_logits(loaded, mask, EngineConfig()).astype(np.float32).astype(np.float64)
        assert dataio.read_matrix(f"{tmp_path / 'tip0.report'}.logits.apef").tobytes() == expected.tobytes()

    def test_infer_refines_each_support_row_once(self, tmp_path):
        """With the keys split into class runs, each pass of ``ape infer`` (the
        APE logits on the mask's 16 channels, the Tip-Adapter baseline on all
        32) refines each run's support rows once, for both its cache scores
        and its tiles."""
        task = dataio.gen_synthetic(8, 4, 32, 6, 0.5, seed=3)
        manifest = dataio.save_task(task, tmp_path)
        mask_path = tmp_path / "mask.txt"
        assert main(["refine", "--task", str(manifest), "--q", "16", "--out", str(mask_path)]) == 0
        loaded, refined = [], {16: [], 32: []}
        load, take = dataio.load_task, refine._take_channels

        def load_spy(path):
            loaded.append(load(path))
            return loaded[-1]

        def take_spy(m, indices, renormalize, norms=None):
            support = loaded[0].support_features
            if np.shares_memory(m, support):
                first = (m.ctypes.data - support.ctypes.data) // support.strides[0]
                refined[len(indices)].extend(range(first, first + len(m)))
            return take(m, indices, renormalize, norms)

        with block_budget(16, 4), mock.patch.object(dataio, "load_task", load_spy), \
                mock.patch.object(refine, "_take_channels", take_spy):
            assert len(engine._tile_plan(48, 8, 4)[1]) == 4
            rc = main(["infer", "--task", str(manifest), "--mask", str(mask_path),
                       "--report", str(tmp_path / "r.report")])
        assert rc == 0 and all(sorted(rows) == list(range(32)) for rows in refined.values())

    def test_missing_task_is_runtime_error(self, tmp_path):
        rc = main([
            "infer", "--task", str(tmp_path / "nope.manifest"),
            "--mask", str(tmp_path / "nope.txt"), "--report", str(tmp_path / "r"),
        ])
        assert rc == 1


class TestTrainCommand:
    def test_train_writes_checkpoint_and_history(self, workspace):
        tmp_path, manifest, mask_path = workspace
        report = tmp_path / "train.report"
        ckpt = tmp_path / "model.ckpt"
        rc = main([
            "train", "--task", str(manifest), "--mask", str(mask_path),
            "--lr", "0.001", "--epochs", "3", "--batch-size", "8",
            "--out", str(ckpt), "--report", str(report), "--seed", "1",
        ])
        assert rc == 0
        kv = read_kv(report)
        # 6 classes * 24 channels + 6 classes * 4 shots
        assert kv["params.ape_t"] == str(param_count(6, 24, 4))
        assert ckpt.exists()
        assert "epoch" in report.read_text()

    def test_report_echoes_every_config_field(self, workspace):
        """The report's ``config.*`` lines hold every field of ``EngineConfig``
        and ``OptimConfig`` with the value its flag gave; a field added later
        and not echoed fails."""
        tmp_path, manifest, mask_path = workspace
        report = tmp_path / "echo.report"
        rc = main([
            "train", "--task", str(manifest), "--mask", str(mask_path),
            "--alpha", "0.5", "--beta", "3.25", "--gamma", "0.4", "--kl-sign", "-1",
            "--kl-temperature", "0.7", "--no-renormalize", "--lr", "0.002",
            "--weight-decay", "0.03", "--epochs", "2", "--batch-size", "5", "--seed", "9",
            "--out", str(tmp_path / "echo.ckpt"), "--report", str(report),
        ])
        assert rc == 0
        flags = {"alpha": 0.5, "beta": 3.25, "gamma": 0.4, "kl_sign": -1, "kl_temperature": 0.7,
                 "renormalize": False, "lr": 0.002, "weight_decay": 0.03, "epochs": 2,
                 "batch_size": 5, "seed": 9}
        fields = [f.name for cls in (EngineConfig, trainer.OptimConfig) for f in dataclasses.fields(cls)]
        kv = read_kv(report)
        assert {name: kv.get(f"config.{name}") for name in fields} == {name: str(flags.get(name)) for name in fields}

    def test_zero_epochs_matches_training_free(self, workspace):
        tmp_path, manifest, mask_path = workspace
        report = tmp_path / "e0.report"
        rc = main([
            "train", "--task", str(manifest), "--mask", str(mask_path),
            "--epochs", "0", "--out", str(tmp_path / "e0.ckpt"),
            "--report", str(report),
        ])
        assert rc == 0
        kv = read_kv(report)
        assert kv["accuracy.ape_t"] == kv["accuracy.ape"]

    def test_zero_shot_accuracy_comes_from_the_history(self, workspace):
        """``ape train`` reports the zero-shot accuracy that its history's test
        pass counts, with no zero-shot logits of the whole test split; it is
        the accuracy of ``zero_shot_logits``."""
        tmp_path, manifest, mask_path = workspace
        report = tmp_path / "zs.report"
        with mock.patch.object(cli, "zero_shot_logits", wraps=engine.zero_shot_logits) as spy:
            rc = main([
                "train", "--task", str(manifest), "--mask", str(mask_path), "--epochs", "1",
                "--out", str(tmp_path / "zs.ckpt"), "--report", str(report),
            ])
        assert rc == 0 and spy.call_count == 0
        task = dataio.load_task(manifest)
        zs = engine.zero_shot_logits(task.test_features, task.text_features, task.test_norms)
        assert read_kv(report)["accuracy.zero_shot"] == repr(100.0 * engine.accuracy(zs, task.test_labels))


class TestSearchCommand:
    def test_single_point_grid(self, workspace, capsys):
        tmp_path, manifest, mask_path = workspace
        rc = main([
            "search", "--task", str(manifest), "--mask", str(mask_path),
            "--alpha-grid", "0.7", "--beta-grid", "4.0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best.alpha = 0.7" in out
        assert "best.beta = 4.0" in out

    def test_alpha_zero_only_grid_equals_zero_shot_config(self, workspace, capsys):
        tmp_path, manifest, mask_path = workspace
        rc = main([
            "search", "--task", str(manifest), "--mask", str(mask_path),
            "--alpha-grid", "0", "--beta-grid", "1:10:3",
        ])
        assert rc == 0
        assert "best.alpha = 0.0" in capsys.readouterr().out

    def test_best_at_least_grid_corner(self, workspace, capsys):
        tmp_path, manifest, mask_path = workspace
        rc = main([
            "search", "--task", str(manifest), "--mask", str(mask_path),
            "--alpha-grid", "0:2:5", "--beta-grid", "0:10:5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        best = float(re.search(r"best\.val_accuracy = ([\d.]+)", out).group(1))

        task = dataio.load_task(manifest)
        mask, _ = refine.load_mask(mask_path)
        from ape.cli import grid_search

        _, corner = grid_search(task, mask, EngineConfig(), [0.0], [0.0])
        assert best >= 100.0 * corner - 1e-9

    def test_tie_break_prefers_smaller_alpha(self, workspace):
        """With beta=0 and gamma=0 the cache adds a uniform shift, so every
        alpha ties on validation and the search must return the smallest."""
        tmp_path, manifest, mask_path = workspace
        task = dataio.load_task(manifest)
        mask, _ = refine.load_mask(mask_path)
        from ape.cli import grid_search

        best, _ = grid_search(
            task, mask, EngineConfig(gamma=0.0), [0.0, 0.5, 1.0, 2.0], [0.0]
        )
        assert best.alpha == 0.0

    def test_empty_grid_is_usage_error(self, workspace):
        tmp_path, manifest, mask_path = workspace
        rc = main([
            "search", "--task", str(manifest), "--mask", str(mask_path),
            "--alpha-grid", "0:1:0", "--beta-grid", "1:2:2",
        ])
        assert rc == 2

    def test_holdout_fold_matches_loop(self, workspace):
        """The holdout search of a loaded task predicts as ``ape_logits`` on
        the loop's fold: the first K - 1 shots of each class as the cache,
        the last one as the split."""
        _, manifest, mask_path = workspace
        task, (mask, _) = dataio.load_task(manifest), refine.load_mask(mask_path)
        kept, held, labels = holdout_split_loop(task)
        probe = FewShotTask(task.text_features, kept, held, labels)
        assert_grid_predicts_as_ape_logits(task, mask, probe, None)

    @pytest.mark.parametrize("flag, spec, message", [
        ("--alpha-grid", "nan", "error: grid 'nan' has a non-finite end"),
        ("--beta-grid", "1:inf:2", "error: grid '1:inf:2' has a non-finite end"),
        ("--gamma-grid", "-1:0:2", "error: gamma must be finite and >= 0, got -1.0"),
        ("--alpha-grid", "0:2:x", "error: grid must look like a0:a1:steps, got '0:2:x'"),
    ], ids=["alpha-nan", "beta-inf", "gamma-negative", "alpha-malformed"])
    def test_bad_grid_value_is_usage_error(self, workspace, capsys, flag, spec, message):
        _, manifest, mask_path = workspace
        grids = {"--alpha-grid": "0:1:2", "--beta-grid": "1:2:2", flag: spec}
        argv = ["search", "--task", str(manifest), "--mask", str(mask_path)]
        argv += [f"{name}={value}" for name, value in grids.items()]
        rc = main(argv)
        assert rc == 2
        assert capsys.readouterr().err.startswith(message)

    def test_report_echoes_the_chosen_config(self, workspace):
        tmp_path, manifest, mask_path = workspace
        report = tmp_path / "search.report"
        assert main([
            "search", "--task", str(manifest), "--mask", str(mask_path), "--alpha-grid", "0:2:5",
            "--beta-grid", "1:10:4", "--gamma-grid", "0.4", "--kl-sign", "-1", "--report", str(report),
        ]) == 0
        kv = read_kv(report)
        for key in ("alpha", "beta", "gamma"):
            assert float(kv[f"config.{key}"]) == float(kv[f"best.{key}"])
        assert (kv["config.gamma"], kv["config.kl_sign"]) == ("0.4", "-1")

    def test_val_task_manifest(self, workspace):
        tmp_path, manifest, mask_path = workspace
        val_dir = tmp_path / "val"
        main([
            "synth", "--c", "6", "--k", "4", "--d", "32", "--n-test", "5",
            "--sigma", "0.5", "--seed", "3", "--out", str(val_dir),
        ])
        rc = main([
            "search", "--task", str(manifest), "--mask", str(mask_path),
            "--alpha-grid", "0:1:3", "--beta-grid", "2:8:3",
            "--val-task", str(val_dir / "task.manifest"),
            "--report", str(tmp_path / "search.report"),
        ])
        assert rc == 0
        assert "best.alpha" in (tmp_path / "search.report").read_text()


grid_values = st.one_of(st.sampled_from([0.0, 1.0, 5.5]), st.floats(0.0, 10.0))


@settings(max_examples=80, deadline=None)
@given(
    c=st.integers(2, 6),
    k=st.integers(2, 4),
    q=st.integers(1, 8),
    alphas=st.lists(grid_values, min_size=1, max_size=4),
    betas=st.lists(grid_values, min_size=1, max_size=3),
    gammas=st.none() | st.lists(grid_values, min_size=1, max_size=11),
    with_val=st.booleans(),
    kl_sign=st.sampled_from([1, -1]),
    renormalize=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# Seeds where distinct candidates tie at the best accuracy, so only the
# alpha, then beta, then gamma order picks the reference's config.
@example(c=2, k=2, q=8, alphas=[1.0, 5.5, 0.0], betas=[0.0, 1.0, 0.0], gammas=None,
         with_val=False, kl_sign=1, renormalize=True, seed=2553558759)
@example(c=3, k=2, q=7, alphas=[1.0, 1.0, 1.0, 5.5], betas=[5.5, 1.0, 0.0], gammas=None,
         with_val=True, kl_sign=-1, renormalize=True, seed=916578816)
@example(c=2, k=2, q=4, alphas=[1.0, 5.5, 5.5], betas=[1.0, 0.0, 5.5],
         gammas=[0.0, 0.0, 5.5], with_val=True, kl_sign=1, renormalize=False,
         seed=300041115)
@example(c=3, k=3, q=4, alphas=[5.5], betas=[0.0, 5.5], gammas=[1.0, 0.0, 1.0],
         with_val=False, kl_sign=-1, renormalize=True, seed=4074326702)
# Ten gammas: two class-sum groups of 8 and 2, the second offset by 8.
@example(c=4, k=3, q=5, alphas=[0.0, 1.0], betas=[1.0, 5.5],
         gammas=[0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 5.5, 10.0],
         with_val=True, kl_sign=1, renormalize=True, seed=17)
def check_grid_oracle(c, k, q, alphas, betas, gammas, with_val, kl_sign, renormalize, seed):
    """Same config and bitwise-same accuracy as one ape_logits per candidate."""
    rng = np.random.default_rng(seed)
    d = 8
    task = random_task(rng, c=c, k=k, d=d, n_test=1)
    val_task = random_task(rng, c=c, k=k, d=d, n_test=int(rng.integers(1, 12))) if with_val else None
    mask = refine.ChannelMask(
        selected=np.sort(rng.choice(d, q, replace=False)), scores=np.zeros(d)
    )
    base = EngineConfig(
        gamma=float(rng.uniform(0.0, 2.0)),
        kl_sign=kl_sign,
        kl_temperature=float(rng.uniform(0.5, 2.0)),
        renormalize=renormalize,
    )
    got_cfg, got_acc = grid_search(task, mask, base, alphas, betas, gammas, val_task)
    want_cfg, want_acc = brute_force_grid(task, mask, base, alphas, betas, gammas, val_task)
    assert dataclasses.asdict(got_cfg) == dataclasses.asdict(want_cfg)
    assert got_acc.hex() == want_acc.hex()


def assert_grid_predicts_as_ape_logits(task, mask, probe, val_task):
    """Every candidate of a 2 x 2 x 2 grid search over ``task`` (holdout, or
    scored on ``val_task``) predicts ``predict(ape_logits(probe, ...))``,
    bitwise: the argmaxes ``engine._grid_run`` leaves in its ``pred``."""
    base, grids = EngineConfig(), ([0.5, 1.0], [1.0, 5.5], [0.0, 0.2])
    with mock.patch.object(cli, "_grid_run", wraps=engine._grid_run) as spy:
        grid_search(task, mask, base, *grids, val_task=val_task)
    pred = spy.call_args.args[1]  # filled in place across the runs
    for (a, alpha), (b, beta), (g, gamma) in itertools.product(*map(enumerate, grids)):
        cfg = dataclasses.replace(base, alpha=alpha, beta=beta, gamma=gamma)
        want = engine.predict(engine.ape_logits(probe, mask, cfg))
        assert pred[a, b, g].tobytes() == want.tobytes(), (alpha, beta, gamma)


class TestGridOracle:
    def test_matches_brute_force(self):
        check_grid_oracle()

    def test_matches_brute_force_across_row_blocks(self):
        """The same oracle with two rows per block, so every validation
        split of four or more rows spans several blocks."""
        with block_budget(1, 2):
            check_grid_oracle()

    def test_matches_brute_force_across_class_runs(self):
        """The same oracle under a 16-float budget, which splits the keys of
        most splits into runs of whole classes: a row's argmax then runs
        across its class runs."""
        runs, plan = [], engine._tile_plan

        def spy(n, c, k):
            blocks, classes = plan(n, c, k)
            runs.append(len(classes))
            return blocks, classes

        with block_budget(4, 4), mock.patch.object(engine, "_tile_plan", spy):
            check_grid_oracle()
        assert max(runs) > 1

    def test_ties_across_class_runs_go_to_the_lower_id(self):
        """Identical prototypes with beta = gamma = 0 tie every class; split
        into two runs, the lower id must still win, as in ``predict``."""
        rng = np.random.default_rng(10)
        c, k, d = 4, 2, 8
        w = np.repeat(unit_rows(rng, 1, d), c, axis=0)
        task = FewShotTask(w, unit_rows(rng, c * k, d), unit_rows(rng, 2, d), None)
        val_task = FewShotTask(w, unit_rows(rng, c * k, d), unit_rows(rng, 8, d), np.zeros(8, dtype=np.int64))
        mask = refine.full_mask(d)
        with block_budget(c * k, 2):
            assert len(engine._tile_plan(8, c, k)[1]) == 2
            _, acc = grid_search(task, mask, EngineConfig(gamma=0.0), [1.0], [0.0], val_task=val_task)
        assert acc == 1.0

    def test_one_support_softmax_per_class_run_for_all_gammas(self):
        """Each class run's cache scores of every gamma come from one softmax
        of the run's keys against the prototypes: one ``_cache_scores`` call
        per run of ``engine._support_runs``, each with all the gammas."""
        rng = np.random.default_rng(8)
        task = random_task(rng, c=4, k=3, d=8, n_test=6)
        mask = refine.ChannelMask(selected=np.arange(5), scores=np.zeros(8))
        args = (task, mask, EngineConfig(), [0.0, 1.0], [1.0, 5.5], [0.0, 0.2, 0.7])
        with block_budget(4, 2):  # 4 held-out rows x 4 classes of 2 kept shots
            runs = engine._run_plan(4, 4, 2, 5)[1]
            with mock.patch.object(engine, "_cache_scores", wraps=engine._cache_scores) as spy:
                got = grid_search(*args)
            want = brute_force_grid(*args)
        assert len(runs) > 1
        assert [call.args[3] for call in spy.call_args_list] == runs
        assert all(list(call.args[4]) == [0.0, 0.2, 0.7] for call in spy.call_args_list)
        assert got == want

    def test_one_exp_per_tile_of_the_run_plan_and_beta(self):
        """Each tile's gap 1 - cos is taken once and its weights take one
        ``_decay`` (one exp) per beta, whatever the gammas: each gamma's
        scores take the same weights into class sums."""
        rng = np.random.default_rng(8)
        task = random_task(rng, c=4, k=3, d=8, n_test=6)
        mask = refine.ChannelMask(selected=np.arange(5), scores=np.zeros(8))
        args = (task, mask, EngineConfig(), [0.0, 1.0], [1.0, 5.5], [0.0, 0.2, 0.7])
        with block_budget(4, 2):
            blocks, runs = engine._run_plan(4, 4, 2, 5)
            with mock.patch.object(engine, "_decay", wraps=engine._decay) as spy:
                got = grid_search(*args)
            want = brute_force_grid(*args)
        tiles = len(blocks) * len(runs)  # each run's plan: the row blocks by the run's keys
        assert len(blocks) > 1 and len(runs) > 1
        assert spy.call_count == 2 * tiles
        assert got == want

    def test_text_channels_not_taken_when_every_gamma_is_zero(self):
        """Every score is 1 when every gamma is 0, so the search takes no
        channels of the text rows, as ``ape_logits`` takes none at gamma 0."""
        rng = np.random.default_rng(8)
        task = random_task(rng, c=4, k=3, d=8, n_test=6)
        mask = refine.ChannelMask(selected=np.arange(5), scores=np.zeros(8))
        for gammas, takes in (([0.0], 0), ([0.0, 0.2], 1)):
            args = (task, mask, EngineConfig(), [0.0, 1.0], [1.0, 5.5], gammas)
            with mock.patch.object(refine, "_take_channels", wraps=refine._take_channels) as spy:
                got = grid_search(*args)
            assert sum(call.args[0] is task.text_features for call in spy.call_args_list) == takes
            assert got == brute_force_grid(*args)

    @pytest.mark.parametrize("holdout", [False, True])
    def test_every_candidate_predicts_as_ape_logits_across_class_runs(self, holdout):
        """On a task whose search takes several class runs, every candidate's
        predictions are ``predict(ape_logits(...))``'s, bitwise; in the
        holdout the cache is the first K - 1 shots of each class."""
        task, mask = several_runs_instance()
        probe = FewShotTask(task.text_features, *holdout_split_loop(task)) if holdout else task
        assert len(engine._run_plan(len(probe.test_features), probe.c, probe.k, mask.q)[1]) > 1
        assert_grid_predicts_as_ape_logits(task, mask, probe, None if holdout else task)

    @pytest.mark.parametrize("holdout", [False, True])
    def test_peak_memory_does_not_grow_with_ck_past_one_run(self, holdout):
        """At a fixed split and budget, eight times the shots cost the search
        no more than one class run's keys: it holds one run's keys, scores
        and tile, never all C*K keys, their scores or (in the holdout) a
        gather of all kept shots."""
        rng = np.random.default_rng(0)
        c, d, q, n, budget = 16, 64, 32, 64, 8 * 8192
        mask = refine.ChannelMask(selected=np.arange(q), scores=np.zeros(d))
        peaks, run_keys = {}, {}
        for k in (9, 72):
            task = random_task(rng, c=c, k=k, d=d, n_test=1)
            val_task = None if holdout else random_task(rng, c=c, k=k, d=d, n_test=n)
            with mock.patch.object(numkit, "_BLOCK_BYTES", budget):
                run_keys[k] = 8 * q * (k - holdout) * max(1, budget // (16 * (k - holdout) * q))
                tracemalloc.start()
                try:
                    grid_search(task, mask, EngineConfig(), [0.0, 1.0], [1.0, 5.5], [0.1, 0.2], val_task)
                    _, peaks[k] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert run_keys[72] <= budget // 2 < 8 * q * c * 71
        assert peaks[72] - peaks[9] <= run_keys[72]

    def test_wrong_width_mask_rejected(self):
        rng = np.random.default_rng(9)
        task = random_task(rng, c=3, k=2, d=8)
        mask = refine.full_mask(6)
        with pytest.raises(ValueError, match="^mask covers 6 channels, matrix has 8$"):
            grid_search(task, mask, EngineConfig(), [1.0], [1.0])

    def test_peak_memory_does_not_grow_with_n_x_ck(self):
        """Past one row block, more validation rows cost only their N x C
        and N x Q arrays: no N x C*K matrix is held (a whole-split search held two)."""
        rng = np.random.default_rng(0)
        c, k, d, q = 32, 16, 64, 32
        task = random_task(rng, c=c, k=k, d=d, n_test=1)
        mask = refine.ChannelMask(selected=np.arange(q), scores=np.zeros(d))
        peaks = {}
        for n in (512, 2048):
            val_task = random_task(rng, c=c, k=k, d=d, n_test=n)
            with block_budget(c * k, 64):
                tracemalloc.start()
                try:
                    grid_search(task, mask, EngineConfig(), [0.0, 1.0], [1.0, 5.5], [0.1, 0.2], val_task)
                    _, peaks[n] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert peaks[2048] - peaks[512] <= 2 * (2048 - 512) * 8 * (c + q)

    def test_peak_memory_grows_with_n_by_logits_and_candidates_only(self):
        """Past one row block, each more validation row costs the search its
        8 * C bytes of zero-shot logits and 16 bytes per candidate (top logit
        and class id), not its 8 * Q refined channels: the split is refined
        one tile row block at a time, and no refine call gets more rows."""
        rng = np.random.default_rng(1)
        c, k, d, q, n = 16, 8, 64, 64, 512
        grids = ([0.0, 1.0], [1.0, 5.5], [0.1, 0.2])
        candidates = np.prod([len(grid) for grid in grids])
        task = random_task(rng, c=c, k=k, d=d, n_test=1)
        mask = refine.ChannelMask(selected=np.arange(q), scores=np.zeros(d))
        peaks = {}
        for rows in (n, 4 * n):
            val_task = random_task(rng, c=c, k=k, d=d, n_test=rows)
            takes = mock.patch.object(refine, "_take_channels", wraps=refine._take_channels)
            with block_budget(c * k, 64), takes as spy:
                block = engine._tile_plan(rows, c, k)[0][0].stop
                tracemalloc.start()
                try:
                    grid_search(task, mask, EngineConfig(), *grids, val_task)
                    _, peaks[rows] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            taken = [len(call.args[0]) for call in spy.call_args_list
                     if np.may_share_memory(call.args[0], val_task.test_features)]
            assert taken and max(taken) <= block < rows
        # Slack: the final hit count's bool per candidate and row, and allocator rounding.
        grown, slack = 3 * n * (8 * c + 16 * candidates), 3 * n * 2 * candidates
        assert slack < 3 * n * 8 * q
        assert peaks[4 * n] - peaks[n] <= grown + slack


class TestEvalCommand:
    def test_eval_on_training_task_matches_train_report(self, workspace):
        tmp_path, manifest, mask_path = workspace
        train_report = tmp_path / "train.report"
        ckpt = tmp_path / "model.ckpt"
        main([
            "train", "--task", str(manifest), "--mask", str(mask_path),
            "--epochs", "3", "--batch-size", "8", "--out", str(ckpt),
            "--report", str(train_report), "--seed", "1",
        ])
        eval_report = tmp_path / "eval.report"
        rc = main([
            "eval", "--ckpt", str(ckpt), "--task", str(manifest),
            "--report", str(eval_report),
        ])
        assert rc == 0
        assert read_kv(eval_report)["accuracy.ape_t"] == read_kv(train_report)["accuracy.ape_t"]

    def test_eval_takes_the_test_rows_norms_once(self, workspace):
        """The loaded task's ``test_norms`` serve the refined test rows: one
        norm pass over the 60 x 32 test rows, not a second one in the walk."""
        tmp_path, manifest, mask_path = workspace
        ckpt = tmp_path / "model.ckpt"
        assert main([
            "train", "--task", str(manifest), "--mask", str(mask_path), "--epochs", "1",
            "--out", str(ckpt), "--report", str(tmp_path / "t.report"),
        ]) == 0
        with mock.patch.object(numkit, "_row_norms", wraps=numkit._row_norms) as spy:
            assert main(["eval", "--ckpt", str(ckpt), "--task", str(manifest),
                         "--report", str(tmp_path / "e.report")]) == 0
        shapes = [call.args[0].shape for call in spy.call_args_list]
        assert shapes.count((60, 32)) == 1, shapes

    def test_eval_never_holds_the_refined_support(self, tmp_path):
        """``ape eval`` walks ``ape infer``'s class runs with the checkpoint's
        learnables and builds no training state: with the keys split into 16
        class runs its traced peak stays below the C*K x Q refined support
        that a state holds whole."""
        c, k, d, q = 32, 16, 256, 128
        task = dataio.gen_synthetic(c, k, d, 2, 0.5, seed=4)
        manifest, ckpt = dataio.save_task(task, tmp_path), tmp_path / "m.ckpt"
        mask = refine.ChannelMask(selected=np.arange(q), scores=np.zeros(d))
        trainer.save_checkpoint(ckpt, trainer.init_state(task, mask, EngineConfig()))
        with block_budget(c * k, 16):
            assert len(engine._run_plan(2 * c, c, k, q)[1]) == 16
            tracemalloc.start()
            try:
                assert main(["eval", "--ckpt", str(ckpt), "--task", str(manifest),
                             "--report", str(tmp_path / "e.report")]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 8 * c * k * q

    def test_v1_checkpoint_counted_in_the_report_and_warned_on_one_line(self, workspace, capsys):
        """A v1 file loads under the default config: the eval report adds one
        key saying so, every other line stays as for the same v2 file, and
        stderr gets one line without Python's source echo."""
        tmp_path, manifest, mask_path = workspace
        ckpt, report = tmp_path / "model.ckpt", tmp_path / "e.report"
        assert main([
            "train", "--task", str(manifest), "--mask", str(mask_path), "--epochs", "2",
            "--out", str(ckpt), "--report", str(tmp_path / "t.report"),
        ]) == 0
        assert main(["eval", "--ckpt", str(ckpt), "--task", str(manifest), "--report", str(report)]) == 0
        v2_lines = strip_volatile(report).splitlines()
        blob = ckpt.read_bytes()
        cfg_at = len(trainer.CKPT_MAGIC) + 8 * (3 + 24)  # magic, C K Q, Q mask indices
        ckpt.write_bytes(trainer._CKPT_MAGIC_V1 + blob[len(trainer.CKPT_MAGIC) : cfg_at]
                         + blob[cfg_at + trainer._CFG_BLOCK.size :])
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--task", str(manifest), "--report", str(report)]) == 0
        v1_lines = strip_volatile(report).splitlines()
        assert v1_lines == v2_lines + ["warnings.config_defaulted = 1"]
        assert capsys.readouterr().err == (
            f"warning: {ckpt} is a v1 checkpoint with no engine config; loading it under the defaults\n"
        )

    def test_other_load_warnings_pass_through_uncounted(self, tmp_path, capsys):
        """Refining the support rows on a v2 checkpoint's channels warns of a
        row that is zero on them: that warning is raised as it is, and the
        report gains no warnings key."""
        rng = np.random.default_rng(5)
        task = random_task(rng, c=3, k=2, d=8, n_test=4)
        support = task.support_features.copy()
        support[0] = np.eye(8)[7]  # zero on the kept channels 0-3
        task = FewShotTask(task.text_features, support, task.test_features, task.test_labels)
        mask = refine.ChannelMask(selected=np.arange(4), scores=np.zeros(8))
        manifest, ckpt, report = dataio.save_task(task, tmp_path), tmp_path / "m.ckpt", tmp_path / "e.report"
        with pytest.warns(numkit.ZeroRowWarning):
            trainer.save_checkpoint(ckpt, trainer.init_state(task, mask, EngineConfig()))
        capsys.readouterr()
        with pytest.warns(numkit.ZeroRowWarning, match="1 zero row"):
            assert main(["eval", "--ckpt", str(ckpt), "--task", str(manifest), "--report", str(report)]) == 0
        assert not [key for key in read_kv(report) if key.startswith("warnings.")]
        assert capsys.readouterr().err == ""

    def test_report_echoes_checkpoint_q_without_lambda(self, workspace):
        """A checkpoint stores Q but not lambda, so eval echoes only Q."""
        tmp_path, manifest, _ = workspace
        mask_path, ckpt, report = tmp_path / "mask20.txt", tmp_path / "q20.ckpt", tmp_path / "e.report"
        assert main(["refine", "--task", str(manifest), "--q", "20", "--out", str(mask_path)]) == 0
        assert main([
            "train", "--task", str(manifest), "--mask", str(mask_path), "--epochs", "1",
            "--out", str(ckpt), "--report", str(tmp_path / "t.report"),
        ]) == 0
        assert main(["eval", "--ckpt", str(ckpt), "--task", str(manifest), "--report", str(report)]) == 0
        kv = read_kv(report)
        assert kv["config.q"] == "20" and "config.lambda" not in kv

    def test_eval_runs_under_the_config_the_checkpoint_was_trained_with(self, tmp_path):
        """``ape eval`` takes no engine flags: it reports train's accuracy and
        echoes train's config (with the defaults it read 44.17 against 30.0)."""
        assert main([
            "synth", "--c", "20", "--k", "8", "--d", "64", "--n-test", "6",
            "--sigma", "0.6", "--seed", "3", "--out", str(tmp_path),
        ]) == 0
        manifest, mask_path, ckpt = tmp_path / "task.manifest", tmp_path / "mask.txt", tmp_path / "m.ckpt"
        assert main(["refine", "--task", str(manifest), "--q", "48", "--out", str(mask_path)]) == 0
        train_report, eval_report = tmp_path / "train.report", tmp_path / "eval.report"
        assert main([
            "train", "--task", str(manifest), "--mask", str(mask_path), "--alpha", "2",
            "--beta", "3", "--no-renormalize", "--epochs", "5", "--out", str(ckpt),
            "--report", str(train_report),
        ]) == 0
        assert main(["eval", "--ckpt", str(ckpt), "--task", str(manifest), "--report", str(eval_report)]) == 0
        trained, evaluated = read_kv(train_report), read_kv(eval_report)
        assert evaluated["accuracy.ape_t"] == trained["accuracy.ape_t"]
        engine_keys = [f"config.{f.name}" for f in dataclasses.fields(EngineConfig)]
        assert [evaluated[key] for key in engine_keys] == [trained[key] for key in engine_keys]
        assert [evaluated[key] for key in engine_keys] == ["2.0", "3.0", "0.2", "1", "1.0", "False"]

    def test_bad_config_block_is_usage_error(self, workspace, capsys):
        ws_path, manifest, mask_path = workspace
        ckpt = ws_path / "model.ckpt"
        assert main([
            "train", "--task", str(manifest), "--mask", str(mask_path), "--epochs", "1",
            "--out", str(ckpt), "--report", str(ws_path / "t.report"),
        ]) == 0
        blob = bytearray(ckpt.read_bytes())
        renormalize_byte = len(trainer.CKPT_MAGIC) + 8 * (3 + 24) + trainer._CFG_BLOCK.size - 1
        assert blob[renormalize_byte] == 1
        blob[renormalize_byte] = 2
        ckpt.write_bytes(bytes(blob))
        capsys.readouterr()
        rc = main(["eval", "--ckpt", str(ckpt), "--task", str(manifest), "--report", str(ws_path / "e.report")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint holds a bad engine config: {ckpt}: renormalize must be 0 or 1, got 2\n"
        )

    def test_distribution_shift_lowers_accuracy(self, tmp_path):
        """Evaluating a checkpoint on a noisier task from the same prototypes
        scores at or below the in-domain accuracy in most seeds."""
        from ape.engine import accuracy
        from ape.trainer import forward, load_checkpoint, save_checkpoint

        cfg = EngineConfig()
        held = 0
        for seed in range(10):
            train_task = dataio.gen_synthetic(8, 4, 32, 20, 0.5, seed=seed)
            shifted = dataio.gen_synthetic(8, 4, 32, 20, 0.9, seed=seed)
            sim = refine.inter_class_similarity(train_task.text_features)
            var = refine.inter_class_variance(train_task.text_features)
            mask = refine.select_channels(sim, var, 0.7, 24)
            state, _ = trainer.train(
                train_task, mask, cfg,
                trainer.OptimConfig(lr=1e-3, epochs=5, batch_size=16, seed=seed),
            )
            in_acc = accuracy(forward(state, train_task.test_features), train_task.test_labels)
            ckpt = tmp_path / f"shift{seed}.ckpt"
            save_checkpoint(ckpt, state)
            rebound = load_checkpoint(ckpt, shifted)
            out_acc = accuracy(forward(rebound, shifted.test_features), shifted.test_labels)
            held += out_acc <= in_acc
        assert held >= 8

    def test_negative_second_moment_is_usage_error(self, workspace):
        ws_path, manifest, mask_path = workspace
        ckpt = ws_path / "model.ckpt"
        main([
            "train", "--task", str(manifest), "--mask", str(mask_path),
            "--epochs", "2", "--batch-size", "8", "--out", str(ckpt),
            "--report", str(ws_path / "t.report"),
        ])
        blob = bytearray(ckpt.read_bytes())
        # The last v_scores float sits just before the u64 step counter.
        assert struct.unpack("<d", blob[-16:-8])[0] > 0
        blob[-9] ^= 0x80
        ckpt.write_bytes(bytes(blob))
        rc = main([
            "eval", "--ckpt", str(ckpt), "--task", str(manifest),
            "--report", str(ws_path / "e.report"),
        ])
        assert rc == 2

    def test_class_count_mismatch_is_usage_error(self, workspace, tmp_path):
        ws_path, manifest, mask_path = workspace
        ckpt = ws_path / "model.ckpt"
        main([
            "train", "--task", str(manifest), "--mask", str(mask_path),
            "--epochs", "1", "--out", str(ckpt), "--report", str(ws_path / "t.report"),
        ])
        other_dir = tmp_path / "other"
        main([
            "synth", "--c", "5", "--k", "4", "--d", "32", "--n-test", "4",
            "--sigma", "0.5", "--seed", "4", "--out", str(other_dir),
        ])
        rc = main([
            "eval", "--ckpt", str(ckpt), "--task", str(other_dir / "task.manifest"),
            "--report", str(tmp_path / "e.report"),
        ])
        assert rc == 2

    def test_unlabelled_task_rejected_before_the_checkpoint_is_bound(self, workspace, capsys):
        ws_path, manifest, mask_path = workspace
        ckpt = ws_path / "model.ckpt"
        assert main([
            "train", "--task", str(manifest), "--mask", str(mask_path),
            "--epochs", "1", "--out", str(ckpt), "--report", str(ws_path / "t.report"),
        ]) == 0
        task = dataio.load_task(manifest)
        task.test_labels = None
        unlabelled = dataio.save_task(task, ws_path / "unlabelled")
        capsys.readouterr()
        with mock.patch.object(trainer, "_read_checkpoint", wraps=trainer._read_checkpoint) as spy:
            rc = main([
                "eval", "--ckpt", str(ckpt), "--task", str(unlabelled),
                "--report", str(ws_path / "e.report"),
            ])
        assert rc == 2
        assert capsys.readouterr().err == "error: eval task must provide test_labels\n"
        spy.assert_not_called()
        assert not (ws_path / "e.report").exists()


class TestSeedFallback:
    def test_env_seed_used_when_flag_absent(self, workspace, monkeypatch):
        tmp_path, manifest, mask_path = workspace
        monkeypatch.setenv("APE_SEED", "77")
        report = tmp_path / "env.report"
        rc = main([
            "infer", "--task", str(manifest), "--mask", str(mask_path),
            "--report", str(report),
        ])
        assert rc == 0
        assert read_kv(report)["config.seed"] == "77"

    def test_non_integer_env_seed_is_usage_error(self, workspace, monkeypatch, capsys):
        tmp_path, manifest, mask_path = workspace
        monkeypatch.setenv("APE_SEED", "abc")
        rc = main([
            "infer", "--task", str(manifest), "--mask", str(mask_path),
            "--report", str(tmp_path / "env.report"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: APE_SEED")


class TestConfigDefaults:
    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_left_out_flags_keep_the_config_defaults(self, workspace, monkeypatch, command):
        """A config flag left out sets no attribute (``--seed``, which every
        subcommand takes, falls back to APE_SEED), so the report echoes each
        field's dataclass default."""
        tmp_path, manifest, mask_path = workspace
        monkeypatch.delenv("APE_SEED", raising=False)
        configs = (EngineConfig, trainer.OptimConfig) if command == "train" else (EngineConfig,)
        fields = [f for cls in configs for f in dataclasses.fields(cls)]
        argv = [command, "--task", str(manifest), "--mask", str(mask_path), "--report", str(tmp_path / "d.report")]
        argv += ["--out", str(tmp_path / "d.ckpt")] if command == "train" else []
        args = cli.build_parser().parse_args(argv)
        assert [f.name for f in fields if f.name != "seed" and hasattr(args, f.name)] == []
        assert main(argv) == 0
        kv = read_kv(tmp_path / "d.report")
        assert {f.name: kv.get(f"config.{f.name}") for f in fields} == {f.name: str(f.default) for f in fields}


class TestConfigErrors:
    def test_non_finite_beta_is_usage_error(self, workspace, capsys):
        tmp_path, manifest, mask_path = workspace
        rc = main([
            "infer", "--task", str(manifest), "--mask", str(mask_path),
            "--beta", "nan", "--report", str(tmp_path / "nan.report"),
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: beta")

    @pytest.mark.parametrize("flag, value, name", [
        ("--lr", "nan", "lr"),
        ("--lr", "0", "lr"),
        ("--lr", "inf", "lr"),
        ("--batch-size", "0", "batch_size"),
        ("--epochs", "-1", "epochs"),
        ("--weight-decay", "-1", "weight_decay"),
        ("--weight-decay", "nan", "weight_decay"),
    ])
    def test_bad_optimizer_flag_is_usage_error(self, workspace, capsys, flag, value, name):
        tmp_path, manifest, mask_path = workspace
        rc = main([
            "train", "--task", str(manifest), "--mask", str(mask_path), flag, value,
            "--out", str(tmp_path / "bad.ckpt"), "--report", str(tmp_path / "bad.report"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert not (tmp_path / "bad.ckpt").exists()


_OPEN_SINKS = []  # one list of paths per active ``files_opened`` block
_HOOKED = []


def _record_open(event, args):
    if event == "open" and _OPEN_SINKS and not isinstance(args[0], int):
        _OPEN_SINKS[-1].append(Path(os.fsdecode(args[0])))


@contextlib.contextmanager
def files_opened():
    """The paths of every file opened inside the block, in any mode, as the
    interpreter's ``open`` audit event reports them."""
    if not _HOOKED:  # an audit hook cannot be removed, so it is added once
        sys.addaudithook(_record_open)
        _HOOKED.append(True)
    _OPEN_SINKS.append([])
    try:
        yield _OPEN_SINKS[-1]
    finally:
        _OPEN_SINKS.pop()


class TestFilesRead:
    """A command opens the files of the roles it uses and no others, so a
    damaged file in a role it never uses cannot fail it."""

    @pytest.fixture()
    def val_workspace(self, workspace):
        tmp_path, manifest, mask_path = workspace
        assert main(["synth", "--c", "6", "--k", "4", "--d", "32", "--n-test", "5",
                     "--sigma", "0.5", "--seed", "3", "--out", str(tmp_path / "val")]) == 0
        return tmp_path, manifest, mask_path, tmp_path / "val" / "task.manifest"

    @staticmethod
    def run(root, argv):
        with files_opened() as paths:
            assert main([str(a) for a in argv]) == 0
        return {p.relative_to(root).as_posix() for p in paths if root in p.parents}

    def search_argv(self, val_workspace, report):
        tmp_path, manifest, mask_path, val = val_workspace
        return ["search", "--task", manifest, "--mask", mask_path, "--alpha-grid", "0:1:3",
                "--beta-grid", "2:8:3", "--val-task", val, "--report", tmp_path / report]

    def test_refine_opens_only_the_text_rows(self, workspace):
        tmp_path, manifest, _ = workspace
        argv = ["refine", "--task", manifest, "--q", "8", "--out", tmp_path / "m8.txt"]
        assert self.run(tmp_path, argv) == {"task.manifest", "task_text_features.apef", "m8.txt"}

    def test_search_opens_the_task_cache_and_the_val_split(self, val_workspace):
        tmp_path = val_workspace[0]
        assert self.run(tmp_path, self.search_argv(val_workspace, "s.report")) == {
            "task.manifest", "task_text_features.apef", "task_support_features.apef",
            "task_support_labels.apef", "mask.txt", "val/task.manifest",
            "val/task_test_features.apef", "val/task_test_labels.apef", "s.report",
        }

    @staticmethod
    def holdout_argv(workspace, report):
        tmp_path, manifest, mask_path = workspace
        return ["search", "--task", manifest, "--mask", mask_path, "--alpha-grid", "0:2:3",
                "--beta-grid", "2:8:3", "--gamma-grid", "0:1:2", "--report", tmp_path / report]

    def test_holdout_search_opens_no_test_file(self, workspace):
        tmp_path = workspace[0]
        assert self.run(tmp_path, self.holdout_argv(workspace, "h.report")) == {
            "task.manifest", "task_text_features.apef", "task_support_features.apef",
            "task_support_labels.apef", "mask.txt", "h.report",
        }

    def test_damaged_test_files_leave_the_holdout_search_as_it_was(self, workspace):
        tmp_path = workspace[0]
        assert main([str(a) for a in self.holdout_argv(workspace, "intact.report")]) == 0
        for name in ("task_test_features", "task_test_labels"):
            (tmp_path / f"{name}.apef").write_bytes(b"not an APEF file")
        assert main([str(a) for a in self.holdout_argv(workspace, "damaged.report")]) == 0
        assert (tmp_path / "damaged.report").read_bytes() == (tmp_path / "intact.report").read_bytes()

    def test_damaged_files_of_unused_roles_change_nothing(self, val_workspace):
        tmp_path, manifest, mask_path, _ = val_workspace
        search = self.search_argv(val_workspace, "intact.report")
        assert main([str(a) for a in search]) == 0
        for name in ("task_test_features", "task_test_labels", "val/task_text_features",
                     "val/task_support_features", "val/task_support_labels"):
            (tmp_path / f"{name}.apef").write_bytes(b"not an APEF file")
        search = self.search_argv(val_workspace, "damaged.report")
        assert main([str(a) for a in search]) == 0
        assert (tmp_path / "damaged.report").read_bytes() == (tmp_path / "intact.report").read_bytes()
        for name in ("task_support_features", "task_support_labels"):
            (tmp_path / f"{name}.apef").write_bytes(b"not an APEF file")
        refine_argv = ["refine", "--task", str(manifest), "--lambda", "0.7", "--q", "24"]
        assert main([*refine_argv, "--out", str(tmp_path / "again.txt")]) == 0
        assert (tmp_path / "again.txt").read_bytes() == mask_path.read_bytes()


class TestEmptyTestSplit:
    @pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
    @pytest.mark.parametrize("command", ["infer", "search"])
    def test_empty_test_split_names_test_features(self, workspace, capsys, command, labelled):
        """A 0 x D test_features file is rejected where the task is loaded."""
        tmp_path, manifest, mask_path = workspace
        task = dataio.load_task(manifest)
        if not labelled:
            task.test_labels = None
        empty = dataio.save_task(task, tmp_path / "empty")
        dataio.write_matrix(tmp_path / "empty" / "task_test_features.apef", np.zeros((0, task.d)))
        if labelled:
            dataio.write_matrix(tmp_path / "empty" / "task_test_labels.apef", np.zeros((0, 1)))
        argv = {
            "infer": ["--task", empty, "--report", tmp_path / "r"],
            "search": ["--task", manifest, "--val-task", empty, "--alpha-grid", "0:1:2", "--beta-grid", "1:2:2"],
        }[command]
        rc = main([command, "--mask", str(mask_path), *map(str, argv)])
        assert rc == 1
        assert capsys.readouterr().err == "error: test_features: expected Nx32 with N >= 1, got 0x32\n"


class TestUsageErrors:
    @pytest.mark.parametrize("command, flag, value, message", [
        ("refine", "--q", "0", "--q must lie in [1, 32], got 0"),
        ("refine", "--lambda", "1.5", "lambda must lie in [0, 1], got 1.5"),
        ("refine", "--lambda", "nan", "lambda must lie in [0, 1], got nan"),
        ("refine", "--lambda", "-0.1", "lambda must lie in [0, 1], got -0.1"),
        ("infer", "--alpha", "-1", "alpha must be finite and >= 0, got -1.0"),
    ], ids=["refine-q-0", "refine-lambda-1.5", "refine-lambda-nan", "refine-lambda-negative", "infer-alpha-negative"])
    def test_bad_flag_exits_2(self, workspace, capsys, command, flag, value, message):
        tmp_path, manifest, mask_path = workspace
        out = tmp_path / "bad.out"
        extra = {
            "refine": ["--q", "24", "--out", str(out)],
            "infer": ["--mask", str(mask_path), "--report", str(out)],
        }[command]
        rc = main([command, "--task", str(manifest), *extra, f"{flag}={value}"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--c", "1", "need at least 2 classes and 2 channels"),
        ("--d", "1", "need at least 2 classes and 2 channels"),
        ("--k", "0", "k and n_test_per_class must be >= 1"),
        ("--n-test", "0", "k and n_test_per_class must be >= 1"),
        ("--sigma", "-1", "noise_sigma must be finite and >= 0, got -1.0"),
        ("--sigma", "nan", "noise_sigma must be finite and >= 0, got nan"),
        ("--sigma", "inf", "noise_sigma must be finite and >= 0, got inf"),
    ], ids=["c-1", "d-1", "k-0", "n-test-0", "sigma-negative", "sigma-nan", "sigma-inf"])
    def test_bad_synth_flag_exits_2(self, tmp_path, capsys, flag, value, message):
        flags = {"--c": "3", "--k": "2", "--d": "8", "--n-test": "2", "--sigma": "0.5", flag: value}
        rc = main(["synth", *(f"{name}={v}" for name, v in flags.items()), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())


class TestMaskEcho:
    """Lambda and Q live in the mask file; the reports echo them from it."""

    COMMANDS = {
        "infer": ["--report", "{out}"],
        "train": ["--epochs", "1", "--out", "{out}.ckpt", "--report", "{out}"],
        "search": ["--alpha-grid", "0:1:2", "--beta-grid", "1:2:2", "--report", "{out}"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_report_echoes_mask_lambda_and_q(self, workspace, command):
        tmp_path, manifest, _ = workspace
        mask_path = tmp_path / "mask03.txt"
        assert main([
            "refine", "--task", str(manifest), "--lambda", "0.3", "--q", "20",
            "--out", str(mask_path),
        ]) == 0
        out = tmp_path / f"{command}.report"
        extra = [arg.format(out=out) for arg in self.COMMANDS[command]]
        assert main([command, "--task", str(manifest), "--mask", str(mask_path), *extra]) == 0
        kv = read_kv(out)
        assert (kv["config.lambda"], kv["config.q"]) == ("0.3", "20")

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_mask_width_mismatch_is_usage_error(self, workspace, capsys, command):
        """A mask for another channel count is rejected, naming both widths,
        before any logits are computed."""
        tmp_path, manifest, _ = workspace
        narrow = tmp_path / "narrow.txt"
        refine.save_mask(narrow, refine.full_mask(16), 0.7)
        out = tmp_path / f"{command}.report"
        extra = [arg.format(out=out) for arg in self.COMMANDS[command]]
        with mock.patch.object(cli, "zero_shot_logits") as zs, \
                mock.patch.object(trainer, "train") as train, \
                mock.patch.object(cli, "grid_search") as search:
            rc = main([command, "--task", str(manifest), "--mask", str(narrow), *extra])
        assert rc == 2
        assert capsys.readouterr().err == "error: mask covers 16 channels, task has 32\n"
        assert zs.call_count == train.call_count == search.call_count == 0
        assert not out.exists()

    def test_mask_lambda_out_of_range_is_runtime_error(self, workspace, capsys):
        tmp_path, manifest, _ = workspace
        mask_path = tmp_path / "lam15.txt"
        refine.save_mask(mask_path, refine.full_mask(32), 1.5)
        rc = main([
            "infer", "--task", str(manifest), "--mask", str(mask_path),
            "--report", str(tmp_path / "r"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {mask_path}") and "lambda" in err


def subcommand_options():
    """The option strings of every subcommand of ``cli.build_parser()``."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {opt for action in sp._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sp in sub.choices.items()
    }


class TestSurface:
    """The command line is pinned, so a flag cannot come or go unnoticed."""

    ENGINE = {"--alpha", "--beta", "--gamma", "--kl-sign", "--kl-temperature", "--no-renormalize"}
    OPTIONS = {
        "refine": {"--task", "--lambda", "--q", "--out", "--seed"},
        "infer": {"--task", "--mask", *ENGINE, "--report", "--seed"},
        "train": {"--task", "--mask", *ENGINE, "--lr", "--weight-decay", "--epochs", "--batch-size",
                  "--out", "--report", "--seed"},
        "search": {"--task", "--mask", "--kl-sign", "--kl-temperature", "--no-renormalize",
                   "--alpha-grid", "--beta-grid", "--gamma-grid", "--val-task", "--report", "--seed"},
        "synth": {"--c", "--k", "--d", "--n-test", "--sigma", "--out", "--seed"},
        "eval": {"--ckpt", "--task", "--report", "--seed"},
    }

    def test_every_subcommand_has_exactly_its_options(self):
        assert subcommand_options() == self.OPTIONS

    @pytest.mark.parametrize("argv", [
        ["eval", "--ckpt", "m.ckpt", "--task", "t.manifest", "--report", "r", "--alpha", "1"],
        ["search", "--task", "t.manifest", "--mask", "m.txt", "--alpha-grid", "0", "--beta-grid", "1",
         "--beta", "2"],
        ["search", "--task", "t.manifest", "--mask", "m.txt", "--alpha-grid", "0", "--beta-grid", "1",
         "--alpha", "1.7"],
    ], ids=["eval-alpha", "search-beta", "search-alpha"])
    def test_removed_engine_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " in capsys.readouterr().err

    def test_readme_usage_commands_parse(self):
        """Every ``ape ...`` command in the README's usage block names only
        flags that exist."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command-line usage", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [ln for ln in block.replace("\\\n", " ").splitlines() if ln.startswith("ape ")]
        assert [shlex.split(c)[1] for c in commands] == ["synth", "refine", "search", "infer", "train", "eval"]
        for command in commands:
            cli.build_parser().parse_args(shlex.split(command)[1:])

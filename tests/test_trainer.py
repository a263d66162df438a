"""Unit and property tests for residual training."""

import dataclasses
import inspect
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ape import engine, numkit, refine, trainer
from ape.engine import EngineConfig, FewShotTask
from ape.trainer import OptimConfig
from helpers import (
    adamw_reference,
    apply_mask,
    block_budget,
    cache_scores_unblocked,
    cross_entropy,
    frozen_checksum,
    grads,
    holds_support,
    l2_normalize_rows,
    param_count,
    random_task,
    several_runs_instance,
    shifted_keys_logits,
    stored_task,
    support_affinity,
    train_reference,
    unit_rows,
)


def make_instance(rng, c=3, k=2, d=8, q=5, alpha=0.9, beta=3.0, gamma=0.3):
    task = random_task(rng, c=c, k=k, d=d, n_test=4)
    mask = refine.ChannelMask(
        selected=np.sort(rng.choice(d, q, replace=False)), scores=np.zeros(d)
    )
    cfg = EngineConfig(alpha=alpha, beta=beta, gamma=gamma)
    return task, mask, cfg


def numeric_grads(state, f_batch, y, h=1e-5):
    """Central finite differences of the batch loss w.r.t. res and scores."""

    def loss():
        return cross_entropy(trainer.forward(state, f_batch), y)

    num_res = np.zeros_like(state.res)
    for i in range(state.res.shape[0]):
        for j in range(state.res.shape[1]):
            state.res[i, j] += h
            up = loss()
            state.res[i, j] -= 2 * h
            down = loss()
            state.res[i, j] += h
            num_res[i, j] = (up - down) / (2 * h)
    num_scores = np.zeros_like(state.scores)
    for i in range(len(state.scores)):
        state.scores[i] += h
        up = loss()
        state.scores[i] -= 2 * h
        down = loss()
        state.scores[i] += h
        num_scores[i] = (up - down) / (2 * h)
    return num_res, num_scores


def max_rel_err(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-7)
    err = np.abs(analytic - numeric) / scale
    # entries that are zero on both sides up to finite-difference noise
    err[np.maximum(np.abs(analytic), np.abs(numeric)) < 1e-7] = 0.0
    return float(err.max())


class TestParamCount:
    def test_reference_budget(self):
        assert param_count(1000, 500, 16) == 516_000

    @pytest.mark.parametrize("c, k, d, q", [(1, 1, 2, 1), (3, 2, 8, 5)])
    def test_counts_the_learnables(self, c, k, d, q):
        task, mask, cfg = make_instance(np.random.default_rng(35), c=c, k=k, d=d, q=q)
        state = trainer.init_state(task, mask, cfg)
        assert state.param_count() == param_count(c, q, k) == state.res.size + state.scores.size

    def test_arithmetic(self):
        state = TestAdamWStep().make_state(np.zeros((100, 800)), np.zeros(400))
        assert state.param_count() == param_count(100, 800, 4) == 80_400

    def test_rejects_nonpositive(self):
        state = TestAdamWStep().make_state(np.zeros((2, 0)), np.zeros(2), EngineConfig(renormalize=False))
        with pytest.raises(ValueError, match="counts must be positive"):
            state.param_count()


class TestInitState:
    def test_fresh_state_matches_training_free_bitwise(self):
        rng = np.random.default_rng(30)
        task, mask, cfg = make_instance(rng)
        state = trainer.init_state(task, mask, cfg)
        got = trainer.forward(state, task.test_features)
        want = engine.ape_logits(task, mask, cfg)
        assert got.tobytes() == want.tobytes()

    def test_fresh_state_matches_training_free_bitwise_across_class_runs(self):
        """Criterion 9 where ``ape_logits`` scores the cache by several class
        runs: ``init_state`` scores the same runs in the same softmax blocks.
        Scored as one run of all 4800 support rows, one score moved in its
        last bits and 49 logits by up to 5.6e-17."""
        task, mask = several_runs_instance()
        assert len(engine._run_plan(len(task.test_features), task.c, task.k, mask.q)[1]) > 1
        for cfg in (EngineConfig(), EngineConfig(gamma=1.0, kl_sign=-1, kl_temperature=0.7)):
            state = trainer.init_state(task, mask, cfg)
            got = trainer.forward(state, task.test_features, task.test_norms)
            assert got.tobytes() == engine.ape_logits(task, mask, cfg).tobytes()

    def test_text_channels_not_taken_at_gamma_zero(self):
        """At gamma = 0 every cache score is 1, so ``init_state`` takes no
        channels of the text rows, as ``ape_logits`` takes none."""
        rng = np.random.default_rng(33)
        task, mask, _ = make_instance(rng)
        for gamma, takes in ((0.0, 0), (0.2, 1)):
            with mock.patch.object(refine, "_take_channels", wraps=refine._take_channels) as spy:
                state = trainer.init_state(task, mask, EngineConfig(gamma=gamma))
            assert sum(call.args[0] is task.text_features for call in spy.call_args_list) == takes
            if not gamma:
                np.testing.assert_array_equal(state.scores, np.ones(task.c * task.k))

    def test_support_channels_taken_once(self):
        """A fresh state's cache scores come from its own refined support
        rows, so each support row's channels are taken once, also where the
        scores take several class runs."""
        task, mask = several_runs_instance()
        assert len(engine._run_plan(len(task.test_features), task.c, task.k, mask.q)[1]) > 1
        with mock.patch.object(refine, "_take_channels", wraps=refine._take_channels) as spy:
            trainer.init_state(task, mask, EngineConfig())
        taken = [call.args[0] for call in spy.call_args_list]
        assert sum(len(m) for m in taken if np.may_share_memory(m, task.support_features)) == task.c * task.k

    def test_residuals_start_at_zero(self):
        rng = np.random.default_rng(31)
        task, mask, cfg = make_instance(rng)
        state = trainer.init_state(task, mask, cfg)
        assert not state.res.any()
        assert state.step == 0
        assert state.param_count() == task.c * mask.q + task.c * task.k

    def test_scores_start_at_cache_scores(self):
        rng = np.random.default_rng(32)
        task, mask, cfg = make_instance(rng)
        state = trainer.init_state(task, mask, cfg)
        want = cache_scores_unblocked(
            apply_mask(task.support_features, mask, cfg.renormalize),
            apply_mask(task.text_features, mask, cfg.renormalize),
            cfg.gamma,
            cfg.kl_sign,
            cfg.kl_temperature,
        )
        np.testing.assert_array_equal(state.scores, want)

    def test_trusts_the_checked_task(self):
        """The task's rows were checked when it was built: no ``as_matrix`` pass."""
        rng = np.random.default_rng(34)
        task, mask, cfg = make_instance(rng)
        with mock.patch.object(numkit, "as_matrix", wraps=numkit.as_matrix) as spy:
            trainer.init_state(task, mask, cfg)
        assert spy.call_count == 0

    def test_sizes_come_from_the_arrays(self):
        rng = np.random.default_rng(33)
        task, mask, cfg = make_instance(rng, c=4, k=3, d=9, q=5)
        state = trainer.init_state(task, mask, cfg)
        assert (state.c, state.k, state.q, state.d_total) == (4, 3, 5, 9)
        values = {f.name: getattr(state, f.name) for f in dataclasses.fields(state) if f.init}
        assert len(values) == 13  # learnables, moments, step, five frozen arrays and cfg
        with pytest.raises(TypeError, match="unexpected keyword argument 'c'"):
            trainer.TrainState(**values, c=4)


class TestStateOwnsItsConfig:
    def test_state_keeps_the_config_it_was_built_under(self, tmp_path):
        rng = np.random.default_rng(36)
        task, mask, cfg = make_instance(rng)
        state = trainer.init_state(task, mask, cfg)
        trainer.save_checkpoint(tmp_path / "model.ckpt", state)
        assert state.cfg is cfg
        assert trainer.load_checkpoint(tmp_path / "model.ckpt", task).cfg == cfg
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.cfg.alpha = 2.0
        # forward takes no engine config of its own
        assert list(inspect.signature(trainer.forward).parameters) == ["state", "f_batch", "norms"]

    def test_config_cannot_be_reassigned(self):
        """The frozen support rows were refined under ``cfg``; swapping it
        would score queries refined one way against keys refined another."""
        rng = np.random.default_rng(37)
        task, mask, cfg = make_instance(rng)
        state = trainer.init_state(task, mask, cfg)
        before = trainer.forward(state, task.test_features)
        with pytest.raises(AttributeError, match="cfg is set at construction"):
            state.cfg = EngineConfig(renormalize=False, alpha=3.0)
        with pytest.raises(AttributeError, match="f_support_refined is set at construction"):
            state.f_support_refined = np.zeros_like(state.f_support_refined)
        assert state.cfg is cfg
        assert trainer.forward(state, task.test_features).tobytes() == before.tobytes()
        state.step = 5  # the learnables and the step stay settable
        assert state.step == 5

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        alpha=st.floats(0.0, 3.0),
        beta=st.floats(0.0, 8.0),
        gamma=st.floats(0.0, 1.0),
        kl_sign=st.sampled_from([1, -1]),
        kl_temperature=st.floats(0.05, 4.0),
        renormalize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(alpha=1.0, beta=5.5, gamma=0.2, kl_sign=1, kl_temperature=1.0, renormalize=True, seed=0)
    @example(alpha=0.3, beta=2.0, gamma=0.7, kl_sign=-1, kl_temperature=0.5, renormalize=False, seed=1)
    @example(alpha=2, beta=3, gamma=0, kl_sign=np.int64(-1), kl_temperature=1, renormalize=np.True_, seed=2)
    def test_forward_runs_under_the_state_config(
        self, tmp_path, alpha, beta, gamma, kl_sign, kl_temperature, renormalize, seed
    ):
        """Criterion 9 at any config: a fresh state's forward is bitwise the
        training-free logits, and a checkpoint round trip gives back the
        config and keeps forward bitwise."""
        rng = np.random.default_rng(seed)
        task, mask, _ = make_instance(rng, c=4, k=3, d=9, q=5)
        cfg = EngineConfig(alpha, beta, gamma, kl_sign, kl_temperature, renormalize)
        state = trainer.init_state(task, mask, cfg)
        got = trainer.forward(state, task.test_features)
        assert got.tobytes() == engine.ape_logits(task, mask, cfg).tobytes()

        state.res += 0.1 * rng.standard_normal(state.res.shape)
        state.scores *= rng.uniform(0.5, 1.5, state.scores.shape)
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(path, state)
        loaded = trainer.load_checkpoint(path, task)
        assert loaded.cfg == cfg and type(loaded.cfg.renormalize) is bool and type(loaded.cfg.kl_sign) is int
        want = trainer.forward(state, task.test_features)
        assert trainer.forward(loaded, task.test_features).tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.0, 3.0),
        beta=st.floats(0.0, 8.0),
        gamma=st.floats(0.0, 1.0),
        kl_sign=st.sampled_from([1, -1]),
        kl_temperature=st.floats(0.05, 4.0),
        renormalize=st.booleans(),
        stored=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(alpha=3.0, beta=5.5, gamma=0.2, kl_sign=1, kl_temperature=1.0, renormalize=False, stored=False, seed=0)
    def test_replace_derives_the_refined_rows_again(
        self, alpha, beta, gamma, kl_sign, kl_temperature, renormalize, stored, seed
    ):
        """``dataclasses.replace`` goes through the constructor, so a state
        given another config, or another mask of the same Q, refines its
        support rows under it: its forward is bitwise that of a fresh state
        carrying the same learnables.  Refined rows cannot be passed in, nor
        a mask or support rows that the learnables do not fit."""
        rng = np.random.default_rng(seed)
        task = (stored_task if stored else random_task)(rng, c=4, k=3, d=8, n_test=5)
        mask, other = (refine.ChannelMask(np.sort(rng.choice(8, 5, replace=False)), np.zeros(8)) for _ in "ab")
        state = trainer.init_state(task, mask, EngineConfig())
        state.res += 0.1 * rng.standard_normal(state.res.shape)
        state.scores *= rng.uniform(0.5, 1.5, state.scores.shape)
        cfg = EngineConfig(alpha, beta, gamma, kl_sign, kl_temperature, renormalize)

        def fresh(mask, cfg):
            want = trainer.init_state(task, mask, cfg)
            want.res[:], want.scores[:] = state.res, state.scores
            return trainer.forward(want, task.test_features, task.test_norms)

        for moved, want in (
            (dataclasses.replace(state, cfg=cfg), fresh(mask, cfg)),
            (dataclasses.replace(state, mask_idx=other.selected), fresh(other, state.cfg)),
        ):
            assert trainer.forward(moved, task.test_features, task.test_norms).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="do not fit the frozen context"):
            dataclasses.replace(state, mask_idx=other.selected[:4])  # res keeps Q = 5 columns
        with pytest.raises(ValueError, match="do not fit the frozen context"):
            dataclasses.replace(state, support_features=task.support_features[:9])  # scores keep C*K = 12
        values = {f.name: getattr(state, f.name) for f in dataclasses.fields(state) if f.init}
        for name in ("w", "f_support_refined", "support_scale"):
            with pytest.raises(TypeError, match=f"'{name}'"):
                trainer.TrainState(**values, **{name: getattr(state, name)})
            with pytest.raises(ValueError, match=f"field {name} "):
                dataclasses.replace(state, **{name: getattr(state, name)})


class TestForward:
    def test_padded_residual_zero_outside_mask(self):
        """The text shift is the residual zero-padded to full width: with
        alpha = 0 it is f[:, mask] @ res.T, and a row with no kept channels
        (r = 0) keeps its zero-shot logits bitwise."""
        rng = np.random.default_rng(33)
        task, mask, _ = make_instance(rng)
        state = trainer.init_state(task, mask, EngineConfig(alpha=0.0))
        f = task.test_features.copy()
        f[0, state.mask_idx] = 0.0
        f = l2_normalize_rows(f)
        with pytest.warns(numkit.ZeroRowWarning):
            base = trainer.forward(state, f)
            state.res[:] = rng.standard_normal(state.res.shape)
            shifted = trainer.forward(state, f)
        np.testing.assert_allclose(shifted - base, f[:, state.mask_idx] @ state.res.T, rtol=0, atol=1e-12)
        assert shifted[0].tobytes() == base[0].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(1, 5),
        k=st.integers(1, 3),
        q=st.integers(1, 8),
        b=st.integers(0, 5),
        beta=st.floats(0.0, 8.0),
        renormalize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(c=2, k=2, q=1, b=0, beta=5.5, renormalize=True, seed=0)
    @example(c=3, k=1, q=8, b=3, beta=0.0, renormalize=False, seed=1)
    def test_text_shift_equals_padded_prototypes(self, c, k, q, b, beta, renormalize, seed):
        """``forward`` (text shift r * p plus the gained cache term) gives the
        logits of the padded residual added to the prototypes and the
        shifted keys, within 1e-12 of the largest logit, on ``b`` random
        rows, a row zero on the kept channels (r = 0 under re-normalization)
        and a row on the kept channels only (inside the unit band, r = 1);
        a step's logits stay bitwise those of ``forward``."""
        rng = np.random.default_rng(seed)
        task, mask, _ = make_instance(rng, c=c, k=k, d=q + 3, q=q)
        state = trainer.init_state(task, mask, EngineConfig(alpha=0.9, beta=beta, gamma=0.3, renormalize=renormalize))
        state.res += 0.3 * rng.standard_normal(state.res.shape)
        state.scores *= rng.uniform(0.2, 2.0, state.scores.shape)
        f = rng.standard_normal((b + 2, task.d))
        f[b, state.mask_idx] = 0.0
        f[b + 1] = np.where(np.isin(np.arange(task.d), state.mask_idx), f[b + 1], 0.0)
        f = l2_normalize_rows(f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", numkit.ZeroRowWarning)
            f_ref, scale = refine._take_channels(f, state.mask_idx, renormalize)
            want = shifted_keys_logits(state, f)
            got = trainer.forward(state, f)
        assert scale[b:].tolist() == ([0.0, 1.0] if renormalize else [1.0, 1.0])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        y = rng.integers(0, c, b + 2)
        step_logits, step_loss, _, _ = trainer._grad_parts(state, f @ state.w.T, f_ref, scale, y)
        assert step_logits.tobytes() == got.tobytes()
        assert step_loss == cross_entropy(step_logits, y)  # bitwise, from the step's own softmax

    def test_residual_row_touches_only_its_class_column(self):
        rng = np.random.default_rng(34)
        task, mask, cfg = make_instance(rng, c=4, k=2)
        state = trainer.init_state(task, mask, cfg)
        base = trainer.forward(state, task.test_features)
        state.res[2] += 0.37
        bumped = trainer.forward(state, task.test_features)
        changed = np.flatnonzero(np.any(base != bumped, axis=0))
        np.testing.assert_array_equal(changed, [2])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(35)
        task, mask, cfg = make_instance(rng)
        state = trainer.init_state(task, mask, cfg)
        with pytest.raises(ValueError):
            trainer.forward(state, np.zeros((2, task.d + 1)))

    @settings(max_examples=40, deadline=None)
    @given(c=st.integers(2, 5), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_class_permutation_equivariant(self, c, k, seed):
        """Relabelling the classes -- text rows, support blocks, residual
        rows and score blocks together -- permutes the logit columns."""
        rng = np.random.default_rng(seed)
        task, mask, cfg = make_instance(rng, c=c, k=k)
        state = trainer.init_state(task, mask, cfg)
        state.res[:] = 0.2 * rng.standard_normal(state.res.shape)
        state.scores[:] = rng.uniform(0.5, 2.0, state.scores.shape)
        perm = rng.permutation(c)

        def blocks(m):
            return m.reshape(c, k, *m.shape[1:])[perm].reshape(m.shape)

        permuted = FewShotTask(
            text_features=task.text_features[perm],
            support_features=blocks(task.support_features),
            test_features=task.test_features,
            test_labels=None,
        )
        moved = trainer.init_state(permuted, mask, cfg)
        moved.res[:] = state.res[perm]
        moved.scores[:] = blocks(state.scores)
        want = trainer.forward(state, task.test_features)[:, perm]
        got = trainer.forward(moved, task.test_features)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestBackward:
    def test_saturated_softmax_has_vanishing_gradients(self):
        # Orthogonal supports, test rows equal to them, and a huge cache
        # weight: the softmax saturates at the one-hot truth.
        c, d = 3, 8
        w = np.eye(c, d)
        support = np.eye(c, d)
        task = FewShotTask(
            text_features=w,
            support_features=support,
            test_features=support,
            test_labels=np.arange(c),
        )
        cfg = EngineConfig(alpha=200.0, beta=30.0, gamma=0.0)
        state = trainer.init_state(task, refine.full_mask(d), cfg)
        d_res, d_scores = grads(state, support, np.arange(c))
        assert np.abs(d_res).max() <= 1e-8
        assert np.abs(d_scores).max() <= 1e-8

    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("k, b", [(2, 5), (1, 5), (2, 1)])
    def test_matches_finite_differences(self, k, b, renormalize):
        rng = np.random.default_rng(36)
        task, mask, cfg = make_instance(rng, c=3, k=k, d=8, q=4)
        cfg = dataclasses.replace(cfg, renormalize=renormalize)
        state = trainer.init_state(task, mask, cfg)
        state.res += 0.05 * rng.standard_normal(state.res.shape)
        state.scores += 0.05 * rng.standard_normal(state.scores.shape)
        f_batch = unit_rows(rng, b, task.d)
        y = rng.integers(0, task.c, b)
        d_res, d_scores = grads(state, f_batch, y)
        num_res, num_scores = numeric_grads(state, f_batch, y)
        assert max_rel_err(d_res, num_res) < 1e-4
        assert max_rel_err(d_scores, num_scores) < 1e-4

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(1, 5),
        k=st.integers(1, 4),
        q=st.integers(1, 8),
        b=st.integers(1, 6),
        beta=st.floats(0.0, 10.0),
        renormalize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gain_matches_shifted_keys(self, c, k, q, b, beta, renormalize, seed):
        """The residual as a per-class gain on the frozen keys' affinities
        gives the logits of the keys shifted by it, in ``forward`` and in a
        step; the two stay bitwise equal to each other.  The tolerance is
        relative to the largest logit, since a logit near zero is a
        cancellation of terms that carry rounding of their own size."""
        rng = np.random.default_rng(seed)
        task, mask, _ = make_instance(rng, c=c, k=k, d=q + 3, q=q)
        cfg = EngineConfig(alpha=0.9, beta=beta, gamma=0.3, renormalize=renormalize)
        state = trainer.init_state(task, mask, cfg)
        state.res += 0.3 * rng.standard_normal(state.res.shape)
        state.scores *= rng.uniform(0.2, 2.0, state.scores.shape)
        f_batch = unit_rows(rng, b, task.d)
        want = shifted_keys_logits(state, f_batch)
        got = trainer.forward(state, f_batch)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        f_ref, scale = refine._take_channels(f_batch, state.mask_idx, renormalize)
        y = rng.integers(0, c, b)
        step_logits, step_loss, _, _ = trainer._grad_parts(state, f_batch @ state.w.T, f_ref, scale, y)
        assert step_logits.tobytes() == got.tobytes()
        assert step_loss == cross_entropy(step_logits, y)

    @pytest.mark.parametrize("held", [False, True])
    def test_step_never_forms_the_shifted_keys(self, held):
        """A step's tracemalloc peak stays below half the C*K x Q key matrix,
        with the held support affinity or without it."""
        rng = np.random.default_rng(38)
        c, k, q, b = 50, 16, 256, 8
        task, mask, cfg = make_instance(rng, c=c, k=k, d=q + 64, q=q)
        state = trainer.init_state(task, mask, cfg)
        state.res += 0.05 * rng.standard_normal(state.res.shape)
        idx = rng.permutation(c * k)[:b]
        fb, fb_ref, yb = task.support_features[idx], state.f_support_refined[idx], idx // k
        zs, aff = task.support_features @ state.w.T, support_affinity(state) if held else None
        optim = OptimConfig()
        tracemalloc.start()
        try:
            zb = zs[idx] if held else fb @ state.w.T
            _, _, d_res, d_scores = trainer._grad_parts(state, zb, fb_ref, state.support_scale[idx], yb, aff, idx)
            trainer.adamw_step(state, (d_res, d_scores), optim.lr, optim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * c * k * q / 2

    def test_steps_take_no_full_width_columns(self):
        """A step's text path needs only the batch's refined rows and r: the
        full-width column takes (``refine``'s of the support rows) do not
        grow with the steps."""
        rng = np.random.default_rng(40)
        task, mask, cfg = make_instance(rng, c=3, k=4)
        task.test_labels = None
        counts = []
        for epochs in (0, 2):
            with mock.patch.object(np, "take", wraps=np.take) as take:
                trainer.train(task, mask, cfg, OptimConfig(epochs=epochs, batch_size=5))
            counts.append(sum(np.shape(call.args[0])[1:] == (task.d,) for call in take.call_args_list))
        assert counts[0] == counts[1] > 0

    def test_step_holds_one_affinity_matrix(self):
        """The scores product runs in class chunks: a step's tracemalloc peak
        stays below two B x C*K matrices (the frozen-key affinity is one)."""
        rng = np.random.default_rng(39)
        c, k, q, b = 64, 16, 16, 128
        task, mask, cfg = make_instance(rng, c=c, k=k, d=32, q=q)
        state = trainer.init_state(task, mask, cfg)
        idx = rng.permutation(c * k)[:b]
        fb, fb_ref, yb = task.support_features[idx], state.f_support_refined[idx], idx // k
        tracemalloc.start()
        try:
            trainer._grad_parts(state, fb @ state.w.T, fb_ref, state.support_scale[idx], yb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * b * c * k

    def test_held_step_gathers_one_class_chunk_at_a_time(self):
        """A step on the held support affinity gathers its batch's rows by
        class chunks: its tracemalloc peak stays below a quarter of one
        B x C*K matrix, which a batch-wide gather would take whole."""
        rng = np.random.default_rng(41)
        c, k, q, b = 8, 128, 16, 512
        task, mask, cfg = make_instance(rng, c=c, k=k, d=32, q=q)
        state = trainer.init_state(task, mask, cfg)
        assert holds_support(c * k)
        zs, aff = task.support_features @ state.w.T, support_affinity(state)
        idx = rng.permutation(c * k)[:b]
        fb_ref, scale, yb = state.f_support_refined[idx], state.support_scale[idx], idx // k
        tracemalloc.start()
        try:
            trainer._grad_parts(state, zs[idx], fb_ref, scale, yb, aff, idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * b * c * k / 4

    def test_alpha_zero_isolates_text_path(self):
        rng = np.random.default_rng(37)
        task, mask, _ = make_instance(rng)
        cfg = EngineConfig(alpha=0.0, beta=3.0, gamma=0.2)
        state = trainer.init_state(task, mask, cfg)
        state.res += 0.1 * rng.standard_normal(state.res.shape)
        f_batch = unit_rows(rng, 4, task.d)
        y = rng.integers(0, task.c, 4)
        d_res, d_scores = grads(state, f_batch, y)
        assert not d_scores.any()
        num_res, _ = numeric_grads(state, f_batch, y)
        assert max_rel_err(d_res, num_res) < 1e-4


class TestCrossEntropy:
    def test_rejects_ids_that_do_not_match_the_rows(self):
        logits = np.random.default_rng(39).standard_normal((3, 4))
        for bad in ([1], [[0], [1], [2]], [0, -1, 2], [0, 1, 4], [0.5, 1, 2]):
            with pytest.raises(ValueError, match="label_ids"):
                cross_entropy(logits, bad)
        assert math.isfinite(cross_entropy(logits, [0, 1, 3]))


class TestAdamWStep:
    def make_state(self, res, scores, cfg=EngineConfig()):
        c, q = res.shape
        k = scores.shape[0] // c
        return trainer.TrainState(
            res=res.astype(np.float64),
            scores=scores.astype(np.float64),
            m_res=np.zeros_like(res, dtype=np.float64),
            v_res=np.zeros_like(res, dtype=np.float64),
            m_scores=np.zeros_like(scores, dtype=np.float64),
            v_scores=np.zeros_like(scores, dtype=np.float64),
            step=0,
            mask_idx=np.arange(q),
            text_features=np.zeros((c, q)),
            text_norms=np.zeros(c),
            support_features=np.full((c * k, q), max(q, 1) ** -0.5),
            support_norms=np.ones(c * k),
            cfg=cfg,
        )

    def test_single_step_closed_form(self):
        state = self.make_state(np.zeros((1, 1)), np.zeros(1))
        optim = OptimConfig(lr=1e-3, weight_decay=0.01)
        trainer.adamw_step(state, (np.ones((1, 1)), np.zeros(1)), 1e-3, optim)
        # bias-corrected moments are exactly g and g^2 at step 1
        expected = -1e-3 * 1.0 / (1.0 + optim.eps)
        np.testing.assert_allclose(state.res[0, 0], expected, atol=1e-12)
        np.testing.assert_allclose(state.res[0, 0], -1e-3, atol=1e-9)
        assert state.step == 1

    def test_zero_gradients_zero_decay_is_identity(self):
        state = self.make_state(np.full((2, 2), 0.5), np.full(2, 1.5))
        optim = OptimConfig(lr=0.01, weight_decay=0.0)
        trainer.adamw_step(state, (np.zeros((2, 2)), np.zeros(2)), 0.01, optim)
        np.testing.assert_array_equal(state.res, np.full((2, 2), 0.5))
        np.testing.assert_array_equal(state.scores, np.full(2, 1.5))

    def test_pure_decay_path(self):
        state = self.make_state(np.ones((1, 1)), np.ones(1))
        optim = OptimConfig(lr=0.01, weight_decay=0.1)
        trainer.adamw_step(state, (np.zeros((1, 1)), np.zeros(1)), 0.01, optim)
        np.testing.assert_allclose(state.res[0, 0], 0.999, rtol=1e-15)
        np.testing.assert_allclose(state.scores[0], 0.999, rtol=1e-15)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_the_plain_expressions_bitwise(self, weight_decay):
        """The scratch-buffer update keeps the bits of the expressions it
        replaced, over many steps and both learnable tensors."""
        rng = np.random.default_rng(42)
        state = self.make_state(rng.standard_normal((6, 5)), rng.standard_normal(12))
        optim = OptimConfig(lr=1e-2, weight_decay=weight_decay)
        params = [state.res.copy(), state.scores.copy()]
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
        for step in range(1, 31):
            step_grads = (rng.standard_normal((6, 5)), 1e-3 * rng.standard_normal(12))
            lr_t = trainer.cosine_lr(step - 1, 30, optim.lr)
            trainer.adamw_step(state, step_grads, lr_t, optim)
            adamw_reference(params, step_grads, moments, step, lr_t, optim)
            got = (state.res, state.scores, state.m_res, state.v_res, state.m_scores, state.v_scores)
            want = (*params, *moments[0], *moments[1])
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
        assert state.step == 30

    def test_moment_decays_and_eps_are_fixed(self):
        assert (OptimConfig.beta1, OptimConfig.beta2, OptimConfig.eps) == (0.9, 0.999, 1e-8)
        assert len(dataclasses.fields(OptimConfig)) == 5
        for name in ("beta1", "beta2", "eps"):
            with pytest.raises(TypeError):
                OptimConfig(**{name: 0.5})


class TestOptimConfig:
    @pytest.mark.parametrize("build", ["direct", "replace"])
    @pytest.mark.parametrize("name, value, message", [
        ("lr", 0.0, "lr must be finite and > 0, got 0.0"),
        ("lr", -1e-3, "lr must be finite and > 0, got -0.001"),
        ("lr", math.nan, "lr must be finite and > 0, got nan"),
        ("lr", math.inf, "lr must be finite and > 0, got inf"),
        ("weight_decay", -0.01, "weight_decay must be finite and >= 0, got -0.01"),
        ("weight_decay", math.nan, "weight_decay must be finite and >= 0, got nan"),
        ("weight_decay", math.inf, "weight_decay must be finite and >= 0, got inf"),
        ("epochs", -1, "epochs must be >= 0 and batch_size >= 1"),
        ("batch_size", 0, "epochs must be >= 0 and batch_size >= 1"),
    ])
    def test_bad_scalar_rejected_at_construction(self, build, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if build == "direct":
                OptimConfig(**{name: value})
            else:
                dataclasses.replace(OptimConfig(), **{name: value})

    def test_frozen_without_validate(self):
        optim = OptimConfig()
        assert not hasattr(optim, "validate")
        with pytest.raises(dataclasses.FrozenInstanceError):
            optim.lr = 1.0


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert trainer.cosine_lr(0, 100, 0.5) == 0.5
        assert trainer.cosine_lr(100, 100, 0.5) == 0.0
        assert trainer.cosine_lr(50, 100, 0.5) == 0.25

    def test_monotone_decreasing(self):
        values = [trainer.cosine_lr(s, 40, 1.0) for s in range(41)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_zero_total_steps_rejected(self):
        with pytest.raises(ValueError):
            trainer.cosine_lr(0, 0, 1.0)
        with pytest.raises(ValueError):
            trainer.cosine_lr(5, 4, 1.0)


class TestTrain:
    def test_zero_epochs_is_training_free(self):
        rng = np.random.default_rng(39)
        task, mask, cfg = make_instance(rng)
        state, history = trainer.train(task, mask, cfg, OptimConfig(epochs=0))
        got = trainer.forward(state, task.test_features)
        want = engine.ape_logits(task, mask, cfg)
        assert got.tobytes() == want.tobytes()
        assert len(history) == 1 and history[0]["epoch"] == 0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(40)
        task, mask, cfg = make_instance(rng, c=4, k=3)
        optim = OptimConfig(lr=1e-3, epochs=5, batch_size=4, seed=123)
        s1, h1 = trainer.train(task, mask, cfg, optim)
        s2, h2 = trainer.train(task, mask, cfg, optim)
        assert s1.res.tobytes() == s2.res.tobytes()
        assert s1.scores.tobytes() == s2.scores.tobytes()
        assert h1 == h2

    def test_frozen_tensors_unchanged(self):
        rng = np.random.default_rng(41)
        task, mask, cfg = make_instance(rng)
        state = trainer.init_state(task, mask, cfg)
        before = frozen_checksum(state)
        trained, _ = trainer.train(task, mask, cfg, OptimConfig(epochs=3, batch_size=3))
        assert frozen_checksum(trained) == before

    def test_synthetic_support_accuracy_improves(self):
        from ape import dataio

        task = dataio.gen_synthetic(10, 16, 64, 10, 0.6, seed=0)
        sim = refine.inter_class_similarity(task.text_features)
        var = refine.inter_class_variance(task.text_features)
        mask = refine.select_channels(sim, var, 0.7, 48)
        cfg = EngineConfig()
        _, history = trainer.train(
            task, mask, cfg, OptimConfig(lr=1e-3, epochs=20, batch_size=256, seed=0)
        )
        assert history[-1]["support_acc"] >= history[0]["support_acc"]
        assert all(math.isfinite(row["loss"]) for row in history)

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_one_cosine_gemm_per_row_block_whatever_the_epochs(self, epochs):
        """The history shares each cosine tile's frozen affinities between all
        epochs; row 0's loss and support accuracy are those of ``forward``."""
        rng = np.random.default_rng(43)
        task, mask, cfg = make_instance(rng, c=3, k=4)
        seen = []

        def spy(f_ref, keys, c, plan=None):
            for rows, cls, q, blk in engine._cosine_tiles(f_ref, keys, c, plan):
                seen.append((plan[0][-1].stop if plan else len(f_ref), rows, cls))
                yield rows, cls, q, blk

        held = mock.patch.object(trainer, "_support_affinity", wraps=trainer._support_affinity)
        with mock.patch.object(trainer, "_cosine_tiles", spy), block_budget(12, 3), held as build:
            _, history = trainer.train(task, mask, cfg, OptimConfig(epochs=epochs, batch_size=3))
            support_plan = engine._tile_plan(12, 3, 4)
        # A 3-row budget splits the keys: the 12 support rows take one block
        # in 3 one-class tiles, which the held affinity is built from once,
        # before the steps; the 4 test rows take one block in runs of 2 and 1.
        support, test = slice(0, 12), slice(0, 4)
        assert build.call_count == 1
        assert support_plan == ([support], [slice(0, 1), slice(1, 2), slice(2, 3)])
        held_tiles = [(12, support, cls) for cls in support_plan[1]]
        assert seen == held_tiles + [(4, test, slice(0, 2)), (4, test, slice(2, 3))]
        assert len(history) == epochs + 1
        fresh = trainer.init_state(task, mask, cfg)
        logits = trainer.forward(fresh, task.support_features)
        y = task.support_class_ids()
        assert history[0]["loss"] == cross_entropy(logits, y)
        assert history[0]["support_acc"] == engine.accuracy(logits, y)

    @pytest.mark.parametrize("held", [True, False])
    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_one_zero_shot_product_per_row_block_whatever_the_epochs(self, epochs, held):
        """The history forms each row block's D-wide zero-shot product once;
        every snapshot adds its Q-wide text shift to it.  A held support
        split's zero-shot logits come from one ``zero_shot_logits`` call,
        which the steps and the history's support pass share."""
        rng = np.random.default_rng(44)
        task, mask, cfg = make_instance(rng, c=3, k=1)
        products = []

        class Rows(np.ndarray):
            def __matmul__(self, other):
                products.append((len(self), other.shape))
                return np.asarray(self) @ other

        unit64 = numkit._unit64

        def spy(m, norms=None, rows=slice(None)):  # the history's row blocks, not a step's batch or the text
            out = unit64(m, norms, rows)
            return out.view(Rows) if isinstance(rows, slice) and rows != slice(None) else out

        zero_shot = mock.patch.object(trainer, "zero_shot_logits", wraps=engine.zero_shot_logits)
        with mock.patch.object(numkit, "_unit64", spy), block_budget(3 if held else 1, 2), zero_shot as whole:
            assert holds_support(3) == held
            trainer.train(task, mask, cfg, OptimConfig(epochs=epochs, batch_size=2))
            blocks = ([] if held else engine._tile_plan(3, 3, 1)[0]) + engine._tile_plan(4, 3, 1)[0]
        assert len(blocks) == (2 if held else 3)
        assert products == [(b.stop - b.start, (task.d, task.c)) for b in blocks]
        assert [call.args[0] is task.support_features for call in whole.call_args_list] == ([True] if held else [])

    @pytest.mark.parametrize("held", [True, False])
    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_held_steps_run_no_cosine_gemm_and_no_sharpen(self, epochs, held):
        """With the support affinity held, the steps run no cosine GEMM (a
        product of the refined support rows with themselves) and no
        ``_sharpen``: the support tiles' GEMMs run once, and ``_sharpen``
        once per support tile, whatever the epochs.  Over the budget,
        each step runs one of each."""
        rng = np.random.default_rng(49)
        task, mask, cfg = make_instance(rng, c=3, k=4)
        task.test_labels = None
        gemms = []

        class Keys(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                if ufunc is np.matmul and all(isinstance(x, Keys) for x in inputs):
                    gemms.append(len(inputs[0]))
                if out is not None:
                    kwargs["out"] = tuple(np.asarray(o) for o in out)
                return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        take = refine._take_channels  # only support rows are Keys: the task has no test labels

        def keys_spy(m, *args):
            rows, scale = take(m, *args)
            return rows.view(Keys) if np.shares_memory(m, task.support_features) else rows, scale

        optim = OptimConfig(epochs=epochs, batch_size=5)
        sharpen = mock.patch.object(trainer, "_sharpen", wraps=engine._sharpen)
        budget = block_budget(12, 3 if held else 2)
        with mock.patch.object(refine, "_take_channels", keys_spy), budget, sharpen as spy:
            assert holds_support(12) == held
            trainer.train(task, mask, cfg, optim)
        # The 12 support rows take one row block in 3 one-class tiles, the
        # held affinity's before the steps, the history's after them; each
        # tile is sharpened once.
        steps = [] if held else [5, 5, 2] * epochs
        assert gemms == [12] * 3 + steps if held else steps + [12] * 3
        assert spy.call_count == 3 + len(steps)

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(1, 11),
        k=st.integers(1, 3),
        epochs=st.integers(0, 9),
        batch_size=st.integers(1, 40),
        with_labels=st.booleans(),
        renormalize=st.booleans(),
        block_rows=st.integers(2, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(c=3, k=3, epochs=3, batch_size=4, with_labels=True, renormalize=True, block_rows=9, seed=54)
    @example(c=3, k=2, epochs=3, batch_size=1, with_labels=True, renormalize=True, block_rows=6, seed=51)
    @example(c=4, k=2, epochs=3, batch_size=3, with_labels=False, renormalize=True, block_rows=8, seed=53)
    @example(c=9, k=1, epochs=2, batch_size=1, with_labels=True, renormalize=True, block_rows=4, seed=1)
    @example(c=1, k=1, epochs=3, batch_size=1, with_labels=True, renormalize=False, block_rows=2, seed=2)
    @example(c=11, k=3, epochs=1, batch_size=40, with_labels=False, renormalize=True, block_rows=9, seed=3)
    @example(c=11, k=3, epochs=2, batch_size=5, with_labels=True, renormalize=True, block_rows=2, seed=4)
    @example(c=11, k=3, epochs=9, batch_size=5, with_labels=True, renormalize=True, block_rows=2, seed=5)
    @example(c=5, k=2, epochs=9, batch_size=3, with_labels=True, renormalize=False, block_rows=9, seed=6)
    @example(c=4, k=2, epochs=2, batch_size=3, with_labels=True, renormalize=True, block_rows=2, seed=7)
    @example(c=3, k=3, epochs=2, batch_size=3, with_labels=True, renormalize=True, block_rows=2, seed=8)
    @example(c=8, k=1, epochs=2, batch_size=3, with_labels=True, renormalize=False, block_rows=2, seed=9)
    @example(c=5, k=2, epochs=3, batch_size=4, with_labels=True, renormalize=True, block_rows=3, seed=10)
    def test_bitwise_equal_to_reference_loop(
        self, c, k, epochs, batch_size, with_labels, renormalize, block_rows, seed
    ):
        """History and learnables are those of the per-epoch ``forward`` loop,
        byte for byte.  The first example keeps a short last batch; C = 9 and
        11 leave a short last class chunk (chunks hold 1/8 of a tile's
        classes, rounded up).  The C = 11, K = 3 examples with block_rows=2
        split the keys: the 33 support rows take 5 blocks x 4 class runs,
        the 4 test rows 1 x 3; with 9 epochs every block's 10 snapshots go
        in one group.  The C = 5, K = 2, block_rows=9 example keeps the keys
        whole and takes its 10 snapshots in groups of 4, 4 and 2.

        ``train`` holds the support affinity where C*K <= 4 * block_rows.
        The two C = 11, K = 3, block_rows=2 examples and C = 3, K = 3,
        block_rows=2 (9 rows, one past the budget) form it in every step;
        every other example holds it: C = 4, K = 2, block_rows=2 at the
        budget's edge in 2 row blocks x 2 class runs, C = 8, K = 1 in 4 row
        blocks, and C = 5, K = 2, block_rows=3 in one row block of 5
        one-class tiles."""
        rng = np.random.default_rng(seed)
        task, mask, cfg = make_instance(rng, c=c, k=k)
        cfg = dataclasses.replace(cfg, renormalize=renormalize)
        if not with_labels:
            task.test_labels = None
        optim = OptimConfig(lr=5e-3, epochs=epochs, batch_size=batch_size, seed=seed % 97)
        with block_budget(c * k, block_rows):
            state, history = trainer.train(task, mask, cfg, optim)
            ref_state, ref_history = train_reference(task, mask, cfg, optim)
        assert repr(history) == repr(ref_history)
        for field in ("res", "scores", "m_res", "v_res", "m_scores", "v_scores"):
            assert getattr(state, field).tobytes() == getattr(ref_state, field).tobytes(), field
        assert state.step == ref_state.step == epochs * math.ceil(c * k / batch_size)

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.integers(1, 9),
        k=st.integers(1, 4),
        block_rows=st.integers(1, 9),
        stored=st.booleans(),
        renormalize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(c=3, k=4, block_rows=3, stored=True, renormalize=True, seed=0)
    @example(c=8, k=1, block_rows=2, stored=False, renormalize=True, seed=1)
    def test_held_step_logits_are_forward_at_the_batch_rows(self, c, k, block_rows, stored, renormalize, seed):
        """A step on the held support affinity and zero-shot logits gives
        the logits of ``forward`` over the whole support split at the
        batch's rows, bit for bit.  Each batch is one of ``forward``'s row
        blocks, so that the step's only product of its own, the Q-wide
        p = f_ref @ res.T, has ``forward``'s shape: BLAS may round a row of a
        product with another row count differently."""
        rng = np.random.default_rng(seed)
        task = (stored_task if stored else random_task)(rng, c=c, k=k, d=8, n_test=2)
        mask = refine.ChannelMask(selected=np.sort(rng.choice(8, 5, replace=False)), scores=np.zeros(8))
        state = trainer.init_state(task, mask, EngineConfig(alpha=0.9, beta=3.0, gamma=0.3, renormalize=renormalize))
        state.res += 0.3 * rng.standard_normal(state.res.shape)
        state.scores *= rng.uniform(0.2, 2.0, state.scores.shape)
        n, s_ref, y = c * k, state.f_support_refined, task.support_class_ids()
        with block_budget(n, max(block_rows, -(-n // 4))):
            assert holds_support(n)
            plan = engine._tile_plan(n, c, k)
            aff = trainer._support_affinity(s_ref, c, state.cfg.beta)
            zs = engine.zero_shot_logits(task.support_features, state.w, task.support_norms)
            want = trainer.forward(state, task.support_features)
        for rows in plan[0]:
            idx = np.arange(rows.start, rows.stop)
            got, loss, _, _ = trainer._grad_parts(state, zs[idx], s_ref[idx], state.support_scale[idx], y[idx], aff, idx)
            assert got.tobytes() == want[rows].tobytes()
            assert loss == cross_entropy(got, y[idx])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_reference_loop_examples_under_blas_threads(self, threads):
        """The explicit examples above in a child process, since the BLAS
        thread count must be set before numpy loads: the history's row-block
        zero-shot and residual products must match ``forward``'s bit for bit."""
        here = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), env.get("PYTHONPATH")]))
        test = f"{here / 'test_trainer.py'}::TestTrain::test_bitwise_equal_to_reference_loop"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=explicit", test],
            cwd=here.parent, env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert "1 passed" in done.stdout

    def test_history_never_holds_the_support_logits(self):
        """A many-class train's tracemalloc peak stays below the C*K x C support logits."""
        rng = np.random.default_rng(46)
        c, k = 400, 2
        task, mask, cfg = make_instance(rng, c=c, k=k, d=8, q=4)
        with block_budget(c * k, 16):
            tracemalloc.start()
            try:
                trainer.train(task, mask, cfg, OptimConfig(epochs=2, batch_size=32))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 8 * (c * k) * c

    def test_history_refines_the_test_rows_by_row_blocks(self):
        """With the keys split into class runs, the history's test pass
        refines each row block when its tiles need it: ``train`` never holds
        the N x Q refined test rows."""
        rng = np.random.default_rng(47)
        c, k, n, d = 4, 2, 4096, 256
        task = stored_task(rng, c=c, k=k, d=d, n_test=n)
        with block_budget(c * k, 64):
            assert len(engine._tile_plan(n, c, k)[1]) == 2
            tracemalloc.start()
            try:
                trainer.train(task, refine.full_mask(d), EngineConfig(), OptimConfig(epochs=1, batch_size=4))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 0.5 * n * d * 8

    def test_forward_of_stored_rows_never_widens_them_whole(self):
        """``forward`` (``ape eval``) takes the zero-shot term of float32 rows
        through the blocked ``zero_shot_logits``: no N x D float64 rows."""
        rng = np.random.default_rng(48)
        c, k, n, d = 4, 2, 4096, 256
        task = stored_task(rng, c=c, k=k, d=d, n_test=n)
        mask = refine.ChannelMask(selected=np.arange(16), scores=np.zeros(d))
        state = trainer.init_state(task, mask, EngineConfig())
        with block_budget(d, 64):
            tracemalloc.start()
            try:
                trainer.forward(state, task.test_features)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 0.25 * n * d * 8

    def test_frozen_arrays_read_only_after_train(self):
        rng = np.random.default_rng(44)
        task, mask, cfg = make_instance(rng)
        state, _ = trainer.train(task, mask, cfg, OptimConfig(epochs=1, batch_size=3))
        with pytest.raises(ValueError):
            state.w[0, 0] = 1.0
        with pytest.raises(ValueError):
            state.f_support_refined += 1.0

    def test_state_views_the_task_prototypes(self):
        """The state's prototypes, support rows and their norms are
        read-only views of the task's arrays, not copies; the task's own
        arrays keep their flags."""
        rng = np.random.default_rng(46)
        task, mask, cfg = make_instance(rng)
        names = {"w": "text_features", "text_features": "text_features", "text_norms": "text_norms",
                 "support_features": "support_features", "support_norms": "support_norms"}
        writeable = {name: getattr(task, name).flags.writeable for name in names.values()}
        state, _ = trainer.train(task, mask, cfg, OptimConfig(epochs=1, batch_size=3))
        for field, name in names.items():
            assert np.shares_memory(getattr(state, field), getattr(task, name))
            assert not getattr(state, field).flags.writeable
            assert getattr(task, name).flags.writeable == writeable[name]

    def test_refines_once_per_call(self):
        """The number of channel gathers does not grow with the epochs."""
        rng = np.random.default_rng(45)
        task, mask, cfg = make_instance(rng)
        counts = []
        for epochs in (1, 3):
            with mock.patch.object(
                refine, "_take_channels", wraps=refine._take_channels
            ) as spy:
                trainer.train(task, mask, cfg, OptimConfig(epochs=epochs, batch_size=3))
            counts.append(spy.call_count)
        assert counts[0] == counts[1]

    def test_loss_decreases_with_training(self):
        rng = np.random.default_rng(42)
        task, mask, cfg = make_instance(rng, c=4, k=3, d=10, q=6)
        _, history = trainer.train(
            task, mask, cfg, OptimConfig(lr=5e-3, epochs=30, batch_size=256, seed=0)
        )
        assert history[-1]["loss"] < history[0]["loss"]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        task, mask, cfg = make_instance(rng, c=4, k=2, d=9, q=5)
        state, _ = trainer.train(task, mask, cfg, OptimConfig(epochs=4, batch_size=3, seed=7))
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(path, state)
        loaded = trainer.load_checkpoint(path, task)
        for field in ("res", "scores", "m_res", "v_res", "m_scores", "v_scores"):
            np.testing.assert_array_equal(getattr(loaded, field), getattr(state, field))
        assert loaded.step == state.step
        np.testing.assert_array_equal(loaded.mask_idx, state.mask_idx)
        got = trainer.forward(loaded, task.test_features)
        want = trainer.forward(state, task.test_features)
        assert got.tobytes() == want.tobytes()

    def test_load_refines_only_the_support_rows(self, tmp_path):
        rng = np.random.default_rng(50)
        task, mask, cfg = make_instance(rng)
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(path, trainer.init_state(task, mask, cfg))
        with mock.patch.object(refine, "_take_channels", wraps=refine._take_channels) as spy:
            trainer.load_checkpoint(path, task)
        assert spy.call_count == 1
        rows = spy.call_args.args[0]  # the state's read-only view of the task's support rows, not a copy
        assert np.shares_memory(rows, task.support_features) and rows.shape == task.support_features.shape

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE")
        rng = np.random.default_rng(44)
        task, _, cfg = make_instance(rng)
        with pytest.raises(ValueError):
            trainer.load_checkpoint(path, task)

    def test_class_count_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(45)
        task, mask, cfg = make_instance(rng, c=3)
        state = trainer.init_state(task, mask, cfg)
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(path, state)
        other = random_task(np.random.default_rng(46), c=4, k=2, d=8)
        with pytest.raises(ValueError, match="classes"):
            trainer.load_checkpoint(path, other)

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(47)
        task, mask, cfg = make_instance(rng)
        state = trainer.init_state(task, mask, cfg)
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(path, state)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(ValueError, match="truncated"):
            trainer.load_checkpoint(path, task)

    def test_non_finite_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(48)
        task, mask, cfg = make_instance(rng)
        state = trainer.init_state(task, mask, cfg)
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(path, state)
        blob = bytearray(path.read_bytes())
        first_score = len(trainer.CKPT_MAGIC) + 8 * (3 + state.q) + trainer._CFG_BLOCK.size + 8 * state.res.size
        blob[first_score : first_score + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="non-finite"):
            trainer.load_checkpoint(path, task)

    def test_negative_second_moment_rejected(self, tmp_path):
        rng = np.random.default_rng(51)
        task, mask, cfg = make_instance(rng)
        state, _ = trainer.train(task, mask, cfg, OptimConfig(epochs=2, batch_size=3))
        assert state.v_scores[0] > 0
        path = tmp_path / "model.ckpt"
        trainer.save_checkpoint(path, state)
        blob = bytearray(path.read_bytes())
        # v_scores is the last tensor before the u64 step counter
        sign_byte = len(blob) - 8 - 8 * state.v_scores.size + 7
        blob[sign_byte] ^= 0x80
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="negative second moments"):
            trainer.load_checkpoint(path, task)

    def test_empty_mask_rejected(self, tmp_path):
        rng = np.random.default_rng(49)
        task, _, cfg = make_instance(rng, c=3, k=2)
        n = task.c * task.k
        path = tmp_path / "model.ckpt"
        path.write_bytes(
            trainer.CKPT_MAGIC
            + struct.pack("<QQQ", task.c, task.k, 0)
            + trainer._CFG_BLOCK.pack(1.0, 5.5, 0.2, 1, 1.0, 0)
            + np.ones(n).astype("<f8").tobytes()
            + np.zeros(2 * n).astype("<f8").tobytes()
            + struct.pack("<Q", 0)
        )
        # Without renormalization nothing downstream trips over Q = 0.
        with pytest.raises(ValueError, match="mask"):
            trainer.load_checkpoint(path, task)

    def test_v1_file_loads_under_the_defaults_with_a_warning(self, tmp_path):
        """A v1 file is v2's layout without the config block."""
        rng = np.random.default_rng(52)
        task, mask, cfg = make_instance(rng, c=3, k=2, d=8, q=5)
        state, _ = trainer.train(task, mask, cfg, OptimConfig(epochs=2, batch_size=3))
        path = tmp_path / "v1.ckpt"
        path.write_bytes(
            b"APE-CKPT v1\n"
            + struct.pack("<QQQ", state.c, state.k, state.q)
            + state.mask_idx.astype("<u8").tobytes()
            + b"".join(getattr(state, name).astype("<f8").tobytes() for name in trainer._LEARNED)
            + struct.pack("<Q", state.step)
        )
        with pytest.warns(UserWarning, match="v1 checkpoint with no engine config"):
            loaded = trainer.load_checkpoint(path, task)
        assert loaded.cfg == EngineConfig() and loaded.step == state.step
        for name in trainer._LEARNED:
            assert getattr(loaded, name).tobytes() == getattr(state, name).tobytes(), name
        want = trainer.init_state(task, mask, EngineConfig())
        assert loaded.f_support_refined.tobytes() == want.f_support_refined.tobytes()

    @pytest.mark.parametrize("fields, message", [
        ((-1.0, 5.5, 0.2, 1, 1.0, 1), "alpha must be finite and >= 0, got -1.0"),
        ((1.0, float("nan"), 0.2, 1, 1.0, 1), "beta must be finite and >= 0, got nan"),
        ((1.0, 5.5, 0.2, 0, 1.0, 1), "kl_sign must be +1 or -1, got 0"),
        ((1.0, 5.5, 0.2, 1, 0.0, 1), "kl_temperature must be > 0, got 0.0"),
        ((1.0, 5.5, 0.2, 1, 1.0, 2), "renormalize must be 0 or 1, got 2"),
    ], ids=["alpha", "beta", "kl-sign", "kl-temperature", "renormalize"])
    def test_bad_config_block_rejected_naming_the_file(self, tmp_path, fields, message):
        rng = np.random.default_rng(53)
        task, mask, cfg = make_instance(rng)
        path = tmp_path / "model.ckpt"
        state = trainer.init_state(task, mask, cfg)
        trainer.save_checkpoint(path, state)
        blob = bytearray(path.read_bytes())
        start = len(trainer.CKPT_MAGIC) + 8 * (3 + state.q)
        *scalars, renormalize_byte = fields
        blob[start : start + trainer._CFG_BLOCK.size] = trainer._CFG_BLOCK.pack(*scalars, True)
        blob[start + trainer._CFG_BLOCK.size - 1] = renormalize_byte
        path.write_bytes(bytes(blob))
        pattern = f"^checkpoint holds a bad engine config: {re.escape(str(path))}: {re.escape(message)}$"
        with pytest.raises(ValueError, match=pattern):
            trainer.load_checkpoint(path, task)

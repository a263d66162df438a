"""Unit and property tests for the training-free classifier."""

import contextlib
import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ape import engine, numkit, refine, trainer
from ape.engine import EngineConfig, FewShotTask
from helpers import (
    apply_mask,
    block_budget,
    cache_scores_unblocked,
    cache_term_unblocked,
    eval_logits,
    forward_reference,
    kl_one_hot,
    one_hot_labels,
    random_task,
    shifted_forward_reference,
    softmax,
    stored_task,
    tip_config,
    tip_logits,
    tip_reference,
    unit_rows,
    widened,
)


class TestZeroShotLogits:
    def test_aligned_and_orthogonal(self):
        out = engine.zero_shot_logits([[1.0, 0.0]], np.eye(2))
        np.testing.assert_array_equal(out, [[1.0, 0.0]])

    def test_dot_products(self):
        out = engine.zero_shot_logits([[0.6, 0.8]], np.eye(2))
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=1e-15)

    def test_self_similarity_maximal(self):
        rng = np.random.default_rng(11)
        w = unit_rows(rng, 6, 16)
        out = engine.zero_shot_logits(w, w)
        np.testing.assert_array_equal(out.argmax(axis=1), np.arange(6))

    def test_cosine_range(self):
        rng = np.random.default_rng(12)
        out = engine.zero_shot_logits(unit_rows(rng, 20, 8), unit_rows(rng, 5, 8))
        assert (np.abs(out) <= 1.0 + 1e-9).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            engine.zero_shot_logits(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_stored_norms_give_the_same_bits_without_a_norm_pass(self):
        rng = np.random.default_rng(13)
        stored = (unit_rows(rng, 30, 16) * rng.uniform(0.9, 1.1, (30, 1))).astype(np.float32)
        with pytest.warns(UserWarning, match="renormalizing"):
            task = FewShotTask(unit_rows(rng, 3, 16), unit_rows(rng, 6, 16), stored, None)
        want = engine.zero_shot_logits(task.test_features, task.text_features)
        with mock.patch.object(numkit, "_row_norms", side_effect=AssertionError("norms recomputed")):
            got = engine.zero_shot_logits(task.test_features, task.text_features, task.test_norms)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_given_norms_take_no_entrywise_pass(self, dtype):
        """Rows whose finite norms the caller passes are not read for their
        finiteness: ``numkit._stored_blocks`` carries that pass."""
        rng = np.random.default_rng(14)
        f, w = unit_rows(rng, 40, 16).astype(dtype), unit_rows(rng, 5, 16).astype(dtype)
        norms, w_norms = numkit._row_norms(f), numkit._row_norms(w)
        want = engine.zero_shot_logits(f, w)
        with mock.patch.object(numkit, "_stored_blocks", side_effect=AssertionError("entrywise pass")):
            got = engine.zero_shot_logits(f, w, norms, w_norms)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("name", ["f_batch", "w"])
    def test_non_finite_norms_name_the_rows(self, dtype, name):
        rng = np.random.default_rng(15)
        rows = {"f_batch": unit_rows(rng, 6, 8).astype(dtype), "w": unit_rows(rng, 3, 8).astype(dtype)}
        rows[name][1, 2] = np.nan
        norms = {key: numkit._row_norms(m) for key, m in rows.items()}
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            engine.zero_shot_logits(rows["f_batch"], rows["w"], norms["f_batch"], norms["w"])


class TestCacheAffinity:
    def test_identical_row_gives_one(self):
        rng = np.random.default_rng(13)
        f = unit_rows(rng, 1, 6)
        out = engine.cache_affinity(f, f, beta=5.5)
        np.testing.assert_allclose(out[0, 0], 1.0, rtol=1e-12)

    def test_orthogonal_closed_form(self):
        out = engine.cache_affinity([[1.0, 0.0]], [[0.0, 1.0]], beta=5.5)
        np.testing.assert_allclose(out[0, 0], math.exp(-5.5), rtol=1e-12)

    def test_beta_zero_degenerates_to_ones(self):
        rng = np.random.default_rng(14)
        out = engine.cache_affinity(unit_rows(rng, 4, 5), unit_rows(rng, 7, 5), beta=0.0)
        np.testing.assert_array_equal(out, np.ones((4, 7)))

    def test_range_zero_one_for_unit_rows(self):
        rng = np.random.default_rng(15)
        out = engine.cache_affinity(unit_rows(rng, 10, 6), unit_rows(rng, 10, 6), beta=3.0)
        assert (out > 0.0).all() and (out <= 1.0 + 1e-12).all()

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            engine.cache_affinity([[1.0, 0.0]], [[1.0, 0.0]], beta=-1.0)


def cache_scores(s_ref, w_ref, gamma, kl_sign=1, kl_temperature=1.0):
    """The one row of ``engine._cache_scores`` at a single gamma."""
    cfg = EngineConfig(gamma=gamma, kl_sign=kl_sign, kl_temperature=kl_temperature)
    s_ref, w_ref = np.asarray(s_ref, dtype=np.float64), np.asarray(w_ref, dtype=np.float64)
    return engine._cache_scores(s_ref, w_ref, cfg, slice(0, len(w_ref)), [gamma])[0]


class TestCacheScores:
    def test_gamma_zero_all_ones(self):
        rng = np.random.default_rng(16)
        scores = cache_scores(unit_rows(rng, 6, 4), unit_rows(rng, 3, 4), gamma=0.0)
        np.testing.assert_array_equal(scores, np.ones(6))

    def test_all_gammas_zero_skip_the_prototypes(self):
        """Every gamma 0 gives exact ones without reading the prototypes, so
        the GEMM is skipped; one nonzero gamma scores all of them."""
        rng = np.random.default_rng(16)
        s_ref, w_ref = unit_rows(rng, 6, 4), unit_rows(rng, 3, 4)
        for kl_sign in (1, -1):
            cfg = EngineConfig(kl_sign=kl_sign, kl_temperature=0.7)
            ones = engine._cache_scores(s_ref, None, cfg, slice(0, 3), [0.0, 0.0])
            np.testing.assert_array_equal(ones, np.ones((2, 6)))
            got = engine._cache_scores(s_ref, w_ref, cfg, slice(0, 3), np.array([0.0, 0.3, 1.1]))
            assert got.shape == (3, 6)
            for row, gamma in zip(got, (0.0, 0.3, 1.1)):
                assert row.tobytes() == cache_scores_unblocked(s_ref, w_ref, gamma, kl_sign, 0.7).tobytes()

    def test_uniform_prediction_closed_form(self):
        # Two orthogonal prototypes and one support row per class, both at
        # 45 degrees: the softmax is uniform, so each divergence is ln 2.
        w = np.eye(2)
        sup = np.full((2, 2), math.sqrt(0.5))
        scores = cache_scores(sup, w, gamma=0.2, kl_sign=1)
        np.testing.assert_allclose(scores, [math.exp(0.2 * math.log(2.0))] * 2, rtol=1e-12)
        np.testing.assert_allclose(scores, [1.14870] * 2, rtol=1e-5)

    def test_perfect_prediction_scores_one(self):
        # A tiny temperature saturates the softmax at the true class.
        w = np.eye(2)
        sup = np.eye(2)
        scores = cache_scores(sup, w, gamma=0.7, kl_sign=1, kl_temperature=1e-3)
        np.testing.assert_array_equal(scores, np.ones(2))

    def test_matches_scalar_kl_loop(self):
        """Vectorized scores agree with the per-row one-hot divergence."""
        rng = np.random.default_rng(17)
        c, k, q = 4, 3, 6
        sup = unit_rows(rng, c * k, q)
        w = unit_rows(rng, c, q)
        gamma, sign, temp = 0.3, -1, 0.7
        got = cache_scores(sup, w, gamma, sign, temp)
        probs = softmax(sup @ w.T, temp)
        expected = [
            math.exp(sign * gamma * kl_one_hot(probs[i], i // k))
            for i in range(c * k)
        ]
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestApeLogits:
    def test_alpha_zero_equals_zero_shot_bitwise(self):
        rng = np.random.default_rng(19)
        task = random_task(rng, c=4, k=2, d=10, n_test=7)
        mask = refine.full_mask(task.d)
        cfg = EngineConfig(alpha=0.0, beta=4.0, gamma=0.3)
        got = engine.ape_logits(task, mask, cfg)
        want = engine.zero_shot_logits(task.test_features, task.text_features)
        assert got.tobytes() == want.tobytes()

    def test_gamma_zero_full_mask_matches_baseline(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            task = random_task(rng, c=3, k=2, d=6, n_test=4)
            cfg = EngineConfig(alpha=1.3, beta=2.5, gamma=0.0, renormalize=False)
            got = engine.ape_logits(task, refine.full_mask(task.d), cfg)
            want = tip_reference(task, 1.3, 2.5)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_gamma_zero_skip_equals_explicit_unit_scores_bitwise(self):
        """At gamma = 0 the logits skip the divergences' GEMM and use unit
        scores: bitwise the cache term fed exp(kl_sign * 0 * divergences),
        whatever the sign, temperature, mask or renormalization (the
        Tip-Adapter baseline is every channel without renormalization)."""
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            task = (random_task if seed % 2 else stored_task)(rng, c=4, k=3, d=9, n_test=7)
            zs = engine.zero_shot_logits(task.test_features, task.text_features, task.test_norms)
            some = refine.ChannelMask(np.sort(rng.choice(9, 5, replace=False)), np.zeros(9))
            for mask, renormalize in ((refine.full_mask(9), False), (some, True), (some, False)):
                def take(m, norms=None):
                    return refine._take_channels(m, mask.selected, renormalize, norms)[0]

                s_ref, w_ref = take(task.support_features, task.support_norms), take(task.text_features)
                f_ref = take(task.test_features, task.test_norms)
                for alpha, beta in ((0.5, 1.0), (1.3, 2.5), (2.0, 7.0)):
                    for kl_sign, temperature in ((1, 1.0), (-1, 1.0), (1, 0.3), (-1, 2.5)):
                        cfg = EngineConfig(alpha, beta, 0.0, kl_sign, temperature, renormalize)
                        scores = cache_scores_unblocked(s_ref, w_ref, 0.0, kl_sign, temperature)
                        want = engine._add_cache_term(zs.copy(), f_ref, s_ref, scores, alpha, beta)
                        assert engine.ape_logits(task, mask, cfg).tobytes() == want.tobytes()

    def test_matches_bruteforce_loops(self):
        """Vectorized logits agree with an explicit per-sample loop."""
        rng = np.random.default_rng(21)
        task = random_task(rng, c=3, k=2, d=8, n_test=4)
        sim = refine.inter_class_similarity(task.text_features)
        var = refine.inter_class_variance(task.text_features)
        mask = refine.select_channels(sim, var, 0.7, 5)
        cfg = EngineConfig(alpha=0.8, beta=3.0, gamma=0.25)
        got = engine.ape_logits(task, mask, cfg)

        w_ref = apply_mask(task.text_features, mask)
        s_ref = apply_mask(task.support_features, mask)
        f_ref = apply_mask(task.test_features, mask)
        scores = cache_scores(s_ref, w_ref, cfg.gamma)
        n_test = task.test_features.shape[0]
        expected = np.zeros((n_test, task.c))
        for n in range(n_test):
            for c in range(task.c):
                total = float(task.test_features[n] @ task.text_features[c])
                for i in range(task.c * task.k):
                    if i // task.k == c:
                        aff = math.exp(-cfg.beta * (1.0 - float(f_ref[n] @ s_ref[i])))
                        total += cfg.alpha * aff * scores[i]
                expected[n, c] = total
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_one_shot_identical_support_adds_alpha(self):
        rng = np.random.default_rng(22)
        c, d = 3, 8
        w = unit_rows(rng, c, d)
        support = unit_rows(rng, c, d)
        target_class = 1
        task = FewShotTask(
            text_features=w,
            support_features=support,
            test_features=support[[target_class]],
            test_labels=None,
        )
        cfg = EngineConfig(alpha=0.7, beta=6.0, gamma=0.0, renormalize=True)
        got = engine.ape_logits(task, refine.full_mask(d), cfg)
        zs = engine.zero_shot_logits(task.test_features, w)
        cache = got - zs
        np.testing.assert_allclose(cache[0, target_class], 0.7, rtol=1e-12)
        assert (cache[0, np.arange(c) != target_class] < 0.7).all()

    def test_support_row_routes_to_own_class_only(self):
        rng = np.random.default_rng(23)
        task = random_task(rng, c=4, k=3, d=9, n_test=6)
        sim = refine.inter_class_similarity(task.text_features)
        var = refine.inter_class_variance(task.text_features)
        mask = refine.select_channels(sim, var, 0.7, 6)
        cfg = EngineConfig(alpha=1.1, beta=4.0, gamma=0.2)
        base = engine.ape_logits(task, mask, cfg)

        row = 5  # class 5 // 3 == 1
        perturbed = task.support_features.copy()
        perturbed[row] = unit_rows(rng, 1, task.d)[0]
        bumped = FewShotTask(
            text_features=task.text_features,
            support_features=perturbed,
            test_features=task.test_features,
            test_labels=task.test_labels,
        )
        other = engine.ape_logits(bumped, mask, cfg)
        changed = np.flatnonzero(np.any(base != other, axis=0))
        np.testing.assert_array_equal(changed, [row // task.k])


    def test_wrong_width_mask_rejected_once_at_entry(self):
        """The mask width is checked before any compute, and the refined
        rows are taken without re-validating the task's matrices."""
        rng = np.random.default_rng(2)
        task = random_task(rng, c=3, k=2, d=8)
        with pytest.raises(ValueError, match="^mask covers 6 channels, matrix has 8$"):
            engine.ape_logits(task, refine.full_mask(6), EngineConfig())
        with mock.patch.object(numkit, "as_matrix", wraps=numkit.as_matrix) as spy:
            engine.ape_logits(task, refine.full_mask(8), EngineConfig())
        assert spy.call_count == 0


class TestTipAdapterLogits:
    def test_alpha_zero(self):
        rng = np.random.default_rng(24)
        task = random_task(rng)
        got = tip_logits(task, 0.0, 3.0)
        want = engine.zero_shot_logits(task.test_features, task.text_features)
        np.testing.assert_array_equal(got, want)

    def test_beta_zero_constant_shift_keeps_argmax(self):
        rng = np.random.default_rng(25)
        task = random_task(rng, c=4, k=3, d=8, n_test=10)
        got = tip_logits(task, 0.9, 0.0)
        zs = engine.zero_shot_logits(task.test_features, task.text_features)
        np.testing.assert_allclose(got - zs, 0.9 * task.k, rtol=1e-12)
        np.testing.assert_array_equal(got.argmax(axis=1), zs.argmax(axis=1))


class TestClassPermutation:
    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(2, 5),
        k=st.integers(1, 3),
        kl_sign=st.sampled_from([1, -1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_relabelling_classes_permutes_logits_and_scores(self, c, k, kl_sign, seed):
        """Permuting the text rows and the support class blocks together
        permutes the logit columns and the cache-score blocks the same way."""
        rng = np.random.default_rng(seed)
        d, q = 8, 5
        task = random_task(rng, c=c, k=k, d=d, n_test=6, with_labels=False)
        mask = refine.ChannelMask(
            selected=np.sort(rng.choice(d, q, replace=False)), scores=np.zeros(d)
        )
        cfg = EngineConfig(alpha=0.9, beta=3.0, gamma=0.4, kl_sign=kl_sign, kl_temperature=0.7)
        perm = rng.permutation(c)

        def blocks(m):
            return m.reshape(c, k, *m.shape[1:])[perm].reshape(m.shape)

        moved = FewShotTask(
            text_features=task.text_features[perm],
            support_features=blocks(task.support_features),
            test_features=task.test_features,
            test_labels=None,
        )
        for logits in (
            lambda t: engine.ape_logits(t, mask, cfg),
            lambda t: tip_logits(t, cfg.alpha, cfg.beta),
        ):
            np.testing.assert_allclose(logits(moved), logits(task)[:, perm], rtol=0, atol=1e-12)

        def scores(t):
            s_ref = apply_mask(t.support_features, mask)
            w_ref = apply_mask(t.text_features, mask)
            return engine._cache_scores(s_ref, w_ref, cfg, slice(0, t.c), [cfg.gamma])[0]

        np.testing.assert_allclose(scores(moved), blocks(scores(task)), rtol=0, atol=1e-12)


class TestAffinityKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 9),
        m=st.integers(1, 9),
        d=st.integers(1, 8),
        beta=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_kernel_equals_expression(self, n, m, d, beta, seed):
        rng = np.random.default_rng(seed)
        f, F = unit_rows(rng, n, d), unit_rows(rng, m, d)
        got = engine.cache_affinity(f, F, beta)
        np.testing.assert_array_equal(got, np.exp(-beta * (1.0 - f @ F.T)))

    def test_peak_memory_is_one_output(self):
        """The cosines are sharpened in place: no second N x C*K matrix."""
        rng = np.random.default_rng(0)
        f, F = unit_rows(rng, 256, 64), unit_rows(rng, 512, 64)
        tracemalloc.start()
        try:
            out = engine.cache_affinity(f, F, 5.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes


class TestRoutingOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(2, 6),
        k=st.integers(1, 4),
        n=st.integers(1, 9),
        q=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_logits_path_matches_dense_one_hot(self, c, k, n, q, seed):
        """Class-major routing equals the dense one-hot product it replaces."""
        rng = np.random.default_rng(seed)
        d = 8
        task = random_task(rng, c=c, k=k, d=d, n_test=n)
        mask = refine.ChannelMask(
            selected=np.sort(rng.choice(d, q, replace=False)), scores=np.zeros(d)
        )
        cfg = EngineConfig(alpha=float(rng.uniform(0.1, 2.0)), beta=float(rng.uniform(0.5, 8.0)))
        labels = one_hot_labels(c, k)
        f = task.test_features
        zs = engine.zero_shot_logits(f, task.text_features)

        w_ref = apply_mask(task.text_features, mask)
        s_ref = apply_mask(task.support_features, mask)
        f_ref = apply_mask(f, mask)
        aff = engine.cache_affinity(f_ref, s_ref, cfg.beta)
        scores = engine._cache_scores(s_ref, w_ref, cfg, slice(0, c), [cfg.gamma])[0]
        want = zs + cfg.alpha * (aff * scores) @ labels
        got = engine.ape_logits(task, mask, cfg)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

        aff = engine.cache_affinity(f, task.support_features, cfg.beta)
        want = zs + cfg.alpha * aff @ labels
        got = tip_logits(task, cfg.alpha, cfg.beta)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

        state = trainer.init_state(task, mask, cfg)
        state.res += 0.1 * rng.standard_normal(state.res.shape)
        padded = np.zeros((c, d))
        padded[:, mask.selected] = state.res
        keys = s_ref + np.repeat(state.res, k, axis=0)
        aff = engine.cache_affinity(f_ref, keys, cfg.beta)
        want = f @ (task.text_features + padded).T + cfg.alpha * (aff * state.scores) @ labels
        got = trainer.forward(state, f)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestClassSumKernel:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_column_bits_independent_of_e_rows_and_chunks(self, threads):
        """``tests/class_sums_property.py`` in a child process, since the BLAS
        thread count must be set before numpy loads."""
        here = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, str(here / "class_sums_property.py")],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout + done.stderr


class TestRowBlocks:
    """Inference runs over row blocks; rows are independent, so every
    blocked result equals the whole-matrix result bitwise."""

    @settings(max_examples=80, deadline=None)
    @given(
        c=st.integers(2, 8),
        k=st.integers(1, 6),
        n=st.integers(1, 40),
        q=st.integers(1, 8),
        rows=st.integers(2, 3),
        stored=st.booleans(),
        renormalize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(c=2, k=2, n=3, q=5, rows=2, stored=False, renormalize=True, seed=0)
    @example(c=3, k=1, n=1, q=8, rows=2, stored=False, renormalize=True, seed=1)
    @example(c=3, k=1, n=4, q=8, rows=3, stored=False, renormalize=True, seed=2)  # a one-column run would be GEMV
    @example(c=6, k=4, n=40, q=8, rows=2, stored=False, renormalize=True, seed=3)  # 5 row blocks x 6 one-class runs
    @example(c=8, k=5, n=40, q=8, rows=2, stored=True, renormalize=False, seed=4)  # 4 blocks x 8 runs of 5 keys
    @example(c=7, k=3, n=40, q=8, rows=2, stored=True, renormalize=True, seed=5)  # 7 runs; the tile plan has 4
    def test_blocked_paths_equal_whole_matrix(self, c, k, n, q, rows, stored, renormalize, seed):
        """Every logits path equals its whole-matrix reference bitwise, under
        the default budget and one that splits the keys into class runs.  A
        trained state's logits, by ``forward`` and by ``ape eval``'s walk, are
        also bitwise those of the one-pass ``forward_reference`` under the
        same budget."""
        rng = np.random.default_rng(seed)
        d = 8
        task = (stored_task if stored else random_task)(rng, c=c, k=k, d=d, n_test=n)
        mask = refine.ChannelMask(
            selected=np.sort(rng.choice(d, q, replace=False)), scores=np.zeros(d)
        )
        cfg = EngineConfig(
            alpha=float(rng.uniform(0.1, 2.0)),
            beta=float(rng.uniform(0.0, 8.0)),
            gamma=float(rng.uniform(0.0, 1.0)),
            kl_sign=int(rng.choice([1, -1])),
            kl_temperature=float(rng.uniform(0.5, 2.0)),
            renormalize=renormalize,
        )
        f, w, s = (widened(m) for m in (task.test_features, task.text_features, task.support_features))
        w_ref, s_ref, f_ref = (apply_mask(m, mask, renormalize) for m in (w, s, f))
        state = trainer.init_state(task, mask, cfg)
        state.res += 0.1 * rng.standard_normal(state.res.shape)

        scores = cache_scores_unblocked(s_ref, w_ref, cfg.gamma, cfg.kl_sign, cfg.kl_temperature)
        want = {
            "ape": cache_term_unblocked(f @ w.T, f_ref, s_ref, scores, cfg.alpha, cfg.beta, c, k),
            "tip": cache_term_unblocked(f @ w.T, f, s, 1.0, cfg.alpha, cfg.beta, c, k),
            "forward": shifted_forward_reference(f, w, f_ref, s_ref, state),
            "eval": shifted_forward_reference(f, w, f_ref, s_ref, state),
        }

        def logits():
            return {
                "ape": engine.ape_logits(task, mask, cfg),
                "tip": tip_logits(task, cfg.alpha, cfg.beta),
                "forward": trainer.forward(state, task.test_features, task.test_norms),
                "eval": eval_logits(task, state),
                "reference": forward_reference(state, task.test_features, task.test_norms),
            }

        default = logits()
        with block_budget(c * k, rows):
            blocked = logits()
        for name, expected in want.items():
            assert default[name].tobytes() == expected.tobytes(), name
            assert blocked[name].tobytes() == expected.tobytes(), name
        for got in (default, blocked):
            assert got["forward"].tobytes() == got["eval"].tobytes() == got["reference"].tobytes()

        assert engine._cache_scores(s_ref, w_ref, cfg, slice(0, c), [cfg.gamma])[0].tobytes() == scores.tobytes()
        with block_budget(4 * c, rows):  # softmax blocks of a quarter budget: ``rows`` rows
            assert engine._cache_scores(s_ref, w_ref, cfg, slice(0, c), [cfg.gamma])[0].tobytes() == scores.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 300), cols=st.integers(1, 64), rows=st.integers(1, 20))
    @example(n=3, cols=4, rows=2)
    def test_partition(self, n, cols, rows):
        """Blocks cover 0..n in order, near-equal with the largest first,
        within budget, and no block has one row unless n = 1 (a one-row
        matmul takes another BLAS path)."""
        with block_budget(cols, rows):
            blocks = numkit._row_blocks(n, cols)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == n
        sizes = [b.stop - b.start for b in blocks]
        assert max(sizes) - min(sizes) <= 1 and sizes[0] == max(sizes)
        assert max(sizes) <= max(rows, 3)
        assert n == 1 or min(sizes) >= 2

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 700),
        c=st.integers(1, 60),
        k=st.integers(1, 5),
        rows=st.integers(1, 300),
    )
    @example(n=40, c=6, k=4, rows=2)
    @example(n=4, c=3, k=1, rows=3)
    @example(n=2000, c=1000, k=16, rows=65)
    def test_tiles_cover_every_row_and_class_once(self, n, c, k, rows):
        """Tiles partition rows x classes.  No tile has one row or one key
        column unless the whole product has (numpy sends those to GEMV),
        and split keys give every tile at least min(N, 256) rows, or as
        many as the budget holds at C columns."""
        with block_budget(c * k, rows):
            blocks, runs = engine._tile_plan(n, c, k)
            unsplit = numkit._row_blocks(n, c * k)
            target = min(n, 256, numkit._BLOCK_BYTES // (8 * c))
        seen = np.zeros((n, c), dtype=np.int64)
        for r in blocks:
            for cls in runs:
                seen[r, cls] += 1
        assert (seen == 1).all()
        heights = [b.stop - b.start for b in blocks]
        widths = [(r.stop - r.start) * k for r in runs]
        assert n == 1 or min(heights) >= 2
        assert c * k == 1 or min(widths) >= 2
        if (blocks, runs) != (unsplit, [slice(0, c)]):
            assert min(heights) >= target > unsplit[0].stop

    def test_paper_shape_tiles_and_desk_shape_row_blocks(self):
        """At C=1000, K=16 and N=2000 the 8 MiB budget gives 7 blocks of 286
        or 285 rows x 5 runs of 200 classes, where full-width blocks would
        have 65 rows; at the desk's C=100 the tiles are the row blocks."""
        blocks, runs = engine._tile_plan(2000, 1000, 16)
        assert len(blocks) == 7 and {b.stop - b.start for b in blocks} == {285, 286}
        assert runs == [slice(200 * i, 200 * (i + 1)) for i in range(5)]
        assert 8 * 286 * 200 * 16 <= numkit._BLOCK_BYTES
        assert numkit._row_blocks(2000, 16000)[0].stop == 65
        assert engine._tile_plan(5000, 100, 16) == (numkit._row_blocks(5000, 1600), [slice(0, 100)])

    def test_inputs_checked_once_per_call_not_per_block(self):
        """Two-row blocks make as many ``as_matrix`` calls as the default
        budget: the blocks trust what the public entry checked."""
        rng = np.random.default_rng(5)
        c, k, n, d = 4, 8, 40, 16
        task = random_task(rng, c=c, k=k, d=d, n_test=n)
        mask = refine.ChannelMask(selected=np.arange(10), scores=np.zeros(d))
        calls = {
            "ape_logits": lambda: engine.ape_logits(task, mask, EngineConfig()),
            "init_state": lambda: trainer.init_state(task, mask, EngineConfig()),
        }
        for name, call in calls.items():
            counts = []
            for budget in (contextlib.nullcontext(), block_budget(1, 2)):
                with budget, mock.patch.object(numkit, "as_matrix", wraps=numkit.as_matrix) as spy:
                    call()
                counts.append(spy.call_count)
            assert counts[0] == counts[1], name

    def test_peak_memory_is_one_block(self):
        """No N x C*K matrix is held: the parent peaked near two of them."""
        rng = np.random.default_rng(0)
        c, k, n, d = 32, 16, 1024, 64
        task = random_task(rng, c=c, k=k, d=d, n_test=n)
        mask = refine.ChannelMask(selected=np.arange(32), scores=np.zeros(d))
        whole = n * c * k * 8
        with block_budget(c * k, n // 16):
            tracemalloc.start()
            try:
                out = engine.ape_logits(task, mask, EngineConfig())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak - out.nbytes < 0.5 * whole

    def test_split_keys_hold_one_tile_not_a_full_width_block(self):
        """With a 32-row budget at C*K = 4096 the keys split into runs of 32
        classes, so the 256-row blocks hold 1 MiB tiles, never 256 x C*K."""
        rng = np.random.default_rng(1)
        c, k, n, d = 256, 16, 512, 32
        task = random_task(rng, c=c, k=k, d=d, n_test=n)
        mask = refine.ChannelMask(selected=np.arange(16), scores=np.zeros(d))
        with block_budget(c * k, 32):
            blocks, runs = engine._tile_plan(n, c, k)
            tracemalloc.start()
            try:
                out = engine.ape_logits(task, mask, EngineConfig())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert (len(blocks), len(runs)) == (2, 8)
        assert peak - out.nbytes < 0.5 * 256 * c * k * 8


class TestStoredRowsWidenedWhereUsed:
    """Float32 task rows are widened and refined where they are used: the
    support keys one class run at a time, the zero-shot product one row
    block at a time.  No float64 copy of a whole split exists, and every
    result is bitwise that of the whole widened matrices."""

    @settings(max_examples=80, deadline=None)
    @given(
        c=st.integers(2, 6),
        k=st.integers(1, 4),
        n=st.integers(1, 40),
        q=st.integers(1, 8),
        rows=st.integers(2, 3),
        renormalize=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(c=6, k=4, n=40, q=8, rows=2, renormalize=True, seed=3)  # 5 row blocks x 6 one-class runs
    @example(c=3, k=1, n=4, q=8, rows=3, renormalize=False, seed=2)  # runs of 2 and 1 classes
    def test_float32_paths_equal_whole_matrix_references(self, c, k, n, q, rows, renormalize, seed):
        rng = np.random.default_rng(seed)
        d = 8
        task = stored_task(rng, c=c, k=k, d=d, n_test=n)
        mask = refine.ChannelMask(
            selected=np.sort(rng.choice(d, q, replace=False)), scores=np.zeros(d)
        )
        cfg = EngineConfig(
            alpha=float(rng.uniform(0.1, 2.0)),
            beta=float(rng.uniform(0.0, 8.0)),
            gamma=float(rng.uniform(0.0, 1.0)),
            kl_sign=int(rng.choice([1, -1])),
            kl_temperature=float(rng.uniform(0.5, 2.0)),
            renormalize=renormalize,
        )
        w, s64, f64 = widened(task.text_features), widened(task.support_features), widened(task.test_features)
        w_ref, s_ref, f_ref = (apply_mask(m, mask, renormalize) for m in (w, s64, f64))
        scores = cache_scores_unblocked(s_ref, w_ref, cfg.gamma, cfg.kl_sign, cfg.kl_temperature)
        state = trainer.init_state(task, mask, cfg)
        state.res += 0.1 * rng.standard_normal(state.res.shape)
        want = {
            "zero_shot": f64 @ w.T,
            "ape": cache_term_unblocked(f64 @ w.T, f_ref, s_ref, scores, cfg.alpha, cfg.beta, c, k),
            "tip": cache_term_unblocked(f64 @ w.T, f64, s64, 1.0, cfg.alpha, cfg.beta, c, k),
            "forward": shifted_forward_reference(f64, w, f_ref, s_ref, state),
        }
        with block_budget(c * k, rows):
            got = {
                "zero_shot": engine.zero_shot_logits(task.test_features, task.text_features, task.test_norms,
                                                     task.text_norms),
                "ape": engine.ape_logits(task, mask, cfg),
                "tip": tip_logits(task, cfg.alpha, cfg.beta),
                "forward": trainer.forward(state, task.test_features),
            }
        for name, expected in want.items():
            assert got[name].tobytes() == expected.tobytes(), name

    def test_split_keys_never_hold_the_whole_support(self):
        """With the keys split into 8 class runs, ``ape_logits`` refines and
        the Tip-Adapter baseline widens one run's support rows at a time:
        neither holds the C*K x Q refined or C*K x D widened support."""
        rng = np.random.default_rng(7)
        c, k, n, d = 256, 16, 256, 256
        task = stored_task(rng, c=c, k=k, d=d, n_test=n)
        mask = refine.full_mask(d)  # Q = D, so both would be the same size
        zs = engine.zero_shot_logits(task.test_features, task.text_features, task.test_norms)
        whole = c * k * d * 8
        calls = {
            "ape": lambda: engine.ape_logits(task, mask, EngineConfig()),
            "tip": lambda: engine._ape_core(zs.copy(), task, mask.selected, tip_config(1.0, 5.5)),
        }
        with block_budget(c * k, 32):
            assert len(engine._tile_plan(n, c, k)[1]) == 8
            for name, call in calls.items():
                tracemalloc.start()
                try:
                    call()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 0.75 * whole, name

    def test_zero_shot_of_stored_rows_holds_its_output_and_one_block(self):
        rng = np.random.default_rng(8)
        n, c, d, rows = 4096, 8, 256, 64
        f = unit_rows(rng, n, d).astype(np.float32)
        w = unit_rows(rng, c, d)
        norms = numkit._row_norms(f)
        with block_budget(d, rows):
            tracemalloc.start()
            try:
                out = engine.zero_shot_logits(f, w, norms)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= out.nbytes + 2 * 8 * rows * d


def support_runs(task, n, q):
    """The class runs ``engine._support_runs`` takes for ``n`` query rows and ``q`` channels."""
    return engine._run_plan(n, task.c, task.k, q)[1]


class TestSupportRuns:
    """``ape_logits`` takes its refined keys in class runs of at most half a
    block budget, split finer than ``engine._tile_plan``'s runs where those
    hold more, and scores them in softmax blocks of a quarter budget."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("stored", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_finer_runs_equal_the_single_run_bitwise(self, k, stored, seed):
        rng = np.random.default_rng(seed)
        c, n, d, q = 8, 12, 16, 8
        task = (stored_task if stored else random_task)(rng, c=c, k=k, d=d, n_test=n)
        mask = refine.ChannelMask(selected=np.sort(rng.choice(d, q, replace=False)), scores=np.zeros(d))
        cfg = EngineConfig(
            alpha=float(rng.uniform(0.1, 2.0)),
            beta=float(rng.uniform(0.0, 8.0)),
            gamma=float(rng.uniform(0.1, 1.0)),
            kl_sign=int(rng.choice([1, -1])),
            kl_temperature=float(rng.uniform(0.5, 2.0)),
        )
        assert len(support_runs(task, n, d)) == 1
        want = {"ape": engine.ape_logits(task, mask, cfg), "tip": tip_logits(task, cfg.alpha, cfg.beta)}
        with block_budget(c * k, n):  # the tile plan keeps one run of all C classes
            assert len(engine._tile_plan(n, c, k)[1]) == 1
            assert len(support_runs(task, n, q)) > 1 and len(support_runs(task, n, d)) > 1
            got = {"ape": engine.ape_logits(task, mask, cfg), "tip": tip_logits(task, cfg.alpha, cfg.beta)}
        for name, expected in want.items():
            assert got[name].tobytes() == expected.tobytes(), name

    def test_peak_above_its_held_rows_is_about_one_budget(self):
        """Past ``zs`` (its output) and the refined test and text rows,
        ``_ape_core`` holds about one budget: a run's keys in half of it and
        a tile, or a softmax block, in the rest.  Keys of the tile plan's one
        run, a whole budget here, took about two, and a float64 copy of the
        C x D float32 text rows would take half of one."""
        rng = np.random.default_rng(9)
        c, k, n, d, q = 32, 16, 512, 2048, 256
        task = stored_task(rng, c=c, k=k, d=d, n_test=n)
        mask = refine.ChannelMask(selected=np.arange(q), scores=np.zeros(d))
        budget = c * k * q * 8  # the whole refined support
        zs = engine.zero_shot_logits(task.test_features, task.text_features, task.test_norms)
        with mock.patch.object(numkit, "_BLOCK_BYTES", budget):
            assert len(engine._tile_plan(n, c, k)[1]) == 1 and len(support_runs(task, n, q)) == 2
            tracemalloc.start()
            try:
                engine._ape_core(zs, task, mask.selected, EngineConfig())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        held = 8 * (n + c) * q  # f_ref and w_ref
        assert task.text_features.dtype == np.float32 and 8 * c * d == budget // 2
        assert peak - held < 1.25 * budget

    def test_paper_shape_runs(self):
        """At C=1000, K=16, N=2000 and Q=512 the tile plan's 5 runs of 200
        classes become 16 runs of 62 or 63, whose keys fit half the 8 MiB
        budget; a run's softmax takes blocks of a quarter budget.  At the
        desk's C=100 and Q=512 the 2000-row search splits into 2 runs of 50
        classes, whose 800 support rows are one softmax block."""
        runs = engine._run_plan(2000, 1000, 16, 512)[1]
        assert len(engine._tile_plan(2000, 1000, 16)[1]) == 5
        assert len(runs) == 16 and {r.stop - r.start for r in runs} == {62, 63}
        assert runs == numkit._even_slices(1000, 16)
        assert all(8 * 16 * (r.stop - r.start) * 512 <= numkit._BLOCK_BYTES // 2 for r in runs)
        assert engine._run_plan(2000, 100, 16, 512)[1] == numkit._even_slices(100, 2)

        rng = np.random.default_rng(10)
        row_blocks, plans = numkit._row_blocks, []

        def spy(n, cols):
            plans.append(row_blocks(n, cols))
            return plans[-1]

        for c, n, classes in ((1000, 16 * 63, slice(0, 63)), (100, 16 * 50, slice(0, 50))):
            s_ref, w_ref = unit_rows(rng, n, 8), unit_rows(rng, c, 8)
            with mock.patch.object(numkit, "_row_blocks", spy):
                engine._cache_scores(s_ref, w_ref, EngineConfig(), classes, [0.2])
        assert 8 * plans[0][0].stop * 1000 <= numkit._BLOCK_BYTES // 4
        assert len(plans) == 2 and len(plans[0]) == 4 and plans[1] == [slice(0, 800)]

    def test_one_row_keeps_one_run(self):
        """One query row makes a GEMV, whose sums depend on its key count:
        split at one random key cut, ``x @ K.T`` changed its bits in 166 of
        200 random shapes under OpenBLAS 0.3.31.  So one row keeps one run of
        all C classes, even at paper shape, where its 16,000 refined keys
        take 62.5 MiB."""
        assert engine._run_plan(1, 1000, 16, 512) == ([slice(0, 1)], [slice(0, 1000)])


class TestPredictAccuracy:
    def test_argmax_invariant_to_constant_shift(self):
        rng = np.random.default_rng(26)
        logits = rng.standard_normal((30, 5))
        for shift in (-3.0, 0.0, 1e6):
            np.testing.assert_array_equal(
                engine.predict(logits + shift), engine.predict(logits)
            )

    def test_accuracy_fraction(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert engine.accuracy(logits, [0, 1, 1]) == pytest.approx(2.0 / 3.0)


class TestConfigAndTaskValidation:
    def test_bad_scalars_rejected(self):
        for bad in (
            dict(alpha=-0.1),
            dict(beta=float("nan")),
            dict(gamma=-1.0),
            dict(kl_sign=0),
            dict(kl_temperature=0.0),
            dict(kl_temperature=-1.0),
            dict(kl_temperature=float("nan")),
        ):
            with pytest.raises(ValueError):
                EngineConfig(**bad)

    @pytest.mark.parametrize("build", ["direct", "replace"])
    @pytest.mark.parametrize("name, value, message", [
        ("alpha", -0.1, "alpha must be finite and >= 0, got -0.1"),
        ("alpha", math.inf, "alpha must be finite and >= 0, got inf"),
        ("beta", math.nan, "beta must be finite and >= 0, got nan"),
        ("beta", -1.0, "beta must be finite and >= 0, got -1.0"),
        ("gamma", -1.0, "gamma must be finite and >= 0, got -1.0"),
        ("gamma", math.nan, "gamma must be finite and >= 0, got nan"),
        ("kl_sign", 0, "kl_sign must be +1 or -1, got 0"),
        ("kl_sign", 2, "kl_sign must be +1 or -1, got 2"),
        ("kl_sign", 1.0, "kl_sign must be +1 or -1, got 1.0"),  # a checkpoint stores it as an integer
        ("kl_temperature", 0.0, "kl_temperature must be > 0, got 0.0"),
        ("kl_temperature", -1.0, "kl_temperature must be > 0, got -1.0"),
        ("kl_temperature", math.nan, "kl_temperature must be > 0, got nan"),
    ])
    def test_bad_scalar_rejected_at_construction(self, build, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if build == "direct":
                EngineConfig(**{name: value})
            else:
                dataclasses.replace(EngineConfig(), **{name: value})

    def test_frozen_without_validate(self):
        cfg = EngineConfig()
        assert not hasattr(cfg, "validate")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.beta = float("nan")

    def test_task_rejects_non_unit_rows(self):
        rng = np.random.default_rng(28)
        with pytest.raises(ValueError):
            FewShotTask(
                text_features=rng.standard_normal((3, 5)) * 2,
                support_features=unit_rows(rng, 6, 5),
                test_features=unit_rows(rng, 2, 5),
                test_labels=None,
            )

    def test_task_rejects_empty_test_split(self):
        rng = np.random.default_rng(30)
        w = unit_rows(rng, 3, 5)
        with pytest.raises(ValueError, match="test_features"):
            FewShotTask(
                text_features=w,
                support_features=unit_rows(rng, 6, 5),
                test_features=np.zeros((0, 5)),
                test_labels=None,
            )

    def test_task_rejects_empty_support(self):
        rng = np.random.default_rng(29)
        w = unit_rows(rng, 3, 5)
        with pytest.raises(ValueError, match="K >= 1"):
            FewShotTask(
                text_features=w,
                support_features=np.zeros((0, 5)),
                test_features=w,
                test_labels=None,
            )

    def test_task_rejects_bad_test_labels(self):
        rng = np.random.default_rng(29)
        # Out of range, then non-integral ids, which a cast would truncate.
        for labels in (np.array([0, 3]), [0.6, 1.9], [0.0, float("nan")]):
            with pytest.raises(ValueError):
                random_task(rng).__class__(
                    text_features=unit_rows(rng, 3, 5),
                    support_features=unit_rows(rng, 6, 5),
                    test_features=unit_rows(rng, 2, 5),
                    test_labels=labels,
                )


ROLES = ("text_features", "support_features", "test_features")


class TestFloat64TaskCheck:
    """Float64 rows are checked by one norm pass per role, as float32 rows
    are; an entrywise pass runs only to name the cause of a non-finite norm."""

    @staticmethod
    def rows(seed):
        rng = np.random.default_rng(seed)
        return {"text_features": unit_rows(rng, 3, 8), "support_features": unit_rows(rng, 6, 8),
                "test_features": unit_rows(rng, 4, 8)}

    def test_one_norm_pass_per_role_and_no_entrywise_pass(self):
        rows = self.rows(81)
        with mock.patch.object(numkit, "_row_norms", wraps=numkit._row_norms) as norms, \
                mock.patch.object(numkit, "_stored_blocks", wraps=numkit._stored_blocks) as blocks:
            task = FewShotTask(**rows, test_labels=None)
        for spy in (norms, blocks):  # each norm pass takes its own blocks, and nothing else does
            assert [id(call.args[0]) for call in spy.call_args_list] == [id(rows[role]) for role in ROLES]
        for role in ROLES:
            assert getattr(task, role) is rows[role]
            assert getattr(task, role.replace("features", "norms")).tobytes() == \
                np.sqrt((rows[role] ** 2).sum(axis=1)).tobytes()

    @pytest.mark.parametrize("value, message", [
        (np.nan, "contains non-finite entries"),
        (np.inf, "contains non-finite entries"),
        (-np.inf, "contains non-finite entries"),
        (1e200, "rows must be unit-norm within 1e-6"),  # finite, but its norm is not
    ])
    @pytest.mark.parametrize("role", ROLES)
    def test_bad_entry_named_as_before(self, role, value, message):
        rows = self.rows(82)
        rows[role][1, 2] = value
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"^{role} {message}$"):
            FewShotTask(**rows, test_labels=None)

    @pytest.mark.parametrize("role", ROLES)
    def test_non_finite_entry_named_before_a_shape_error(self, role):
        """The float64 norms are taken before the shapes are checked, where the
        entrywise pass ran, so a non-finite entry is still named first."""
        rows = self.rows(83)
        rows[role][0, 0] = np.nan
        rows["support_features"] = rows["support_features"][:5]  # not C*K rows
        with pytest.raises(ValueError, match=f"^{role} contains non-finite entries$"):
            FewShotTask(**rows, test_labels=None)

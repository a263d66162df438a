"""Unit tests for the shared numeric kernels."""

import contextlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ape import numkit
from helpers import block_budget, kl_one_hot, softmax


class TestL2NormalizeRows:
    """Row normalization, :func:`numkit._normalize_rows_inplace`, on a copy
    of each input that the test owns."""

    @staticmethod
    def normalized(m):
        return numkit._normalize_rows_inplace(np.array(m, dtype=np.float64))

    def test_three_four_five_triangle(self):
        out = self.normalized([[3.0, 4.0]])
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=1e-15)

    def test_unit_row_unchanged_bitwise(self):
        m = np.array([[1.0, 0.0]])
        out = self.normalized(m)
        assert out.tobytes() == m.tobytes()

    def test_zero_row_passes_through_with_warning(self):
        with pytest.warns(numkit.ZeroRowWarning):
            out = self.normalized([[0.0, 0.0], [3.0, 4.0]])
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1], [0.6, 0.8], rtol=1e-15)

    def test_rows_divide_alike_with_and_without_a_zero_row(self):
        """Only a zero row sends the divide through its mask, which changes
        no other row's bits."""
        m = np.random.default_rng(4).standard_normal((9, 7))
        with pytest.warns(numkit.ZeroRowWarning):
            masked = self.normalized(np.vstack([m, np.zeros((1, 7))]))
        assert self.normalized(m).tobytes() == masked[:-1].tobytes()

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((40, 17))
        once = self.normalized(m)
        twice = self.normalized(once)
        assert once.tobytes() == twice.tobytes()

    def test_unit_norms(self):
        rng = np.random.default_rng(1)
        out = self.normalized(rng.standard_normal((30, 64)) * 10)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)

    def test_non_finite_rejected(self):
        """The helper checks nothing: rows are checked where they enter,
        before any normalization."""
        with pytest.raises(ValueError, match="non-finite"):
            numkit.as_matrix([[np.nan, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            numkit.as_matrix([[np.inf, 1.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            numkit._normalize_rows_inplace(np.zeros((0, 3)))

    def test_input_not_mutated(self):
        """Given ``out``, the result goes there and ``m`` is left as it was."""
        m = np.random.default_rng(2).standard_normal((6, 5))
        before = m.copy()
        out = np.empty(m.shape)
        assert numkit._normalize_rows_inplace(m, out=out) is out
        assert m.tobytes() == before.tobytes()
        assert out.tobytes() == self.normalized(before).tobytes()

    def test_in_place_helper_overwrites_its_argument(self):
        m = np.random.default_rng(3).standard_normal((6, 5))
        want = numkit._normalize_rows_inplace(m, out=np.empty(m.shape))
        assert numkit._normalize_rows_inplace(m) is m
        assert m.tobytes() == want.tobytes()

    def test_zero_rows_warn_once_per_call(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self.normalized([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
        assert [(w.category, str(w.message)) for w in caught] == [
            (numkit.ZeroRowWarning, "2 zero row(s) passed through unnormalized")
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        d=st.integers(1, 16),
        rows=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_row_norms_equal_whole_matrix(self, n, d, rows, seed):
        m = np.random.default_rng(seed).standard_normal((n, d))
        with mock.patch.object(numkit, "_BLOCK_BYTES", 8 * d * rows):
            got = numkit._row_norms(m)
        assert got.tobytes() == np.sqrt((m * m).sum(axis=1)).tobytes()


class TestRowNorms:
    """``_row_norms`` squares a few rows at a time within each row block."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, d, block_rows", [
        (1, 7, 128),      # one row
        (128, 7, 128),    # one block of 64 sub-blocks of 2 rows
        (131, 7, 128),    # two blocks, the last sub-block one row
        (300, 1024, None),  # the default budget: sub-blocks of 16 rows
        (3, 20000, None),   # rows wider than a sub-block: one row at a time
    ])
    def test_equal_the_widened_expression(self, dtype, n, d, block_rows):
        rng = np.random.default_rng(n + d)
        m = (rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, (n, 1))).astype(dtype)
        w = m.astype(np.float64)
        with block_budget(d, block_rows) if block_rows else contextlib.nullcontext():
            got = numkit._row_norms(m)
        assert got.tobytes() == np.sqrt((w * w).sum(axis=1)).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scratch_stays_within_a_sub_block(self, dtype):
        """4096 x 256 rows are one row block, whose squares took 8 MiB."""
        m = np.random.default_rng(5).standard_normal((4096, 256)).astype(dtype)
        assert len(numkit._row_blocks(*m.shape)) == 1
        tracemalloc.start()
        try:
            out = numkit._row_norms(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + numkit._BLOCK_BYTES // 64 + 8192


class TestSoftmaxRows:
    """The stable softmax reference that checks the vectorized cache scores."""

    def test_symmetric_row(self):
        np.testing.assert_allclose(
            softmax(np.array([[0.0, 0.0]])), [[0.5, 0.5]], rtol=1e-15
        )

    def test_large_logits_no_overflow(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, 0], 1.0, atol=1e-12)

    def test_log_two_closed_form(self):
        out = softmax(np.array([[math.log(2.0), 0.0]]))
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], rtol=1e-14)

    def test_temperature_scales_logits(self):
        m = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_allclose(
            softmax(m, temperature=2.0),
            softmax(m / 2.0),
            rtol=1e-15,
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = softmax(rng.standard_normal((50, 20)) * 30)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestKlOneHot:
    """The scalar divergence oracle that checks the vectorized cache scores."""

    def test_perfect_prediction(self):
        assert kl_one_hot([1.0, 0.0, 0.0], 0) == 0.0

    def test_uniform_two_class(self):
        np.testing.assert_allclose(
            kl_one_hot([0.5, 0.5], 0), -math.log(0.5), rtol=1e-12
        )

    def test_clamp_floor(self):
        got = kl_one_hot([1e-20, 1.0 - 1e-20], 0)
        np.testing.assert_allclose(got, -math.log(1e-12), rtol=1e-12)

    def test_always_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.random(6)
            p /= p.sum()
            assert kl_one_hot(p, int(rng.integers(0, 6))) >= 0.0

    def test_zero_iff_true_class_probability_one(self):
        assert kl_one_hot([0.0, 1.0], 1) == 0.0
        assert kl_one_hot([0.25, 0.75], 1) > 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            kl_one_hot([0.5, 0.5], 2)
        with pytest.raises(ValueError):
            kl_one_hot([0.5, 0.5], -1)

    def test_not_a_distribution(self):
        with pytest.raises(ValueError):
            kl_one_hot([0.5, 0.6], 0)

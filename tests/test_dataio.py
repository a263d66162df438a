"""Tests for the binary matrix format, manifests, and the task generator."""

import dataclasses
import gc
import hashlib
import mmap
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ape import dataio, engine, numkit, refine, trainer
from ape.cli import grid_search
from ape.engine import EngineConfig
from helpers import (
    block_budget,
    check_labels_reference,
    l2_normalize_rows,
    load_task_float64,
    one_hot_labels,
    random_task,
    tip_logits,
    unit_rows,
)


class TestMatrixRoundTrip:
    def test_write_read_bitwise(self, tmp_path):
        rng = np.random.default_rng(50)
        path = tmp_path / "m.apef"
        m = rng.standard_normal((3, 4))
        dataio.write_matrix(path, m)
        got = dataio.read_matrix(path)
        assert got.shape == (3, 4)
        # one float32 narrowing at write time, then bit-stable round trips
        np.testing.assert_array_equal(got, m.astype(np.float32).astype(np.float64))
        dataio.write_matrix(tmp_path / "m2.apef", got)
        assert (tmp_path / "m2.apef").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 4096), (7, 3)])
    def test_edge_shapes(self, tmp_path, shape):
        rng = np.random.default_rng(51)
        path = tmp_path / "m.apef"
        m = rng.standard_normal(shape)
        dataio.write_matrix(path, m)
        got = dataio.read_matrix(path)
        assert got.shape == shape
        np.testing.assert_array_equal(got.astype(np.float32), m.astype(np.float32))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.apef"
        dataio.write_matrix(path, np.ones((2, 3)))
        blob = path.read_bytes()
        assert blob[:4] == b"APEF"
        assert struct.unpack("<I", blob[4:8]) == (1,)
        assert struct.unpack("<QQ", blob[8:24]) == (2, 3)
        assert len(blob) == 24 + 2 * 3 * 4

    def test_float32_overflow_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            dataio.write_matrix(tmp_path / "m.apef", np.array([[1e300]]))

    @pytest.mark.parametrize("row", [0, 9], ids=["first-block", "last-block"])
    def test_overflow_leaves_the_target_and_no_temporary(self, tmp_path, row):
        path = tmp_path / "m.apef"
        dataio.write_matrix(path, np.ones((2, 2)))
        before = path.read_bytes()
        m = np.ones((10, 4))
        m[row, 1] = -1e300
        with block_budget(4, 2), pytest.raises(ValueError, match="^matrix values exceed the float32 range$"):
            dataio.write_matrix(path, m)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.apef"]

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 40), st.integers(0, 7)),
        block_rows=st.integers(2, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_streamed_bytes_equal_the_whole_narrowing(self, shape, block_rows, seed):
        m = np.random.default_rng(seed).standard_normal(shape) * 1e30
        with tempfile.TemporaryDirectory() as tmp, block_budget(max(shape[1], 1), block_rows):
            path = Path(tmp) / "m.apef"
            dataio.write_matrix(path, m)
            blob = path.read_bytes()
        assert blob == b"APEF" + struct.pack("<IQQ", 1, *shape) + m.astype("<f4").tobytes()

    def test_holds_one_block_not_the_payload(self, tmp_path):
        """Beyond the input's finiteness mask (one byte per value), writing
        holds one float32 row block, not a copy of the payload."""
        rows, cols, block_rows = 4096, 256, 64
        m = np.random.default_rng(57).standard_normal((rows, cols))
        with block_budget(cols, block_rows):
            tracemalloc.start()
            try:
                dataio.write_matrix(tmp_path / "m.apef", m)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < rows * cols + 2 * 4 * block_rows * cols + 65536  # the payload is 4 MiB


class TestWriteMatrixPass:
    """The narrowing is ``write_matrix``'s one pass over its input; only a
    block that fails it sends the input through the entrywise check, which
    then names the cause as a check of the whole input would."""

    def test_one_narrowing_pass_and_no_entrywise_pass(self, tmp_path):
        m = np.random.default_rng(58).standard_normal((40, 6))
        with block_budget(6, 8), \
                mock.patch.object(numkit, "_stored_blocks", side_effect=AssertionError("entrywise pass")), \
                mock.patch.object(np, "isfinite", wraps=np.isfinite) as finite:
            dataio.write_matrix(tmp_path / "m.apef", m)
        checked = [call.args[0] for call in finite.call_args_list]
        assert [blk.dtype for blk in checked] == [np.float32] * 5
        assert sum(len(blk) for blk in checked) == 40
        assert dataio.read_matrix(tmp_path / "m.apef").tobytes() == m.astype(np.float32).astype(np.float64).tobytes()

    @pytest.mark.parametrize("first, last, message", [
        (1e39, np.nan, "matrix contains non-finite entries"),
        (1e39, -np.inf, "matrix contains non-finite entries"),
        (np.nan, 1e39, "matrix contains non-finite entries"),
        (1e39, 1.0, "matrix values exceed the float32 range"),
        (1.0, -1e39, "matrix values exceed the float32 range"),
    ])
    def test_failing_block_named_as_by_a_whole_check(self, tmp_path, first, last, message):
        path = tmp_path / "m.apef"
        dataio.write_matrix(path, np.eye(3))
        before = path.read_bytes()
        m = np.ones((40, 6))
        m[0, 0], m[-1, -1] = first, last
        with block_budget(6, 8), pytest.raises(ValueError, match=f"^{message}$"):
            dataio.write_matrix(path, m)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.apef"]


class TestMatrixErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.apef"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(dataio.BadMagicError):
            dataio.read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.apef"
        header = b"APEF" + struct.pack("<I", 1) + struct.pack("<QQ", 2, 2)
        path.write_bytes(header + b"\x00" * 12)  # needs 16 payload bytes
        with pytest.raises(dataio.TruncatedError):
            dataio.read_matrix(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "m.apef"
        header = b"APEF" + struct.pack("<I", 1) + struct.pack("<QQ", 1, 1)
        path.write_bytes(header + b"\x00" * 8)
        with pytest.raises(dataio.TruncatedError):
            dataio.read_matrix(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.apef"
        path.write_bytes(b"APEF\x01")
        with pytest.raises(dataio.TruncatedError):
            dataio.read_matrix(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.apef"
        path.write_bytes(b"APEF" + struct.pack("<I", 9) + struct.pack("<QQ", 1, 1) + b"\x00" * 4)
        with pytest.raises(dataio.UnsupportedVersionError):
            dataio.read_matrix(path)

    def test_shape_overflow(self, tmp_path):
        path = tmp_path / "m.apef"
        path.write_bytes(b"APEF" + struct.pack("<I", 1) + struct.pack("<QQ", 1 << 32, 1 << 32))
        with pytest.raises(dataio.ShapeOverflowError):
            dataio.read_matrix(path)


class TestTaskManifest:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(52)
        task = random_task(rng, c=4, k=3, d=6, n_test=5)
        manifest = dataio.save_task(task, tmp_path)
        loaded = dataio.load_task(manifest)
        assert (loaded.c, loaded.k, loaded.d) == (task.c, task.k, task.d)
        np.testing.assert_array_equal(loaded.test_labels, task.test_labels)
        # the label file is the class-major one-hot matrix of (C, K)
        labels = dataio.read_matrix(tmp_path / "task_support_labels.apef")
        assert labels.tobytes() == one_hot_labels(task.c, task.k).tobytes()
        # feature rows survive one float32 quantization plus re-normalization
        np.testing.assert_allclose(numkit._unit64(loaded.text_features), task.text_features, atol=1e-6)
        # a second round trip is exact
        manifest2 = dataio.save_task(loaded, tmp_path / "again")
        again = dataio.load_task(manifest2)
        assert again.text_features.tobytes() == loaded.text_features.tobytes()

    def test_missing_test_labels_allowed(self, tmp_path):
        rng = np.random.default_rng(53)
        task = random_task(rng, with_labels=False)
        loaded = dataio.load_task(dataio.save_task(task, tmp_path))
        assert loaded.test_labels is None

    @pytest.mark.parametrize("bad", [3.0, -1.0, 0.5], ids=["too-large", "negative", "non-integral"])
    def test_bad_test_label_id_names_test_labels(self, tmp_path, bad):
        manifest = dataio.save_task(random_task(np.random.default_rng(56), c=3), tmp_path)
        dataio.write_matrix(tmp_path / "task_test_labels.apef", np.array([[0.0], [1.0], [2.0], [bad], [0.0]]))
        with pytest.raises(ValueError, match="test_labels"):
            dataio.load_task(manifest)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("C = 2\n")
        with pytest.raises(dataio.ManifestError):
            dataio.load_task(path)

    def test_missing_role_rejected(self, tmp_path):
        rng = np.random.default_rng(54)
        manifest = dataio.save_task(random_task(rng), tmp_path)
        content = [
            ln for ln in manifest.read_text().splitlines() if not ln.startswith("test_features")
        ]
        manifest.write_text("\n".join(content) + "\n")
        with pytest.raises(dataio.ManifestError, match="test_features"):
            dataio.load_task(manifest)

    def test_two_hot_labels_rejected(self, tmp_path):
        rng = np.random.default_rng(55)
        task = random_task(rng, c=3, k=2)
        manifest = dataio.save_task(task, tmp_path)
        labels = one_hot_labels(task.c, task.k)
        labels[0, 2] = 1.0
        dataio.write_matrix(tmp_path / "task_support_labels.apef", labels)
        with pytest.raises(dataio.NonOneHotError):
            dataio.load_task(manifest)

    def test_misgrouped_labels_rejected(self, tmp_path):
        rng = np.random.default_rng(56)
        task = random_task(rng, c=3, k=2)
        manifest = dataio.save_task(task, tmp_path)
        labels = one_hot_labels(task.c, task.k)
        labels[[0, 5]] = labels[[5, 0]]
        dataio.write_matrix(tmp_path / "task_support_labels.apef", labels)
        with pytest.raises(dataio.NonOneHotError):
            dataio.load_task(manifest)

    def test_short_support_rejected(self, tmp_path):
        rng = np.random.default_rng(57)
        task = random_task(rng, c=3, k=2, d=5)
        manifest = dataio.save_task(task, tmp_path)
        dataio.write_matrix(tmp_path / "task_support_features.apef", task.support_features[:-1])
        with pytest.raises(dataio.ShapeMismatchError, match="support_features"):
            dataio.load_task(manifest)

    def test_off_norm_rows_warn_and_renormalize(self, tmp_path):
        rng = np.random.default_rng(58)
        task = random_task(rng, c=3, k=2, d=5)
        manifest = dataio.save_task(task, tmp_path)
        dataio.write_matrix(tmp_path / "task_text_features.apef", task.text_features * 1.01)
        with pytest.warns(UserWarning, match="^text_features: rows off unit norm by up to .+; renormalizing$"):
            loaded = dataio.load_task(manifest)
        np.testing.assert_allclose(loaded.text_norms, 1.01, atol=1e-6)
        rows = numkit._unit64(loaded.text_features, loaded.text_norms)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-9)
        assert engine.zero_shot_logits(loaded.test_features, loaded.text_features).tobytes() == (
            engine.zero_shot_logits(load_task_float64(manifest).test_features, rows).tobytes()
        )

    def test_each_role_takes_one_norm_pass(self, tmp_path):
        """Load takes each role's row norms once, text rows included, and the
        task keeps them: a widening that is passed them takes none."""
        manifest = dataio.save_task(random_task(np.random.default_rng(60), c=3, k=2, d=5), tmp_path)
        with mock.patch.object(numkit, "_row_norms", wraps=numkit._row_norms) as spy:
            loaded = dataio.load_task(manifest)
            assert [call.args[0].shape for call in spy.call_args_list] == [(3, 5), (6, 5), (5, 5)]
            numkit._unit64(loaded.text_features, loaded.text_norms)
            assert spy.call_count == 3
        assert loaded.text_norms.tobytes() == numkit._row_norms(loaded.text_features).tobytes()

    @pytest.mark.parametrize("key", ["C", "K", "D"])
    @pytest.mark.parametrize("value", ["three", "0", "-2", "2.5"])
    def test_bad_count_rejected_naming_manifest_and_key(self, tmp_path, key, value):
        rng = np.random.default_rng(59)
        manifest = dataio.save_task(random_task(rng), tmp_path)
        content = [
            f"{key} = {value}" if ln.startswith(f"{key} =") else ln
            for ln in manifest.read_text().splitlines()
        ]
        manifest.write_text("\n".join(content) + "\n")
        pattern = f"^{re.escape(str(manifest))}: {key} must be a positive integer, got '{re.escape(value)}'$"
        with pytest.raises(dataio.ManifestError, match=pattern):
            dataio.load_task(manifest)


    @pytest.mark.parametrize("line, message", [
        ("test_lables = task_test_labels.apef", "unknown key 'test_lables'"),
        ("K = 2", "repeated key 'K'"),
        ("class_names = a,b,c", "repeated key 'class_names'"),
    ], ids=["misspelled", "repeated-count", "repeated-class-names"])
    def test_unknown_or_repeated_key_rejected_naming_it(self, tmp_path, line, message):
        """A misspelled ``test_labels`` would otherwise load the task as unlabelled."""
        manifest = dataio.save_task(random_task(np.random.default_rng(61), c=3, k=2), tmp_path)
        manifest.write_text(manifest.read_text() + line + "\n")
        with pytest.raises(dataio.ManifestError, match=f"^{re.escape(str(manifest))}: {message}$"):
            dataio.load_task(manifest)


def write_raw_apef(path, m):
    """Write ``m`` as float32 APEF bytes with no value checks, so NaN and
    Inf reach the file."""
    header = b"APEF" + struct.pack("<I", 1) + struct.pack("<QQ", *m.shape)
    path.write_bytes(header + np.ascontiguousarray(m, dtype="<f4").tobytes())


PERTURB_VALUES = [0.0, 1.0, 0.5, 2.0, -1.0, -0.0, np.nan, np.inf, -np.inf]


@st.composite
def perturbed_labels(draw, changes=1):
    """A class-major one-hot label matrix with ``changes`` times one entry
    set or two rows swapped."""
    c, k = draw(st.integers(1, 5), label="c"), draw(st.integers(1, 4), label="k")
    labels = one_hot_labels(c, k)
    rows = st.integers(0, c * k - 1)
    for _ in range(changes):
        if draw(st.booleans(), label="swap"):
            i, j = draw(rows, label="i"), draw(rows, label="j")
            labels[[i, j]] = labels[[j, i]]
        else:
            labels[draw(rows, label="row"), draw(st.integers(0, c - 1), label="col")] = draw(
                st.sampled_from(PERTURB_VALUES), label="value"
            )
    return c, k, labels


class TestDerivedSizes:
    """A task's C, K and D are read off its arrays."""

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(1, 6),
        k=st.integers(1, 4),
        d=st.integers(1, 8),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sizes_match_the_shapes_and_survive_a_round_trip(self, c, k, d, n, seed):
        task = random_task(np.random.default_rng(seed), c=c, k=k, d=d, n_test=n)
        assert (task.c, task.k, task.d) == (c, k, d)
        with tempfile.TemporaryDirectory() as out:
            loaded = dataio.load_task(dataio.save_task(task, out))
        assert (loaded.c, loaded.k, loaded.d) == (c, k, d)

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(2, 6),
        rows=st.integers(0, 20),
        d=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_support_rows_not_a_positive_multiple_of_c_rejected(self, c, rows, d, seed):
        if rows and rows % c == 0:
            rows += 1
        rng = np.random.default_rng(seed)
        text, test = unit_rows(rng, c, d), unit_rows(rng, 2, d)
        support = unit_rows(rng, rows, d) if rows else np.zeros((0, d))
        with pytest.raises(ValueError, match="support_features"):
            engine.FewShotTask(text_features=text, support_features=support, test_features=test, test_labels=None)


class TestLabelCheck:
    """``load_task`` checks the label file on its float32 payload."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=perturbed_labels())
    def test_accepts_exactly_what_the_float64_check_accepts(self, tmp_path, case):
        c, k, labels = case
        manifest = dataio.save_task(random_task(np.random.default_rng(60), c=c, k=k), tmp_path)
        write_raw_apef(tmp_path / "task_support_labels.apef", labels)
        widened = labels.astype("<f4").astype(np.float64)
        try:
            check_labels_reference(widened, c, k)
            ref_error = None
        except dataio.DataIOError as exc:
            ref_error = exc
        try:
            dataio.load_task(manifest)
            error = None
        except (dataio.DataIOError, ValueError) as exc:
            error = exc
        assert (error is None) == (ref_error is None)
        if error is not None and np.isfinite(widened).all():
            assert type(error) is type(ref_error) and str(error) == str(ref_error)

    def test_label_file_never_widened(self, tmp_path):
        rng = np.random.default_rng(61)
        manifest = dataio.save_task(random_task(rng, c=3, k=2), tmp_path)
        spy = mock.Mock(wraps=dataio.read_matrix)
        with mock.patch.object(dataio, "read_matrix", spy):
            dataio.load_task(manifest)
        read = [call.args[0].name for call in spy.call_args_list]
        # text, support and test rows stay float32 payloads too; only the test labels widen
        assert read == ["task_test_labels.apef"]

    @settings(max_examples=200, deadline=None)
    @given(case=perturbed_labels(changes=2))
    def test_row_blocks_name_the_rule_a_whole_check_names(self, case):
        """In blocks of 2 rows, a misgrouped block before a block that is not
        one-hot still gives the whole file's verdict."""
        c, k, labels = case
        widened = labels.astype("<f4").astype(np.float64)
        try:
            check_labels_reference(widened, c, k)
            ref_error = None
        except dataio.DataIOError as exc:
            ref_error = str(exc)
        with tempfile.TemporaryDirectory() as tmp, block_budget(c, 2):
            write_raw_apef(Path(tmp) / "labels.apef", labels)
            try:
                dataio._check_labels(Path(tmp) / "labels.apef", c, k)
                error = None
            except dataio.NonOneHotError as exc:
                error = str(exc)
        assert error == ref_error

    def test_check_and_write_hold_one_block(self, tmp_path):
        """The label file is checked and written one row block at a time:
        neither its float32 payload nor a float64 one-hot matrix exists whole."""
        c, k, block_rows = 256, 16, 64
        path = tmp_path / "labels.apef"
        peaks = []
        with block_budget(c, block_rows):
            for step in (lambda: dataio._write_labels(path, c, k), lambda: dataio._check_labels(path, c, k)):
                tracemalloc.start()
                try:
                    step()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert path.read_bytes()[24:] == one_hot_labels(c, k).astype("<f4").tobytes()
        block = 8 * block_rows * c  # float64 bytes; the float32 payload is 4 MiB
        assert max(peaks) < 2 * block + 65536

    def test_truncated_label_file_rejected(self, tmp_path):
        rng = np.random.default_rng(62)
        manifest = dataio.save_task(random_task(rng, c=3, k=2), tmp_path)
        path = tmp_path / "task_support_labels.apef"
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(dataio.TruncatedError, match="task_support_labels"):
            dataio.load_task(manifest)


class TestGenSynthetic:
    def test_zero_noise_copies_prototypes(self):
        task = dataio.gen_synthetic(3, 2, 12, 4, 0.0, seed=0)
        for c in range(3):
            for j in range(2):
                row = task.support_features[c * 2 + j]
                assert row.tobytes() == task.text_features[c].tobytes()
        zs = engine.zero_shot_logits(task.test_features, task.text_features)
        assert engine.accuracy(zs, task.test_labels) == 1.0

    def test_deterministic_per_seed(self):
        t1 = dataio.gen_synthetic(5, 3, 16, 4, 0.4, seed=9)
        t2 = dataio.gen_synthetic(5, 3, 16, 4, 0.4, seed=9)
        for field in ("text_features", "support_features", "test_features"):
            assert getattr(t1, field).tobytes() == getattr(t2, field).tobytes()
        t3 = dataio.gen_synthetic(5, 3, 16, 4, 0.4, seed=10)
        assert t1.text_features.tobytes() != t3.text_features.tobytes()

    def test_quarter_of_channels_zeroed(self):
        task = dataio.gen_synthetic(6, 2, 32, 2, 0.3, seed=1)
        dead = np.flatnonzero((task.text_features == 0.0).all(axis=0))
        assert len(dead) == 8

    def test_calibration_instance_accuracy_band(self):
        task = dataio.gen_synthetic(10, 16, 64, 50, 0.6, seed=0)
        zs = engine.zero_shot_logits(task.test_features, task.text_features)
        acc = 100.0 * engine.accuracy(zs, task.test_labels)
        assert 10.0 < acc < 100.0

    def test_support_means_align_with_own_prototype(self):
        hits = total = 0
        for seed in range(20):
            task = dataio.gen_synthetic(8, 16, 32, 2, 0.6, seed=seed)
            means = l2_normalize_rows(
                task.support_features.reshape(task.c, task.k, task.d).mean(axis=1)
            )
            sims = means @ task.text_features.T
            hits += int((sims.argmax(axis=1) == np.arange(task.c)).sum())
            total += task.c
        assert hits / total >= 0.95

    @pytest.mark.parametrize("args, digests", [
        ((5, 3, 16, 4, 0.6, 11), {
            "task.manifest": "5f314c7b5ccde31440af65e8a3fd1905de8909d3bc11f1a2db042c5ed38fdf79",
            "task_support_features.apef": "dcf650392111141e9c91427273894b9b52a2aef8b01fc666aff20ea77b566b77",
            "task_support_labels.apef": "010dd70bca6ac0a87c6975d268a8c36585566d77e447e274981dd1ce3c300d93",
            "task_test_features.apef": "097f0124d301cf82b9731cf7a7c32b0de753c0cd7dc37a728f4124068fd27200",
            "task_test_labels.apef": "551c210e71de868abc8908e404f0f0f97366698f4a6cf9f4d0f706bb1cb2625a",
            "task_text_features.apef": "c5a3acb94c70627139315db453e7e351646a67f7d8f45919b787ffa9aaa2aeec",
        }),
        ((4, 2, 8, 3, 0.0, 3), {
            "task.manifest": "8ae621cbf424657ae6e29a700caf9febc2b8a19975e6b276493839a67322a8e7",
            "task_support_features.apef": "2c010a23e213eee2e271044b3fef8819ab552b6ee1b963869ff591543101f1b7",
            "task_support_labels.apef": "b538c3e0aff6f70a3a7c15f0582320a9673b918e9cc815ee03ede5938e43794d",
            "task_test_features.apef": "f19c780b5600e82161b6deb1457180b6ef48cb123ee7e39bc63166ea7300a87c",
            "task_test_labels.apef": "eea331d90fd0c36c45e1c50db0862546c9374cd09d8bba16be11a56fea5e9d4e",
            "task_text_features.apef": "e3bad33364367c392cb7543fc48dda86656d6c522af5fac2cee8bfd8abfeb573",
        }),
    ], ids=["sigma0.6", "sigma0"])
    def test_written_files_pinned(self, tmp_path, args, digests):
        """The bytes of every file that ``gen_synthetic`` + ``save_task`` write."""
        dataio.save_task(dataio.gen_synthetic(*args), tmp_path)
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == digests

    def test_invalid_counts_rejected(self):
        for bad in ((1, 2, 8), (3, 0, 8), (3, 2, 1)):
            with pytest.raises(ValueError):
                dataio.gen_synthetic(bad[0], bad[1], bad[2], 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            dataio.gen_synthetic(3, 2, 8, 2, -0.5, seed=0)


@st.composite
def stored_tasks(draw):
    """A labelled float64 task to write with ``save_task``, one of whose
    text, support and test rows each are one-hot: such a row has norm
    exactly 1 in float32 too, so it passes through the 1e-12 band
    unnormalized."""
    c, k, d, n = draw(st.integers(2, 4)), draw(st.integers(2, 3)), draw(st.integers(4, 9)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    task = random_task(rng, c=c, k=k, d=d, n_test=n)
    for rows in (task.text_features, task.support_features, task.test_features):
        rows[rng.integers(len(rows))] = np.eye(d)[rng.integers(d)]
    q = draw(st.integers(1, d))
    mask = refine.ChannelMask(selected=np.sort(rng.choice(d, q, replace=False)), scores=np.zeros(d))
    return task, mask


class TestFloat32Task:
    """A loaded task keeps its text, support and test rows as the float32
    payload and stands for the rows a float64 load re-normalizes, bit for bit."""

    CONFIGS = (
        EngineConfig(),
        EngineConfig(alpha=2.0, beta=3.0, gamma=0.5, kl_sign=-1, kl_temperature=0.7, renormalize=False),
    )

    @pytest.mark.filterwarnings("ignore::ape.numkit.ZeroRowWarning")  # one-hot rows off the mask
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=stored_tasks())
    def test_outputs_equal_a_float64_load(self, tmp_path, case):
        task, mask = case
        manifest = dataio.save_task(task, tmp_path)
        got, want = dataio.load_task(manifest), load_task_float64(manifest)
        assert got.text_features.dtype == got.support_features.dtype == got.test_features.dtype == np.float32
        assert want.text_features.dtype == want.support_features.dtype == want.test_features.dtype == np.float64
        for criterion in (refine.inter_class_similarity, refine.inter_class_variance):
            assert criterion(got.text_features).tobytes() == criterion(want.text_features).tobytes()
        for cfg in self.CONFIGS:
            assert engine.ape_logits(got, mask, cfg).tobytes() == engine.ape_logits(want, mask, cfg).tobytes()
        assert tip_logits(got, 1.0, 5.5).tobytes() == tip_logits(want, 1.0, 5.5).tobytes()
        grids = ([0.0, 1.0, 2.0], [1.0, 5.5], [0.0, 0.3])
        assert grid_search(got, mask, self.CONFIGS[1], *grids) == grid_search(want, mask, self.CONFIGS[1], *grids)
        assert (grid_search(got, mask, self.CONFIGS[0], *grids, val_task=got)
                == grid_search(want, mask, self.CONFIGS[0], *grids, val_task=want))
        optim = trainer.OptimConfig(epochs=2, batch_size=3, seed=1)
        checkpoints = []
        for name, loaded in (("got", got), ("want", want)):
            state, history = trainer.train(loaded, mask, self.CONFIGS[0], optim)
            trainer.save_checkpoint(tmp_path / f"{name}.ckpt", state)
            resumed = trainer.load_checkpoint(tmp_path / f"{name}.ckpt", loaded)
            checkpoints.append((repr(history), (tmp_path / f"{name}.ckpt").read_bytes(),
                                trainer.forward(resumed, loaded, loaded.test_features).tobytes()))
        assert checkpoints[0] == checkpoints[1]

    def test_replace_rederives_the_norms(self, tmp_path):
        rng = np.random.default_rng(75)
        loaded = dataio.load_task(dataio.save_task(random_task(rng, c=3, k=2, d=6, n_test=6), tmp_path))
        swapped = dataclasses.replace(loaded, test_features=loaded.support_features, test_labels=None)
        assert swapped.test_norms.tobytes() == loaded.support_norms.tobytes()
        with pytest.raises(ValueError, match="init=False"):  # derived, never passed in
            dataclasses.replace(loaded, support_norms=loaded.support_norms)

    def test_save_writes_the_normalized_rows(self, tmp_path):
        """Saving a loaded task narrows the rows it stands for, not its raw
        payload: the files a float64 load would write."""
        rng = np.random.default_rng(70)
        task = random_task(rng, c=3, k=2, d=6, n_test=4)
        manifest = dataio.save_task(task, tmp_path / "a")
        # rows 1e-3 off unit norm: the stored payload is not what the task stands for
        for role in ("text_features", "support_features"):
            dataio.write_matrix(tmp_path / "a" / f"task_{role}.apef", getattr(task, role) * 1.001)
        with pytest.warns(UserWarning, match="renormalizing"):
            loaded = dataio.load_task(manifest)
        dataio.save_task(loaded, tmp_path / "got")
        dataio.save_task(load_task_float64(manifest), tmp_path / "want")
        for role in ("text_features", "support_features", "test_features", "test_labels"):
            got = (tmp_path / "got" / f"task_{role}.apef").read_bytes()
            assert got == (tmp_path / "want" / f"task_{role}.apef").read_bytes(), role
        for role in ("text_features", "support_features"):
            raw = (tmp_path / "a" / f"task_{role}.apef").read_bytes()
            assert raw != (tmp_path / "got" / f"task_{role}.apef").read_bytes(), role

    def test_drifting_rows_warn_with_the_role(self, tmp_path):
        rng = np.random.default_rng(71)
        task = random_task(rng, c=3, k=2, d=5)
        manifest = dataio.save_task(task, tmp_path)
        dataio.write_matrix(tmp_path / "task_test_features.apef", 2.0 * task.test_features)
        message = "test_features: rows off unit norm by up to 1.00e+00; renormalizing"
        with pytest.warns(UserWarning, match=re.escape(message)):
            loaded = dataio.load_task(manifest)
        assert engine.zero_shot_logits(loaded.test_features, loaded.text_features).tobytes() == (
            engine.zero_shot_logits(load_task_float64(manifest).test_features, loaded.text_features).tobytes()
        )

    @pytest.mark.parametrize("role", ["text_features", "support_features", "test_features"])
    def test_zero_row_rejected(self, tmp_path, role):
        rng = np.random.default_rng(72)
        task = random_task(rng, c=3, k=2, d=5)
        manifest = dataio.save_task(task, tmp_path)
        rows = getattr(task, role).copy()
        rows[1] = 0.0
        dataio.write_matrix(tmp_path / f"task_{role}.apef", rows)
        with pytest.warns(UserWarning, match="renormalizing"):
            with pytest.raises(ValueError, match=f"^{role} rows must be unit-norm within 1e-6$"):
                dataio.load_task(manifest)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("role", ["text_features", "support_features", "test_features"])
    def test_non_finite_entry_rejected_by_its_norm(self, tmp_path, role, value):
        """A float32 payload is checked finite by its float64 row norms, with
        the message the entrywise check gave."""
        rng = np.random.default_rng(75)
        task = random_task(rng, c=3, k=2, d=5)
        manifest = dataio.save_task(task, tmp_path)
        rows = getattr(task, role).copy()
        rows[1, 2] = value
        write_raw_apef(tmp_path / f"task_{role}.apef", rows)
        with pytest.raises(ValueError, match=f"^{role} contains non-finite entries$"):
            dataio.load_task(manifest)

    def test_load_reads_each_payload_once_and_checks_text_once(self, tmp_path):
        """``load_task`` makes one pass over each float32 payload (its norms)
        and checks each role's norms once, in ``FewShotTask``."""
        rng = np.random.default_rng(76)
        manifest = dataio.save_task(random_task(rng, c=3, k=2, d=5), tmp_path)
        with mock.patch.object(numkit, "_stored_blocks", wraps=numkit._stored_blocks) as blocks, \
                mock.patch.object(engine, "_checked_norms", wraps=engine._checked_norms) as checks:
            loaded = dataio.load_task(manifest)
        for rows in (loaded.text_features, loaded.support_features, loaded.test_features):
            assert sum(call.args[0] is rows for call in blocks.call_args_list) == 1
        assert [call.args[0] for call in checks.call_args_list] == [
            "text_features", "support_features", "test_features"
        ]

    def test_loaded_task_maps_its_payloads(self, tmp_path):
        """Loading allocates only one float64 norm per text, support and test
        row and the int64 test labels: the text, support and test rows are
        read-only float32 views of file mappings."""
        rng = np.random.default_rng(73)
        c, k, d, n = 8, 16, 256, 64
        manifest = dataio.save_task(random_task(rng, c=c, k=k, d=d, n_test=n), tmp_path)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            loaded = dataio.load_task(manifest)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        expected = 8 * (c + c * k + n) + 8 * n
        assert expected <= held < expected + 8192  # a float32 text copy alone would take 4 * c * d
        for rows in (loaded.text_features, loaded.support_features, loaded.test_features):
            assert rows.dtype == np.float32 and not rows.flags.writeable
            assert isinstance(mapping(rows), mmap.mmap)

    def test_ape_logits_never_widens_the_whole_support(self, tmp_path):
        """The refined support rows are taken by row blocks, so no
        C*K x D float64 matrix is allocated."""
        rng = np.random.default_rng(74)
        c, k, d, n = 8, 16, 512, 8
        manifest = dataio.save_task(random_task(rng, c=c, k=k, d=d, n_test=n), tmp_path)
        task = dataio.load_task(manifest)
        mask = refine.ChannelMask(selected=np.arange(16), scores=np.zeros(d))
        with block_budget(d, 16):
            tracemalloc.start()
            try:
                engine.ape_logits(task, mask, EngineConfig())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 0.5 * 8 * c * k * d

    def test_save_task_widens_by_row_blocks(self, tmp_path):
        """Re-saving a loaded task widens each feature role one row block at
        a time, so no role's whole float64 copy is allocated."""
        rng = np.random.default_rng(76)
        c, k, d, n = 8, 16, 512, 64
        task = dataio.load_task(dataio.save_task(random_task(rng, c=c, k=k, d=d, n_test=n), tmp_path / "a"))
        with block_budget(d, 16):
            tracemalloc.start()
            try:
                dataio.save_task(task, tmp_path / "b")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 0.5 * 8 * c * k * d


def mapping(m):
    """The object at the end of ``m``'s ``.base`` chain: the mmap a loaded payload views."""
    while isinstance(m, np.ndarray):
        m = m.base
    return m.obj if isinstance(m, memoryview) else m


def vm_status(key):
    """This process's ``/proc/self/status`` entry ``key`` in bytes, or None."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next((int(line.split()[1]) * 1024 for line in fh if line.startswith(f"{key}:")), None)
    except OSError:
        return None


class TestMappedPayloads:
    """Support and test payloads are read-only mappings of their files whose
    pages the row-block passes drop again (``numkit._release``)."""

    def test_rows_read_after_release_equal_rows_before(self, tmp_path):
        rng = np.random.default_rng(90)
        manifest = dataio.save_task(random_task(rng, c=4, k=3, d=32, n_test=9), tmp_path)
        task = dataio.load_task(manifest)
        before = task.support_features.copy(), task.test_features.copy()
        logits = engine.ape_logits(task, refine.full_mask(task.d), EngineConfig())
        for rows, copy in zip((task.support_features, task.test_features), before):
            numkit._release(rows[1:])
            assert rows.tobytes() == copy.tobytes()
        assert engine.ape_logits(task, refine.full_mask(task.d), EngineConfig()).tobytes() == logits.tobytes()

    def test_release_leaves_other_arrays_as_they_are(self, tmp_path):
        """Anonymous arrays, their views and writable mappings keep their
        values: dropping a private mapping's pages would lose its writes."""
        m = np.random.default_rng(91).standard_normal((6, 5)).astype(np.float32)
        want = m.copy()
        for arr in (m, m[2:], m.T, m[:, 1:3].view(np.int32), np.zeros(0)):
            numkit._release(arr)
        assert m.tobytes() == want.tobytes()
        path = tmp_path / "m.apef"
        dataio.write_matrix(path, want)
        with open(path, "rb") as fh:
            private = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        rows = np.frombuffer(private, dtype="<f4", count=want.size, offset=24).reshape(want.shape)
        rows[0] = 7.0
        numkit._release(rows)
        assert (rows[0] == 7.0).all() and rows[1:].tobytes() == want[1:].tobytes()
        del rows
        private.close()

    def test_saving_into_a_loaded_tasks_directory_leaves_it_unchanged(self, tmp_path):
        """Writers replace files by rename, so the mapped inodes keep their bytes."""
        rng = np.random.default_rng(92)
        manifest = dataio.save_task(random_task(rng, c=4, k=3, d=32, n_test=9), tmp_path)
        task = dataio.load_task(manifest)
        mask, cfg = refine.full_mask(task.d), EngineConfig(gamma=0.5)
        rows = task.support_features.copy(), task.test_features.copy()
        logits = engine.ape_logits(task, mask, cfg)
        assert dataio.save_task(random_task(rng, c=4, k=3, d=32, n_test=9), tmp_path) == manifest
        assert task.support_features.tobytes() == rows[0].tobytes()
        assert task.test_features.tobytes() == rows[1].tobytes()
        assert engine.ape_logits(task, mask, cfg).tobytes() == logits.tobytes()

    def test_rewriting_a_loaded_payload_in_place_reaches_its_rows(self, tmp_path):
        """Pins the hazard that README states: rows are checked once, at load,
        so a rewrite in place that keeps the file's length changes rows that
        passed the checks, and a NaN reaches the logits with no error."""
        rng = np.random.default_rng(95)
        manifest = dataio.save_task(random_task(rng, c=4, k=3, d=32, n_test=9), tmp_path)
        task = dataio.load_task(manifest)
        with open(dataio.read_manifest(manifest)["support_features"], "r+b") as fh:
            fh.seek(24)
            fh.write(np.float32(np.nan).tobytes())
        assert np.isnan(task.support_features[0, 0])
        assert np.isnan(engine.ape_logits(task, refine.full_mask(task.d), EngineConfig())).any()

    def test_stored_blocks_release_after_each_block(self, tmp_path):
        """Every pass over stored rows drops each block's pages before it
        reads the next block, and covers the rows once, in order."""
        dataio.write_matrix(tmp_path / "m.apef", np.random.default_rng(96).standard_normal((10, 4)))
        rows = dataio._read_payload(tmp_path / "m.apef")
        seen = []
        with block_budget(4, 3), mock.patch.object(numkit, "_release", lambda m: seen.append("release")):
            blocks = numkit._row_blocks(10, 4)
            for sl, blk in numkit._stored_blocks(rows):
                assert blk.tobytes() == rows[sl].tobytes()
                seen.append(sl)
        assert len(blocks) > 1 and seen == [x for sl in blocks for x in (sl, "release")]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_load_drop_cycles_keep_the_descriptor_count(self, tmp_path):
        """Each mapping holds a duplicate descriptor of its file until it is dropped."""
        manifest = dataio.save_task(random_task(np.random.default_rng(93)), tmp_path)
        dataio.load_task(manifest)
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(100):
            dataio.load_task(manifest)
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(vm_status("VmHWM") is None, reason="needs VmHWM in /proc/self/status")
    def test_infer_peak_grows_less_than_the_support_payload(self, tmp_path):
        """``ape infer`` in a child process: its peak resident set grows by
        less than the 32 MiB support payload, which a copy would hold whole."""
        rng = np.random.default_rng(94)
        c, k, d, n, q = 512, 16, 1024, 64, 64
        with open(tmp_path / "support.apef", "wb") as fh:  # written by blocks, never whole
            fh.write(dataio.MAGIC + struct.pack("<IQQ", dataio.VERSION, c * k, d))
            for _ in range(c * k // 1024):
                fh.write(unit_rows(rng, 1024, d).astype("<f4").tobytes())
        dataio.write_matrix(tmp_path / "text.apef", unit_rows(rng, c, d))
        dataio.write_matrix(tmp_path / "test.apef", unit_rows(rng, n, d))
        dataio._write_labels(tmp_path / "labels.apef", c, k)
        files = ("text.apef", "support.apef", "labels.apef", "test.apef")
        (tmp_path / "t.manifest").write_text(
            f"{dataio.MANIFEST_HEADER}\nC = {c}\nK = {k}\nD = {d}\n"
            + "".join(f"{role} = {name}\n" for role, name in zip(dataio._ROLE_KEYS, files))
        )
        kept = np.arange(d) < q
        refine.save_mask(tmp_path / "mask.txt", refine.ChannelMask(np.flatnonzero(kept), (~kept).astype(float)), 0.5)
        child = (
            "import sys\n"
            "from ape import cli\n"
            "from test_dataio import vm_status\n"
            "before = vm_status('VmHWM')\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(vm_status('VmHWM') - before)\n"
        )
        here = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", child, "infer", "--task", str(tmp_path / "t.manifest"),
             "--mask", str(tmp_path / "mask.txt"), "--report", str(tmp_path / "r.report")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.split()[-1]) < 4 * c * k * d

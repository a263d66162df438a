"""Tests for the binary matrix format, manifests, and the task generator."""

import re
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ape import dataio, engine, numkit
from helpers import check_labels_reference, one_hot_labels, random_task, unit_rows


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
        np.testing.assert_allclose(loaded.text_features, task.text_features, atol=1e-6)
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
        with pytest.warns(UserWarning, match="renormalizing"):
            loaded = dataio.load_task(manifest)
        np.testing.assert_allclose(np.linalg.norm(loaded.text_features, axis=1), 1.0, atol=1e-9)

    def test_unit_rows_takes_one_norm_pass(self):
        m = np.random.default_rng(60).standard_normal((7, 5))
        want = numkit._normalize_rows_inplace(m.copy())
        with mock.patch.object(numkit, "_row_norms", wraps=numkit._row_norms) as spy:
            with pytest.warns(UserWarning, match="renormalizing"):
                got = dataio._unit_rows("text_features", m)
        assert spy.call_count == 1
        assert got is m and got.tobytes() == want.tobytes()

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
def perturbed_labels(draw):
    """A class-major one-hot label matrix with one entry set or two rows swapped."""
    c, k = draw(st.integers(1, 5), label="c"), draw(st.integers(1, 4), label="k")
    labels = one_hot_labels(c, k)
    rows = st.integers(0, c * k - 1)
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
        read = {call.args[0].name for call in spy.call_args_list}
        assert read == {f"task_{role}.apef" for role in
                        ("text_features", "support_features", "test_features", "test_labels")}

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
            means = numkit.l2_normalize_rows(
                task.support_features.reshape(task.c, task.k, task.d).mean(axis=1)
            )
            sims = means @ task.text_features.T
            hits += int((sims.argmax(axis=1) == np.arange(task.c)).sum())
            total += task.c
        assert hits / total >= 0.95

    def test_invalid_counts_rejected(self):
        for bad in ((1, 2, 8), (3, 0, 8), (3, 2, 1)):
            with pytest.raises(ValueError):
                dataio.gen_synthetic(bad[0], bad[1], bad[2], 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            dataio.gen_synthetic(3, 2, 8, 2, -0.5, seed=0)

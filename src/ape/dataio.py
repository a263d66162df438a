"""Binary matrix files, task manifests, and a synthetic task generator.

Matrices travel as APEF files: a 4-byte magic, a u32 version, u64
little-endian row/column counts, then float32 little-endian row-major
payload.  :func:`read_matrix` widens a payload to float64; narrowing
happens once at write time, so write -> read round trips are bitwise
stable.  A task manifest is a small ``key = value`` text file mapping
dataset roles to APEF paths.

A loaded task keeps its text, support and test rows as read-only float32
views of the files, mapped, plus one float64 norm per row.  Each consumer
widens and normalizes the rows it uses (``numkit._unit64``), so they are
bitwise the rows a float64 load would re-normalize, and drops the file
pages of each row block once it is done with them (``numkit._release``).

The manifest's ``support_labels`` file (a C*K x C one-hot matrix) is part
of the on-disk format only: it is validated on load and written on save,
but in memory the labels are implied by the class-major row order.  It is
checked and written one row block at a time, so it never exists whole in
memory; :func:`write_matrix` narrows its payload by row blocks too.

A task's files have three readers: the text rows (:func:`_read_text`),
the cache (text and support rows, label file checked, :func:`_read_cache`)
and the split (test rows and labels, :func:`_read_split`).
:func:`load_task` composes the last two; a command that uses fewer roles
opens only their files, with the same checks.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
from pathlib import Path

import numpy as np

from . import numkit
from .engine import FewShotTask

__all__ = [
    "DataIOError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedError",
    "ShapeOverflowError",
    "ManifestError",
    "ShapeMismatchError",
    "NonOneHotError",
    "read_matrix",
    "write_matrix",
    "read_manifest",
    "load_task",
    "save_task",
    "gen_synthetic",
]

MAGIC = b"APEF"
VERSION = 1
MANIFEST_HEADER = "APE-TASK v1"

# Refuse to allocate matrices beyond ~4 TiB of float32 payload.
_MAX_ELEMENTS = 1 << 40


class DataIOError(Exception):
    """Base class for file-format and task-assembly failures."""


class BadMagicError(DataIOError):
    """File does not start with the APEF magic."""


class UnsupportedVersionError(DataIOError):
    """APEF header declares an unknown format version."""


class TruncatedError(DataIOError):
    """Payload length does not match the declared shape."""


class ShapeOverflowError(DataIOError):
    """Declared shape is too large to be plausible."""


class ManifestError(DataIOError):
    """Manifest document is malformed or incomplete."""


class ShapeMismatchError(DataIOError):
    """A referenced matrix disagrees with the declared task dimensions."""


class NonOneHotError(DataIOError):
    """Support labels are not one-hot in class-major order."""


def write_matrix(path, m) -> None:
    """Write a matrix as an APEF file (float32 narrowing, atomic rename).
    Narrowing is the one pass over ``m``: only a narrowed block that is not
    finite sends ``m`` through the entrywise check, to name the cause.

    Raises:
        ValueError: if the input is not a finite 2-D matrix or a value
            exceeds the float32 range; ``path`` is then left untouched.
    """
    m = numkit._as_features(m, "matrix", finite=False)
    try:
        _write_rows(path, m.shape, lambda rows: m[rows])
    except ValueError:
        numkit._as_features(m, "matrix")  # a non-finite entry is named first
        raise


def _write_rows(path, shape, block_of) -> None:
    """Write an APEF file of ``shape`` whose payload rows are
    ``block_of(rows)`` for the row blocks of ``numkit._row_blocks``, each
    narrowed into one reused float32 buffer: bitwise ``astype("<f4")`` of
    the whole matrix, which never exists."""
    n, cols = shape
    blocks = numkit._row_blocks(n, cols)
    buf = np.empty(blocks[0].stop * cols, dtype="<f4")
    with _atomic_file(path) as fh:
        fh.write(MAGIC + struct.pack("<IQQ", VERSION, n, cols))
        for rows in blocks:
            out = buf[: (rows.stop - rows.start) * cols].reshape(rows.stop - rows.start, cols)
            with np.errstate(over="ignore"):
                np.copyto(out, block_of(rows), casting="same_kind")
            if not np.isfinite(out).all():
                raise ValueError("matrix values exceed the float32 range")
            fh.write(out)


@contextlib.contextmanager
def _atomic_file(path):
    """A binary file open for writing at a temporary sibling of ``path``,
    renamed over ``path`` when the block ends.  On an error the sibling is
    removed and ``path`` is left as it was."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_matrix(path) -> np.ndarray:
    """Read an APEF file, widening the payload to float64.

    Raises:
        BadMagicError, UnsupportedVersionError, TruncatedError,
        ShapeOverflowError: on the corresponding header/payload defects.
    """
    return numkit.as_matrix(_read_payload(path).astype(np.float64), str(path))


def _read_payload(path) -> np.ndarray:
    """The checked float32 payload of an APEF file: a read-only view of the
    file, mapped, whose pages are read in as rows are used and dropped again
    by ``numkit._release``.  The mapping keeps the file's inode, so a
    writer that replaces the file by rename (:func:`_atomic_file`) leaves
    the view as it was.  A writer that rewrites the file in place must not
    run while the view is in use: keeping the length, it changes rows that
    were checked at load with no error; truncating (``cp`` onto the path,
    ``ndarray.tofile``), it makes the next read of a lost page kill the
    process with SIGBUS."""
    with _open_apef(path) as (fh, (rows, cols)):
        payload = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    return np.frombuffer(payload, dtype="<f4", count=rows * cols, offset=24).reshape(rows, cols)


@contextlib.contextmanager
def _open_apef(path):
    """The open APEF file at ``path``, positioned at its payload, and the
    payload's (rows, cols), once the header and the file size are checked."""
    with open(path, "rb") as fh:
        head = fh.read(24)
        if len(head) < 4:
            raise TruncatedError(f"{path}: shorter than the 4-byte magic")
        if head[:4] != MAGIC:
            raise BadMagicError(f"{path}: bad magic {head[:4]!r}")
        if len(head) < 24:
            raise TruncatedError(f"{path}: header truncated ({len(head)} bytes)")
        (version,) = struct.unpack("<I", head[4:8])
        if version != VERSION:
            raise UnsupportedVersionError(f"{path}: unsupported version {version}")
        rows, cols = struct.unpack("<QQ", head[8:24])
        if rows * cols > _MAX_ELEMENTS:
            raise ShapeOverflowError(f"{path}: shape {rows}x{cols} too large")
        expected, size = rows * cols * 4, os.fstat(fh.fileno()).st_size - 24
        if size != expected:
            raise TruncatedError(f"{path}: payload is {size} bytes, header implies {expected}")
        yield fh, (rows, cols)


_ROLE_KEYS = ("text_features", "support_features", "support_labels", "test_features")
_MANIFEST_KEYS = ("C", "K", "D", "class_names", *_ROLE_KEYS, "test_labels")


def read_manifest(path) -> dict:
    """Parse a manifest into a dict; role paths are resolved against the
    manifest's directory.  An unknown or repeated key is a ManifestError."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = [ln.strip() for ln in lines if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0] != MANIFEST_HEADER:
        raise ManifestError(f"{path}: missing '{MANIFEST_HEADER}' header")
    entries: dict[str, str] = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise ManifestError(f"{path}: malformed line {ln!r}")
        key, value = (part.strip() for part in ln.split("=", 1))
        if key not in _MANIFEST_KEYS or key in entries:
            raise ManifestError(f"{path}: {'repeated' if key in entries else 'unknown'} key {key!r}")
        entries[key] = value
    for key in (*_ROLE_KEYS, "C", "K", "D"):
        if key not in entries:
            raise ManifestError(f"{path}: missing required key {key!r}")
    out: dict = {}
    for key in ("C", "K", "D"):
        try:
            n = int(entries[key])
        except ValueError:
            n = 0
        if n < 1:
            raise ManifestError(f"{path}: {key} must be a positive integer, got {entries[key]!r}")
        out[key.lower()] = n
    base = path.parent
    for role in (*_ROLE_KEYS, "test_labels"):
        if role in entries:
            out[role] = base / entries[role]
    return out


def _check_shape(role: str, shape: tuple, rows: int | None, cols: int) -> None:
    if (shape[0] == 0 if rows is None else shape[0] != rows) or shape[1] != cols:
        want = f"{rows}x{cols}" if rows is not None else f"Nx{cols} with N >= 1"
        raise ShapeMismatchError(f"{role}: expected {want}, got {shape[0]}x{shape[1]}")


def _check_labels(path, c: int, k: int) -> None:
    """The label file at ``path`` must be the class-major one-hot matrix of (C, K).

    Checked on the float32 payload, one row block at a time: exactly one
    nonzero per row (NaN counts, -0.0 does not), a 1.0 at column r // K.
    A rejected file names the first rule it breaks, as a check of the
    whole matrix would: rows that are not one-hot, else misgrouped rows.
    """
    labels = _read_payload(path)
    _check_shape("support_labels", labels.shape, c * k, c)
    misgrouped = False
    for rows, blk in numkit._stored_blocks(labels):
        ids = np.arange(rows.start, rows.stop)
        if np.count_nonzero(blk) == ids.size and (blk[ids - rows.start, ids // k] == 1.0).all():
            continue
        if not (np.isin(blk, (0.0, 1.0)).all() and (np.count_nonzero(blk, axis=1) == 1).all()):
            raise NonOneHotError("support_labels: rows must contain exactly one 1")
        misgrouped = True
    if misgrouped:
        raise NonOneHotError(
            "support_labels: rows must be grouped class-major (row c*K+j hot at column c)"
        )


def load_task(manifest_path) -> FewShotTask:
    """Assemble and validate a few-shot task from a manifest: its cache
    (:func:`_read_cache`) and its split (:func:`_read_split`).

    Feature rows stay the mapped float32 payloads, and the support label
    file is checked and dropped, as the module docstring says.

    Raises:
        ManifestError, ShapeMismatchError, NonOneHotError: naming the
        offending role.
        ValueError: from :class:`FewShotTask`, naming ``test_labels`` for a bad class id.
    """
    man = read_manifest(manifest_path)
    return FewShotTask(*_read_cache(man), *_read_split(man))


def _read_text(man: dict) -> np.ndarray:
    """The manifest's C x D float32 text payload; its norms are left for
    :class:`FewShotTask` (or another reader) to check."""
    text = _read_payload(man["text_features"])
    _check_shape("text_features", text.shape, man["c"], man["d"])
    return text


def _read_cache(man: dict) -> tuple[np.ndarray, np.ndarray]:
    """The manifest's C x D text and C*K x D support float32 payloads,
    once the support label file passes its check."""
    text = _read_text(man)
    support = _read_payload(man["support_features"])
    _check_shape("support_features", support.shape, man["c"] * man["k"], man["d"])
    _check_labels(man["support_labels"], man["c"], man["k"])
    return text, support


def _read_split(man: dict) -> tuple[np.ndarray, np.ndarray | None]:
    """The manifest's N x D float32 test payload and its N test labels
    (None when the manifest has no ``test_labels``)."""
    test = _read_payload(man["test_features"])
    _check_shape("test_features", test.shape, None, man["d"])
    if "test_labels" not in man:
        return test, None
    labels = read_matrix(man["test_labels"])
    _check_shape("test_labels", labels.shape, test.shape[0], 1)
    return test, labels[:, 0]


def save_task(task: FewShotTask, out_dir, name: str = "task") -> Path:
    """Write a task's matrices plus its manifest; returns the manifest path.

    Feature files hold the float64 rows the task stands for, narrowed (so a
    loaded task is written as a float64 load of the same files would be).
    The support label file is the class-major one-hot matrix of (C, K).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    roles = {
        "text_features": numkit._unit64(task.text_features, task.text_norms),
        "support_features": numkit._unit64(task.support_features, task.support_norms),
        "support_labels": None,  # written by row blocks, see _write_labels
        "test_features": numkit._unit64(task.test_features, task.test_norms),
    }
    if task.test_labels is not None:
        roles["test_labels"] = task.test_labels[:, None].astype(np.float64)
    lines = [
        MANIFEST_HEADER,
        f"C = {task.c}",
        f"K = {task.k}",
        f"D = {task.d}",
        "class_names = " + ",".join(f"class_{i:03d}" for i in range(task.c)),
    ]
    for role, matrix in roles.items():
        filename = f"{name}_{role}.apef"
        if matrix is None:
            _write_labels(out_dir / filename, task.c, task.k)
        else:
            write_matrix(out_dir / filename, matrix)
        lines.append(f"{role} = {filename}")
    manifest = out_dir / f"{name}.manifest"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def _write_labels(path, c: int, k: int) -> None:
    """Write the class-major one-hot C*K x C label file by row blocks, so
    the whole one-hot matrix never exists."""
    def one_hot(rows: slice) -> np.ndarray:
        ids = np.arange(rows.start, rows.stop)
        blk = np.zeros((ids.size, c), dtype=np.float32)
        blk[ids - rows.start, ids // k] = 1.0
        return blk

    _write_rows(path, (c * k, c), one_hot)


def gen_synthetic(
    c: int,
    k: int,
    d: int,
    n_test_per_class: int,
    noise_sigma: float,
    seed: int,
) -> FewShotTask:
    """Deterministic synthetic task built around unit class prototypes.

    Prototypes are seeded Gaussians with a random quarter of the channels
    zeroed across every class (so a correctly chosen mask can discard
    them), then L2-normalized.  Support and test rows add per-channel
    Gaussian noise of scale ``noise_sigma`` to their class prototype and
    re-normalize; with ``noise_sigma=0`` they equal the prototype exactly.

    Raises:
        ValueError: on invalid counts or a negative or non-finite sigma.
    """
    if c < 2 or d < 2:
        raise ValueError("need at least 2 classes and 2 channels")
    if k < 1 or n_test_per_class < 1:
        raise ValueError("k and n_test_per_class must be >= 1")
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((c, d))
    protos[:, rng.choice(d, size=d // 4, replace=False)] = 0.0
    numkit._normalize_rows_inplace(protos)

    def around_protos(n: int) -> np.ndarray:  # n unit rows per class, class-major
        if noise_sigma == 0:
            rows = np.repeat(protos, n, axis=0)
        else:  # the (c*n, d) draw, the prototypes added in place: bitwise prototypes + noise
            rows = rng.normal(0.0, noise_sigma, (c, n, d))
            rows += protos[:, None]
        return numkit._normalize_rows_inplace(rows.reshape(c * n, d))

    support = around_protos(k)  # drawn before the test rows
    test = around_protos(n_test_per_class)
    return FewShotTask(protos, support, test, np.repeat(np.arange(c), n_test_per_class))

"""Binary matrix files, task manifests, and a synthetic task generator.

Matrices travel as APEF files: a 4-byte magic, a u32 version, u64
little-endian row/column counts, then float32 little-endian row-major
payload.  :func:`read_matrix` widens a payload to float64; narrowing
happens once at write time, so write -> read round trips are bitwise
stable.  A task manifest is a small ``key = value`` text file mapping
dataset roles to APEF paths.

A loaded task keeps its support and test rows as the float32 payload
read from disk: 4 bytes per value plus one float64 norm per row.  Each
consumer widens and normalizes the rows it uses (``numkit._unit64``), so
they are bitwise the rows a float64 load would re-normalize.

The manifest's ``support_labels`` file (a C*K x C one-hot matrix) is part
of the on-disk format only: it is validated on load and written on save,
but in memory the labels are implied by the class-major row order.  The
check runs on the file's float32 payload, which is never widened.
"""

from __future__ import annotations

import os
import struct
import warnings
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
    """Write a matrix as an APEF file (float32 narrowing, atomic rename)."""
    m = numkit.as_matrix(m, "matrix")
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(m).astype("<f4")
    if m.size and not np.isfinite(payload).all():
        raise ValueError("matrix values exceed the float32 range")
    header = MAGIC + struct.pack("<I", VERSION) + struct.pack("<QQ", *m.shape)
    _atomic_write(path, header + payload.tobytes())


def _atomic_write(path, data: bytes) -> None:
    """Write ``data`` to a temporary sibling, then rename it over ``path``."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def read_matrix(path) -> np.ndarray:
    """Read an APEF file, widening the payload to float64.

    Raises:
        BadMagicError, UnsupportedVersionError, TruncatedError,
        ShapeOverflowError: on the corresponding header/payload defects.
    """
    return numkit.as_matrix(_read_payload(path).astype(np.float64), str(path))


def _read_payload(path) -> np.ndarray:
    """The checked float32 payload of an APEF file, as a read-only view."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise TruncatedError(f"{path}: shorter than the 4-byte magic")
    if blob[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 24:
        raise TruncatedError(f"{path}: header truncated ({len(blob)} bytes)")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported version {version}")
    rows, cols = struct.unpack("<QQ", blob[8:24])
    if rows * cols > _MAX_ELEMENTS:
        raise ShapeOverflowError(f"{path}: shape {rows}x{cols} too large")
    expected, size = rows * cols * 4, len(blob) - 24
    if size != expected:
        raise TruncatedError(f"{path}: payload is {size} bytes, header implies {expected}")
    return np.frombuffer(blob, dtype="<f4", offset=24).reshape(rows, cols)


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


def _check_shape(role: str, m: np.ndarray, rows: int | None, cols: int) -> None:
    if (m.shape[0] == 0 if rows is None else m.shape[0] != rows) or m.shape[1] != cols:
        want = f"{rows}x{cols}" if rows is not None else f"Nx{cols} with N >= 1"
        raise ShapeMismatchError(f"{role}: expected {want}, got {m.shape[0]}x{m.shape[1]}")


def _check_labels(labels: np.ndarray, c: int, k: int) -> None:
    """The label file must be the class-major one-hot matrix of (C, K).

    Works on the float32 payload: exactly C*K nonzeros (NaN counts, -0.0
    does not), and row r holds 1.0 at column r // K.
    """
    _check_shape("support_labels", labels, c * k, c)
    rows = np.arange(c * k)
    if np.count_nonzero(labels) == rows.size and (labels[rows, rows // k] == 1.0).all():
        return
    # Rejected: name the first rule the file breaks.
    if np.isin(labels, (0.0, 1.0)).all() and (np.count_nonzero(labels, axis=1) == 1).all():
        raise NonOneHotError(
            "support_labels: rows must be grouped class-major (row c*K+j hot at column c)"
        )
    raise NonOneHotError("support_labels: rows must contain exactly one 1")


def _unit_rows(role: str, m: np.ndarray) -> np.ndarray:
    """Re-normalize freshly read feature rows in place, warning when they
    drift more than 1e-4."""
    norms = numkit._row_norms(m)
    drift = np.abs(norms - 1.0).max() if m.size else 0.0
    if drift > 1e-4:
        warnings.warn(f"{role}: rows off unit norm by up to {drift:.2e}; renormalizing")
    return numkit._normalize_rows_inplace(m, norms)


def load_task(manifest_path) -> FewShotTask:
    """Assemble and validate a few-shot task from a manifest.

    Feature rows are re-normalized (float32 storage wiggles the norms); a
    warning is emitted when any row is off by more than 1e-4.  Text rows
    are widened and re-normalized here; support and test rows stay the
    read-only float32 payloads, which the task reads normalized.
    The support label file is validated on its float32 payload and then
    dropped: the task's class-major row order carries the same information.

    Raises:
        ManifestError, ShapeMismatchError, NonOneHotError: naming the
        offending role.
        ValueError: from :class:`FewShotTask`, naming ``test_labels`` for a bad class id.
    """
    man = read_manifest(manifest_path)
    c, k, d = man["c"], man["k"], man["d"]
    text = read_matrix(man["text_features"])
    support = _read_payload(man["support_features"])
    _check_labels(_read_payload(man["support_labels"]), c, k)
    test = _read_payload(man["test_features"])
    _check_shape("text_features", text, c, d)
    _check_shape("support_features", support, c * k, d)
    _check_shape("test_features", test, None, d)

    test_labels = None
    if "test_labels" in man:
        raw = read_matrix(man["test_labels"])
        _check_shape("test_labels", raw, test.shape[0], 1)
        test_labels = raw[:, 0]

    return FewShotTask(
        text_features=_unit_rows("text_features", text),
        support_features=support,
        test_features=test,
        test_labels=test_labels,
    )


def save_task(task: FewShotTask, out_dir, name: str = "task") -> Path:
    """Write a task's matrices plus its manifest; returns the manifest path.

    Feature files hold the float64 rows the task stands for, narrowed (so a
    loaded task is written as a float64 load of the same files would be).
    The support label file is the class-major one-hot matrix of (C, K).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    roles = {
        "text_features": task.text_features,
        "support_features": numkit._unit64(task.support_features, task.support_norms),
        "support_labels": np.repeat(np.eye(task.c), task.k, axis=0),
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
        write_matrix(out_dir / filename, matrix)
        lines.append(f"{role} = {filename}")
    manifest = out_dir / f"{name}.manifest"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


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
    zeroed = rng.choice(d, size=d // 4, replace=False)
    protos[:, zeroed] = 0.0
    protos = numkit.l2_normalize_rows(protos)

    def jitter(base: np.ndarray) -> np.ndarray:
        if noise_sigma > 0:
            base = base + rng.normal(0.0, noise_sigma, base.shape)
        return numkit.l2_normalize_rows(base)

    support = jitter(np.repeat(protos, k, axis=0))
    test = jitter(np.repeat(protos, n_test_per_class, axis=0))
    return FewShotTask(
        text_features=protos,
        support_features=support,
        test_features=test,
        test_labels=np.repeat(np.arange(c), n_test_per_class),
    )

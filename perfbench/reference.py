"""Independent numpy reference of the APE classifier, for output checks.

Shares no code with the ``ape`` package: it parses the APEF files, task
manifests and mask files itself and evaluates the paper's formula

    logits = f @ W.T + alpha * sum_k [exp(-beta * (1 - f' @ F'.T)) * s]_(c, k)

where primes mark rows cut to the mask's channels and re-normalized, and
``s = exp(gamma * -log p_true)`` scores each support entry by how well the
refined prototypes classify it.  Test rows go through in chunks so the
reference never holds the full N x C*K affinity.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROB_FLOOR = 1e-12
CHUNK_ROWS = 256


def read_apef(path) -> np.ndarray:
    """Read an APEF matrix (24-byte header, float32 payload) as float64."""
    with open(path, "rb") as fh:
        head = fh.read(24)
        payload = fh.read()
    if len(head) != 24 or head[:4] != b"APEF":
        raise ValueError(f"{path}: not an APEF file")
    rows, cols = struct.unpack("<QQ", head[8:24])
    if len(payload) != 4 * rows * cols:
        raise ValueError(f"{path}: payload does not match {rows}x{cols}")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float64)


def read_manifest(path) -> dict:
    """``key = value`` lines after the header; file roles resolved to paths."""
    path = Path(path)
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            entries[key] = value
    for role in ("text_features", "support_features", "test_features", "test_labels"):
        if role in entries:
            entries[role] = path.parent / entries[role]
    return entries


def read_mask(path) -> np.ndarray:
    """Indices of the channels flagged 1 in a mask file."""
    rows = [line.split() for line in Path(path).read_text(encoding="ascii").splitlines()[1:]]
    return np.array([int(r[0]) for r in rows if r and r[2] == "1"], dtype=np.int64)


def parse_grid(spec: str) -> np.ndarray:
    lo, hi, steps = spec.split(":")
    return np.linspace(float(lo), float(hi), int(steps))


def unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.sqrt((m * m).sum(axis=1, keepdims=True))


@dataclass
class Cache:
    """Frozen terms of one task: the prototypes, their refined rows, the
    refined support rows (the cache keys) and the mask's channels."""

    text: np.ndarray       # C x D
    keys: np.ndarray       # C*K x Q
    w_ref: np.ndarray      # C x Q
    channels: np.ndarray   # Q
    c: int
    k: int

    @classmethod
    def load(cls, manifest, mask_path) -> "Cache":
        man = read_manifest(manifest)
        channels = read_mask(mask_path)
        text = unit_rows(read_apef(man["text_features"]))
        support = unit_rows(read_apef(man["support_features"]))
        return cls(
            text=text,
            keys=unit_rows(support[:, channels]),
            w_ref=unit_rows(text[:, channels]),
            channels=channels,
            c=int(man["C"]),
            k=int(man["K"]),
        )

    def entry_scores(self, gamma: float) -> np.ndarray:
        z = self.keys @ self.w_ref.T
        z = np.exp(z - z.max(axis=1, keepdims=True))
        p = z / z.sum(axis=1, keepdims=True)
        p_true = p[np.arange(self.c * self.k), np.repeat(np.arange(self.c), self.k)]
        return np.exp(-gamma * np.log(np.clip(p_true, PROB_FLOOR, 1.0)))

    def cosines(self, test: np.ndarray) -> np.ndarray:
        """Refined test-to-key cosines for a chunk of full-width test rows."""
        return unit_rows(test[:, self.channels]) @ self.keys.T

    def routed(self, weights: np.ndarray) -> np.ndarray:
        """Sum each class's K cache columns (rows are class-major)."""
        return weights.reshape(weights.shape[0], self.c, self.k).sum(axis=2)


def load_test_rows(manifest) -> np.ndarray:
    return unit_rows(read_apef(read_manifest(manifest)["test_features"]))


def ape_logits(cache: Cache, test: np.ndarray, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The paper's combined logits for every test row."""
    scores = cache.entry_scores(gamma)
    out = np.empty((test.shape[0], cache.c))
    for lo in range(0, test.shape[0], CHUNK_ROWS):
        f = test[lo : lo + CHUNK_ROWS]
        aff = np.exp(-beta * (1.0 - cache.cosines(f)))
        out[lo : lo + CHUNK_ROWS] = f @ cache.text.T + alpha * cache.routed(aff * scores)
    return out


def grid_correct(cache: Cache, test, labels, alphas, betas, gammas) -> np.ndarray:
    """Correct-prediction counts for every (alpha, beta, gamma) candidate."""
    zs = test @ cache.text.T
    cos = cache.cosines(test)
    scores = [cache.entry_scores(g) for g in gammas]
    correct = np.zeros((len(alphas), len(betas), len(gammas)), dtype=np.int64)
    for bi, beta in enumerate(betas):
        aff = np.exp(-beta * (1.0 - cos))
        for gi, s in enumerate(scores):
            routed = cache.routed(aff * s)
            for ai, alpha in enumerate(alphas):
                correct[ai, bi, gi] = int(((zs + alpha * routed).argmax(axis=1) == labels).sum())
    return correct

"""Property tests of the file readers: a damaged file either loads into a
value that meets its type's invariants or raises ``DataIOError`` or
``ValueError`` -- never a stray ``IndexError``, ``KeyError``,
``struct.error`` or ``TypeError`` from inside the parser."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ape import dataio, refine, trainer
from ape.engine import EngineConfig
from helpers import random_task

CLEAN_ERRORS = (dataio.DataIOError, ValueError)


def check_matrix(m):
    assert m.ndim == 2 and m.dtype == np.float64 and np.isfinite(m).all()


def check_state(state):
    assert 1 <= state.q == len(state.mask_idx) == len(np.unique(state.mask_idx))
    assert 0 <= state.mask_idx.min() and state.mask_idx.max() < 6  # the task's D, as check_task says
    assert state.res.shape == (state.c, state.q) and state.scores.shape == (state.c * state.k,)
    for arr in (state.res, state.scores, state.m_res, state.v_res, state.m_scores, state.v_scores):
        assert np.isfinite(arr).all()
    assert (state.v_res >= 0).all() and (state.v_scores >= 0).all()
    assert isinstance(state.cfg.renormalize, bool)
    assert dataclasses.replace(state.cfg) == state.cfg  # EngineConfig checks itself on construction


def check_task(task):
    assert (task.c, task.k, task.d) == (3, 2, 6) and task.support_features.dtype == np.float32


def check_mask(loaded):
    mask, lam = loaded
    refine.ChannelMask(selected=mask.selected, scores=mask.scores)
    assert 0.0 <= lam <= 1.0


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file of each kind, plus a loader and an invariant check."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    task = random_task(rng, c=3, k=2, d=6, n_test=4)
    mask = refine.ChannelMask(selected=[0, 2, 5], scores=[0, 1, 0, 1, 1, 0])
    cfg = EngineConfig(alpha=1.5, beta=3.0, gamma=0.4, kl_sign=-1, kl_temperature=0.5, renormalize=False)
    state, _ = trainer.train(task, mask, cfg, trainer.OptimConfig(epochs=2, batch_size=4))
    dataio.write_matrix(root / "m.apef", task.test_features)
    trainer.save_checkpoint(root / "model.ckpt", state)
    refine.save_mask(root / "mask.txt", mask, 0.7)
    manifest = dataio.save_task(task, root)

    def load_with_labels(path):
        """``load_task`` on the valid task with its label file replaced by ``path``."""
        text = manifest.read_text().replace("= task_", f"= {root}/task_")
        damaged = path.with_suffix(".manifest")
        damaged.write_text(text.replace(f"{root}/task_support_labels.apef", str(path)))
        return dataio.load_task(damaged)

    return {
        "apef": ((root / "m.apef").read_bytes(), dataio.read_matrix, check_matrix),
        "labels": ((root / "task_support_labels.apef").read_bytes(), load_with_labels, check_task),
        "checkpoint": (
            (root / "model.ckpt").read_bytes(),
            lambda path: trainer.load_checkpoint(path, task),
            check_state,
        ),
        "mask": ((root / "mask.txt").read_bytes(), refine.load_mask, check_mask),
    }


@st.composite
def damage(draw, size):
    """Truncate at a random length, or XOR a few random bytes."""
    if draw(st.booleans()):
        return ("truncate", draw(st.integers(0, size - 1)))
    flips = st.tuples(st.integers(0, size - 1), st.integers(1, 255))
    return ("flip", draw(st.lists(flips, min_size=1, max_size=4)))


@pytest.mark.parametrize("kind", ["apef", "labels", "checkpoint", "mask"])
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_file_loads_valid_or_fails_cleanly(files, tmp_path, kind, data):
    blob, load, check = files[kind]
    how, arg = data.draw(damage(len(blob)), label="damage")
    if how == "truncate":
        damaged = blob[:arg]
    else:
        damaged = bytearray(blob)
        for pos, bits in arg:
            damaged[pos] ^= bits
    path = tmp_path / kind
    path.write_bytes(bytes(damaged))
    try:
        loaded = load(path)
    except CLEAN_ERRORS:
        return
    check(loaded)

"""The benchmark's workloads: their inputs, the CLI command each runs, and
the checks that every command's output must pass.

Inputs come from ``dataio.gen_synthetic`` (sigma 0.6), written with
``dataio.save_task`` and refined with ``ape refine`` (lambda 0.7).  Every
workload keeps its files in one work directory:

* ``infer-paper`` -- ``ape infer`` at paper scale (C=1000, K=16, D=1024,
  N=2000).  The manifest has no ``test_labels``, so the command writes the
  full logits, which must match :mod:`reference` within float32 rounding.
* ``train-desk`` -- ``ape train`` on the desk profile (C=100, N=5000) for
  10 epochs.  The history must end below its initial loss and an untimed
  ``ape eval`` of the checkpoint must reproduce ``accuracy.ape_t``.
* ``search-desk`` -- ``ape search`` over 40 candidates with a 2000-row
  ``--val-task``.  The chosen config must reach the reference's best
  validation accuracy over the same grid.

The ``tiny`` scale keeps each workload's code path at toy shapes for the
benchmark's self-tests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
from pathlib import Path

import numpy as np

import reference
from ape import cli, dataio
from ape.engine import FewShotTask

SIGMA = 0.6
LAMBDA = 0.7
ALPHA, BETA, GAMMA = 1.0, 5.5, 0.2
ALPHA_GRID, BETA_GRID, GAMMA_GRID = "0:2:5", "1:10:4", "0:0.4:2"
# Float32 storage of the logits: one unit in the last place, plus slack for
# float64 sums taken in another order.
LOGITS_RTOL, LOGITS_ATOL = 2.0**-23, 1e-12


def run_cli(argv) -> int:
    """``ape.cli.main`` with its report printing captured; argparse exits
    become return codes."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main([str(a) for a in argv])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2


def report_values(path) -> dict:
    """The ``key = value`` lines of a report, as strings."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


class Workload:
    """One CLI command on inputs made from a seed."""

    name = ""
    scales: dict = {}

    def __init__(self, scale: str):
        self.shapes = dict(self.scales[scale])
        self.__dict__.update(self.shapes)

    def prepare(self, work: Path, seed: int) -> FewShotTask:
        """Generate and write the task files, then refine; returns the task."""
        raise NotImplementedError

    def write_expected(self, work: Path, task: FewShotTask) -> None:
        """Write what the checks compare against (untimed)."""

    def argv(self, work: Path, out: Path, seed: int) -> list:
        """The command on the inputs in ``work``, writing its outputs to ``out``."""
        raise NotImplementedError

    def check(self, work: Path, out: Path) -> tuple[bool, float | None, str]:
        """(passed, accuracy in percent, reason for a failure)."""
        raise NotImplementedError

    def _refine(self, work: Path, manifest) -> None:
        rc = run_cli(["refine", "--task", manifest, "--lambda", LAMBDA, "--q", self.q,
                      "--out", work / "mask.txt"])
        if rc != 0:
            raise RuntimeError(f"ape refine exited {rc}")


class InferPaper(Workload):
    name = "infer-paper"
    scales = {
        "full": {"c": 1000, "k": 16, "d": 1024, "n_per_class": 2, "q": 512},
        "tiny": {"c": 8, "k": 4, "d": 32, "n_per_class": 3, "q": 16},
    }

    def prepare(self, work, seed):
        task = dataio.gen_synthetic(self.c, self.k, self.d, self.n_per_class, SIGMA, seed)
        dataio.save_task(dataclasses.replace(task, test_labels=None), work)
        self._refine(work, work / "task.manifest")
        return task

    def write_expected(self, work, task):
        cache = reference.Cache.load(work / "task.manifest", work / "mask.txt")
        test = reference.load_test_rows(work / "task.manifest")
        logits = reference.ape_logits(cache, test, ALPHA, BETA, GAMMA)
        np.savez(work / "expected.npz", logits=logits, labels=task.test_labels)

    def argv(self, work, out, seed):
        return ["infer", "--task", work / "task.manifest", "--mask", work / "mask.txt",
                "--alpha", ALPHA, "--beta", BETA, "--gamma", GAMMA,
                "--report", out / "infer.report", "--seed", seed]

    def check(self, work, out):
        expected = np.load(work / "expected.npz")
        want, labels = expected["logits"], expected["labels"]
        got = reference.read_apef(out / "infer.report.logits.apef")
        if got.shape != want.shape:
            return False, None, f"logits are {got.shape}, expected {want.shape}"
        bad = np.abs(got - want) > LOGITS_RTOL * np.abs(want) + LOGITS_ATOL
        if bad.any():
            return False, None, f"{int(bad.sum())} logits differ from the reference"
        return True, 100.0 * float((got.argmax(axis=1) == labels).mean()), ""


class TrainDesk(Workload):
    name = "train-desk"
    scales = {
        "full": {"c": 100, "k": 16, "d": 1024, "n_per_class": 50, "q": 512,
                 "epochs": 10, "batch_size": 256},
        "tiny": {"c": 6, "k": 4, "d": 32, "n_per_class": 5, "q": 16,
                 "epochs": 2, "batch_size": 8},
    }

    def prepare(self, work, seed):
        task = dataio.gen_synthetic(self.c, self.k, self.d, self.n_per_class, SIGMA, seed)
        dataio.save_task(task, work)
        self._refine(work, work / "task.manifest")
        return task

    def argv(self, work, out, seed):
        return ["train", "--task", work / "task.manifest", "--mask", work / "mask.txt",
                "--epochs", self.epochs, "--batch-size", self.batch_size,
                "--out", out / "model.ckpt", "--report", out / "train.report", "--seed", seed]

    def check(self, work, out):
        lines = (out / "train.report").read_text(encoding="utf-8").splitlines()
        start = next(i for i, ln in enumerate(lines) if ln.split()[:1] == ["epoch"]) + 1
        losses = []
        for ln in lines[start:]:
            if not ln.strip():
                break
            losses.append(float(ln.split()[1]))
        if len(losses) != self.epochs + 1:
            return False, None, f"history has {len(losses)} rows, expected {self.epochs + 1}"
        if not losses[-1] < losses[0]:
            return False, None, f"final loss {losses[-1]} is not below initial {losses[0]}"
        trained = report_values(out / "train.report")["accuracy.ape_t"]
        rc = run_cli(["eval", "--ckpt", out / "model.ckpt", "--task", work / "task.manifest",
                      "--report", out / "eval.report"])
        if rc != 0:
            return False, None, f"ape eval exited {rc}"
        evaluated = report_values(out / "eval.report")["accuracy.ape_t"]
        if evaluated != trained:
            return False, None, f"eval accuracy {evaluated} differs from train's {trained}"
        return True, float(trained), ""


class SearchDesk(Workload):
    name = "search-desk"
    scales = {
        "full": {"c": 100, "k": 16, "d": 1024, "n_per_class": 50, "n_val_per_class": 20,
                 "q": 512},
        "tiny": {"c": 6, "k": 4, "d": 32, "n_per_class": 5, "n_val_per_class": 3, "q": 16},
    }

    def _rows(self, validation: bool) -> np.ndarray:
        rows = np.arange(self.c * (self.n_per_class + self.n_val_per_class))
        rows = rows.reshape(self.c, -1)
        return (rows[:, self.n_per_class:] if validation else rows[:, : self.n_per_class]).ravel()

    def prepare(self, work, seed):
        n = self.n_per_class + self.n_val_per_class
        task = dataio.gen_synthetic(self.c, self.k, self.d, n, SIGMA, seed)
        for name, validation in (("task", False), ("val", True)):
            rows = self._rows(validation)
            split = dataclasses.replace(task, test_features=task.test_features[rows],
                                        test_labels=task.test_labels[rows])
            dataio.save_task(split, work, name=name)
        self._refine(work, work / "task.manifest")
        return task

    def write_expected(self, work, task):
        cache = reference.Cache.load(work / "task.manifest", work / "mask.txt")
        val = reference.load_test_rows(work / "val.manifest")
        labels = task.test_labels[self._rows(True)]
        grids = [reference.parse_grid(g) for g in (ALPHA_GRID, BETA_GRID, GAMMA_GRID)]
        correct = reference.grid_correct(cache, val, labels, *grids)
        np.savez(work / "expected.npz", correct=correct, n=len(labels))

    def argv(self, work, out, seed):
        return ["search", "--task", work / "task.manifest", "--mask", work / "mask.txt",
                "--val-task", work / "val.manifest", "--alpha-grid", ALPHA_GRID,
                "--beta-grid", BETA_GRID, "--gamma-grid", GAMMA_GRID,
                "--report", out / "search.report", "--seed", seed]

    def check(self, work, out):
        expected = np.load(work / "expected.npz")
        correct, n = expected["correct"], int(expected["n"])
        got = report_values(out / "search.report")
        index = []
        for key, spec in (("alpha", ALPHA_GRID), ("beta", BETA_GRID), ("gamma", GAMMA_GRID)):
            hits = np.flatnonzero(reference.parse_grid(spec) == float(got[f"best.{key}"]))
            if hits.size != 1:
                return False, None, f"best.{key} = {got[f'best.{key}']} is not a grid point"
            index.append(int(hits[0]))
        chosen = int(correct[tuple(index)])
        if chosen != correct.max():
            return False, None, f"chosen config scores {chosen}/{n}, the grid's best is {correct.max()}/{n}"
        reported = float(got["best.val_accuracy"])
        if abs(reported - 100.0 * chosen / n) > 100.0 / n:
            return False, None, f"reported accuracy {reported} is not {chosen}/{n}"
        return True, reported, ""


WORKLOADS = {w.name: w for w in (InferPaper, TrainDesk, SearchDesk)}

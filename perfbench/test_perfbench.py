"""Self-tests of the benchmark at tiny shapes.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each test runs ``run.py --scale tiny`` in a copy of the benchmark and the
``src`` tree, so no run writes into the repository.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import ape  # noqa: E402
from ape import cli, dataio, engine, trainer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _copy_bench(dest: Path, with_src: bool) -> Path:
    dest.mkdir(parents=True, exist_ok=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _run(checkout: Path, workload: str, trace: int):
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """Runs of the benchmark in one copied checkout; ``attempt`` tells
    apart runs of the same workload and mode, each made once."""
    checkout = _copy_bench(tmp_path_factory.mktemp("checkout"), with_src=True)
    done = {}

    def get(workload, trace, attempt=0):
        key = (workload, trace, attempt)
        if key not in done:
            proc = _run(checkout, workload, trace)
            assert proc.returncode == 0, proc.stderr
            done[key] = (proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1]))
        return done[key]

    return get


def test_spec_matches_the_benchmark():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(bench, workload, trace, kind):
    stdout, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert f"\n{name} = " in stdout and stdout.count(f" {unit}\n") >= 1
    assert "\nfailed_share = 0.0 share\n" in stdout
    assert "\nacc_pct = " in stdout and " %\n" in stdout
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_at_one_seed(bench, workload):
    first = bench(workload, 1)[1]["metrics"]
    second = bench(workload, 1, attempt=1)[1]["metrics"]
    counts = [name for name in first if run.is_count(name)]
    assert len(counts) > 10
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_tracer_rebinds_names_imported_by_other_modules():
    tracer = tracing.Tracer()
    originals = (engine.ape_logits, cli.ape_logits, trainer.cache_affinity, ape.accuracy)
    with tracer.installed("op"):
        wrapped = (engine.ape_logits, cli.ape_logits, trainer.cache_affinity, ape.accuracy)
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert cli.ape_logits is engine.ape_logits
        engine.accuracy(np.eye(2), [0, 1])
    assert (engine.ape_logits, cli.ape_logits, trainer.cache_affinity, ape.accuracy) == originals
    assert [(s[tracing.PARENT], s[tracing.OP], s[tracing.NAME]) for s in tracer.spans] == [
        (None, "op", "engine.accuracy"), (0, "op", "engine.predict")]


def _spans(*rows):
    return [[i, parent, 0, name, start, end, 0] for i, (parent, name, start, end) in enumerate(rows)]


def test_span_check_rejects_a_child_outside_its_parent():
    spans = _spans((None, "cli.main", 0.0, 1.0), (0, "dataio.load_task", 0.5, 1.5))
    with pytest.raises(AssertionError, match="not nested"):
        tracing.check_spans(spans, 1.0, command=True)
    spans[1][tracing.END] = 0.9
    tracing.check_spans(spans, 1.0, command=True)


def test_span_check_rejects_children_counted_twice():
    spans = _spans((None, "cli.main", 0.0, 1.0), (0, "engine.ape_logits", 0.1, 0.8),
                   (0, "engine.ape_logits", 0.1, 0.8))
    with pytest.raises(AssertionError, match="negative self time"):
        tracing.check_spans(spans, 1.0, command=True)


def test_span_check_rejects_spans_that_miss_the_commands_wall():
    spans = _spans((None, "cli.main", 0.0, 1.0), (0, "engine.ape_logits", 0.1, 0.8))
    tracing.check_spans(spans, 1.0 + tracing.WALL_SLACK_S / 2, command=True)
    with pytest.raises(AssertionError, match="the command's wall"):
        tracing.check_spans(spans, 1.5, command=True)
    with pytest.raises(AssertionError, match="more than the wall"):
        tracing.check_spans(spans, 0.5, command=True)
    tracing.check_spans(spans, 1.5, command=False)
    with pytest.raises(AssertionError, match="root spans"):
        tracing.check_spans(_spans((None, "engine.ape_logits", 0.1, 0.8)), 0.7, command=True)


def test_perturbed_logits_count_as_a_failed_command(tmp_path, monkeypatch):
    wl = workloads.InferPaper("tiny")
    task = wl.prepare(tmp_path, seed=5)
    wl.write_expected(tmp_path, task)
    outcome = run.run_op(wl, tmp_path, 5, 0)
    run.check_op(wl, tmp_path, outcome)
    assert outcome["ok"]

    real = workloads.run_cli

    def perturbed(argv):
        rc = real(argv)
        path = tmp_path / "op1" / "infer.report.logits.apef"
        logits = dataio.read_matrix(path)
        logits[1, 2] *= 1.0 + 1e-5
        dataio.write_matrix(path, logits)
        return rc

    monkeypatch.setattr(workloads, "run_cli", perturbed)
    outcome = run.run_op(wl, tmp_path, 5, 1)
    run.check_op(wl, tmp_path, outcome)
    assert not outcome["ok"]
    assert "differ from the reference" in outcome["reason"]


def test_exits_nonzero_without_the_program(tmp_path):
    checkout = _copy_bench(tmp_path, with_src=False)
    proc = _run(checkout, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

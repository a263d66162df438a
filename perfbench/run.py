"""Outside-in benchmark of the ``ape`` command line.

    python3 perfbench/run.py --workload infer-paper --seed 1 --seconds 20 --trace 0

Set-up runs in a child process (``setup_inputs.py``): it generates the
workload's task files from ``--seed`` and runs ``ape refine``, at least
``SETUP_REPEATS`` times and ``SETUP_SHARE`` of ``--seconds`` long;
``setup_s`` is the median.  Then it writes the reference outputs, untimed.
This process then runs the workload's command as a closed loop with one
caller: ``ape.cli.main(argv)`` back to back, in-process, with one BLAS pool
of ``nproc`` threads, for ``--seconds`` and at least ``MIN_OPS`` commands.
Each command writes its outputs to a directory of its own; they are all
checked after the loop, untimed and after the peak RSS is read.  A command
that exits non-zero or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics: the median wall time of one
command, the peak RSS of this process, and ``setup_s``.  ``--trace 1`` runs
one untraced warm-up command, then alternates untraced and traced commands
(at least ``TRACE_PAIRS`` pairs) and reports the per-layer metrics of
:mod:`tracing`, whose counts must repeat exactly between the traced
commands and whose spans must account for each traced command's wall time.  Both modes also print ``acc_pct`` (the accuracy the checked
output shows, which must not vary between commands at one seed) and
``failed_share``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit and the run's stamp.  Each run also
writes ``.perfbench_runs/<workload>-seed<N>-trace<T>.json`` with the stamp,
every command's outcome and, when traced, all spans.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_REPEATS = 5
SETUP_SHARE = 0.3  # set-up repeats for at least this share of --seconds
MIN_OPS = 3
TRACE_PAIRS = 2
SETUP_TIMEOUT_S = 170

END_TO_END = {"op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics of the traced commands: self time, calls and computed bytes.
SELF_S = (
    "cli.main", "cli.grid_search",
    "engine.ape_logits", "engine.tip_adapter_logits", "engine.zero_shot_logits",
    "engine.cache_affinity", "engine.cache_scores",
    "refine.take_channels",
    "trainer.train", "trainer.forward", "trainer.backward", "trainer.adamw_step",
    "trainer.frozen_checksum", "trainer.save_checkpoint",
    "dataio.load_task", "dataio.read_matrix",
    "numkit.as_matrix", "numkit.l2_normalize_rows", "numkit.softmax_rows",
)
CALLS = (
    "engine.ape_logits", "engine.cache_affinity", "engine.cache_scores",
    "refine.take_channels", "refine.apply_mask", "trainer.forward",
    "numkit.as_matrix", "numkit.l2_normalize_rows", "numkit.softmax_rows",
)
BYTES = ("engine.cache_affinity", "dataio.read_matrix", "dataio.write_matrix")
# Per-layer metrics of the set-up, which moves setup_s.
SETUP_SELF_S = ("dataio.gen_synthetic", "dataio.save_task", "dataio.write_matrix",
                "refine.select_channels")
SETUP_BYTES = ("dataio.write_matrix",)
RATIOS = {
    "train.affinity_per_step": ("engine.cache_affinity.calls", "trainer.steps"),
    "train.take_channels_per_step": ("refine.take_channels.calls", "trainer.steps"),
    "search.affinity_per_candidate": ("engine.cache_affinity.calls", "cli.grid_search.candidates"),
    "search.scores_per_candidate": ("engine.cache_scores.calls", "cli.grid_search.candidates"),
}


def per_layer_units() -> dict:
    units = {f"{n}.self_s": "s" for n in SELF_S}
    units.update({f"{n}.calls": "count" for n in CALLS})
    units.update({f"{n}.bytes": "B" for n in BYTES})
    units.update({"trainer.steps": "count", "cli.grid_search.candidates": "count"})
    units.update({f"setup.{n}.self_s": "s" for n in SETUP_SELF_S})
    units.update({f"setup.{n}.bytes": "B" for n in SETUP_BYTES})
    units.update({name: "ratio" for name in RATIOS})
    units["trace.overhead_s"] = "s"
    return units


def is_count(name: str) -> bool:
    """Counts, bytes and ratios must repeat exactly at one seed."""
    return not name.endswith(".self_s") and name != "trace.overhead_s"


def _stat(stats: dict, name: str, key: str):
    return stats.get(name, {}).get(key, 0)


def layer_values(stats: dict) -> dict:
    """Per-layer metrics of one traced command, from ``tracing.aggregate``."""
    out = {f"{n}.self_s": float(_stat(stats, n, "self_s")) for n in SELF_S}
    out.update({f"{n}.calls": _stat(stats, n, "calls") for n in CALLS})
    out.update({f"{n}.bytes": _stat(stats, n, "amount") for n in BYTES})
    out["trainer.steps"] = _stat(stats, "trainer.adamw_step", "calls")
    out["cli.grid_search.candidates"] = _stat(stats, "cli.grid_search", "amount")
    for name, (num, den) in RATIOS.items():
        out[name] = out[num] / out[den] if out[den] else 0.0
    return out


def setup_values(stats: dict) -> dict:
    """Per-layer metrics of one set-up."""
    out = {f"setup.{n}.self_s": float(_stat(stats, n, "self_s")) for n in SETUP_SELF_S}
    out.update({f"setup.{n}.bytes": _stat(stats, n, "amount") for n in SETUP_BYTES})
    return out


def combine(rows: list[dict], errors: list[str]) -> dict:
    """Median self times over commands; counts must agree exactly."""
    out = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        if is_count(name):
            if len(set(values)) != 1:
                errors.append(f"{name} differs between traced commands: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    lines = head.stdout.split()
    if head.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None, None
    return lines[1], bool(status.stdout.strip())


def blas_threads():
    """Threads of the loaded OpenBLAS, asked through its own API."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def stamp(args, wl) -> dict:
    import numpy as np

    sha, dirty = git_state()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": blas_threads(), "nproc": nproc(),
        "workload": args.workload, "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "shapes": wl.shapes,
    }


def run_op(wl, work, seed, index, tracer=None) -> dict:
    """Run the workload's command once, writing its outputs to ``work/op<index>``;
    traced spans are tagged with ``index``."""
    import workloads

    out = work / f"op{index}"
    out.mkdir()
    argv = wl.argv(work, out, seed)
    with tracer.installed(index) if tracer else contextlib.nullcontext():
        started = time.perf_counter()
        rc = workloads.run_cli(argv)
        wall = time.perf_counter() - started
    return {"op": index, "wall_s": wall, "traced": tracer is not None, "rc": rc,
            "ok": False, "acc_pct": None}


def check_op(wl, work, outcome) -> None:
    """Check one command's outputs and record the verdict in ``outcome``."""
    if outcome["rc"] != 0:
        outcome["reason"] = f"command exited {outcome['rc']}"
        return
    try:
        ok, acc, reason = wl.check(work, work / f"op{outcome['op']}")
    except Exception as exc:  # noqa: BLE001 - any broken output is a failed command
        ok, acc, reason = False, None, f"check raised {exc!r}"
    outcome.update(ok=ok, acc_pct=acc, reason=reason)


def set_up(args, work) -> dict:
    cmd = [sys.executable, str(HERE / "setup_inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--work", str(work),
           "--repeats", str(SETUP_REPEATS), "--min-seconds", str(SETUP_SHARE * args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited {proc.returncode}")
    return json.loads((work / "setup.json").read_text(encoding="utf-8"))


def measure(args, wl, work):
    """Run the closed loop, then check every command's outputs; returns
    (metrics, commands, errors, spans)."""
    import tracing

    setup = set_up(args, work)
    ops, errors, spans = [], [], None
    started = time.perf_counter()
    if not args.trace:
        while len(ops) < MIN_OPS or time.perf_counter() - started < args.seconds:
            ops.append(run_op(wl, work, args.seed, len(ops)))
        # Read before the checks run, so that only the commands count.
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for outcome in ops:
            check_op(wl, work, outcome)
        metrics = {
            "op_s": statistics.median(o["wall_s"] for o in ops),
            "peak_rss_mb": peak_kib / 1024.0,
            "setup_s": statistics.median(setup["setup_s"]),
        }
        return metrics, ops, errors, spans

    tracer = tracing.Tracer()
    # The process's first command pays one-time costs; keep it out of both
    # sides of the overhead.
    ops.append(run_op(wl, work, args.seed, 0))
    traced = []
    while len(traced) < TRACE_PAIRS or time.perf_counter() - started < args.seconds:
        ops.append(run_op(wl, work, args.seed, len(ops)))
        traced.append(run_op(wl, work, args.seed, len(ops), tracer))
        ops.append(traced[-1])
    for outcome in ops:
        check_op(wl, work, outcome)
    rows = []
    for outcome in traced:
        op_spans = tracer.op_spans(outcome["op"])
        try:
            tracing.check_spans(op_spans, outcome["wall_s"], command=True)
        except AssertionError as exc:
            errors.append(str(exc))
        rows.append(layer_values(tracing.aggregate(op_spans)))
    metrics = combine(rows, errors)
    metrics.update(combine([setup_values(s) for s in setup["stats"]], errors))
    walls = {flag: statistics.median(o["wall_s"] for o in ops[1:] if o["traced"] == flag)
             for flag in (False, True)}
    metrics["trace.overhead_s"] = walls[True] - walls[False]
    spans = {"fields": ["id", "parent", "op", "name", "start", "end", "amount"],
             "setup": setup["spans"], "commands": tracer.spans}
    return metrics, ops, errors, spans


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Outside-in benchmark of the ape CLI.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shapes exist for the benchmark's self-tests")
    args = p.parse_args(argv)

    if not (SRC / "ape" / "__init__.py").is_file():
        print(f"error: no ape package under {SRC}", file=sys.stderr)
        return 2
    # numpy sizes its BLAS pool when first imported, in this process and in
    # the set-up child that inherits the environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.scale)
    info = stamp(args, wl)
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(exist_ok=True)
    try:
        metrics, ops, errors, spans = measure(args, wl, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not o["ok"] for o in ops)
    accuracies = {o["acc_pct"] for o in ops if o["ok"]}
    if len(accuracies) > 1:
        errors.append(f"accuracy differs between commands at one seed: {sorted(accuracies)}")
    shown = {"acc_pct": (accuracies.pop() if accuracies else None, "%"),
             "failed_share": (failed / len(ops), "share")}
    units = END_TO_END if not args.trace else per_layer_units()
    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"stamp": info, "result": result, "shown": shown, "errors": errors,
              "commands": ops, "spans": spans}
    out_file = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record), encoding="utf-8")

    print(f"stamp = {json.dumps(info)}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    for name, (value, unit) in shown.items():
        print(f"{name} = {value!r} {unit}")
    print(f"commands = {len(ops)} ({failed} failed)")
    for o in ops:
        if not o["ok"]:
            print(f"failed: {o['reason']}")
    for err in errors:
        print(f"error: {err}")
    print(f"record = {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

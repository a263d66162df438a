"""Set-up process of the benchmark: writes one workload's inputs, times it,
and writes the reference outputs the checks compare against.

``run.py`` starts this script in a child process, so set-up allocations do
not count toward the peak RSS of the process that runs the commands.  The
set-up runs at least ``--repeats`` times and for at least ``--min-seconds``
into the same work directory; the reference is computed once afterwards,
untimed.

    python3 perfbench/setup_inputs.py --workload NAME --seed N --scale full \\
        --work DIR --repeats 3 --min-seconds 3 --trace 0

writes ``DIR/setup.json`` with the set-up times and, with ``--trace 1``,
the per-repeat layer statistics and spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", required=True, choices=("full", "tiny"))
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--repeats", type=int, required=True)
    p.add_argument("--min-seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.scale)
    tracer = tracing.Tracer() if args.trace else None
    times = []
    while len(times) < args.repeats or sum(times) < args.min_seconds:
        with tracer.installed(f"setup{len(times)}") if tracer else contextlib.nullcontext():
            started = time.perf_counter()
            task = wl.prepare(args.work, args.seed)
            times.append(time.perf_counter() - started)
    wl.write_expected(args.work, task)

    out = {"setup_s": times}
    if tracer:
        ops = [tracer.op_spans(f"setup{r}") for r in range(len(times))]
        for spans, wall in zip(ops, times):
            tracing.check_spans(spans, wall, command=False)
        out["stats"] = [tracing.aggregate(spans) for spans in ops]
        out["spans"] = tracer.spans
    (args.work / "setup.json").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

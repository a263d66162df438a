"""Outside-in tracing of the ``ape`` modules.

:class:`Tracer` wraps every public function of the library's modules and,
while installed, rebinds each wrapper in every ``ape`` namespace that holds
the original.  Names imported with ``from .engine import ape_logits`` (as
``cli`` and ``trainer`` do) are therefore traced as well as module-attribute
calls.  Spans stay in memory as ``[id, parent, op, name, start, end,
amount]`` lists; ``amount`` is a computed count (bytes, grid candidates)
for the few functions listed in :data:`AMOUNTS`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("numkit", "refine", "engine", "trainer", "dataio", "cli")

APEF_HEADER_BYTES = 24


def _candidates(args, out) -> int:
    gammas = args.get("gammas")
    return len(args["alphas"]) * len(args["betas"]) * (1 if gammas is None else len(gammas))


# Work counted from arguments and results, independent of the implementation.
AMOUNTS = {
    "engine.cache_affinity": lambda args, out: int(out.nbytes),
    "dataio.read_matrix": lambda args, out: APEF_HEADER_BYTES + 4 * int(out.size),
    "dataio.write_matrix": lambda args, out: APEF_HEADER_BYTES + 4 * math.prod(args["m"].shape),
    "cli.grid_search": _candidates,
}

ID, PARENT, OP, NAME, START, END, AMOUNT = range(7)

# Rounding slack of summed perf_counter differences.
SELF_SLACK_S = 1e-6
# Time a traced command may spend outside its cli.main span: the call of
# ``cli.main`` itself and the capture of its printing.
WALL_SLACK_S = 2e-3


class Tracer:
    """Records one span per call of a public ``ape`` function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"ape.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))

    def _wrap(self, name, fn):
        amount = AMOUNTS.get(name)
        sig = inspect.signature(fn) if amount else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self._op, name, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(span[ID])
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if amount is not None:
                span[AMOUNT] = amount(sig.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, op):
        """Trace every call made inside the block, tagging spans with ``op``."""
        swaps = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ape" and not mod_name.startswith("ape."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    swaps.append((mod, attr, value))
        self._op = op
        try:
            yield self
        finally:
            self._op = None
            for mod, attr, value in swaps:
                setattr(mod, attr, value)

    def op_spans(self, op) -> list[list]:
        return [s for s in self.spans if s[OP] == op]


def check_spans(spans, wall_s: float, command: bool) -> None:
    """Check one op's spans against the op's wall time, measured outside
    the tracer.

    Raise if a span leaves its parent's interval, if a span's self time is
    negative (children that overlap or are counted twice), or if the self
    times of all spans add up to more than ``wall_s``.  For a ``command``,
    whose one root span must be ``cli.main``, they must also cover ``wall_s``
    to within ``WALL_SLACK_S``: the tracer may not lose time either.
    """
    by_id = {s[ID]: s for s in spans}
    for s in spans:
        parent = by_id.get(s[PARENT]) if s[PARENT] is not None else None
        if s[PARENT] is not None and parent is None:
            raise AssertionError(f"span {s[ID]} ({s[NAME]}) has a parent outside its op")
        if parent is not None and not parent[START] <= s[START] <= s[END] <= parent[END]:
            raise AssertionError(f"span {s[NAME]} is not nested in {parent[NAME]}")
    selfs = self_times(spans)
    for s in spans:
        if selfs[s[ID]] < -SELF_SLACK_S:
            raise AssertionError(f"span {s[NAME]} has negative self time {selfs[s[ID]]!r} s")
    total = sum(selfs.values())
    if total > wall_s + SELF_SLACK_S:
        raise AssertionError(f"self times sum to {total!r} s, more than the wall {wall_s!r} s")
    if not command:
        return
    roots = [s[NAME] for s in spans if s[PARENT] is None]
    if roots != ["cli.main"]:
        raise AssertionError(f"a command's root spans are {roots}, not one cli.main")
    if total < wall_s - WALL_SLACK_S:
        raise AssertionError(
            f"self times under cli.main sum to {total!r} s, the command's wall is {wall_s!r} s"
        )


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    selfs = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] is not None:
            selfs[s[PARENT]] -= s[END] - s[START]
    return selfs


def aggregate(spans) -> dict:
    """Per function name: total self time, call count and amount."""
    selfs = self_times(spans)
    stats = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "amount": 0})
    for s in spans:
        st = stats[s[NAME]]
        st["self_s"] += selfs[s[ID]]
        st["calls"] += 1
        st["amount"] += s[AMOUNT]
    return dict(stats)

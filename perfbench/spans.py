"""Span tracer for the benchmark's traced runs.

``Tracer.install`` wraps each public library function named in ``LAYERS``
and rebinds the wrapper under every name that holds the original in any
``lrpictures`` module, because ``sweeps``, ``cli``, ``crystal``, ``lr`` and
``picture`` import these functions with ``from ... import``.  Nothing in the
library changes.  Each call records one span: layer, start, end, the index of
the enclosing span, the op it belongs to, and for enumerators the number of
items returned.  Spans stay in memory and are written as one JSON line per
process when the process is done.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import sys
import time

# layer -> (home module, public functions); the order is the report's order
LAYERS = {
    "lr.glr": ("lrpictures.lr", ("glr_lr_tableaux",)),
    "lr.glmn": ("lrpictures.lr", ("glmn_lr_tableaux",)),
    "lr.coefficient": ("lrpictures.lr", ("lr_coefficient",)),
    "picture.enumerate": ("lrpictures.picture", ("enumerate_pictures",)),
    "lr.maps": ("lrpictures.lr", ("picture_to_tableau", "tableau_to_picture", "companion_tableau")),
    "reading.order": ("lrpictures.reading", ("middle_eastern", "far_eastern", "random_admissible_order")),
    "reading.is_admissible": ("lrpictures.reading", ("is_admissible",)),
    "sweeps.check_triple": ("lrpictures.sweeps", ("check_triple",)),
    "tableau.enumerate": ("lrpictures.tableau", ("enumerate_ssyt", "enumerate_glmn")),
    "crystal.decomposition": (
        "lrpictures.crystal",
        ("verify_decomposition_glr", "verify_decomposition_glmn"),
    ),
    "cli.run": ("lrpictures.cli", ("run",)),
}

# layers whose functions return the enumerated items
EMITTING = {"lr.glr", "lr.glmn", "picture.enumerate", "tableau.enumerate"}


class Tracer:
    """Collects spans for one process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1

    def install(self) -> None:
        for name in ("lrpictures", "lrpictures.sweeps", "lrpictures.cli"):
            importlib.import_module(name)
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "lrpictures"]
        for layer, (home, names) in LAYERS.items():
            for name in names:
                original = getattr(sys.modules[home], name)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        counts = layer in EMITTING

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            emitted = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counts:
                    emitted = len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.op, emitted)

        return traced

    def write(self, path: str) -> None:
        """Append this process's spans to ``path`` as one JSON line."""
        with open(path, "a") as fh:
            fh.write(json.dumps({"spans": self.spans}, separators=(",", ":")) + "\n")


def trace_cli(path: str, op: int) -> None:
    """Run the CLI entry point in this process with every layer traced."""
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    atexit.register(tracer.write, path)
    from lrpictures.cli import main

    main()


def layer_totals(path: str) -> dict[str, dict[str, float]]:
    """Per layer: calls, busy seconds, self seconds and items emitted.

    Busy time counts only spans with no enclosing span of the same layer, so
    nested calls are not counted twice.  Self time is a span's duration minus
    the durations of its direct children.
    """
    totals = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "emitted": 0} for layer in LAYERS}
    with open(path) as fh:
        for line in fh:
            spans = json.loads(line)["spans"]
            child_ns = [0] * len(spans)
            for layer, start, end, parent, _, _ in spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            for k, (layer, start, end, parent, _, emitted) in enumerate(spans):
                t = totals[layer]
                t["calls"] += 1
                t["self_s"] += (end - start - child_ns[k]) / 1e9
                if emitted is not None:
                    t["emitted"] += emitted
                outer = parent
                while outer >= 0 and spans[outer][0] != layer:
                    outer = spans[outer][3]
                if outer < 0:
                    t["busy_s"] += (end - start) / 1e9
    return totals

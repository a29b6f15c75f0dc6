"""Spans and counts around the package's public functions, recorded from outside.

``Tracer.installed()`` wraps each function in ``TRACED`` and rebinds every
module attribute of the ``unavoidable`` package that refers to it, because
``cli``, ``realize``, ``certify`` and ``generators`` import functions by name.
Leaving the block restores the originals.  ``bitsets`` is not wrapped: its
one-line helpers run inside the hot loops, and timing them would distort
everything else.

A span is (name, task, parent, start_ns, end_ns); spans nest because the
package is single-threaded, so a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional

TRACED = {
    "cli": ("run",),
    "complexes": ("parse_scx", "from_facets", "sublevel_complex", "alexander_dual", "join",
                  "format_scx"),
    "partitions": ("max_disjoint_min_nonfaces", "is_r_unavoidable", "is_rs_unavoidable",
                   "is_minimally_r_unavoidable"),
    "lp": ("maximize",),
    "realize": ("is_linearly_realizable", "linear_subcomplex_witness",
                "selfdual_wh_realization", "wh_realization_check"),
    "generators": ("random_selfdual", "ramsey_complex", "is_admissible", "deleted_join_faces"),
    "certify": ("certify_join_nonembeddable", "certify_single_nonembeddable"),
}

# Counts taken from arguments and return values: name -> (args, result) -> amount.
_COUNTS: dict[str, dict[str, Callable]] = {
    "complexes.from_facets": {
        "facets_in": lambda args, out: len(args[1]),
        "min_nonfaces_out": lambda args, out: len(out.min_nonfaces),
    },
    "partitions.max_disjoint_min_nonfaces": {
        "candidates": lambda args, out: len(args[0].min_nonfaces),
        "packing_size": lambda args, out: out[0],
    },
    "lp.maximize": {
        "rows": lambda args, out: len(args[1]),
        "cols": lambda args, out: len(args[0]),
        "unbounded": lambda args, out: out.status == "unbounded",
    },
    "generators.deleted_join_faces": {"faces": lambda args, out: sum(out)},
}
_LP_ENTRIES = ("realize.is_linearly_realizable", "realize.linear_subcomplex_witness")
_CERTIFIERS = ("certify.certify_join_nonembeddable", "certify.certify_single_nonembeddable")

COUNT_METRICS = tuple(f"{fn}.{count}" for fn, counts in _COUNTS.items() for count in counts) + (
    "realize.lp_skipped", "certify.factors_checked")


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans: list[Optional[tuple]] = []
        self.counts: Counter = Counter()
        self.task: Optional[int] = None
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        derived = _COUNTS.get(name, {})
        lp_entry = name in _LP_ENTRIES
        certifier = name in _CERTIFIERS
        materialize = name == "complexes.from_facets"  # its facets may be a one-shot iterator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialize:
                args = (args[0], list(args[1]), *args[2:])
            lp_before = counts["lp.maximize.calls"] if lp_entry else 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, self.task, parent, start, end)
                counts[f"{name}.calls"] += 1
            for count, amount in derived.items():
                counts[f"{name}.{count}"] += amount(args, out)
            if lp_entry and counts["lp.maximize.calls"] == lp_before:
                counts["realize.lp_skipped"] += 1
            if certifier:
                counts["certify.factors_checked"] += len(out.factors)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every package-level reference to a traced function, then restore."""
        package = [mod for key, mod in list(sys.modules.items())
                   if key == "unavoidable" or key.startswith("unavoidable.")]
        rebound = []
        try:
            for name in traced_names():
                layer, fn_name = name.split(".")
                original = getattr(sys.modules[f"unavoidable.{layer}"], fn_name)
                wrapper = self._wrap(name, original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            rebound.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(rebound):
                setattr(mod, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per function name, over every recorded span."""
        child = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, _, _, start, end), covered in zip(self.spans, child):
            out[name] += (end - start - covered) / 1e9
        return out

    def tree(self, task: int) -> list[tuple[str, str]]:
        """(parent name, child name) edges of one task's spans; the root's parent is ''."""
        return [(self.spans[parent][0] if parent >= 0 else "", name)
                for name, t, parent, _, _ in self.spans if t == task]

"""Span tracing of the color3 pipeline, installed from outside the program.

Each boundary is a public function (or method) of one ``clustercolor``
module. ``Tracer.install`` replaces every binding of that function that a
loaded ``clustercolor`` module holds, so a call made through a name imported
with ``from .graph import validate_tree_decomposition`` is traced like a call
made through ``graph`` itself. A boundary the program no longer has is
recorded as absent and reports zero calls.

Spans stay in memory, each with the index of the span that was open when it
started, until the caller writes them out. A span's self time is its
duration minus the durations of its child spans; the code under test is
single-threaded, so children never overlap and the self times of a subtree
add up to the duration of its root.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections.abc import Iterator


def _groups(bound, result):
    return len(bound["groups"])


def _pairs(bound, result):
    return sum(len(group.pairs) for group in bound["groups"])


def _subtree_nodes(bound, result):
    return sum(len(group.subtree) for group in bound["groups"])


# Boundary name -> work counts taken from its bound arguments and result.
BOUNDARIES = {
    "pace.read_graph": {},
    "pace.read_td": {},
    "pace.read_layering": {},
    "graph.layered_width": {},
    "graph.validate_tree_decomposition": {
        "nodes": lambda bound, result: bound["td"].node_count,
    },
    "graph.Graph.induced": {"vertices": lambda bound, result: len(result[1])},
    "threecolor.three_color": {},
    "twocolor.two_color_bounded_treewidth": {
        "nodes": lambda bound, result: bound["td"].node_count,
    },
    "twocolor.enlarge_decomposition": {
        "groups": _groups,
        "pairs": _pairs,
        "subtree_nodes": _subtree_nodes,
    },
    "verify.monochromatic_components": {
        "vertices": lambda bound, result: bound["g"].n,
    },
    "cli.cmd_color3": {},
    "cli.cmd_verify": {},
}

PACKAGE = "clustercolor"


def metric_names() -> list[str]:
    """Every per-boundary metric a traced run reports, in a fixed order."""
    names = []
    for boundary, counts in BOUNDARIES.items():
        names += [f"{boundary}.calls", f"{boundary}.self_s"]
        names += [f"{boundary}.{count}" for count in counts]
    return names


def count_metric_names() -> list[str]:
    return [name for name in metric_names() if not name.endswith(".self_s")]


class Tracer:
    """Wraps the boundaries, records spans, and folds them into metrics.

    A span is ``[name, parent, start, end, counts, op]``; ``parent`` is the
    index of the enclosing span or -1, ``op`` the operation number the
    caller set in ``self.op`` before starting that operation.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for boundary, counts in BOUNDARIES.items():
            module_name, *attrs = boundary.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ModuleNotFoundError:
                owner = None
            for attr in attrs[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, attrs[-1], None)
            if owner is None or not callable(original):
                self.absent.append(boundary)
                continue
            wrapper = self._wrap(boundary, original, counts)
            if inspect.isclass(owner):
                self._patch(owner, attrs[-1], wrapper)
                continue
            for name, module in sorted(sys.modules.items()):
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, boundary: str, func, counts: dict):
        signature = inspect.signature(func)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            bound = None
            if counts:
                bound = signature.bind(*args, **kwargs)
                for key, value in bound.arguments.items():
                    # An iterator argument would be consumed by the count.
                    if isinstance(value, Iterator):
                        bound.arguments[key] = list(value)
                args, kwargs = bound.args, bound.kwargs
            span = [boundary, stack[-1] if stack else -1, 0.0, 0.0, None, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counts:
                span[4] = {
                    name: count(bound.arguments, result)
                    for name, count in counts.items()
                }
            return result

        return traced

    # -- analysis -----------------------------------------------------

    def self_times(self) -> list[float]:
        self_s = [end - start for _, _, start, end, _, _ in self.spans]
        for _, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                self_s[parent] -= end - start
        return self_s

    def op_metrics(self, op: int) -> dict[str, float]:
        """Calls, summed self time and summed counts per boundary of one op."""
        metrics = {name: 0 for name in metric_names()}
        for span, self_s in zip(self.spans, self.self_times()):
            name, _, _, _, counts, span_op = span
            if span_op != op:
                continue
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += self_s
            for count, value in (counts or {}).items():
                metrics[f"{name}.{count}"] += value
        return metrics

    def subtree_gaps(self, root_name: str) -> list[float]:
        """For every span named ``root_name``: its duration minus the self
        times of all spans in its subtree (zero up to rounding)."""
        subtree = self.self_times()
        for index in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[index][1]
            if parent >= 0:
                subtree[parent] += subtree[index]
        return [
            (end - start) - subtree[index]
            for index, (name, _, start, end, _, _) in enumerate(self.spans)
            if name == root_name
        ]

    def dump(self) -> list[dict]:
        return [
            {
                "name": name,
                "parent": parent,
                "start": start,
                "end": end,
                "counts": counts or {},
                "op": op,
            }
            for name, parent, start, end, counts, op in self.spans
        ]


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median self time over the traced operations; counts as the first
    operation made them (the caller checks that they repeat)."""
    return {
        name: statistics.median(metrics[name] for metrics in per_op)
        if name.endswith(".self_s")
        else value
        for name, value in per_op[0].items()
    }

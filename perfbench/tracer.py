"""In-memory span tracer that wraps funcgraphs functions from outside.

A span is ``[name, start, end, parent, request]``: ``parent`` is the
index of the enclosing span in ``Tracer.spans`` (-1 at the top) and
``request`` identifies the CLI request that caused it.  Installing the
tracer rebinds each wrapped function wherever a funcgraphs module binds
that same object (modules import functions from each other by name), and
as a class attribute for ``FunctionalGraph`` methods.  Nothing under
``src/`` changes, and ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("graphs", "hitting", "asdim", "digraphs", "homsolver",
          "local_sim", "shift")

# Per-step helpers, called once per vertex, node step or sequence shift:
# a wrapper would cost more than the work it times.  ``partition`` has no
# spans at all for the same reason; its time lands in its callers.
PER_STEP = {
    "graphs.FunctionalGraph.iterate",
    "graphs.FunctionalGraph.forward_orbit",
    "local_sim.cv_iterations",
    "shift.validate_seq",
    "shift.shift_seq",
    "shift.window_member",
    "shift.countdown_index",
}

# Span names that differ from ``<layer>.<function>``.
RENAME = {
    "graphs.gen_path": "graphs.gen",
    "graphs.gen_random_forest": "graphs.gen",
    "graphs.gen_random_total": "graphs.gen",
}


class Tracer:
    """Collects spans while installed; ``request`` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: int = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, suffix=None):
        """``fn`` recording one span per call; ``suffix(result)``, when
        given, is appended to the span name after the call returns."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if suffix is not None:
                span[0] = f"{name}.{suffix(result)}"
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if k == package.__name__
                   or k.startswith(package.__name__ + ".")]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, obj in vars(mod).items():
                if (_traceable(obj) and obj.__module__ == mod.__name__
                        and f"{layer}.{attr}" not in PER_STEP):
                    name = RENAME.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    suffix = _engine if name == "local_sim.run_local" else None
                    wrapped[id(obj)] = self.wrap(name, obj, suffix)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._rebind(mod, attr, wrapped[id(obj)])
        cls = package.graphs.FunctionalGraph
        for attr, raw in list(vars(cls).items()):
            if f"graphs.{cls.__name__}.{attr}" in PER_STEP:
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if not _traceable(fn):
                continue
            traced = self.wrap(f"graphs.{attr}", fn)
            self._rebind(cls, attr, classmethod(traced)
                         if isinstance(raw, classmethod) else traced)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _traceable(obj) -> bool:
    return (inspect.isfunction(obj) and not obj.__name__.startswith("_")
            and not inspect.isgeneratorfunction(obj))


def _engine(trace) -> str:
    return trace.engine


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(spans: list[list], group=None) -> dict:
    """``{(group(request), name): [self_s, calls]}`` over all spans."""
    out: dict = defaultdict(lambda: [0.0, 0])
    for span, own in zip(spans, self_times(spans)):
        key = (group(span[4]) if group else None, span[0])
        out[key][0] += own
        out[key][1] += 1
    return out

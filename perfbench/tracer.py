"""Span tracer that wraps functions in place, from outside the traced package.

``Tracer.install`` replaces each target attribute (a module function or a
class method) with a wrapper that records a span around every call;
``Tracer.uninstall`` puts the originals back.  A module function is replaced
in every loaded module of the package that holds a reference to it, so
callers that did ``from module import name`` are traced too.

A span records its layer name, start, end, parent span and op id.  Spans are
folded into per-layer totals when they end, so memory stays bounded however
many calls a run makes:

* ``calls`` counts every call, every frame of a recursive function included;
* ``s`` sums inclusive time over outermost frames only, so a recursive
  function's time is counted once;
* ``self_s`` is each span's busy time minus the time its child spans cover;
* a generator function is timed across every resume, not only the call that
  creates it, and ``yielded`` counts the items it produced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced attribute and the layer name its spans are recorded under."""

    name: str    # layer name, e.g. "catalog.build_kmn"
    module: str  # e.g. "quadforge.catalog"
    attr: str    # "build_kmn", or "Embedding.__init__" for a method
    hit: Callable | None = None    # (args, kwargs) -> bool, asked before the call
    tally: Callable | None = None  # (args, kwargs, result) -> number added to Stats.tally


@dataclass
class Stats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    hits: int = 0
    tally: float = 0
    yielded: int = 0

    def add(self, other: "Stats") -> None:
        for key in vars(self):
            setattr(self, key, getattr(self, key) + getattr(other, key))


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    op: object
    outer: bool  # no enclosing span of the same name was running when it opened
    start: float | None = None
    end: float | None = None
    busy: float = 0.0   # summed over every interval the span ran (one per resume)
    child: float = 0.0  # time covered by child spans' intervals


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    enabled: bool = True
    op: object = None
    stats: dict = field(default_factory=lambda: defaultdict(Stats))
    op_self: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    _stack: list = field(default_factory=list)
    _depth: dict = field(default_factory=lambda: defaultdict(int))
    _patches: list = field(default_factory=list)
    _next_id: int = 0

    # -- span bookkeeping ------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        return Span(name, self._next_id, parent.span_id if parent else None,
                    self.op, outer=self._depth[name] == 0)

    def _enter(self, span: Span) -> float:
        self._depth[span.name] += 1
        self._stack.append(span)
        t0 = self.clock()
        if span.start is None:
            span.start = t0
        return t0

    def _leave(self, span: Span, t0: float) -> None:
        t1 = self.clock()
        self._stack.pop()
        self._depth[span.name] -= 1
        span.busy += t1 - t0
        span.end = t1
        if self._stack:
            self._stack[-1].child += t1 - t0

    def _close(self, span: Span) -> None:
        st = self.stats[span.name]
        st.calls += 1
        if span.outer:
            st.s += span.busy
        st.self_s += span.busy - span.child
        self.op_self[span.op][span.name] += span.busy - span.child

    # -- wrappers ----------------------------------------------------------------
    def _wrap(self, target: Target, fn):
        tracer = self
        name = target.name
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if not tracer.enabled:
                    return (yield from fn(*args, **kwargs))
                it = fn(*args, **kwargs)
                span = tracer._open(name)
                try:
                    while True:
                        t0 = tracer._enter(span)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._leave(span, t0)
                        tracer.stats[name].yielded += 1
                        yield item
                finally:
                    it.close()
                    tracer._close(span)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            if target.hit is not None and target.hit(args, kwargs):
                tracer.stats[name].hits += 1
            t0 = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(span, t0)
                tracer._close(span)
            if target.tally is not None:
                tracer.stats[name].tally += target.tally(args, kwargs, result)
            return result
        return traced

    # -- installing --------------------------------------------------------------
    def install(self, targets, package: str) -> None:
        """Wrap every target; module functions are replaced wherever ``package`` refers to them."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for target in targets:
                self._install_one(target, package)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, target: Target, package: str) -> None:
        owner = importlib.import_module(target.module)
        path = target.attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        leaf = path[-1]
        original = vars(owner).get(leaf)
        if not inspect.isfunction(original):
            raise TypeError(f"{target.module}.{target.attr} is not a plain function")
        self.stats[target.name]  # report the layer even if it never runs
        wrapper = self._wrap(target, original)
        if isinstance(owner, type):
            self._patch(owner, leaf, original, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._patch(mod, key, original, wrapper)

    def _patch(self, obj, key: str, original, wrapper) -> None:
        setattr(obj, key, wrapper)
        self._patches.append((obj, key, original))

    def uninstall(self) -> None:
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    def merge(self, stats: dict) -> None:
        """Add per-layer totals recorded elsewhere, by a child process running the current op."""
        for name, values in stats.items():
            st = Stats(**values)
            self.stats[name].add(st)
            self.op_self[self.op][name] += st.self_s

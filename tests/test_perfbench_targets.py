"""The benchmark's trace targets name functions and caches that quadforge has.

``perfbench/layers.py`` wraps quadforge functions by name and reads the
catalog's caches in its hit functions, so renaming either would otherwise
fail only in a traced benchmark run.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from quadforge import catalog

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_installs_and_every_hit_function_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")

    def attrs():
        out = {}
        for target in layers.TARGETS:
            owner = importlib.import_module(target.module)
            for part in target.attr.split("."):
                owner = getattr(owner, part)
            out[target.name] = owner
        return out

    before = attrs()
    t = tracer.Tracer()
    t.install(layers.TARGETS, "quadforge")
    try:
        assert all(attrs()[name] is not fn for name, fn in before.items())
    finally:
        t.uninstall()
    assert attrs() == before

    hits = {target.name: target.hit for target in layers.TARGETS if target.hit}
    assert set(hits) == {"catalog.build_kmn", "catalog.get_witness"}
    catalog.build_kmn(6, 3)
    catalog.get_witness("phi_4_0")
    assert hits["catalog.build_kmn"]((6, 3), {})
    assert not hits["catalog.build_kmn"]((6, 99), {})
    assert hits["catalog.get_witness"](("phi_4_0",), {})

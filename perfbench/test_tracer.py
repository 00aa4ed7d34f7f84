"""Tests of the benchmark's span tracer and of BENCHMARK.json's agreement
with the metrics the benchmark reports.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import sys
import textwrap
import types
from pathlib import Path

import pytest

from tracer import Target, Tracer

PKG = "fakepkg"


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def make_module():
    made = []

    def make(name: str, source: str, **globs):
        mod = types.ModuleType(name)
        mod.__dict__.update(globs)
        exec(textwrap.dedent(source), mod.__dict__)
        sys.modules[name] = mod
        made.append(name)
        return mod

    yield make
    for name in made:
        sys.modules.pop(name, None)


def test_wrapped_attributes_are_restored(make_module):
    a = make_module(f"{PKG}.a", """
        def f(x):
            return x + 1

        class C:
            def m(self):
                return 7
    """)
    b = make_module(f"{PKG}.b", "", f=a.f)  # as if b did `from fakepkg.a import f`
    f, m = a.f, a.C.__dict__["m"]
    tracer = Tracer()
    tracer.install([Target("a.f", f"{PKG}.a", "f"), Target("a.C.m", f"{PKG}.a", "C.m")], PKG)
    assert a.f is not f and b.f is a.f
    assert a.C.__dict__["m"] is not m
    assert b.f(1) == 2 and a.C().m() == 7
    assert tracer.stats["a.f"].calls == 1 and tracer.stats["a.C.m"].calls == 1
    tracer.uninstall()
    assert a.f is f and b.f is f and a.C.__dict__["m"] is m


def test_failed_install_leaves_nothing_wrapped(make_module):
    a = make_module(f"{PKG}.a", """
        def f():
            return 1
        VALUE = 3
    """)
    f = a.f
    tracer = Tracer()
    with pytest.raises(TypeError):
        tracer.install([Target("a.f", f"{PKG}.a", "f"), Target("a.VALUE", f"{PKG}.a", "VALUE")],
                       PKG)
    assert a.f is f and a.VALUE == 3


def test_recursive_call_is_counted_once(make_module):
    clock = ManualClock()
    a = make_module(f"{PKG}.a", """
        def depth(k):
            clock.advance(1)
            return 0 if k == 0 else 1 + depth(k - 1)
    """, clock=clock)
    tracer = Tracer(clock=clock)
    tracer.install([Target("a.depth", f"{PKG}.a", "depth")], PKG)
    try:
        assert a.depth(3) == 3
    finally:
        tracer.uninstall()
    st = tracer.stats["a.depth"]
    assert st.calls == 4
    assert st.s == 4.0       # the outermost frame only, not 4 + 3 + 2 + 1
    assert st.self_s == 4.0  # every frame's self time adds up to the same


def test_generator_time_is_summed_across_resumes(make_module):
    clock = ManualClock()
    a = make_module(f"{PKG}.a", """
        def items():
            clock.advance(1)
            yield "x"
            clock.advance(2)
            yield "y"
            clock.advance(3)
    """, clock=clock)
    tracer = Tracer(clock=clock)
    tracer.install([Target("a.items", f"{PKG}.a", "items")], PKG)
    try:
        got = []
        for item in a.items():
            clock.advance(100)  # the consumer's time is not the generator's
            got.append(item)
        first = next(a.items())  # abandoned after one item
    finally:
        tracer.uninstall()
    assert got == ["x", "y"] and first == "x"
    st = tracer.stats["a.items"]
    assert st.calls == 2
    assert st.yielded == 3
    assert st.s == 6.0 + 1.0
    assert st.self_s == st.s


def test_self_time_is_duration_minus_children(make_module):
    clock = ManualClock()
    a = make_module(f"{PKG}.a", """
        def child():
            clock.advance(5)

        def parent():
            clock.advance(1)
            child()
            clock.advance(2)
            child()
            clock.advance(3)

        def gen():
            child()
            yield 1
            clock.advance(4)
    """, clock=clock)
    tracer = Tracer(clock=clock)
    tracer.install([Target("a.child", f"{PKG}.a", "child"),
                    Target("a.parent", f"{PKG}.a", "parent"),
                    Target("a.gen", f"{PKG}.a", "gen")], PKG)
    try:
        a.parent()
        child_before_gen = tracer.stats["a.child"].s
        list(a.gen())
    finally:
        tracer.uninstall()
    p, c, g = (tracer.stats[k] for k in ("a.parent", "a.child", "a.gen"))
    assert p.s == 16.0
    assert p.self_s == p.s - child_before_gen == 6.0
    assert g.s == 9.0 and g.self_s == g.s - (c.s - child_before_gen) == 4.0
    assert c.self_s == c.s == 15.0


def test_disabled_tracer_records_nothing(make_module):
    a = make_module(f"{PKG}.a", """
        def f():
            return 1
    """)
    tracer = Tracer()
    tracer.install([Target("a.f", f"{PKG}.a", "f")], PKG)
    try:
        tracer.enabled = False
        assert a.f() == 1
    finally:
        tracer.uninstall()
    assert tracer.stats["a.f"].calls == 0


def test_benchmark_json_names_the_reported_metrics():
    import layers
    import run
    import workloads

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert {t.name for t in layers.TARGETS} == {name for name, _ in layers.LAYER_METRICS}


def test_tail_has_ten_samples_beyond_it():
    import run

    values = list(range(224))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 214 / 224)
    assert run.tail(list(range(20))) == (9, 50.0)
    assert run.tail(list(range(10))) == (8, 90.0)  # fewer than 20: one sample beyond
    assert run.tail([3.0]) == (3.0, 100.0)


def test_batch_covers_the_acceptance_pairs():
    import workloads

    pairs = [(n, t, kind) for kind, lo, hi in workloads.BATCH_RANGES
             for n in range(lo, hi + 1) for t in workloads.admissible_ts(n, kind)]
    assert len(pairs) == workloads.BATCH_PAIRS == 224
    assert workloads.admissible_ts(6, "orientable") == []  # the (6,3) orientable hole
    assert workloads.admissible_ts(10, "nonorientable") == [1, 3, 5]

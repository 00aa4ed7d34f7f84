"""The traced layers of quadforge and the per-layer metrics derived from them.

Each layer is one public function (or method) of a quadforge module, wrapped
at run time by ``tracer.Tracer``.  ``METRICS`` lists the per-layer metrics a
traced run reports, in the order of ``BENCHMARK.json``; README.md records
which end-to-end metric each should move, and on which workload.
"""

from __future__ import annotations

from tracer import Stats, Target


def _kmn_hit(args, kwargs):
    from quadforge import catalog
    return tuple(args) in catalog._KMN_CACHE


def _witness_hit(args, kwargs):
    from quadforge import catalog
    return args[0] in catalog._witness_cache


TARGETS = (
    Target("cli.main", "quadforge.cli", "main"),
    Target("planner.execute", "quadforge.planner", "execute"),
    Target("catalog.build_kmn", "quadforge.catalog", "build_kmn", hit=_kmn_hit),
    Target("catalog.get_witness", "quadforge.catalog", "get_witness", hit=_witness_hit),
    Target("surgery.diamond_sum", "quadforge.surgery", "diamond_sum"),
    Target("surgery.relabel_embedding", "quadforge.surgery", "relabel_embedding"),
    Target("emap.embedding_from_faces", "quadforge.emap", "embedding_from_faces"),
    Target("emap.Embedding.init", "quadforge.emap", "Embedding.__init__"),
    Target("emap.Embedding.faces", "quadforge.emap", "Embedding.faces"),
    Target("emap.certify", "quadforge.emap", "certify"),
    Target("emap.is_face_simple", "quadforge.emap", "is_face_simple"),
    Target("emap.is_nearly_face_simple_except", "quadforge.emap",
           "is_nearly_face_simple_except"),
    Target("emap.universal_vertices", "quadforge.emap", "universal_vertices"),
    Target("emap.is_orientable", "quadforge.emap", "is_orientable"),
    Target("serialize.parse_emap", "quadforge.serialize", "parse_emap",
           tally=lambda args, kwargs, result: len(args[0].encode())),
    Target("serialize.write_emap", "quadforge.serialize", "write_emap"),
    Target("search.candidate_graphs", "quadforge.search", "candidate_graphs"),
    Target("search.enumerate_embeddings", "quadforge.search", "enumerate_embeddings"),
    Target("search.search_exact", "quadforge.search", "search_exact",
           tally=lambda args, kwargs, result: result.nodes),
    Target("graphalg.are_isomorphic", "quadforge.graphalg", "are_isomorphic",
           tally=lambda args, kwargs, result: int(bool(result))),
)

# The entry point wraps everything a `gen` process does, so its time is left
# out when measuring how much of an op the named inner layers explain.
ENTRY_LAYERS = ("cli.main",)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


_DERIVED = {
    "calls": lambda st: st.calls,
    "s": lambda st: st.s,
    "self_s": lambda st: st.self_s,
    "hit_ratio": lambda st: _ratio(st.hits, st.calls),
    "true_ratio": lambda st: _ratio(st.tally, st.calls),
    "mb_per_s": lambda st: _ratio(st.tally / 1e6, st.s),
    "nodes": lambda st: st.tally,
    "nodes_per_s": lambda st: _ratio(st.tally, st.s),
    "yielded": lambda st: st.yielded,
}

_UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "hit_ratio": "ratio",
    "true_ratio": "ratio", "mb_per_s": "MB/s", "nodes": "count",
    "nodes_per_s": "1/s", "yielded": "count",
}

# (layer, derived quantity) pairs, in report order.
LAYER_METRICS = (
    ("emap.embedding_from_faces", ("calls", "s", "self_s")),
    ("emap.Embedding.init", ("calls", "s")),
    ("emap.Embedding.faces", ("calls", "s")),
    ("emap.certify", ("s",)),
    ("emap.is_face_simple", ("s",)),
    ("emap.is_nearly_face_simple_except", ("s",)),
    ("emap.universal_vertices", ("s",)),
    ("emap.is_orientable", ("s",)),
    ("surgery.diamond_sum", ("calls", "s", "self_s")),
    ("surgery.relabel_embedding", ("calls", "s")),
    ("catalog.build_kmn", ("calls", "s", "hit_ratio")),
    ("catalog.get_witness", ("calls", "s", "hit_ratio")),
    ("planner.execute", ("calls", "self_s")),
    ("serialize.parse_emap", ("s", "mb_per_s")),
    ("serialize.write_emap", ("s",)),
    ("cli.main", ("self_s",)),
    ("search.candidate_graphs", ("self_s", "yielded")),
    ("graphalg.are_isomorphic", ("calls", "s", "true_ratio")),
    ("search.enumerate_embeddings", ("s",)),
    ("search.search_exact", ("nodes", "nodes_per_s")),
)

# Whole-run figures of the traced run, next to the per-layer ones.
RUN_METRICS = (
    ("trace_overhead_ratio", "ratio"),  # traced op wall / untraced op wall - 1
    ("layers.self_share", "ratio"),     # inner layers' self time / traced op wall
)

METRICS = tuple(
    (f"{layer}.{q}", _UNITS[q]) for layer, qs in LAYER_METRICS for q in qs
) + RUN_METRICS


def layer_metrics(stats: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Every metric of ``METRICS``, as {name: (value, unit)}."""
    out = {}
    for layer, qs in LAYER_METRICS:
        st = stats.get(layer, Stats())
        for q in qs:
            out[f"{layer}.{q}"] = (_DERIVED[q](st), _UNITS[q])
    inner_self = sum(st.self_s for name, st in stats.items() if name not in ENTRY_LAYERS)
    out["trace_overhead_ratio"] = (_ratio(traced_wall, untraced_wall) - 1.0, "ratio")
    out["layers.self_share"] = (_ratio(inner_self, traced_wall), "ratio")
    return out

"""Embeddings and graphs on labels: the tests' builder from dicts, and the views.

quadforge holds every ``Embedding`` and ``Graph`` as its integer core.  The
tests often state an embedding by hand, as a ``Graph``, a rotation per vertex
over its incident edge tuples and a sign per edge tuple, and read one back
that way.  ``embedding`` checks such dicts and builds the core from them;
``rotation`` and ``signature`` are the dicts of an embedding, and
``incidence``, ``degree`` and ``neighbors`` read a graph's core by label.
"""

from __future__ import annotations

from typing import Mapping

from quadforge.emap import Embedding, Graph
from quadforge.errors import StructuralError


def incidence(graph: Graph) -> dict:
    """Vertex -> its incident edges, in the core's edge order."""
    inc = {v: [] for v in graph.labels}
    for e in graph.sorted_edges():
        inc[e[0]].append(e)
        inc[e[1]].append(e)
    return {v: tuple(es) for v, es in inc.items()}


def degree(graph: Graph, v) -> int:
    return graph.ends.count(graph.labels.index(v))


def neighbors(graph: Graph, v) -> set:
    labels, ends, r = graph.labels, graph.ends, graph.labels.index(v)
    return {labels[ends[i ^ 1]] for i, u in enumerate(ends) if u == r}


def embedding(graph: Graph, rotation: Mapping, signature: Mapping) -> Embedding:
    """The embedding of ``graph`` with these rotations and signs.  Each
    rotation must be a permutation of its vertex's incident edges, and each
    sign +1 or -1; each rotation is started at its vertex's least edge."""
    edges = graph.sorted_edges()
    eid = {e: i for i, e in enumerate(edges)}
    cycles = []
    for v, incident in incidence(graph).items():
        if v not in rotation:
            raise StructuralError(f"no rotation given for vertex {v!r}")
        cyc = tuple(rotation[v])
        if len(cyc) != len(incident) or set(cyc) != set(incident):
            raise StructuralError(f"rotation at {v!r} is not a permutation of its incident edges")
        if cyc:
            k = cyc.index(incident[0])
            cyc = cyc[k:] + cyc[:k]
        cycles.append([eid[e] for e in cyc])
    sign = []
    for e in edges:
        if e not in signature:
            raise StructuralError(f"no signature entry for edge {e}")
        s = signature[e]
        if s not in (1, -1):
            raise StructuralError(f"signature of {e} must be +1 or -1, got {s!r}")
        sign.append(s)
    return Embedding(graph.labels, graph.ends, cycles, sign)


def rotation(emb: Embedding) -> dict:
    """Vertex -> its incident edges in rotation order, from its least edge."""
    edges = emb.graph.sorted_edges()
    return {v: tuple([edges[e] for e in cyc]) for v, cyc in zip(emb.labels, emb.rot)}


def signature(emb: Embedding) -> dict:
    """Edge -> its sign."""
    return dict(zip(emb.graph.sorted_edges(), emb.sign))

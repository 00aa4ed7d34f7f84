"""Embeddings on labels: the tests' builder from dicts, and the dict views.

quadforge builds every ``Embedding`` from its integer core.  The tests often
state an embedding by hand, as a ``Graph``, a rotation per vertex over its
incident edge tuples and a sign per edge tuple, and read one back that way.
``embedding`` checks such dicts and builds the core from them; ``rotation``
and ``signature`` are the dicts of an embedding.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from quadforge.emap import Embedding, Graph
from quadforge.errors import StructuralError


def embedding(graph: Graph, rotation: Mapping, signature: Mapping) -> Embedding:
    """The embedding of ``graph`` with these rotations and signs.  Each
    rotation must be a permutation of its vertex's incident edges, and each
    sign +1 or -1; each rotation is started at its vertex's least edge."""
    eid = {e: i for i, e in enumerate(graph._edge_order)}
    cycles = []
    for v, incident in graph._incidence.items():
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
    for e in graph._edge_order:
        if e not in signature:
            raise StructuralError(f"no signature entry for edge {e}")
        s = signature[e]
        if s not in (1, -1):
            raise StructuralError(f"signature of {e} must be +1 or -1, got {s!r}")
        sign.append(s)
    rank = graph._rank
    ends = [rank[v] for v in itertools.chain.from_iterable(graph._edge_order)]
    return Embedding(graph._order, ends, cycles, sign)


def rotation(emb: Embedding) -> dict:
    """Vertex -> its incident edges in rotation order, from its least edge."""
    edges = emb.graph._edge_order
    return {v: tuple([edges[e] for e in cyc]) for v, cyc in zip(emb.labels, emb.rot)}


def signature(emb: Embedding) -> dict:
    """Edge -> its sign."""
    return dict(zip(emb.graph._edge_order, emb.sign))

"""networkx as the tests' oracle: VF2 isomorphism and the dual multigraph.

quadforge itself imports no third-party package.  These helpers keep the
independent implementations its own code is checked against.
"""

from __future__ import annotations

import networkx as nx

from quadforge.emap import Embedding, Graph


def _nx_graph(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges)
    return out


def vf2_isomorphic(g: Graph, h: Graph) -> bool:
    """networkx's VF2 test, independent of ``graphalg.canonical_form``."""
    return nx.is_isomorphic(_nx_graph(g), _nx_graph(h))


def dual_text(emb: Embedding) -> str:
    """What ``quadforge dual`` printed when it rendered an ``nx.MultiGraph``:
    the faces of ``emb.faces()`` as nodes, one dual edge per primal edge
    between the two faces along it, sorted by ``(face, face, str(data))``."""
    along = {}
    for i, walk in enumerate(emb.faces()):
        for e in walk.edges:
            along.setdefault(e, []).append(i)
    dual = nx.MultiGraph()
    dual.add_nodes_from(range(len(emb.faces())))
    for e, (fa, fb) in along.items():
        dual.add_edge(min(fa, fb), max(fa, fb), primal=e)
    lines = [f"faces {dual.number_of_nodes()}"]
    for fa, fb, data in sorted(dual.edges(data=True), key=lambda x: (x[0], x[1], str(x[2]))):
        lines.append(f"{fa} {fb} via {data['primal'][0]}-{data['primal'][1]}")
    return "\n".join(lines) + "\n"

"""``graphalg.canonical_form`` as it was before its search tree was pruned by
automorphisms, kept verbatim as the reference the pruned kernel is checked
against: both must return the same form for every graph, not only merge the
same graphs.  Colour refinement, then individualisation, pruned only at twins.
"""

from __future__ import annotations

from quadforge.emap import Graph


def canonical_form(g: Graph) -> tuple:
    """``(n, edges)`` of a relabelling onto 0..n-1 that depends only on the
    isomorphism class of g: two graphs are isomorphic iff their forms are equal.

    Colour refinement splits the vertices by degree, then by the colours of
    their neighbours, until the partition is stable.  While a cell has more
    than one vertex, each of its vertices is individualised in turn and the
    partition refined again; every discrete partition reached is a
    relabelling, and the least sorted edge list over all of them is the
    form.  Every choice depends only on the colours, so isomorphic graphs
    reach the same set of edge lists.  Of two twins in the target cell
    (vertices with the same neighbours apart from each other) only the first
    is tried: swapping them is an automorphism that fixes the current
    colouring, so their subtrees reach the same edge lists.  This keeps
    complete and empty graphs linear instead of factorial.
    """
    verts = g.labels
    index = {v: i for i, v in enumerate(verts)}
    adj = [[] for _ in verts]
    for u, v in g.edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    n = len(adj)
    nbrs = [frozenset(a) for a in adj]
    edges = [(index[u], index[v]) for u, v in g.edges]
    best = None

    def refine(colour: list) -> list:
        count = len(set(colour))
        while True:
            at = colour.__getitem__
            sig = [(c, tuple(sorted(map(at, a)))) for c, a in zip(colour, adj)]
            rank = {s: i for i, s in enumerate(sorted(set(sig)))}
            colour = list(map(rank.__getitem__, sig))
            if len(rank) == count:
                return colour
            count = len(rank)

    def descend(colour: list) -> None:
        nonlocal best
        cells: dict = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)
        if len(cells) == n:
            form = tuple(sorted((min(colour[u], colour[v]), max(colour[u], colour[v]))
                                for u, v in edges))
            if best is None or form < best:
                best = form
            return
        target = min((len(vs), c) for c, vs in cells.items() if len(vs) > 1)[1]
        tried: list = []
        for v in cells[target]:
            if any(nbrs[v] - {u} == nbrs[u] - {v} for u in tried):
                continue
            tried.append(v)
            descend(refine([2 * c + (c == target and w != v) for w, c in enumerate(colour)]))

    descend(refine([0] * n))
    return n, best

"""Construction algebra for the labeled target graphs.

Vertex naming follows the proofs: the join blocks use labels x, y, z for
the special vertices and small integers for the core, so derivations can be
audited by eye.  Generic expression evaluation keeps the left operand's
labels; colliding integer labels on the right are remapped to fresh
consecutive integers starting just above the largest integer label in
either operand (sorted order, so evaluation is deterministic).
"""

from __future__ import annotations

import ast
import itertools
from typing import NamedTuple

from .emap import Graph, Label, edge_between, vkey
from .errors import CatalogError, StructuralError

ISO_VERTEX_CAP = 16


def complete(k: int) -> Graph:
    vs = range(k)
    return Graph.from_edges(itertools.combinations(vs, 2), vertices=vs)


def empty_graph(k: int) -> Graph:
    return Graph(frozenset(range(k)), frozenset())


def _remap_right(g: Graph, h: Graph) -> Graph:
    taken = set(g.vertices)
    colliding = sorted((v for v in h.vertices if v in taken), key=vkey)
    if not colliding:
        return h
    ints = [v for v in g.vertices | h.vertices if isinstance(v, int)]
    fresh = itertools.count(max(ints, default=-1) + 1)
    mapping = {}
    for v in colliding:
        nxt = next(fresh)
        while nxt in taken or nxt in h.vertices:
            nxt = next(fresh)
        mapping[v] = nxt
        taken.add(nxt)
    return relabel(h, {v: mapping.get(v, v) for v in h.vertices})


def relabel(g: Graph, mapping: dict) -> Graph:
    if set(mapping) != set(g.vertices):
        raise StructuralError("relabel mapping must cover every vertex exactly")
    if len(set(mapping.values())) != len(mapping):
        raise StructuralError("relabel mapping is not injective")
    return Graph(
        frozenset(mapping.values()),
        frozenset(edge_between(mapping[u], mapping[v]) for u, v in g.edges),
    )


def disjoint_union(g: Graph, h: Graph) -> Graph:
    h = _remap_right(g, h)
    return Graph(g.vertices | h.vertices, g.edges | h.edges)


def join(g: Graph, h: Graph) -> Graph:
    h = _remap_right(g, h)
    cross = frozenset(edge_between(u, v) for u in g.vertices for v in h.vertices)
    return Graph(g.vertices | h.vertices, g.edges | h.edges | cross)


def complement(g: Graph) -> Graph:
    all_edges = frozenset(
        edge_between(u, v) for u, v in itertools.combinations(sorted(g.vertices, key=vkey), 2)
    )
    return Graph(g.vertices, all_edges - g.edges)


def delete_edges(g: Graph, pairs) -> Graph:
    doomed = set()
    for u, v in pairs:
        e = edge_between(u, v)
        if e not in g.edges:
            raise StructuralError(f"cannot delete missing edge {e}")
        doomed.add(e)
    return Graph(g.vertices, g.edges - doomed)


def subdivide_edge(g: Graph, u: Label, v: Label, new_label: Label) -> Graph:
    e = edge_between(u, v)
    if e not in g.edges:
        raise StructuralError(f"cannot subdivide missing edge {e}")
    if new_label in g.vertices:
        raise StructuralError(f"subdivision label {new_label!r} already in use")
    return Graph(
        g.vertices | {new_label},
        (g.edges - {e}) | {edge_between(u, new_label), edge_between(new_label, v)},
    )


def delete_vertex(g: Graph, v: Label) -> Graph:
    if v not in g.vertices:
        raise StructuralError(f"cannot delete missing vertex {v!r}")
    return Graph(g.vertices - {v}, frozenset(e for e in g.edges if v not in e))


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n}; the m-side is labeled 0..m-1, the n-side m..m+n-1."""
    left = range(m)
    right = range(m, m + n)
    return Graph.from_edges(((u, v) for u in left for v in right), vertices=range(m + n))


def h_graph(i: int) -> Graph:
    """K4 on {1,2,3,4} with i edges deleted, per the nonorientable blocks."""
    missing = {
        0: [],
        2: [(1, 3), (2, 3)],
        4: [(1, 2), (1, 3), (2, 3), (3, 4)],
    }
    if i not in missing:
        raise StructuralError(f"h_graph index must be 0, 2, or 4, got {i}")
    base = Graph.from_edges(itertools.combinations([1, 2, 3, 4], 2))
    return delete_edges(base, missing[i])


def j_graph(i: int) -> Graph:
    """K8 on {1..8} with i edges deleted: none, one 4-cycle, or two 4-cycles."""
    cycle_a = [(1, 2), (2, 3), (3, 4), (4, 1)]
    cycle_b = [(5, 6), (6, 7), (7, 8), (8, 5)]
    missing = {0: [], 4: cycle_b, 8: cycle_a + cycle_b}
    if i not in missing:
        raise StructuralError(f"j_graph index must be 0, 4, or 8, got {i}")
    base = Graph.from_edges(itertools.combinations(range(1, 9), 2))
    return delete_edges(base, missing[i])


def _plus_target(core: Graph) -> Graph:
    """x and y joined to the core plus a degree-2 vertex z adjacent to {x, y}."""
    edges = set(core.edges)
    for v in core.vertices:
        edges.add(edge_between("x", v))
        edges.add(edge_between("y", v))
    edges.add(edge_between("x", "z"))
    edges.add(edge_between("y", "z"))
    return Graph(core.vertices | {"x", "y", "z"}, frozenset(edges))


def _core_with_hub(block: Graph) -> Graph:
    """K1 (vertex 0) joined to a deleted-complete block on {1..k}."""
    edges = set(block.edges)
    for v in block.vertices:
        edges.add(edge_between(0, v))
    return Graph(block.vertices | {0}, frozenset(edges))


def phi_target(name: str) -> Graph:
    """Labeled target graph of a named catalog record.

    Searched records' graphs are written here.  A derived record's graph is its
    parent's with the record's ``op`` applied, as the catalog's record table
    states them.
    """
    if name in ("phi_7_0_plus", "phi_7_2_plus", "phi_7_4_plus", "phi_7_2_plus_star"):
        i = int(name.split("_")[2])
        return _plus_target(_core_with_hub(h_graph(i)))
    if name == "phi_11_8_plus_star":
        return _plus_target(_core_with_hub(j_graph(8)))
    if name == "phi_4_0":
        return complete(4)
    if name == "phi_5_0_star":
        return complete(5)
    if name == "phi_6_1":
        return delete_edges(complete(6), [(4, 5)])
    if name == "phi_8_4_star":
        return delete_edges(complete(8), [(4, 5), (5, 6), (6, 7), (7, 4)])
    if name == "phi_10_1_star":
        return delete_edges(complete(10), [(8, 9)])
    if name == "k_6_3":
        return complete_bipartite(6, 3)
    if name == "c4_sphere":
        return Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    if name == "klein_6_3":
        # Octahedron: K6 minus a perfect matching.
        return delete_edges(complete(6), [(0, 3), (1, 4), (2, 5)])
    from . import catalog  # here, not at module load: catalog imports this module

    try:
        rec = catalog.get_record(name)
    except CatalogError:
        rec = None
    if rec is None or rec.parent is None:
        raise StructuralError(f"unknown catalog target {name!r}")
    g = phi_target(rec.parent)
    if rec.op == "delete_degree2":
        return delete_vertex(g, "z")
    if rec.op == "handle":
        edges = set(g.edges)
        for c in rec.args:
            edges.update(edge_between(u, v) for u, v in zip(c, c[1:] + c[:1]))
        return Graph(g.vertices, frozenset(edges))
    raise StructuralError(f"{name}: {rec.op} does not fix a target graph")


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if len(g.vertices) > ISO_VERTEX_CAP or len(h.vertices) > ISO_VERTEX_CAP:
        raise StructuralError(f"isomorphism testing is capped at {ISO_VERTEX_CAP} vertices")
    return canonical_form(g) == canonical_form(h)


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
    verts = g.sorted_vertices()
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
            sig = [(colour[v], tuple(sorted(colour[w] for w in adj[v]))) for v in range(n)]
            rank = {s: i for i, s in enumerate(sorted(set(sig)))}
            colour = [rank[s] for s in sig]
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


# ---------------------------------------------------------------------------
# Graph expressions, as ``search --spec`` reads them.  Grammar:
#   expr  := OP(arg, ..., arg)   an operator of _OPERATORS, with its argument kinds
#   int   := [-]digits           decimal, no leading zeros
#   name  := an ASCII identifier that is not a Python keyword
#   label := int | name          a vertex label
#   pair  := label-label         an edge
# Spaces between tokens are optional.  The text must be ASCII; it is parsed by
# ``ast`` and only these forms are read from the tree: nothing is evaluated.
# ---------------------------------------------------------------------------

# operator -> (builder, argument kinds); a kind ending in "+" repeats, at least once
_OPERATORS = {
    "K": (complete, ("int",)),
    "empty": (empty_graph, ("int",)),
    "H": (h_graph, ("int",)),
    "J": (j_graph, ("int",)),
    "Kmn": (complete_bipartite, ("int", "int")),
    "phi": (phi_target, ("name",)),
    "join": (join, ("expr", "expr")),
    "union": (disjoint_union, ("expr", "expr")),
    "complement": (complement, ("expr",)),
    "delete": (lambda g, *pairs: delete_edges(g, pairs), ("expr", "pair+")),
    "subdivide": (lambda g, uv, label: subdivide_edge(g, *uv, label), ("expr", "pair", "label")),
}


class GraphExpr(NamedTuple):
    """Parsed graph expression; ``eval`` materializes the labeled graph."""

    op: str
    args: tuple

    def eval(self) -> Graph:
        return _OPERATORS[self.op][0](*(a.eval() if isinstance(a, GraphExpr) else a
                                         for a in self.args))


def parse_expr(text: str) -> GraphExpr:
    if not text.isascii():  # so that no identifier is NFKC-folded into another
        raise StructuralError("expression must be ASCII")
    text = text.strip()
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError, RecursionError) as exc:
        # ValueError: a NUL byte before Python 3.12
        raise StructuralError(f"malformed expression: {exc}") from None
    return _read(tree.body, "expr", text)


def _read(node: ast.AST, kind: str, text: str):
    """The value of one argument of the given kind."""
    if kind == "expr" and isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        op = node.func.id
        if op not in _OPERATORS:
            raise StructuralError(f"unknown operator {op!r}")
        kinds = _OPERATORS[op][1]
        if kinds[-1].endswith("+"):
            kinds = kinds[:-1] + (kinds[-1][:-1],) * max(1, len(node.args) - len(kinds) + 1)
        if node.keywords or len(node.args) != len(kinds):
            raise StructuralError(f"{op} takes arguments ({', '.join(_OPERATORS[op][1])})")
        return GraphExpr(op, tuple(_read(a, k, text) for a, k in zip(node.args, kinds)))
    if kind == "pair" and isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return _read(node.left, "label", text), _read(node.right, "label", text)
    if kind in ("name", "label") and isinstance(node, ast.Name):
        return node.id
    if kind in ("int", "label"):
        negative = isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
        digits = node.operand if negative else node
        if (isinstance(digits, ast.Constant) and type(digits.value) is int
                and ast.get_source_segment(text, digits) == str(digits.value)):  # not 0x10, 1_0 or 00
            return -digits.value if negative else digits.value
    got = ast.get_source_segment(text, node)
    raise StructuralError(f"expected {kind} in expression, got {got!r}")

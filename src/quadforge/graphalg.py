"""Construction algebra for the labeled target graphs.

Vertex naming follows the proofs: the join blocks use labels x, y, z for
the special vertices and small integers for the core, so derivations can be
audited by eye.  Generic expression evaluation keeps the left operand's
labels; colliding integer labels on the right are remapped to fresh
consecutive integers starting just above the largest integer label in
either operand (sorted order, so evaluation is deterministic).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .emap import Graph, Label, edge_between, parse_label, vkey
from .errors import CatalogError, StructuralError

if TYPE_CHECKING:
    import networkx as nx

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


_H_ALT_MISSING = [(1, 2), (3, 4)]  # the other K4-minus-2-edges block (a matching)


def phi_target(name: str) -> Graph:
    """Labeled target graph of a named catalog record.

    Searched records' graphs are written here.  A derived record's graph is its
    parent's with the record's ``op`` applied, as the catalog's record table
    states them; ``<name>_alt`` applies the same op to the parent's ``_alt``.
    """
    if name in ("phi_7_0_plus", "phi_7_2_plus", "phi_7_4_plus", "phi_7_2_plus_star"):
        i = int(name.split("_")[2])
        return _plus_target(_core_with_hub(h_graph(i)))
    if name == "phi_7_2_plus_star_alt":
        block = delete_edges(Graph.from_edges(itertools.combinations([1, 2, 3, 4], 2)), _H_ALT_MISSING)
        return _plus_target(_core_with_hub(block))
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

    stem = name.removesuffix("_alt")
    try:
        rec = catalog.get_record(stem)
    except CatalogError:
        rec = None
    if rec is None or rec.parent is None:
        raise StructuralError(f"unknown catalog target {name!r}")
    g = phi_target(rec.parent + name[len(stem):])
    if rec.op == "delete_degree2":
        return delete_vertex(g, "z")
    if rec.op == "handle":
        edges = set(g.edges)
        for c in rec.args:
            edges.update(edge_between(u, v) for u, v in zip(c, c[1:] + c[:1]))
        return Graph(g.vertices, frozenset(edges))
    raise StructuralError(f"{name}: {rec.op} does not fix a target graph")


def to_networkx(g: Graph) -> nx.Graph:
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges)
    return out


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if len(g.vertices) > ISO_VERTEX_CAP or len(h.vertices) > ISO_VERTEX_CAP:
        raise StructuralError(f"isomorphism testing is capped at {ISO_VERTEX_CAP} vertices")
    import networkx as nx

    return nx.is_isomorphic(to_networkx(g), to_networkx(h))


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
# Expression strings for the CLI.  Grammar (prefix notation, whitespace-free
# or not):
#   expr := K(n) | empty(n) | H(i) | J(i) | Kmn(m,n) | phi(name)
#         | join(expr, expr) | union(expr, expr) | complement(expr)
#         | delete(expr, u-v [, u-v ...]) | subdivide(expr, u-v, label)
# Vertex tokens in delete/subdivide are integer labels or x/y/z.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|-\d+|[(),-])")


@dataclass(frozen=True)
class GraphExpr:
    """Parsed graph expression; ``eval`` materializes the labeled graph."""

    op: str
    args: tuple

    def eval(self) -> Graph:
        op, args = self.op, self.args
        if op == "K":
            return complete(args[0])
        if op == "empty":
            return empty_graph(args[0])
        if op == "H":
            return h_graph(args[0])
        if op == "J":
            return j_graph(args[0])
        if op == "Kmn":
            return complete_bipartite(args[0], args[1])
        if op == "phi":
            return phi_target(args[0])
        if op == "join":
            return join(args[0].eval(), args[1].eval())
        if op == "union":
            return disjoint_union(args[0].eval(), args[1].eval())
        if op == "complement":
            return complement(args[0].eval())
        if op == "delete":
            return delete_edges(args[0].eval(), args[1])
        if op == "subdivide":
            (u, v), label = args[1], args[2]
            return subdivide_edge(args[0].eval(), u, v, label)
        raise StructuralError(f"unknown operator {op!r}")


def parse_expr(text: str) -> GraphExpr:
    tokens = _tokenize(text)
    expr, rest = _parse(tokens)
    if rest:
        raise StructuralError(f"trailing tokens in expression: {rest!r}")
    return expr


def _tokenize(text: str) -> list:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise StructuralError(f"bad character in expression at offset {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


def _int_token(tok: str) -> int:
    value = parse_label(tok)
    if not isinstance(value, int):
        raise StructuralError(f"expected an integer in expression, got {tok!r}")
    return value


def _parse(tokens):
    if not tokens:
        raise StructuralError("unexpected end of expression")
    head, rest = tokens[0], tokens[1:]
    if head in ("K", "empty", "H", "J"):
        nums, rest = _parse_args(rest, 1)
        return GraphExpr(head, (_int_token(nums[0]),)), rest
    if head == "Kmn":
        nums, rest = _parse_args(rest, 2)
        return GraphExpr(head, (_int_token(nums[0]), _int_token(nums[1]))), rest
    if head == "phi":
        names, rest = _parse_args(rest, 1)
        return GraphExpr(head, (names[0],)), rest
    if head in ("join", "union"):
        rest = _expect(rest, "(")
        a, rest = _parse(rest)
        rest = _expect(rest, ",")
        b, rest = _parse(rest)
        rest = _expect(rest, ")")
        return GraphExpr(head, (a, b)), rest
    if head == "complement":
        rest = _expect(rest, "(")
        a, rest = _parse(rest)
        rest = _expect(rest, ")")
        return GraphExpr(head, (a,)), rest
    if head == "delete":
        rest = _expect(rest, "(")
        a, rest = _parse(rest)
        pairs = []
        while rest and rest[0] == ",":
            pair, rest = _parse_pair(rest[1:])
            pairs.append(pair)
        rest = _expect(rest, ")")
        if not pairs:
            raise StructuralError("delete needs at least one u-v pair")
        return GraphExpr(head, (a, tuple(pairs))), rest
    if head == "subdivide":
        rest = _expect(rest, "(")
        a, rest = _parse(rest)
        rest = _expect(rest, ",")
        pair, rest = _parse_pair(rest)
        rest = _expect(rest, ",")
        if not rest:
            raise StructuralError("subdivide needs a fresh label")
        label, rest = parse_label(rest[0]), rest[1:]
        rest = _expect(rest, ")")
        return GraphExpr(head, (a, pair, label)), rest
    raise StructuralError(f"unknown expression head {head!r}")


def _parse_pair(tokens):
    # "u - v"; the tokenizer may glue "-v" into one negative-number token
    if len(tokens) >= 2 and re.fullmatch(r"-\d+", tokens[1]):
        tokens = [tokens[0], "-", tokens[1][1:]] + list(tokens[2:])
    if len(tokens) < 3 or tokens[1] != "-":
        raise StructuralError("expected a u-v vertex pair")
    return (parse_label(tokens[0]), parse_label(tokens[2])), tokens[3:]


def _parse_args(tokens, count):
    tokens = _expect(tokens, "(")
    vals = []
    for i in range(count):
        if i:
            tokens = _expect(tokens, ",")
        if not tokens:
            raise StructuralError("unexpected end of expression")
        vals.append(tokens[0])
        tokens = tokens[1:]
    tokens = _expect(tokens, ")")
    return vals, tokens


def _expect(tokens, tok):
    if not tokens or tokens[0] != tok:
        raise StructuralError(f"expected {tok!r} in expression")
    return tokens[1:]

"""Construction algebra for the labeled target graphs.

Each catalog record builds its own target graph from these constructors
(``catalog.target_graph``); this module names no record, and the ``phi``
operator of a graph expression looks a record's graph up there.  Vertex
naming follows the proofs: the apex blocks use labels x, y, z for the
special vertices and small integers for the core, so derivations can be
audited by eye.  Generic expression evaluation keeps the left operand's
labels; colliding integer labels on the right are remapped to fresh
consecutive integers starting just above the largest integer label in
either operand (sorted order, so evaluation is deterministic).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .emap import Graph, Label, edge_between, vkey
from .errors import StructuralError

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


def phi_target(name: str) -> Graph:
    """The target graph of the named catalog record (``catalog.target_graph``)."""
    from . import catalog  # here, not at module load: catalog imports this module

    return catalog.target_graph(name)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if len(g.vertices) > ISO_VERTEX_CAP or len(h.vertices) > ISO_VERTEX_CAP:
        raise StructuralError(f"isomorphism testing is capped at {ISO_VERTEX_CAP} vertices")
    return canonical_form(g) == canonical_form(h)


def canonical_form(g: Graph) -> tuple:
    """``(n, edges)`` of a relabelling onto 0..n-1 that depends only on the
    isomorphism class of g: two graphs are isomorphic iff their forms are equal.

    The form is ``_canonical_form``'s on g's core: its ranks and the end
    ranks of its edges.
    """
    ends = g.ends
    return _canonical_form(len(g.labels), list(zip(ends[0::2], ends[1::2])))


def _canonical_form(n: int, edges) -> tuple:
    """``canonical_form`` of the graph on range(n) with the given edge pairs.

    Colour refinement splits the vertices by degree, then by the colours of
    their neighbours, until the partition is stable or discrete.  While a
    cell has more than one vertex, each of its vertices is individualised in
    turn and the partition refined again; every discrete partition reached
    (a leaf) is a relabelling, and the least sorted edge list over all of
    them is the form.  Every choice depends only on the colours, so
    isomorphic graphs reach the same set of edge lists.

    The tree is pruned by automorphisms, which keeps the minimum (McKay &
    Piperno, "Practical graph isomorphism, II", 2014).  Two leaves with the
    same edge list give one: the map between their labellings.  So do twins
    (vertices with the same neighbours apart from each other), swapped.  An
    automorphism that fixes a node's individualised vertices maps the
    subtree of each of its children onto the subtree of the child's image,
    with the same edge lists.  So a child in the orbit of a child already
    explored, under the automorphisms known to fix the node, is skipped, and
    when a new automorphism puts the child being explored in such an orbit,
    the search returns to that node.
    """
    adj = [[] for _ in range(n)]
    heads, tails = [u for u, _ in edges], [v for _, v in edges]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    # Twins have equal open neighbourhoods if apart, equal closed ones if
    # adjacent.  A vertex has twins of one kind only, and no open
    # neighbourhood equals a closed one, so one dict keyed by both names each
    # class by its first vertex.
    twin, first = [], {}
    for v, a in enumerate(adj):
        nbrs = frozenset(a)
        twin.append(first.setdefault(nbrs, first.setdefault(nbrs | {v}, v)))
    autos: list = []  # each automorphism found at a leaf, as the list of images
    leaves: dict = {}  # edge list -> the colouring of the first leaf with it
    path: list = []  # per node on the path: [fixed vertices, orbit forest, tried, child]
    best = None

    # A round ranks the vertices by colour, then by the sorted colours of
    # their neighbours.  Vertices of one colour have one degree, so two such
    # lists compare as their counts of colour 0, 1, ..., the larger count
    # first: as the sums of weight[c] = n**(2n-1-c) over the neighbours, the
    # larger sum first.  A count is below n and a colour below 2n, so a sum
    # is below top.
    weight = [n ** (2 * n - 1 - c) for c in range(2 * n)]
    top = n ** (2 * n)

    def refine(colour: list) -> list:
        count = len(set(colour))
        while True:
            at = [weight[c] for c in colour].__getitem__
            sig = [c * top - sum(map(at, a)) for c, a in zip(colour, adj)]
            rank = {s: i for i, s in enumerate(sorted(set(sig)))}
            colour = list(map(rank.__getitem__, sig))
            # stable, or discrete: a further round, sorting by the old colours
            # first, would change nothing
            if len(rank) == count or len(rank) == n:
                return colour
            count = len(rank)

    def root(forest: list, v: int) -> int:
        while forest[v] != v:
            v = forest[v]
        return v

    def merge(forest: list, gamma: list) -> None:
        for v, w in enumerate(gamma):
            v, w = root(forest, v), root(forest, w)
            if v != w:
                forest[max(v, w)] = min(v, w)

    def leaf(colour: list) -> int | None:
        """Take the leaf's edge list; the depth to return to, if it shows the
        child being explored there repeats one already explored."""
        nonlocal best
        # edge (a, b), a < b, as a * n + b: the same order as the pairs
        form = tuple(sorted([a * n + b if a < b else b * n + a
                             for a, b in zip(map(colour.__getitem__, heads),
                                             map(colour.__getitem__, tails))]))
        if best is None or form < best:
            best = form
        earlier = leaves.setdefault(form, colour)
        if earlier is colour:
            return None
        vertex = [0] * n
        for v, c in enumerate(colour):
            vertex[c] = v
        gamma = [vertex[c] for c in earlier]
        autos.append(gamma)
        for depth, (fixed, forest, tried, child) in enumerate(path):
            if any(gamma[v] != v for v in fixed):
                return None  # nor does it fix the deeper nodes' vertices
            merge(forest, gamma)
            r = root(forest, child)
            if any(root(forest, u) == r for u in tried):
                return depth
        return None

    def descend(colour: list, fixed: list) -> int | None:
        """Explore the node that individualised ``fixed``; the depth to
        return to, or None."""
        count = max(colour, default=-1) + 1  # refined colours are 0..count-1
        if count == n:
            return leaf(colour)
        cells = [[] for _ in range(count)]
        for v, c in enumerate(colour):
            cells[c].append(v)
        target = min((len(vs), c) for c, vs in enumerate(cells) if len(vs) > 1)[1]
        forest = twin[:]
        for gamma in autos:
            if all(gamma[v] == v for v in fixed):
                merge(forest, gamma)
        depth, tried = len(path), []
        node = [fixed, forest, tried, None]
        path.append(node)
        for v in cells[target]:
            r = root(forest, v)
            if any(root(forest, u) == r for u in tried):
                continue
            node[3] = v
            back = descend(refine([2 * c + (c == target and w != v)
                                   for w, c in enumerate(colour)]), fixed + [v])
            if back is not None and back < depth:
                path.pop()
                return back
            tried.append(v)
        path.pop()
        return None

    degrees = sorted({len(a) for a in adj})  # one round from a single colour ranks these
    descend(refine([degrees.index(len(a)) for a in adj]), [])
    return n, tuple([divmod(e, n) for e in best])


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
    import ast  # on use: only spec files hold graph expressions, not gen or verify

    text = text.strip()
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError, RecursionError) as exc:
        # ValueError: a NUL byte before Python 3.12
        raise StructuralError(f"malformed expression: {exc}") from None
    return _read(tree.body, "expr", text)


def _read(node: ast.AST, kind: str, text: str):
    """The value of one argument of the given kind."""
    import ast
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

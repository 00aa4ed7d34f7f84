"""Labeled graph constructors, expression parsing, and isomorphism checks."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nx_oracle import vf2_isomorphic
from quadforge import graphalg
from quadforge.emap import Graph
from quadforge.errors import StructuralError


def degrees(g: Graph) -> list:
    return sorted(g.degree(v) for v in g.vertices)


def test_complete_and_bipartite_counts():
    assert len(graphalg.complete(6).edges) == 15
    k = graphalg.complete_bipartite(6, 3)
    assert len(k.vertices) == 9
    assert len(k.edges) == 18
    assert degrees(k) == [3, 3, 3, 3, 3, 3, 6, 6, 6]


def test_join_and_complement():
    j = graphalg.join(graphalg.empty_graph(2), graphalg.empty_graph(3))
    assert len(j.edges) == 6
    c = graphalg.complement(graphalg.complete(4))
    assert len(c.edges) == 0
    assert len(c.vertices) == 4


def test_delete_edges_and_vertex():
    g = graphalg.delete_edges(graphalg.complete(4), [(0, 1)])
    assert not g.has_edge(0, 1)
    assert len(g.edges) == 5
    h = graphalg.delete_vertex(graphalg.complete(4), 3)
    assert len(h.vertices) == 3
    assert len(h.edges) == 3


def test_subdivide_edge():
    g = graphalg.subdivide_edge(graphalg.complete(3), 0, 1, "m")
    assert not g.has_edge(0, 1)
    assert g.has_edge(0, "m") and g.has_edge(1, "m")
    assert g.degree("m") == 2


def test_block_graphs():
    # Deleting i edges from K4 / K8 in a fixed order.
    assert len(graphalg.h_graph(0).edges) == 6
    assert len(graphalg.h_graph(2).edges) == 4
    assert len(graphalg.h_graph(4).edges) == 2
    assert len(graphalg.j_graph(0).edges) == 28
    assert len(graphalg.j_graph(4).edges) == 24
    assert len(graphalg.j_graph(8).edges) == 20


def test_apex_target_shapes():
    for i in (0, 2, 4):
        g = graphalg.phi_target(f"phi_7_{i}_plus")
        assert len(g.vertices) == 8
        assert len(g.edges) == 22 - i
        assert g.degree("x") == 6 and g.degree("y") == 6
        assert g.degree("z") == 2
        assert g.degree(0) == 6
    for i in (0, 4, 8):
        g = graphalg.phi_target(f"phi_11_{i}_plus_star")
        assert len(g.vertices) == 12
        assert len(g.edges) == 56 - i


def test_degree2_deleted_targets():
    parent = graphalg.phi_target("phi_7_0_plus")
    child = graphalg.phi_target("q7_1")
    assert len(child.vertices) == len(parent.vertices) - 1
    assert "z" not in child.vertices
    assert len(child.edges) == len(parent.edges) - 2


def test_isomorphism():
    a = graphalg.complete_bipartite(2, 3)
    b = graphalg.relabel(a, {v: f"n{v}" for v in a.vertices})
    assert graphalg.are_isomorphic(a, b)
    assert not graphalg.are_isomorphic(a, graphalg.complete(5))
    with pytest.raises(StructuralError, match="capped at 16 vertices"):
        graphalg.are_isomorphic(graphalg.complete(17), graphalg.complete(17))


def cycles(*lengths: int) -> Graph:
    """Disjoint cycles of the given lengths on consecutive integers."""
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return Graph.from_edges(edges)


def test_canonical_form_separates_what_refinement_cannot():
    # regular graphs of one degree: colour refinement alone leaves one cell
    assert graphalg.canonical_form(cycles(6)) != graphalg.canonical_form(cycles(3, 3))
    assert graphalg.canonical_form(cycles(8)) != graphalg.canonical_form(cycles(4, 4))
    assert graphalg.canonical_form(cycles(8)) != graphalg.canonical_form(cycles(5, 3))
    prism, k33 = graphalg.complement(cycles(6)), graphalg.complement(cycles(3, 3))
    assert graphalg.canonical_form(prism) != graphalg.canonical_form(k33)
    assert graphalg.canonical_form(graphalg.empty_graph(3)) == (3, ())
    assert graphalg.canonical_form(graphalg.complete(8))[1] == tuple(
        itertools.combinations(range(8), 2))


@st.composite
def small_graphs(draw, n=None):
    n = draw(st.integers(0, 8)) if n is None else n
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(chosen, vertices=range(n))


def _relabelled(g: Graph, data) -> Graph:
    order = sorted(g.vertices)
    perm = data.draw(st.permutations(order))
    return graphalg.relabel(g, {v: f"v{p}" for v, p in zip(order, perm)})


def _two_switch(g: Graph, draw) -> Graph:
    """g with edges ab, cd swapped for ac, bd, when some such swap keeps it simple."""
    swaps = [(e, f) for e, f in itertools.permutations(sorted(g.edges), 2)
             if len({*e, *f}) == 4 and not g.has_edge(e[0], f[0])
             and not g.has_edge(e[1], f[1])]
    if not swaps:
        return g
    (a, b), (c, d) = draw(st.sampled_from(swaps))
    edges = (set(g.edges) - {(a, b), (c, d)}) | {(a, c), (b, d)}
    return Graph.from_edges(edges, vertices=g.vertices)


CUBE = Graph.from_edges([(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6),
                         (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)])


@st.composite
def regular_graphs(draw):
    """Regular graphs reached from a few bases by 2-switches: colour
    refinement leaves one cell, and most of them are not vertex-transitive."""
    g = draw(st.sampled_from([cycles(8), cycles(3, 4), CUBE, graphalg.complement(CUBE),
                              graphalg.complement(cycles(7))]))
    for _ in range(draw(st.integers(1, 4))):
        g = _two_switch(g, draw)
    return g


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(small_graphs(), regular_graphs()), data=st.data())
def test_canonical_form_ignores_labels(g, data):
    assert graphalg.canonical_form(_relabelled(g, data)) == graphalg.canonical_form(g)


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(small_graphs(), regular_graphs()), data=st.data())
def test_canonical_form_agrees_with_vf2(g, data):
    how = data.draw(st.sampled_from(["relabel", "two_switch", "independent"]))
    if how == "relabel":
        h = _relabelled(g, data)
    elif how == "two_switch":  # same degree sequence, often another class
        h = _relabelled(_two_switch(g, data.draw), data)
    else:
        h = data.draw(small_graphs(n=len(g.vertices)))
    same = graphalg.canonical_form(g) == graphalg.canonical_form(h)
    assert same == vf2_isomorphic(g, h)


def test_parse_expr_basic():
    assert graphalg.parse_expr("K(5)").eval() == graphalg.complete(5)
    assert graphalg.parse_expr("Kmn(6,3)").eval() == graphalg.complete_bipartite(6, 3)
    assert graphalg.parse_expr("H(2)").eval() == graphalg.h_graph(2)


def test_parse_expr_compound():
    got = graphalg.parse_expr("join(empty(2), empty(3))").eval()
    assert got == graphalg.join(graphalg.empty_graph(2), graphalg.empty_graph(3))
    got = graphalg.parse_expr("delete(K(4), 0-1)").eval()
    assert not got.has_edge(0, 1)


def test_parse_expr_rejects_garbage():
    with pytest.raises(StructuralError):
        graphalg.parse_expr("frobnicate(3)")
    with pytest.raises(StructuralError):
        graphalg.parse_expr("K(4")


# A few records' targets, among them ones labelled x, y and z.
PHI_NAMES = ["phi_6_1", "k_6_3", "klein_6_3", "c4_sphere", "phi_7_2_plus", "q7_1"]
FRESH_LABELS = ["x", "y", "z", -1, -7, 40]


@st.composite
def expressions(draw, depth=3):
    """(text, graph): an expression over every operator, spelled as documented
    with optional spaces, and its graph built by the constructors directly."""

    def sp() -> str:
        return draw(st.sampled_from(["", " "]))

    def call(op, *args) -> str:
        return f"{op}{sp()}({sp()}" + f"{sp()},{sp()}".join(args) + f"{sp()})"

    def pair(u, v) -> str:
        if draw(st.booleans()):
            u, v = v, u
        return f"{u}{sp()}-{sp()}{v}"

    leaves = ["K", "empty", "H", "J", "Kmn", "phi"]
    inner = ["join", "union", "complement", "delete", "subdivide"]
    op = draw(st.sampled_from(leaves + inner if depth else leaves))
    if op in ("K", "empty"):
        k = draw(st.integers(0, 5))
        return call(op, str(k)), (graphalg.complete if op == "K" else graphalg.empty_graph)(k)
    if op in ("H", "J"):
        i = draw(st.sampled_from([0, 2, 4] if op == "H" else [0, 4, 8]))
        return call(op, str(i)), (graphalg.h_graph if op == "H" else graphalg.j_graph)(i)
    if op == "Kmn":
        m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        return call(op, str(m), str(n)), graphalg.complete_bipartite(m, n)
    if op == "phi":
        name = draw(st.sampled_from(PHI_NAMES))
        return call(op, name), graphalg.phi_target(name)
    a, g = draw(expressions(depth - 1))
    if op in ("join", "union"):
        b, h = draw(expressions(depth - 1))
        return call(op, a, b), (graphalg.join if op == "join" else graphalg.disjoint_union)(g, h)
    if op == "complement":
        return call(op, a), graphalg.complement(g)
    edges = g.sorted_edges()
    fresh = [v for v in FRESH_LABELS if v not in g.vertices]
    if not edges or not fresh:
        return a, g
    if op == "delete":
        doomed = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=3, unique=True))
        return (call(op, a, *(pair(u, v) for u, v in doomed)),
                graphalg.delete_edges(g, doomed))
    (u, v), label = draw(st.sampled_from(edges)), draw(st.sampled_from(fresh))
    return call(op, a, pair(u, v), str(label)), graphalg.subdivide_edge(g, u, v, label)


@settings(max_examples=300, deadline=None)
@given(expr=expressions())
def test_parse_expr_builds_what_it_spells(expr):
    text, graph = expr
    assert graphalg.parse_expr(text).eval() == graph


def test_parse_expr_reads_negative_and_named_labels():
    got = graphalg.parse_expr("delete(subdivide(K(3), 0 - 1, -4), -4--0, 2-1)").eval()
    assert got.sorted_edges() == [(-4, 1), (0, 2)]
    got = graphalg.parse_expr("subdivide(phi(phi_7_2_plus), x-z, -1)").eval()
    assert got.has_edge(-1, "x") and got.has_edge(-1, "z") and not got.has_edge("x", "z")


@pytest.mark.parametrize("text", [
    "K(x)", "K(4", "K(4))", "K()", "K(4, 5)", "K(n=4)", "K(0x4)", "K(1_0)", "K(True)",
    "frobnicate(3)", "K(4)(3)", "x", "delete(K(4))", "delete(K(4), 0)", "delete(K(4), 0-1-2)",
    "subdivide(K(4), 0-1)", "subdivide(K(4), 0-1, if)", "phi(5)", "K(\x00)", "K(4)\x00",
    "(" * 300 + "K(4)" + ")" * 300, "-" * 5000 + "1", "subdivide(K(4), 0-1, é)",
    "subdivide(K(4), 0-1, ﬁ)",  # NFKC would fold the ligature into "fi"
    "delete(K(4), 00-1)", "delete(K(4), 1-00)", "K(00)",
])
def test_parse_expr_rejects_what_the_grammar_does_not_spell(text):
    with pytest.raises(StructuralError):
        graphalg.parse_expr(text)

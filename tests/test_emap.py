"""Face tracing, surface invariants, and certification on hand-checkable maps."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quadforge import catalog, emap, graphalg, planner, serialize, surgery
from quadforge.emap import Embedding, Graph
from quadforge.errors import StructuralError


def square_sphere() -> Embedding:
    # C4 embedded in the sphere: two square faces.
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
    rot = {v: tuple(g.incident_edges(v)) for v in g.vertices}
    sig = {e: 1 for e in g.edges}
    return Embedding(g, rot, sig)


def k4_projective() -> Embedding:
    # K4 with every face a quadrilateral: Euler characteristic 1.
    g = graphalg.complete(4)
    rot = {
        0: ((0, 1), (0, 2), (0, 3)),
        1: ((0, 1), (1, 2), (1, 3)),
        2: ((0, 2), (2, 3), (1, 2)),
        3: ((0, 3), (1, 3), (2, 3)),
    }
    sig = {(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): -1, (1, 3): -1, (2, 3): -1}
    return Embedding(g, rot, sig)


def test_sphere_square_faces():
    emb = square_sphere()
    faces = emb.faces()
    assert len(faces) == 2
    assert all(len(w) == 4 for w in faces)
    assert emap.euler_characteristic(emb) == 2
    assert emap.is_orientable(emb)
    assert emap.is_quadrangular(emb)


def test_sphere_square_not_face_simple():
    # Both faces share all four edges: the dual has parallel edges.
    assert not emap.is_face_simple(square_sphere())


def test_k4_quadrangulation_invariants():
    emb = k4_projective()
    assert emap.is_quadrangular(emb)
    assert emap.euler_characteristic(emb) == 1
    assert not emap.is_orientable(emb)
    assert len(emb.faces()) == 3


def test_k4_nearly_face_simple():
    emb = k4_projective()
    assert not emap.is_face_simple(emb)
    for v in range(4):
        assert emap.is_nearly_face_simple_except(emb, v)


def test_each_edge_used_twice():
    emb = k4_projective()
    uses = {}
    for w in emb.faces():
        for e in w.edges:
            uses[e] = uses.get(e, 0) + 1
    assert all(c == 2 for c in uses.values())
    assert set(uses) == emb.graph.edges


@pytest.mark.parametrize("vertices, edges, message", [
    ({0, 1}, {(1, 0)}, "not normalized"),
    ({0, 1}, {(0, 0)}, "loop"),
    ({0}, {(0, 1)}, "outside the vertex set"),
    ({0, 1}, {(0, 1, 2)}, "not a pair"),
    ({0, "a"}, {("a", 0)}, "not normalized"),
])
def test_graph_refuses_bad_edges(vertices, edges, message):
    with pytest.raises(StructuralError, match=message):
        Graph(frozenset(vertices), frozenset(edges))


def test_graph_is_a_value_of_its_vertices_and_edges():
    g = Graph(frozenset({0, 1, 2}), frozenset({(0, 1), (1, 2)}))
    h = Graph.from_edges([(2, 1), (1, 0)])
    assert g == h and hash(g) == hash(h) and g != Graph.from_edges([(0, 1)])
    assert g != (g.vertices, g.edges) and (g.vertices, g.edges) != g
    assert g._incidence is g._incidence and g._incidence[1] == ((0, 1), (1, 2))
    assert repr(g) == f"Graph(vertices={g.vertices!r}, edges={g.edges!r})"


def test_certify_fields():
    cert = emap.certify(k4_projective())
    assert cert.n == 4
    assert cert.edges == 6
    assert cert.t == 0
    assert cert.chi == 1
    assert not cert.orientable
    assert cert.quadrangular
    assert not cert.face_simple
    assert cert.universal == (0, 1, 2, 3)
    assert cert.min_degree == 3
    assert cert.minimal


def test_certificate_text_round_trip_values():
    text = emap.certify(square_sphere()).to_text()
    lines = dict(line.split("=", 1) for line in text.splitlines())
    assert lines["orientable"] == "true"
    assert lines["face_simple"] == "false"
    assert lines["chi"] == "2"


def test_bad_rotation_rejected():
    g = Graph.from_edges([(0, 1), (1, 2)])
    rot = {0: ((0, 1),), 1: ((0, 1),), 2: ((1, 2),)}  # (1,2) missing at 1
    with pytest.raises(StructuralError):
        Embedding(g, rot, {(0, 1): 1, (1, 2): 1})


def test_bad_signature_rejected():
    g = Graph.from_edges([(0, 1)])
    rot = {0: ((0, 1),), 1: ((0, 1),)}
    with pytest.raises(StructuralError):
        Embedding(g, rot, {(0, 1): 0})


def test_embedding_from_faces_rebuilds_k4():
    emb = k4_projective()
    walks = [w.vertices for w in emb.faces()]
    rebuilt = emap.embedding_from_faces(walks)
    got = sorted(emap.normalize_walk(w.vertices) for w in rebuilt.faces())
    want = sorted(emap.normalize_walk(w) for w in walks)
    assert got == want
    assert emap.euler_characteristic(rebuilt) == 1


def test_mixed_labels_sort_consistently():
    g = Graph.from_edges([(0, "x"), (0, 1), (1, "x")])
    assert g.sorted_vertices() == [0, 1, "x"]
    assert g.sorted_edges() == [(0, 1), (0, "x"), (1, "x")]


def test_universal_vertices():
    assert emap.universal_vertices(graphalg.complete(5)) == {0, 1, 2, 3, 4}
    g = Graph.from_edges([(0, 1), (1, 2)])
    assert emap.universal_vertices(g) == {1}


# ---------------------------------------------------------------------------
# Properties of the integer kernel on every shipped catalog witness.
# ---------------------------------------------------------------------------

WITNESS_NAMES = [rec.name for rec in catalog.record_table()]
# strings never made only of digits: those cannot be written (see test_serialize)
LABELS = st.one_of(st.integers(-50, 500), st.from_regex(r"[a-z_][a-z_0-9]{0,3}", fullmatch=True))


def face_multiset(emb: Embedding, mapping=None) -> Counter:
    rename = mapping.get if mapping is not None else (lambda v: v)
    return Counter(emap.normalize_walk(tuple(rename(v) for v in w.vertices))
                   for w in emb.faces())


def switching_equivalent(a: Embedding, b: Embedding) -> bool:
    """Some vertex switching (reverse the rotation, negate the incident
    edge signs) turns a into b."""
    if a.graph != b.graph:
        return False
    g = a.graph
    root = g.sorted_vertices()[0]
    for lam_root in (1, -1):
        lam = {root: lam_root}
        stack = [root]
        while stack:
            u = stack.pop()
            for e in g.incident_edges(u):
                w = emap.other_end(e, u)
                if w not in lam:
                    lam[w] = lam[u] * a.signature[e] * b.signature[e]
                    stack.append(w)
        if any(a.signature[e] * lam[e[0]] * lam[e[1]] != b.signature[e] for e in g.edges):
            continue
        if all(len(a.rotation[v]) < 3 or b.rotation[v] in cyclic_shifts(a.rotation[v], lam[v])
               for v in g.vertices):
            return True
    return False


def cyclic_shifts(cyc: tuple, direction: int):
    seq = cyc if direction == 1 else cyc[::-1]
    return [seq[i:] + seq[:i] for i in range(len(seq))]


@pytest.mark.parametrize("name", WITNESS_NAMES)
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_relabelled_witness_properties(name, data):
    emb = catalog.get_witness(name)
    vertices = emb.graph.sorted_vertices()
    labels = data.draw(st.lists(LABELS, min_size=len(vertices), max_size=len(vertices),
                                unique=True))
    mapping = dict(zip(vertices, labels))
    moved = surgery.relabel_embedding(emb, mapping)

    assert face_multiset(moved) == face_multiset(emb, mapping)
    assert serialize.parse_emap(serialize.write_emap(moved)) == moved
    rebuilt = emap.embedding_from_faces([w.vertices for w in moved.faces()])
    assert face_multiset(rebuilt) == face_multiset(moved)
    assert switching_equivalent(rebuilt, moved)


@pytest.mark.parametrize("ordered", [True, False])
@pytest.mark.parametrize("name", WITNESS_NAMES)
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_relabel_carries_traced_faces(name, ordered, data):
    emb = catalog.get_witness(name)
    emb.faces()
    vertices = emb.graph.sorted_vertices()
    labels = data.draw(st.lists(LABELS, min_size=len(vertices), max_size=len(vertices),
                                unique=True))
    if ordered:
        labels.sort(key=emap.vkey)
    moved = surgery.relabel_embedding(emb, dict(zip(vertices, labels)))
    assert moved.faces() == Embedding(moved.graph, moved.rotation, moved.signature).faces()


def test_insert_degree2_output_rebuilds_to_itself():
    table = surgery.FaceTable.from_embedding(catalog.get_witness("phi_5_0_star"))
    face = table.faces()[0]
    z = table.insert_degree2(face, min(face))
    out = emap.embedding_from_faces(table.faces())
    assert out.graph.degree(z) == 2
    assert emap.embedding_from_faces([w.vertices for w in out.faces()]) == out


def test_pinched_face_set_rejected():
    # two square spheres sharing vertex 0: its umbrella splits into two disks
    faces = [(0, 1, 2, 3), (0, 3, 2, 1), (0, 4, 5, 6), (0, 6, 5, 4)]
    with pytest.raises(StructuralError, match="pinched"):
        emap.embedding_from_faces(faces)


def test_edge_used_three_times_rejected():
    with pytest.raises(StructuralError, match="used 3 times"):
        emap.embedding_from_faces([(0, 1, 2), (0, 1, 2), (0, 1, 2)])


def test_label_views_rebuild_the_integer_core():
    embs = [catalog.get_witness(rec.name) for rec in catalog.record_table()]
    w = catalog.get_witness("phi_11_4_plus_star")
    # ranks permuted: ints reversed, and every label made a string
    embs += [surgery.relabel_embedding(w, {v: 99 - v if type(v) is int else v for v in w.labels}),
             surgery.relabel_embedding(w, {v: f"v{v}" for v in w.labels})]
    for n, kind in ((50, "nonorientable"), (49, "orientable")):
        for t in range(n - 3):
            req = planner.ParamRequest(n=n, t=t, kind=kind)
            if planner.admissible(req):
                emb, cert, _ = planner.generate(req)
                assert emap.certify(emb) == cert and serialize.write_emap(emb)
                # the output path runs on the core: no label-level view was built
                assert not {"graph", "rotation", "signature"} & set(vars(emb))
                embs.append(emb)
    for emb in embs:
        again = Embedding(emb.graph, emb.rotation, emb.signature)
        assert again == emb
        assert serialize.write_emap(again) == serialize.write_emap(emb)


def test_an_edgeless_one_vertex_embedding_certifies():
    emb = Embedding(Graph.from_edges([], [0]), {0: ()}, {})
    cert = emap.certify(emb)
    assert (cert.n, cert.edges, cert.chi, cert.min_degree) == (1, 0, 1, 0)
    assert serialize.write_emap(emb) == "emap 1\nV 1\nE 0\nr 0 : \n"

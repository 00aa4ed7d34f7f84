"""Surgeries: diamond sum, handle augmentation, degree-2 moves."""

from __future__ import annotations

import functools
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from labelled import degree, embedding, rotation, signature
from nx_oracle import vf2_isomorphic
from quadforge import catalog, emap, graphalg, search, surgery
from quadforge.errors import SurgeryError


def quad_embedding(g, chi, orientable=None):
    res = search.search_exact(
        search.WitnessSpec(graph=g, chi=chi, orientable=orientable))
    assert res.status == "found"
    return res.embedding


def k23_sphere():
    return quad_embedding(graphalg.complete_bipartite(2, 3), 2, True)


def k4_projective():
    return quad_embedding(graphalg.complete(4), 1)


def test_relabel_embedding():
    emb = k4_projective()
    out = surgery.relabel_embedding(emb, {0: "a", 1: "b", 2: "c", 3: "d"})
    assert set(out.graph.vertices) == {"a", "b", "c", "d"}
    assert emap.euler_characteristic(out) == 1
    assert emap.is_quadrangular(out)


def test_relabel_requires_injective_total():
    emb = k4_projective()
    with pytest.raises(SurgeryError):
        surgery.relabel_embedding(emb, {0: "a", 1: "a", 2: "c", 3: "d"})
    with pytest.raises(SurgeryError):
        surgery.relabel_embedding(emb, {0: "a"})


def fresh(emb, prefix):
    return surgery.relabel_embedding(
        emb, {v: f"{prefix}{v}" for v in emb.graph.vertices})


def test_diamond_sum_euler_law():
    a = k23_sphere()
    b = fresh(k23_sphere(), "p")
    # degree-3 vertices of K_{2,3} are the side-2 vertices 0 and 1
    out = surgery.diamond_sum(a, 0, b, "p0", offset=0)
    assert emap.euler_characteristic(out) == 2 + 2 - 2
    assert emap.is_quadrangular(out)
    # the two rims are identified: n = n_a + n_b - degree - 2
    assert len(out.graph.vertices) == 5 + 5 - 3 - 2
    assert emap.is_orientable(out)


def test_diamond_sum_mixed_orientability():
    a = k4_projective()
    b = fresh(k23_sphere(), "p")
    out = surgery.diamond_sum(a, 0, b, "p0")
    assert emap.euler_characteristic(out) == 1 + 2 - 2
    assert not emap.is_orientable(out)
    assert emap.is_quadrangular(out)


def test_diamond_sum_needs_degree_three():
    a = k23_sphere()
    with pytest.raises(SurgeryError):
        surgery.diamond_sum(a, 2, a, 3)  # degree-2 vertices


def test_diamond_sum_rejects_label_collisions():
    a = k4_projective()
    b = k23_sphere()
    # interior vertex 1 of the second summand clashes with the first's
    with pytest.raises(SurgeryError, match=re.escape("label collision between summands: [1]")):
        surgery.diamond_sum(a, 0, b, 0)


def test_delete_insert_degree2_round_trip():
    emb = k23_sphere()
    # insert a degree-2 vertex into some face, then delete it again
    table = surgery.FaceTable.from_embedding(emb)
    face = table.faces()[0]
    z = table.insert_degree2(face, face[0])
    bigger = table.embedding()
    assert degree(bigger.graph, z) == 2
    assert emap.euler_characteristic(bigger) == 2
    assert emap.is_quadrangular(bigger)
    table.delete_degree2(z)
    back = table.embedding()
    assert vf2_isomorphic(back.graph, emb.graph)
    assert emap.euler_characteristic(back) == 2


def test_delete_degree2_requires_degree2():
    table = surgery.FaceTable.from_embedding(k23_sphere())
    with pytest.raises(SurgeryError):
        table.delete_degree2(0)  # degree 3


def test_handle_augment_adds_handle():
    emb = quad_embedding(graphalg.phi_target("phi_8_4_star"), -4, True)
    table = surgery.FaceTable.from_embedding(emb)
    sites = table.handle_sites((4, 5, 6, 7))
    if not sites:
        pytest.skip("this witness has no usable site; the catalog one does")
    table.handle(sites[0])
    out = table.embedding()
    assert emap.euler_characteristic(out) == -6
    assert emap.is_orientable(out)
    assert emap.is_quadrangular(out)
    for u, v in ((4, 5), (5, 6), (6, 7), (4, 7)):
        assert emap.edge_between(u, v) in out.graph.edges


def test_find_handle_sites_rejects_existing_edges():
    table = surgery.FaceTable.from_embedding(k23_sphere())
    assert table.handle_sites((0, 2, 1, 3)) == []


def fresh_relabel(emb: emap.Embedding, taken) -> tuple:
    """``(relabelled, mapping)``: ``emb`` on ints above every int in ``taken``,
    numbered in ``vkey`` order, so the mapping keeps that order."""
    base = max((v for v in taken if isinstance(v, int)), default=-1) + 1
    mapping = {v: base + i for i, v in enumerate(emb.labels)}
    return surgery.relabel_embedding(emb, mapping), mapping


@pytest.mark.parametrize("name", ["phi_11_8_plus_star", "q11_5"])
def test_fresh_relabel_carries_traced_faces(name):
    # more than 10 vertices, string labels among them, and a taken set to clear
    emb = catalog.get_witness(name)
    emb.faces()
    taken = {"x", 3, 40, "z"}
    moved, mapping = fresh_relabel(emb, taken)
    assert len(mapping) > 10
    assert min(mapping.values()) == 41
    assert tuple(mapping[v] for v in emb.labels) == moved.labels
    assert moved.faces() == embedding(moved.graph, rotation(moved), signature(moved)).faces()


@functools.cache
def summable_pairs() -> tuple:
    """``(a, (b', mapping), sites)`` over catalog witnesses and ``K_{m,n}``.

    ``b'`` is ``b`` on labels clear of ``a``'s; ``sites`` are the vertex pairs
    of ``a`` and ``b`` of equal degree >= 3.
    """
    pool = [catalog.get_witness(rec.name) for rec in catalog.record_table()]
    pool += [catalog.build_kmn(6, n) for n in range(2, 8)]
    pool += [catalog.build_kmn(10, n) for n in range(2, 5)]
    pairs = []
    for a in pool:
        for b in pool:
            sites = tuple((va, vb) for va in a.labels
                          for vb in b.labels
                          if degree(a.graph, va) == degree(b.graph, vb) >= 3)
            if sites:
                pairs.append((a, fresh_relabel(b, a.graph.vertices), sites))
    return tuple(pairs)


def ordered_ints(data, count: int, low: int) -> list:
    return sorted(data.draw(st.lists(st.integers(low, low + 500), min_size=count,
                                     max_size=count, unique=True)))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_diamond_sum_laws(data):
    a, (b, bmap), sites = data.draw(st.sampled_from(summable_pairs()))
    va, vb = data.draw(st.sampled_from(sites))
    vb = bmap[vb]
    d = degree(a.graph, va)
    offset = data.draw(st.integers(0, d - 1))
    reflect = data.draw(st.sampled_from([None, False, True]))
    try:
        out = surgery.diamond_sum(a, va, b, vb, offset=offset, reflect=reflect)
    except SurgeryError:
        # a parallel edge, or a fixed reflection that breaks the orientability
        # contract: the sum refuses rather than return a wrong embedding
        assume(False)
    assert len(out.graph.vertices) == len(a.graph.vertices) + len(b.graph.vertices) - d - 2
    assert emap.euler_characteristic(out) == (
        emap.euler_characteristic(a) + emap.euler_characteristic(b) - 2)
    assert emap.is_quadrangular(out)
    assert emap.is_orientable(out) == (emap.is_orientable(a) and emap.is_orientable(b))

    # order-keeping relabels of the summands give the relabelled sum's faces
    low = data.draw(st.integers(-20, 20))
    fa = dict(zip(a.labels, ordered_ints(data, len(a.graph.vertices), low)))
    fb = dict(zip(b.labels,
                  ordered_ints(data, len(b.graph.vertices), max(fa.values()) + 1)))
    moved = surgery.diamond_sum(surgery.relabel_embedding(a, fa), fa[va],
                                surgery.relabel_embedding(b, fb), fb[vb],
                                offset=offset, reflect=reflect)
    rename = {v: fa[v] if v in fa else fb[v] for v in out.graph.vertices}
    assert Counter(emap.normalize_walk(w.vertices) for w in moved.faces()) == Counter(
        emap.normalize_walk(tuple(rename[v] for v in w.vertices)) for w in out.faces())

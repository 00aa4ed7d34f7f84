"""Surgery on ``surgery.FaceTable`` against the embedding rebuild.

Every splice is compared with ``diamond_sum`` below, the embedding-level
diamond sum that rebuilds its output with ``emap.embedding_from_faces``, on
the embeddings rebuilt from the two tables, glued the same way.  Each of the
table's other surgeries (``handle``, ``delete_degree2`` and
``insert_degree2``) is compared with ``emap.embedding_from_faces`` applied to
the same face edit, and every predicate a table answers from its indices with
the ``emap`` predicate on the rebuilt embedding.  The planner's chains are run
through the same checks, step by step.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter

import pytest

from labelled import degree, neighbors, rotation
from quadforge import catalog, emap, graphalg, planner, search, surgery
from quadforge.emap import Embedding, Label, edge_between, vkey
from quadforge.errors import PlanError, StructuralError, SurgeryError
from quadforge.planner import ParamRequest

# ---------------------------------------------------------------------------
# The reference diamond sum, on embeddings: compute the new face set, then
# rebuild the signed rotation system with ``emap.embedding_from_faces``.
# ---------------------------------------------------------------------------


def _corner_positions(walk: tuple, v: Label) -> list:
    return [i for i, u in enumerate(walk) if u == v]


def _faces_at_vertex(emb: Embedding, v: Label):
    """The faces incident with v; each must have exactly one corner at v."""
    out = []
    for idx, w in enumerate(emb.faces()):
        pos = _corner_positions(w.vertices, v)
        if len(pos) > 1:
            raise SurgeryError(f"face {w.vertices} has {len(pos)} corners at {v!r}")
        if pos:
            out.append((idx, w.vertices, pos[0]))
    return out


def _rim(emb: Embedding, v: Label):
    """Neighbor cycle of v plus the map {a_j, a_j+1} -> opposite corner."""
    cyc = tuple(a if b == v else b for a, b in rotation(emb)[v])
    pair_to_m = {}
    removed = set()
    for idx, walk, pos in _faces_at_vertex(emb, v):
        if len(walk) != 4:
            raise SurgeryError(f"face at {v!r} has length {len(walk)}, expected 4")
        a = walk[(pos + 1) % 4]
        m = walk[(pos + 2) % 4]
        b = walk[(pos + 3) % 4]
        key = frozenset((a, b))
        if key in pair_to_m:
            raise SurgeryError(f"two faces at {v!r} span the same neighbor pair {set(key)}")
        pair_to_m[key] = m
        removed.add(idx)
    if len(removed) != len(cyc):
        raise SurgeryError(f"vertex {v!r} has {len(removed)} incident faces but degree {len(cyc)}")
    return cyc, pair_to_m, removed


def diamond_sum(
    a: Embedding,
    v: Label,
    b: Embedding,
    v2: Label,
    offset: int = 0,
    reflect: bool | None = None,
) -> Embedding:
    """Excise v and v2, glue the disk boundaries, and requadrangulate.

    The neighbor cycle of v is matched against the reversed neighbor cycle
    of v2 rotated by ``offset`` (non-reversed when ``reflect``).  With
    ``reflect=None`` the first gluing that builds is taken, reversed first.
    Either gluing keeps the contract that the result is orientable exactly
    when both inputs are (two surfaces glued along a boundary circle give an
    orientable surface exactly when both are); it is checked on the output.
    """
    if not emap.is_quadrangular(a) or not emap.is_quadrangular(b):
        raise SurgeryError("diamond sum requires quadrangular embeddings")
    if v not in a.graph.vertices or v2 not in b.graph.vertices:
        raise SurgeryError(f"unknown summing vertex {v!r} or {v2!r}")
    d = degree(a.graph, v)
    d2 = degree(b.graph, v2)
    if d != d2:
        raise SurgeryError(f"degree mismatch at ({v!r}, {v2!r}): {d} != {d2}")
    if d < 3:
        raise SurgeryError(f"diamond sum site needs degree >= 3, got {d}")

    if reflect is None:
        try:
            out = _diamond_sum_fixed(a, v, b, v2, offset, False)
        except SurgeryError:
            out = _diamond_sum_fixed(a, v, b, v2, offset, True)
    else:
        out = _diamond_sum_fixed(a, v, b, v2, offset, reflect)
    if emap.is_orientable(out) != (emap.is_orientable(a) and emap.is_orientable(b)):
        raise SurgeryError("gluing violates the orientability contract")
    return out


def _diamond_sum_fixed(a, v, b, v2, offset, reflect) -> Embedding:
    rim_a, pair_m_a, removed_a = _rim(a, v)
    rim_b, pair_m_b, removed_b = _rim(b, v2)
    d = len(rim_a)

    def mu(j):
        return (offset + j) % d if reflect else (offset - j) % d

    ident = {rim_b[mu(j)]: rim_a[j] for j in range(d)}
    interior_b = b.graph.vertices - {v2} - set(ident)
    rest_a = a.graph.vertices - {v}
    clash = interior_b & rest_a
    if clash:
        raise SurgeryError(f"label collision between summands: {sorted(clash, key=vkey)}")

    def mb(u):
        return ident.get(u, u)

    edges_a = {e for e in a.graph.edges if v not in e[:2]}
    for e in b.graph.edges:
        if v2 in e[:2]:
            continue
        me = edge_between(mb(e[0]), mb(e[1]))
        if me in edges_a:
            raise SurgeryError(f"identification creates a parallel edge {me}")

    faces = []
    for idx, w in enumerate(a.faces()):
        if idx not in removed_a:
            faces.append(w.vertices)
    for idx, w in enumerate(b.faces()):
        if idx not in removed_b:
            faces.append(tuple(mb(u) for u in w.vertices))
    for j in range(d):
        aj, aj1 = rim_a[j], rim_a[(j + 1) % d]
        mj = pair_m_a[frozenset((aj, aj1))]
        key = frozenset((rim_b[mu(j)], rim_b[mu((j + 1) % d)]))
        m2 = mb(pair_m_b[key])
        faces.append((aj, mj, aj1, m2))

    out = emap.embedding_from_faces(faces)
    want_v = len(a.graph.vertices) + len(b.graph.vertices) - d - 2
    want_chi = emap.euler_characteristic(a) + emap.euler_characteristic(b) - 2
    if len(out.graph.vertices) != want_v:
        raise SurgeryError("diamond sum produced the wrong vertex count")
    if not emap.is_quadrangular(out):
        raise SurgeryError("diamond sum output is not quadrangular")
    if emap.euler_characteristic(out) != want_chi:
        raise SurgeryError("diamond sum output violates Euler additivity")
    return out


def rebuilt(table: surgery.FaceTable) -> emap.Embedding:
    """The table's faces as an embedding, on the table's own labels."""
    return _embedding_from_faces(table.faces())


@functools.lru_cache(maxsize=16)
def _embedding_from_faces(faces: tuple) -> emap.Embedding:
    return emap.embedding_from_faces(faces)


def face_multiset(walks) -> Counter:
    """The walks up to rotation and reflection: each as the set of its images."""
    return Counter(frozenset(s[i:] + s[:i] for s in (w, w[::-1]) for i in range(len(w)))
                   for w in map(tuple, walks))


def reference_splice(a, v, b, v2, labels) -> emap.Embedding:
    """The reference ``diamond_sum`` of ``a`` at ``v`` and ``b`` at ``v2``, glued
    and labelled as the splice that returned ``labels`` glued and labelled them."""
    ints = [u for u in [*a.graph.vertices, *labels.values()] if isinstance(u, int)]
    spare = max(ints, default=-1) + 1
    b = surgery.relabel_embedding(b, {**labels, v2: spare})
    rim_a = [x if y == v else y for x, y in rotation(a)[v]]
    rim_b = [x if y == spare else y for x, y in rotation(b)[spare]]
    d = len(rim_a)
    gluings = [(offset, reflect) for reflect in (False, True) for offset in range(d)
               if all(rim_b[(offset + j if reflect else offset - j) % d] == rim_a[j]
                      for j in range(d))]
    assert len(gluings) == 1
    return diamond_sum(a, v, b, spare, *gluings[0])


def canonical_rim(emb: emap.Embedding, v) -> list:
    """``v``'s neighbours round it, from the least, towards the lesser of its
    two neighbours on the rim."""
    rim = [a if b == v else b for a, b in rotation(emb)[v]]
    k = rim.index(min(rim, key=vkey))
    rim = rim[k:] + rim[:k]
    return rim if vkey(rim[1]) < vkey(rim[-1]) else rim[:1] + rim[:0:-1]


def reference_face_simple_side(side: emap.Embedding, v) -> bool:
    g = side.graph
    nbrs = neighbors(g, v)
    return (emap.is_face_simple(side)
            and min(degree(g, v) for v in g.vertices) >= 3
            and not any(neighbors(g, p) & nbrs for p in nbrs))


def reference_hypotheses(side: emap.Embedding, v, other: emap.Embedding, v2) -> bool:
    return reference_face_simple_side(side, v) and emap.is_nearly_face_simple_except(other, v2)


def assert_predicates_match(table: surgery.FaceTable, emb: emap.Embedding) -> None:
    g = emb.graph
    assert set(table.vertices()) == set(g.vertices)
    assert set(table.edges()) == set(g.edges)
    assert table.is_face_simple() == emap.is_face_simple(emb)
    assert table.is_orientable() == emap.is_orientable(emb)
    assert table.min_degree() == min(degree(g, v) for v in g.vertices)
    assert table.universal_vertices() == set(emap.universal_vertices(emb))
    for v in g.labels:
        assert table.neighbors(v) == neighbors(g, v)
        assert table.is_nearly_face_simple_except(v) == emap.is_nearly_face_simple_except(emb, v)
        nbrs = neighbors(g, v)
        assert table.is_independent(v) == (
            not any(neighbors(g, p) & nbrs for p in nbrs))


def assert_embedding_matches(table: surgery.FaceTable) -> None:
    """``FaceTable.embedding`` against ``emap.embedding_from_faces`` over the same faces."""
    got, want = table.embedding(), rebuilt(table)
    assert (face_multiset(w.vertices for w in got.faces())
            == face_multiset(w.vertices for w in want.faces())
            == face_multiset(table.faces()))
    assert emap.certify(got) == emap.certify(want)


def summand_pool() -> list:
    pool = [catalog.get_witness(rec.name) for rec in catalog.record_table()]
    pool += [catalog.build_kmn(6, n) for n in range(2, 8)]
    pool += [catalog.build_kmn(10, n) for n in range(2, 5)]
    return pool


def test_table_predicates_match_emap():
    # the pool holds non-face-simple embeddings too: c4_sphere, K_{m,2}
    for emb in summand_pool():
        assert_predicates_match(surgery.FaceTable.from_embedding(emb), emb)
    with pytest.raises(StructuralError):
        surgery.FaceTable.from_embedding(catalog.build_kmn(6, 3)).is_nearly_face_simple_except(99)


def reference_universal(emb: emap.Embedding):
    """The least universal vertex at which ``emb`` is nearly face-simple, or None."""
    return next((v for v in emap.universal_vertices(emb)
                 if emap.is_nearly_face_simple_except(emb, v)), None)


def test_nearly_face_simple_universal_matches_emap():
    answers = set()
    for rec in catalog.record_table():
        emb = catalog.get_witness(rec.name)
        got = surgery.FaceTable.from_embedding(emb).nearly_face_simple_universal()
        assert got == reference_universal(emb), rec.name
        answers.add(got)
    # K_7 minus a triangle: on some of its quadrangulations vertex 0 is not the answer
    for emb in search.enumerate_embeddings(graphalg.delete_edges(graphalg.complete(7),
                                                                 [(4, 5), (5, 6), (4, 6)])):
        got = surgery.FaceTable.from_embedding(emb).nearly_face_simple_universal()
        assert got == reference_universal(emb)
        answers.add(got)
    assert answers == {None, 0, 1, 2, 3}
    # the chain table after each step of a few plans of each kind
    for req in (ParamRequest(n=18, t=11, kind="nonorientable"),
                ParamRequest(n=19, t=1, kind="nonorientable"),
                ParamRequest(n=25, t=10, kind="orientable"),
                ParamRequest(n=30, t=23, kind="orientable")):
        nodes = planner.plan(req)
        for k in range(2, len(nodes) + 1):
            table = planner._chain(nodes[:k])
            assert table.nearly_face_simple_universal() == reference_universal(rebuilt(table))


def test_orientability_does_not_depend_on_how_a_face_is_walked():
    pool = summand_pool()
    assert sum(not emap.is_orientable(emb) for emb in pool) == 8
    for emb in pool:
        faces = [w.vertices for w in emb.faces()]
        want = emap.is_orientable(emb)
        for i, w in enumerate(faces):
            for walk in (w[::-1], w[1:] + w[:1], w[::-1][2:] + w[::-1][:2]):
                table = surgery.FaceTable(faces[:i] + [walk] + faces[i + 1:])
                assert table.is_orientable() == want


def test_table_embedding_matches_the_rebuild_on_the_pool():
    for emb in summand_pool():
        table = surgery.FaceTable.from_embedding(emb)
        assert_embedding_matches(table)
        assert emap.certify(table.embedding()) == emap.certify(emb)


def test_table_embedding_does_not_depend_on_face_order():
    # a chain resumed from the memo holds its faces under other ids than the
    # cold chain did; the output must not see the difference
    rng = random.Random(11)
    for emb in summand_pool():
        faces = [w.vertices for w in emb.faces()]
        want = surgery.FaceTable(faces).embedding()
        rng.shuffle(faces)
        assert surgery.FaceTable(faces).embedding() == want


@pytest.mark.parametrize("m", [6, 10])
def test_table_embedding_matches_the_rebuild_on_each_kmn(m):
    for n in range(2, 31):
        table = catalog.kmn_table(m, n)
        assert_embedding_matches(table)
        assert table.embedding() == catalog.build_kmn(m, n)


@pytest.mark.parametrize("shared", [0, 8, None])
def test_table_embedding_refuses_a_pinched_vertex(shared):
    # two surfaces glued at one vertex: its corners form two cycles
    if shared is None:  # two square spheres, at vertex 0
        faces = [(0, 1, 2, 3), (0, 3, 2, 1), (0, 4, 5, 6), (0, 6, 5, 4)]
    else:  # two K_{6,3} tori, at the least vertex or at another
        torus = [w.vertices for w in catalog.build_kmn(6, 3).faces()]
        faces = torus + [tuple(u if u == shared else u + 100 for u in w) for w in torus]
    table = surgery.FaceTable(faces)
    with pytest.raises((SurgeryError, StructuralError), match="pinched"):
        table.embedding()
    with pytest.raises(StructuralError, match="pinched"):
        emap.embedding_from_faces(faces)


@pytest.mark.parametrize("on_ranks", [False, True])
def test_table_embedding_refuses_a_core_that_does_not_trace_back(monkeypatch, on_ranks):
    # two edges' table ids swapped after the numbering: the core is still a
    # rotation system, all positive on this orientable table, but the faces
    # traced along those two edges are not the table's faces there
    table = catalog.kmn_table(6, 5)
    number_edges = emap.number_edges

    def swapped(*args):
        order, new_id, ends = number_edges(*args)
        order[0], order[-1] = order[-1], order[0]
        return order, new_id, ends

    monkeypatch.setattr(emap, "number_edges", swapped)
    with pytest.raises(StructuralError, match="does not reproduce the table's faces"):
        table.embedding(on_ranks=on_ranks)


def gapped_chain(req: ParamRequest) -> surgery.FaceTable:
    """The chain table of ``req``, whose int labels the splices have left gapped."""
    table = planner._chain(planner.plan(req))
    assert set(table.vertices()) != set(range(len(table.vertices())))
    return table


def block_table() -> surgery.FaceTable:
    """A catalog witness's table, on int labels and the strings x and z."""
    table = catalog.witness_table("phi_7_2_plus")
    assert {"x", "z"} <= set(table.vertices())
    return table


@pytest.mark.parametrize("table", [
    lambda: gapped_chain(ParamRequest(n=26, t=3, kind="nonorientable")),
    lambda: gapped_chain(ParamRequest(n=29, t=8, kind="orientable")),
    block_table,
], ids=["nonorientable-chain", "orientable-chain", "phi_7_2_plus"])
def test_table_embedding_on_ranks_is_that_of_the_ranked_copy(table):
    # the planner's output core, with no copy of the table, and the default
    # call's, which keeps the table's own labels
    table = table()
    on_ranks = table.embedding(on_ranks=True)
    assert on_ranks == table.ranked().embedding()
    assert on_ranks.labels == tuple(range(len(table.vertices())))
    own = table.embedding()
    assert own.labels == tuple(sorted(table.vertices(), key=vkey))
    assert (own.ends, own.rot, own.sign) == (on_ranks.ends, on_ranks.rot, on_ranks.sign)


def test_splice_matches_diamond_sum():
    pool = summand_pool()
    rng = random.Random(20261018)
    done = refused = 0
    while done < 60:
        a, b = rng.choice(pool), rng.choice(pool)
        sites = [(va, vb) for va in a.labels for vb in b.labels
                 if degree(a.graph, va) == degree(b.graph, vb) >= 3]
        if not sites:
            continue
        va, vb = rng.choice(sites)
        d = degree(a.graph, va)
        offset, reflect = rng.randrange(d), rng.choice((None, False, True))
        table = surgery.FaceTable.from_embedding(a)
        try:
            labels = table.splice(va, surgery.FaceTable.from_embedding(b), vb, offset, reflect)
        except SurgeryError as exc:
            assert "parallel edge" in str(exc)
            refused += 1
            continue
        # the offset counts on both rims from their least vertices
        rim_a, rim_b = canonical_rim(a, va), canonical_rim(b, vb)
        assert any(all(labels[rim_b[(offset + j if flip else offset - j) % d]] == rim_a[j]
                       for j in range(d))
                   for flip in ((False, True) if reflect is None else (reflect,)))
        ref = reference_splice(a, va, b, vb, labels)
        assert face_multiset(table.faces()) == face_multiset(w.vertices for w in ref.faces())
        assert emap.is_orientable(rebuilt(table)) == (emap.is_orientable(a)
                                                      and emap.is_orientable(b))
        assert_predicates_match(table, rebuilt(table))
        done += 1
    assert refused < done


def test_splice_refuses_what_diamond_sum_refuses():
    k4 = search.search_exact(
        search.WitnessSpec(graph=graphalg.complete(4), chi=1, orientable=None)).embedding
    table = surgery.FaceTable.from_embedding(k4)
    # every gluing of two K_4 rims doubles the rim's edges
    with pytest.raises(SurgeryError, match="parallel edge"):
        table.splice(0, surgery.FaceTable.from_embedding(k4), 0)
    for summed in (diamond_sum, surgery.diamond_sum):
        with pytest.raises(SurgeryError, match="parallel edge"):
            summed(k4, 0, surgery.relabel_embedding(k4, {v: v + 4 for v in range(4)}), 4)
    kmn = surgery.FaceTable.from_embedding(catalog.build_kmn(6, 3))
    with pytest.raises(SurgeryError, match="degree mismatch"):
        kmn.splice(0, surgery.FaceTable.from_embedding(catalog.build_kmn(6, 4)), 0)
    with pytest.raises(SurgeryError, match="degree >= 3"):
        surgery.FaceTable.from_embedding(catalog.build_kmn(6, 2)).splice(
            0, surgery.FaceTable.from_embedding(catalog.build_kmn(6, 2)), 1)
    with pytest.raises(SurgeryError, match="unknown summing vertex"):
        kmn.splice("q", kmn, 0)
    # a refused splice leaves the table as it was
    assert face_multiset(table.faces()) == face_multiset(w.vertices for w in k4.faces())


def pinched_table() -> surgery.FaceTable:
    """Two K_{6,3} tori glued at vertex 0, which has degree 6 and is pinched."""
    torus = [w.vertices for w in catalog.build_kmn(6, 3).faces()]
    return surgery.FaceTable(torus + [tuple(u if u == 0 else u + 100 for u in w) for w in torus])


def refused_splices():
    """(table, v, summand, v2, message): one splice for each refusal raised
    before the table is edited, in the order ``splice`` checks them."""
    k4 = surgery.FaceTable.from_embedding(search.search_exact(
        search.WitnessSpec(graph=graphalg.complete(4), chi=1, orientable=None)).embedding)
    k63, k66 = catalog.kmn_table(6, 3), catalog.kmn_table(6, 6)
    yield k63, "q", k63, 0, "unknown summing vertex"
    yield k63, 0, k63, "q", "unknown summing vertex"
    yield k63, 0, catalog.kmn_table(6, 4), 0, "degree mismatch"
    yield k63, 0, pinched_table(), 0, "degree mismatch"  # before the summand's rim
    yield catalog.kmn_table(6, 2), 0, catalog.kmn_table(6, 2), 1, "degree >= 3"
    yield pinched_table(), 0, k66, 6, "pinched"
    yield k66, 6, pinched_table(), 0, "pinched"
    yield k4, 0, k4.copy(), 0, "parallel edge"  # every gluing of two K_4 rims doubles an edge


def test_a_refused_splice_leaves_the_table_as_it_was_until_it_edits():
    for table, v, summand, v2, message in refused_splices():
        before = table.copy()
        with pytest.raises(SurgeryError, match=message) as refused:
            table.splice(v, summand, v2)
        assert vars(table) == vars(before), message
        try:
            site = summand.site(v2)
        except SurgeryError:  # no site is read at an unknown vertex or a pinched one
            continue
        with pytest.raises(SurgeryError) as by_site:
            table.splice(v, site)
        assert str(by_site.value) == str(refused.value)
        assert vars(table) == vars(before), message
    # a refusal from _add or _check_closed comes after the edit: the table has
    # changed, and must be discarded
    site = catalog.kmn_table(6, 3).site(6)
    for corners, message in ((site.corners[:-4], "lies on only one face"),
                             (site.corners + site.corners[:4], "lies on more than two faces")):
        table = catalog.kmn_table(6, 4)
        before = table.copy()
        with pytest.raises(SurgeryError, match=message):
            table.splice(9, site._replace(corners=corners))
        assert vars(table) != vars(before)


def walks(emb: emap.Embedding) -> list:
    return [w.vertices for w in emb.faces()]


def assert_edit_matches(table: surgery.FaceTable, faces: list) -> None:
    """The edited table against ``emap.embedding_from_faces`` over the edited faces."""
    got, want = table.embedding(), emap.embedding_from_faces(faces)
    assert (face_multiset(w.vertices for w in got.faces())
            == face_multiset(w.vertices for w in want.faces()) == face_multiset(faces))
    assert emap.certify(got) == emap.certify(want)


def test_delete_degree2_matches_the_rebuild():
    deleted = 0
    for emb in summand_pool():
        for z in emb.labels:
            table = surgery.FaceTable.from_embedding(emb)
            if degree(emb.graph, z) != 2:
                with pytest.raises(SurgeryError, match="expected 2"):
                    table.delete_degree2(z)
                continue
            # the two faces at z, merged along their x-z-y path
            (w1, i1), (w2, i2) = [(w, w.index(z)) for w in walks(emb) if z in w]
            merged = (w1[(i1 + 1) % 4], w1[(i1 + 2) % 4], w1[(i1 + 3) % 4], w2[(i2 + 2) % 4])
            table.delete_degree2(z)
            assert_edit_matches(table, [w for w in walks(emb) if z not in w] + [merged])
            deleted += 1
    assert deleted >= 20


def test_insert_degree2_matches_the_rebuild():
    for emb in summand_pool():
        z = next(i for i in range(len(emb.graph.vertices) + 1) if i not in emb.graph.vertices)
        for face in walks(emb):
            table = surgery.FaceTable.from_embedding(emb)
            corner = min(face, key=vkey)
            assert table.insert_degree2(face[::-1], corner) == z
            i = face.index(corner)
            p, a, q, b = face[i:] + face[:i]
            rest = walks(emb)
            rest.remove(face)
            assert_edit_matches(table, rest + [(p, a, q, z), (q, b, p, z)])
    table = surgery.FaceTable.from_embedding(catalog.build_kmn(6, 3))
    faces = {emap.normalize_walk(w) for w in table.faces()}
    cycle = next(w for i in range(1, 6) if (w := (0, 6, i, 7)) not in faces)
    with pytest.raises(SurgeryError, match="no face matches"):
        table.insert_degree2(cycle, 0)  # a 4-cycle of the graph, but not a face
    with pytest.raises(SurgeryError, match="is not a corner"):
        table.insert_degree2(table.faces()[0], 99)


def reference_sites(emb: emap.Embedding, cycle: tuple) -> list:
    """(alpha, beta) of every handle site, in the order the faces are traced;
    none when an edge of the cycle is present."""
    a, b, c, d = cycle
    if any(edge_between(u, x) in emb.graph.edges for u, x in ((a, b), (b, c), (c, d), (d, a))):
        return []
    faces = walks(emb)

    def spans(x, y):
        return [(i, (x, w[(k + 1) % 4], y, w[(k + 3) % 4])) for i, w in enumerate(faces)
                for k in range(4) if w[k] == x and w[(k + 2) % 4] == y]

    return [(alpha, beta) for i, alpha in spans(a, c) for j, beta in spans(b, d) if i != j]


def handle_cases():
    """(embedding, cycle): each record's own cycles, and on K_{6,4} each
    4-cycle a-b-c-d whose diagonals a-c and b-d are diagonals of faces."""
    for rec in catalog.record_table():
        cycles = {p[1] for p in rec.predicates if p[0] == "has_handle_site"}
        cycles |= {c for p in rec.predicates if p[0] == "double_handle" for c in p[1:]}
        for cycle in sorted(cycles):
            yield catalog.get_witness(rec.name), cycle
    emb = catalog.build_kmn(6, 4)
    diagonals = sorted({(w[k], w[k + 2]) for w in walks(emb) for k in (0, 1)})
    for a, c in diagonals:
        for b, d in diagonals:
            if len({a, b, c, d}) == 4:
                yield emb, (a, b, c, d)


def test_handle_matches_the_rebuild():
    flipped = done = 0
    for emb, cycle in handle_cases():
        parent = surgery.FaceTable.from_embedding(emb)
        sites = parent.handle_sites(cycle)
        assert [(s.alpha, s.beta) for s in sites] == reference_sites(emb, cycle)
        for site in sites:
            (a, p, c, q), (b, r, d, s) = site.alpha, site.beta
            rest = walks(emb)
            for quad in site.alpha, site.beta:
                rest.remove(next(w for w in rest if emap.normalize_walk(w)
                                 == emap.normalize_walk(quad)))
            rest += [(a, p, c, b), (c, q, a, d)]
            faces = rest + [(b, r, d, c), (d, s, b, a)]
            if emap.is_orientable(emb) and not emap.is_orientable(
                    emap.embedding_from_faces(faces)):
                faces = rest + [(b, s, d, c), (d, r, b, a)]
                flipped += 1
            table = parent.copy()
            table.handle(site)
            assert_edit_matches(table, faces)
            assert emap.is_orientable(table.embedding()) == emap.is_orientable(emb)
            done += 1
    assert done >= 100 and 0 < flipped < done


def test_handle_refuses_a_present_edge_and_a_missing_face():
    emb = catalog.build_kmn(6, 4)
    table = surgery.FaceTable.from_embedding(emb)
    site = next(s for cycle in itertools.permutations(range(6), 4)
                for s in table.handle_sites(cycle))
    (a, p, c, q), (b, r, d, s) = site.alpha, site.beta
    with pytest.raises(SurgeryError, match="already present"):
        table.handle(surgery.HandleSite(site.alpha, (r, d, s, b)))  # a-r is an edge
    faces = {emap.normalize_walk(w) for w in walks(emb)}
    absent = next(w for x in range(6, 10) if emap.normalize_walk(w := (a, p, c, x)) not in faces)
    with pytest.raises(SurgeryError, match="no face matches"):
        table.handle(surgery.HandleSite(absent, site.beta))
    assert table.handle_sites((0, 6, 1, 7)) == []  # 0-6 is an edge
    # a refused handle leaves the table as it was
    assert face_multiset(table.faces()) == face_multiset(walks(emb))


@pytest.mark.parametrize("name", ["phi_8_4_star", "phi_11_8_plus_star"])
def test_handled_yields_a_table_for_each_site_handle_takes(name):
    rec = catalog.get_record(name)
    cycles = sorted({c for _, *args in rec.predicates for c in args if isinstance(c, tuple)})
    table = surgery.FaceTable.from_embedding(catalog.get_witness(name))
    before = table.faces()
    for cycle in cycles:
        want = []  # the handle-trial loop that ``handled`` replaced
        for site in table.handle_sites(cycle):
            out = table.copy()
            try:
                out.handle(site)
            except SurgeryError:
                continue
            want.append(out.faces())
        assert want, cycle
        assert [out.faces() for out in table.handled(cycle)] == want
    assert cycles and table.faces() == before


def test_handled_passes_over_a_site_handle_refuses(monkeypatch):
    table = catalog.kmn_table(6, 4)
    sites = table.handle_sites((0, 1, 2, 4))
    kept = []
    for site in sites[1::2]:
        out = table.copy()
        out.handle(site)
        kept.append(out.faces())
    handle = surgery.FaceTable.handle

    def refusing(self, site):
        if sites.index(site) % 2 == 0:
            raise SurgeryError("refused")
        handle(self, site)

    monkeypatch.setattr(surgery.FaceTable, "handle", refusing)
    assert len(sites) == 4
    assert [out.faces() for out in table.handled((0, 1, 2, 4))] == kept


def acceptance_requests():
    """The admissible pairs of acceptance criteria 1 and 2."""
    for kind, lo, hi in (("nonorientable", 6, 26), ("orientable", 5, 29)):
        for n in range(lo, hi + 1):
            for t in range(0, n - 3):
                req = ParamRequest(n=n, t=t, kind=kind)
                if planner.admissible(req):
                    yield req


def record_site_sources(monkeypatch) -> dict:
    """From now on, map the id of each site ``FaceTable.site`` reads to the
    site and a copy of the table it was read from."""
    sources = {}
    site = surgery.FaceTable.site

    def recording(table, v2):
        out = site(table, v2)
        sources[id(out)] = out, table.copy()
        return out

    monkeypatch.setattr(surgery.FaceTable, "site", recording)
    return sources


@pytest.fixture
def checked_steps(monkeypatch) -> Counter:
    """Check each splice and guard of the planner against the rebuilt embeddings;
    a site is checked as a splice of the table it was read from."""
    seen = Counter()
    sources = record_site_sources(monkeypatch)
    splice = surgery.FaceTable.splice
    is_face_simple = surgery.FaceTable.is_face_simple
    check_sum_hypotheses = planner._check_sum_hypotheses
    face_simple_side = planner._face_simple_side
    choose_universal = planner._choose_universal

    def checked_splice(table, v, summand, v2=None):
        if isinstance(summand, surgery.GluingSite):
            source, v2 = sources[id(summand)][1], summand.vertex
        else:
            source = summand
        a, b = rebuilt(table), rebuilt(source)
        labels = splice(table, v, summand, v2)
        ref = reference_splice(a, v, b, v2, labels)
        assert face_multiset(table.faces()) == face_multiset(w.vertices for w in ref.faces())
        assert emap.is_orientable(rebuilt(table)) == (emap.is_orientable(a)
                                                      and emap.is_orientable(b))
        assert_embedding_matches(table)
        seen["splice"] += 1
        return labels

    def checked_face_simple(table):
        got = is_face_simple(table)
        assert got == emap.is_face_simple(rebuilt(table))
        seen["face_simple"] += 1
        return got

    def checked_hypotheses(side, v, other, v2):
        got = check_sum_hypotheses(side, v, other, v2)
        assert got == reference_hypotheses(rebuilt(side), v, rebuilt(other), v2)
        seen["hypotheses"] += 1
        return got

    def checked_side(side, v):
        got = face_simple_side(side, v)
        assert got == reference_face_simple_side(rebuilt(side), v)
        seen["face_simple_side"] += 1
        return got

    def checked_universal(chain):
        got = choose_universal(chain)
        emb = rebuilt(chain)
        assert got == next(u for u in emap.universal_vertices(emb)
                           if emap.is_nearly_face_simple_except(emb, u))
        seen["universal"] += 1
        return got

    monkeypatch.setattr(surgery.FaceTable, "splice", checked_splice)
    monkeypatch.setattr(surgery.FaceTable, "is_face_simple", checked_face_simple)
    monkeypatch.setattr(planner, "_check_sum_hypotheses", checked_hypotheses)
    monkeypatch.setattr(planner, "_face_simple_side", checked_side)
    monkeypatch.setattr(planner, "_choose_universal", checked_universal)
    return seen


def summand_keys(steps) -> set:
    """The (m, n, block) of each step's summand, K_{m,n} with the block summed in."""
    return {(planner._STEP_VERTICES[node.step] + 2,
             node.n - planner._STEP_VERTICES[node.step] - 1, node.record) for node in steps}


def test_every_chain_step_matches_the_rebuild(checked_steps):
    requests = list(acceptance_requests())
    requests += [ParamRequest(n=50, t=3, kind="nonorientable"),
                 ParamRequest(n=49, t=2, kind="orientable")]
    steps = {node for req in requests for node in planner.plan(req)[1:]}
    sites = summand_keys(steps)
    catalog.clear_cache()
    # loading the witnesses answers the catalog's own predicates, one of them
    # (delete_degree2_face_simple) from a table: only the planner's are counted
    for rec in catalog.record_table():
        catalog.get_witness(rec.name)
    checked_steps.clear()
    for req in requests:
        _, cert, _ = planner.generate(req)
        assert (cert.n, cert.t) == (req.n, req.t)
    assert len(planner._SITES) == len(sites) < len(steps)
    # each K_{m,n} but the catalog's K_{6,3} is spliced, and each is certified
    # face-simple.  Each summand is made once: its first sum's hypotheses
    # (whose face-simple side's half is counted too), that sum, its
    # face-simplicity, and the second sum's face-simple side's half.  Each step
    # chooses its universal vertex (the chain's half), splices the summand's
    # site, and reads the output's face-simplicity.
    kmn = len(catalog._KMN_CACHE)
    assert checked_steps == {"splice": len(steps) + len(sites) + kmn - 1,
                             "hypotheses": len(sites), "face_simple_side": 2 * len(sites),
                             "face_simple": len(steps) + 3 * len(sites) + kmn,
                             "universal": len(steps)}


def test_splicing_a_site_is_splicing_its_table(monkeypatch):
    # every splice of the acceptance pairs, made again on a copy of the table
    # in the other form: a table summand as its site, and a site as the table
    # it was read from.  The faces, ids and labels must be the same.
    sources = record_site_sources(monkeypatch)
    splice = surgery.FaceTable.splice
    seen = Counter()

    def twinned(table, v, summand, v2=None):
        if isinstance(summand, surgery.GluingSite):
            other, v2 = sources[id(summand)][1], summand.vertex
            seen["site"] += 1
        else:
            other = summand.site(v2)
            seen["table"] += 1
        twin = table.copy()
        labels = splice(table, v, summand, v2)
        assert splice(twin, v, other, v2) == labels
        assert vars(twin) == vars(table)
        return labels

    monkeypatch.setattr(surgery.FaceTable, "splice", twinned)
    requests = list(acceptance_requests())
    steps = {node for req in requests for node in planner.plan(req)[1:]}
    catalog.clear_cache()
    for req in requests:
        planner.generate(req)
    # each step splices a site into its chain; each summand is made by a
    # splice of its block, and each K_{m,n} but the catalog's K_{6,3} by one
    assert seen == {"site": len(steps),
                    "table": len(summand_keys(steps)) + len(catalog._KMN_CACHE) - 1}


def test_one_site_splices_into_two_chains_as_a_fresh_summand():
    site, holds = planner._summand("phi_7_2_plus", 6, 9)
    assert holds and site is planner._summand("phi_7_2_plus", 6, 9)[0]
    fresh = catalog.kmn_table(6, 9)
    z = fresh.splice(6, catalog.witness_table("phi_7_2_plus"), "x")["z"]
    assert site == fresh.site(z)
    chains = [planner._chain(planner.plan(ParamRequest(n=10, t=t, kind="nonorientable")))
              for t in (1, 3)]
    assert chains[0].faces() != chains[1].faces()
    for chain in chains:
        v = chain.nearly_face_simple_universal()
        want = chain.copy()
        labels = want.splice(v, fresh, z)
        assert chain.splice(v, site) == labels
        assert vars(chain) == vars(want)
        assert site == fresh.site(z)  # the site is only read


def test_broken_summands_raise_the_plan_errors(monkeypatch):
    child, _, _ = planner.generate(ParamRequest(n=10, t=3, kind="nonorientable"))
    planner._SITES.clear()  # so that the step makes its summand from kmn_table
    kmn_table = catalog.kmn_table
    # K_{6,2}: two faces share both edges at each rim vertex
    monkeypatch.setattr(catalog, "kmn_table", lambda m, n: kmn_table(6, 2))
    with pytest.raises(PlanError, match=r"^phi_7_2_plus \+ K_\{6,9\} violates the "
                                        "face-simplicity hypotheses$"):
        planner._induct_step(surgery.FaceTable.from_embedding(child), "phi_7_2_plus", 6)
    monkeypatch.setattr(catalog, "kmn_table", kmn_table)
    no_universal = surgery.FaceTable.from_embedding(catalog.build_kmn(6, 5))
    with pytest.raises(PlanError, match="^child embedding has no universal vertex with the "
                                        "nearly-face-simple property$"):
        planner._induct_step(no_universal, "phi_7_2_plus", 6)


# ---------------------------------------------------------------------------
# The bulk load against the faces added one at a time
# ---------------------------------------------------------------------------


def added_one_at_a_time(faces) -> surgery.FaceTable:
    """The table of ``faces`` built as an edit builds its faces: each by
    ``_add``, then every edge checked to lie on two."""
    table = surgery.FaceTable([])
    for w in faces:
        table._add(tuple(w))
    table._check_closed(range(len(table._w) >> 2))
    return table


def assert_loads_alike(faces) -> surgery.FaceTable:
    bulk, added = surgery.FaceTable(faces), added_one_at_a_time(faces)
    assert list(bulk.edges()) == list(added.edges())
    assert list(bulk._degree.items()) == list(added._degree.items())
    assert (bulk._loops, bulk._multi) == (added._loops, added._multi)
    assert bulk.is_face_simple() == added.is_face_simple()
    assert vars(bulk) == vars(added)  # ids, sides and anchors too
    return bulk


def refusal(build, faces) -> tuple:
    with pytest.raises((SurgeryError, StructuralError)) as info:
        build(faces)
    return type(info.value), str(info.value)


def test_bulk_load_equals_adding_one_face_at_a_time():
    # one face along both sides of two edges: a loop count of 2, from one face
    table = assert_loads_alike([(1, 0, 2, 0)])
    assert (table._loops, table._multi) == (2, 0)
    # c4_sphere: two faces along the same four edges
    table = assert_loads_alike([w.vertices for w in catalog.get_witness("c4_sphere").faces()])
    assert (table._loops, table._multi) == (0, 1)
    # K_{6,2}: each face shares two edges with each of its two neighbours
    table = assert_loads_alike([w.vertices for w in catalog.build_kmn(6, 2).faces()])
    assert (table._loops, table._multi) == (0, 6)
    rng = random.Random(25)
    for emb in summand_pool():
        faces = [w.vertices for w in emb.faces()]
        rng.shuffle(faces)
        faces = [w[k:] + w[:k] if rng.random() < 0.5 else (w[k:] + w[:k])[::-1]
                 for w in faces for k in [rng.randrange(4)]]
        assert assert_loads_alike(faces).is_face_simple() == emap.is_face_simple(emb)


REFUSED_FACES = [
    [(0, 1, 2)],
    [(0, 1, 2, 3), (0, 3, 2, 1, 4)],
    [(0, 0, 1, 2)],
    [(0, 1.5, 2, 3)],
    [(0, True, 2, 3)],
    [(0, None, 2, 3)],
    [([1], 2, 3, 4)],
    [(0, 1, 2, 3)],
    [(0, 1, 2, 3), (0, 3, 2, 4)],
    [(0, 1, 2, 3)] * 3,
    [("a", 1, "b", 2), ("a", 2, "b", 1), ("a", 1, "c", 2)],
    # of two faults, the one a face-by-face load meets first
    [(0, 1, 2, 3)] * 3 + [(0, 1, 2)],
    [(0, 1, 2)] + [(0, 1, 2, 3)] * 3,
    [(0, 1, 2, 3)] * 3 + [(4, 4, 5, 6)],
    [(4, 4, 5, 6)] + [(0, 1, 2, 3)] * 3,
    [(0, 1, 2, 3), (0, 1, 4, 5), (0, 1, 6, 7), (8, 8, 9, 9)],
]


@pytest.mark.parametrize("faces", REFUSED_FACES)
def test_bulk_load_refuses_as_adding_one_face_at_a_time(faces):
    assert refusal(surgery.FaceTable, faces) == refusal(added_one_at_a_time, faces)


def test_thaw_gives_the_frozen_faces():
    chain = planner._chain(planner.plan(ParamRequest(n=26, t=3, kind="nonorientable")))
    merged = catalog.kmn_table(6, 9)
    face = merged.faces()[0]
    merged.delete_degree2(merged.insert_degree2(face, face[0]))
    assert len(merged._free_faces) == 1  # a removed face's id, which the thaw packs out
    for table in (chain, chain.ranked(), merged, catalog.kmn_table(10, 3)):
        thawed = surgery.FaceTable.thaw(table.frozen())
        assert thawed.faces() == table.faces()
        assert vars(thawed) == vars(surgery.FaceTable(table.faces()))

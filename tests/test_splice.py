"""The in-place diamond sum of ``surgery.FaceTable`` against the embedding rebuild.

Every splice is compared with ``surgery.diamond_sum`` on the embeddings rebuilt
from the two tables, glued the same way, and every predicate a table answers
from its indices with the ``emap`` predicate on the rebuilt embedding.  The
planner's chains are run through the same checks, step by step.
"""

from __future__ import annotations

import functools
import random
from collections import Counter

import pytest

from quadforge import catalog, emap, graphalg, planner, search, surgery
from quadforge.emap import other_end, vkey
from quadforge.errors import PlanError, StructuralError, SurgeryError
from quadforge.planner import ParamRequest


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
    """``diamond_sum`` of ``a`` at ``v`` and ``b`` at ``v2``, glued and labelled as
    the splice that returned ``labels`` glued and labelled them."""
    ints = [u for u in [*a.graph.vertices, *labels.values()] if isinstance(u, int)]
    spare = max(ints, default=-1) + 1
    b = surgery.relabel_embedding(b, {**labels, v2: spare})
    rim_a = [other_end(e, v) for e in a.rotation[v]]
    rim_b = [other_end(e, spare) for e in b.rotation[spare]]
    d = len(rim_a)
    gluings = [(offset, reflect) for reflect in (False, True) for offset in range(d)
               if all(rim_b[(offset + j if reflect else offset - j) % d] == rim_a[j]
                      for j in range(d))]
    assert len(gluings) == 1
    return surgery.diamond_sum(a, v, b, spare, *gluings[0])


def reference_hypotheses(side: emap.Embedding, v, other: emap.Embedding, v2) -> bool:
    g = side.graph
    nbrs = g.neighbors(v)
    return (emap.is_face_simple(side)
            and emap.min_degree(g) >= 3
            and not any(g.has_edge(p, q) for p in nbrs for q in nbrs)
            and emap.is_nearly_face_simple_except(other, v2))


def assert_predicates_match(table: surgery.FaceTable, emb: emap.Embedding) -> None:
    g = emb.graph
    assert set(table.vertices()) == set(g.vertices)
    assert set(table.edges()) == set(g.edges)
    assert table.is_face_simple() == emap.is_face_simple(emb)
    assert table.is_orientable() == emap.is_orientable(emb)
    assert table.min_degree() == emap.min_degree(g)
    assert table.universal_vertices() == emap.universal_vertices(g)
    for v in g.sorted_vertices():
        assert table.neighbors(v) == g.neighbors(v)
        assert table.is_nearly_face_simple_except(v) == emap.is_nearly_face_simple_except(emb, v)
        nbrs = g.neighbors(v)
        assert table.is_independent(v) == (
            not any(g.has_edge(p, q) for p in nbrs for q in nbrs))


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


def test_splice_matches_diamond_sum():
    pool = summand_pool()
    rng = random.Random(20261018)
    done = refused = 0
    while done < 60:
        a, b = rng.choice(pool), rng.choice(pool)
        sites = [(va, vb) for va in a.graph.sorted_vertices() for vb in b.graph.sorted_vertices()
                 if a.graph.degree(va) == b.graph.degree(vb) >= 3]
        if not sites:
            continue
        va, vb = rng.choice(sites)
        table = surgery.FaceTable.from_embedding(a)
        try:
            labels = table.splice(va, surgery.FaceTable.from_embedding(b), vb)
        except SurgeryError as exc:
            assert "parallel edge" in str(exc)
            refused += 1
            continue
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
    with pytest.raises(SurgeryError, match="parallel edge"):
        surgery.diamond_sum(k4, 0, surgery.relabel_embedding(k4, {v: v + 4 for v in range(4)}), 4)
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


def acceptance_requests():
    """The admissible pairs of acceptance criteria 1 and 2."""
    for kind, lo, hi in (("nonorientable", 6, 26), ("orientable", 5, 29)):
        for n in range(lo, hi + 1):
            for t in range(0, n - 3):
                req = ParamRequest(n=n, t=t, kind=kind)
                if planner.admissible(req):
                    yield req


@pytest.fixture
def checked_steps(monkeypatch) -> Counter:
    """Check each splice and guard of the planner against the rebuilt embeddings."""
    seen = Counter()
    splice = surgery.FaceTable.splice
    is_face_simple = surgery.FaceTable.is_face_simple
    check_sum_hypotheses = planner._check_sum_hypotheses
    choose_universal = planner._choose_universal

    def checked_splice(table, v, summand, v2):
        a, b = rebuilt(table), rebuilt(summand)
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

    def checked_hypotheses(side, side_face_simple, v, other, v2):
        got = check_sum_hypotheses(side, side_face_simple, v, other, v2)
        assert side_face_simple == emap.is_face_simple(rebuilt(side))
        assert got == reference_hypotheses(rebuilt(side), v, rebuilt(other), v2)
        seen["hypotheses"] += 1
        return got

    def checked_universal(chain):
        got = choose_universal(chain)
        emb = rebuilt(chain)
        assert got == next(u for u in sorted(emap.universal_vertices(emb.graph), key=vkey)
                           if emap.is_nearly_face_simple_except(emb, u))
        seen["universal"] += 1
        return got

    monkeypatch.setattr(surgery.FaceTable, "splice", checked_splice)
    monkeypatch.setattr(surgery.FaceTable, "is_face_simple", checked_face_simple)
    monkeypatch.setattr(planner, "_check_sum_hypotheses", checked_hypotheses)
    monkeypatch.setattr(planner, "_choose_universal", checked_universal)
    return seen


def test_every_chain_step_matches_the_rebuild(checked_steps):
    requests = list(acceptance_requests())
    requests += [ParamRequest(n=50, t=3, kind="nonorientable"),
                 ParamRequest(n=49, t=2, kind="orientable")]
    steps = set()
    for req in requests:
        node = planner.plan(req)
        while node.step != "base":
            steps.add(node)
            node = node.child
    catalog.clear_cache()
    for req in requests:
        _, cert, _ = planner.generate(req)
        assert (cert.n, cert.t) == (req.n, req.t)
    # each K_{m,n} but the catalog's K_{6,3} is spliced, and each is certified face-simple
    kmn = len(catalog._KMN_CACHE)
    assert checked_steps == {"splice": 2 * len(steps) + kmn - 1, "hypotheses": 2 * len(steps),
                             "face_simple": 3 * len(steps) + kmn, "universal": len(steps)}


def test_broken_summands_raise_the_plan_errors(monkeypatch):
    child, _, _ = planner.generate(ParamRequest(n=10, t=3, kind="nonorientable"))
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

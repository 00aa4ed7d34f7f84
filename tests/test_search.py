"""Exact search, enumeration, and sweeps."""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

import pytest

from labelled import degree, embedding, incidence, neighbors
from nx_oracle import vf2_isomorphic
from quadforge import catalog, emap, graphalg, search, serialize, surgery
from quadforge.emap import Graph
from quadforge.errors import SearchError, SurgeryError


def cycle_graph(k: int) -> Graph:
    return Graph.from_edges([(i, (i + 1) % k) for i in range(k)])


def brute_force_exists(g: Graph, chi: int, orientable) -> bool:
    """Try every rotation system and sign vector; ground truth for tiny graphs."""
    verts = g.labels
    edges = g.sorted_edges()
    rot_choices = []
    for v in verts:
        inc = incidence(g)[v]
        first, rest = inc[0], inc[1:]
        rot_choices.append([(first,) + p for p in itertools.permutations(rest)])
    for rots in itertools.product(*rot_choices):
        rotation = dict(zip(verts, rots))
        for signs in itertools.product((1, -1), repeat=len(edges)):
            emb = embedding(g, rotation, dict(zip(edges, signs)))
            if not emap.is_quadrangular(emb):
                continue
            if emap.euler_characteristic(emb) != chi:
                continue
            if orientable is not None and emap.is_orientable(emb) != orientable:
                continue
            return True
    return False


def test_spec_validation():
    g = graphalg.complete(4)
    with pytest.raises(SearchError):
        search.WitnessSpec(graph=g, chi=2, orientable=None).validate()
    with pytest.raises(SearchError):
        search.WitnessSpec(graph=g, chi=1, orientable=True).validate()
    with pytest.raises(SearchError):
        search.WitnessSpec(graph=cycle_graph(5), chi=0, orientable=None).validate()


def test_exact_search_agrees_with_brute_force():
    cases = [
        (cycle_graph(4), 2, True),
        (graphalg.complete(4), 1, None),
        (graphalg.complete_bipartite(2, 3), 2, True),
        (graphalg.complete_bipartite(2, 3), 2, False),  # sphere only: none
    ]
    for g, chi, orientable in cases:
        spec = search.WitnessSpec(graph=g, chi=chi, orientable=orientable)
        got = search.search_exact(spec).status == "found"
        assert got == brute_force_exists(g, chi, orientable), (chi, orientable)


def test_exact_search_exhaustion_is_budgeted():
    g = graphalg.phi_target("phi_7_0_plus")
    spec = search.WitnessSpec(graph=g, chi=-3, orientable=False)
    res = search.search_exact(spec, budget=5)
    assert res.status == "exhausted"
    assert res.nodes == 6  # the node that trips the budget is still counted


# The engine's output, pinned: the witness each search returns and the nodes
# it took.  A change to the engine must keep every value.
SHIPPED_CATALOG = Path(catalog.__file__).parent / "data" / "catalog"
EXACT_NODES = {"phi_4_0": 32, "phi_5_0_star": 35, "phi_6_1": 234, "phi_7_0_plus": 4973,
               "phi_7_2_plus": 5829, "phi_7_4_plus": 1712, "phi_7_2_plus_star": 2173,
               "phi_8_4_star": 2818, "phi_10_1_star": 633, "phi_11_8_plus_star": 213345,
               "k_6_3": 116, "c4_sphere": 8, "klein_6_3": 152}
ENUMERATED = {
    (6, 1): "5e55a94cdb4c3cc445594da67609e6fa47f7d8c391cdac0af32b939d95baefe0",
    (7, 0): "ecce4ee9c0bcc9f4f804a5f3c26573406799e99366461ef7d721a7d2f79d35c1",
}


# Exhaustive "none" answers, pinned with the nodes they took: a change to the
# traversal must keep both.
@pytest.mark.parametrize("k, chi, predicates, nodes", [
    (4, 1, (("face_simple",),), 61),
    (5, 0, (), 1139),
])
def test_exhaustive_none_is_pinned(k, chi, predicates, nodes):
    res = search.search_exact(search.WitnessSpec(graphalg.complete(k), chi, False, predicates))
    assert (res.status, res.nodes) == ("none", nodes)


# Full traversals, pinned: the nodes, the systems and a digest of their cores
# in yield order, when the search is resumed after every yield to its end.
TRAVERSALS = [
    (graphalg.complete(5), None, 1139, 6,
     "653dd9f13dba3a8f349b6701ff4f5cbb5833ec8dd9a958807f0f7683859992cf"),
    (graphalg.complete_bipartite(2, 6), None, 1181, 60,
     "fa6f387cf61d8958ce5ea4e980a687a4c040c7a2b93d2995037195c90e040eee"),
    (graphalg.complete_bipartite(4, 4), True, 2167, 54,
     "5a1af0f5e2b8e5dd08a3ea8749fb06fb994b99fd3b45196a4f00cbef56e2a5cf"),
    (graphalg.delete_edges(graphalg.complete(6), [(0, 1)]), None, 11807, 12,
     "459491a8addc6b82b7a9288276feed5425e88f5f64eea14fb2507e9faab83a51"),
    (graphalg.complete_bipartite(3, 4), None, 497, 6,
     "511bfbcce45f7575bed4761cfe8ae593536a6aabe0d4ad669b843c2e64f6b519"),
]


@pytest.mark.parametrize("g, orientable, nodes, systems, digest", TRAVERSALS)
def test_full_traversal_is_pinned(g, orientable, nodes, systems, digest):
    searcher = search._QuadSearcher(g, orientable)
    cores = hashlib.sha256()
    count = 0
    for emb in searcher.search(None):
        cores.update(repr((emb.rot, emb.sign)).encode())
        count += 1
    assert (searcher.nodes, count, cores.hexdigest()) == (nodes, systems, digest)


# A budget of exactly the nodes a search takes lets it finish; one less stops
# it at the node that trips the budget.  Most nodes of the two records are
# dead ends, so this pins where they are counted.
@pytest.mark.parametrize("name, status", [
    ("phi_7_0_plus", "found"), ("phi_7_2_plus", "found"), (None, "none")])
def test_budget_boundary(name, status):
    if name is None:  # K(5) on N2, with no witness
        spec, nodes = search.WitnessSpec(graphalg.complete(5), 0, False), 1139
    else:
        rec = _record(name)
        spec, nodes = rec.spec_for(rec.graphs()[0]), EXACT_NODES[name]
    full = search.search_exact(spec, budget=nodes)
    short = search.search_exact(spec, budget=nodes - 1)
    assert (full.status, full.nodes) == (status, nodes)
    assert (short.status, short.nodes) == ("exhausted", nodes)


def test_exact_search_depth_does_not_grow_with_the_edge_count():
    # 520 edges, so 2,080 tracing states: one frame per state would pass
    # Python's recursion limit
    res = search.search_exact(search.WitnessSpec(graphalg.complete_bipartite(2, 260), 2, True))
    assert res.status == "found"
    assert emap.is_quadrangular(res.embedding) and emap.is_orientable(res.embedding)


@pytest.mark.parametrize("name", ["phi_7_0_plus", "phi_7_2_plus"])
def test_dead_end_states_get_no_frame(monkeypatch, name):
    # a state that would end a face's fourth step away from its start is a
    # node but not an ``_extend`` frame; those were most of the nodes
    frames = []
    extend = search._QuadSearcher._extend

    def counted(self, path):
        frames.append(len(path))
        return extend(self, path)

    monkeypatch.setattr(search._QuadSearcher, "_extend", counted)
    rec = _record(name)
    res = search.search_exact(rec.spec_for(rec.graphs()[0]))
    assert res.nodes == EXACT_NODES[name]
    assert 2 * len(frames) <= res.nodes
    assert max(frames) == 4


def _record(name: str) -> catalog.CatalogRecord:
    return next(rec for rec in catalog.record_table() if rec.name == name)


def test_exact_search_reproduces_each_shipped_searched_witness():
    searched = [rec for rec in catalog.record_table() if rec.op == "searched"]
    assert sorted(rec.name for rec in searched) == sorted(EXACT_NODES)
    for rec in searched:
        res = search.search_exact(rec.spec_for(rec.graphs()[0]))
        assert (res.status, res.nodes) == ("found", EXACT_NODES[rec.name]), rec.name
        shipped = (SHIPPED_CATALOG / f"{rec.name}.emap").read_text()
        assert serialize.write_emap(res.embedding) == shipped, rec.name


@pytest.mark.parametrize("n, chi", sorted(ENUMERATED))
def test_enumeration_of_the_candidate_classes_is_pinned(n, chi):
    digest = hashlib.sha256()
    for g in search.candidate_graphs(n, chi):
        for emb in search.enumerate_embeddings(g):
            digest.update(serialize.write_emap(emb).encode())
    assert digest.hexdigest() == ENUMERATED[n, chi]


def test_enumeration_counts_small_graphs():
    assert len(list(search.enumerate_embeddings(cycle_graph(4), chi=2))) == 1
    k4 = list(search.enumerate_embeddings(graphalg.complete(4), chi=1))
    assert len(k4) == 1
    assert len(list(search.enumerate_embeddings(cycle_graph(6), chi=2))) == 0


def test_enumeration_of_an_edgeless_graph_is_empty():
    # no edge, no face: as for an odd edge count or a disconnected graph
    assert list(search.enumerate_embeddings(graphalg.complete(1))) == []


def test_enumeration_respects_predicates():
    embs = list(search.enumerate_embeddings(
        graphalg.complete(4), (("face_simple",),), chi=1))
    assert embs == []
    embs = list(search.enumerate_embeddings(
        graphalg.complete(4), (("nearly_face_simple_except", 0),), chi=1))
    assert len(embs) == 1


def test_check_predicates_unknown_name():
    emb = next(iter(search.enumerate_embeddings(cycle_graph(4), chi=2)))
    with pytest.raises(SearchError):
        search.check_predicates(surgery.FaceTable.from_embedding(emb), (("made_up",),))


def test_candidate_graphs_degree_floor():
    # quadrangular + face-simple forces min degree 3 and |E| = 2(n - chi)
    for g in search.candidate_graphs(6, 1):
        assert len(g.edges) == 10
        assert min(degree(g, v) for v in g.vertices) >= 3
        assert g.is_connected()


def test_sweep_projective_small():
    res = search.sweep_minimal("projective", 5)
    assert res[4] == [] and res[5] == []


def test_sweep_projective_at_the_cap_is_pinned():
    res = search.sweep_minimal("projective", search.ENUMERATION_VERTEX_CAP)
    assert {n: len(hits) for n, hits in res.items()} == {4: 0, 5: 0, 6: 1, 7: 2, 8: 3}


def test_sweep_unknown_surface():
    with pytest.raises(SearchError):
        search.sweep_minimal("klein", 4)


def _raise_key_error(*args, **kwargs):
    raise KeyError("kernel bug")


def test_handle_augment_bug_is_not_read_as_unusable_site(monkeypatch):
    table = surgery.FaceTable.from_embedding(catalog.get_witness("phi_11_8_plus_star"))
    monkeypatch.setattr(surgery.FaceTable, "handle", _raise_key_error)
    with pytest.raises(KeyError):
        search._double_handle_ok(table, (1, 2, 3, 4), (5, 6, 7, 8))
    with pytest.raises(KeyError):
        search.check_predicates(table, (("double_handle", (1, 2, 3, 4), (5, 6, 7, 8)),))


def test_delete_degree2_bug_is_not_read_as_failed_predicate(monkeypatch):
    table = surgery.FaceTable.from_embedding(catalog.get_witness("phi_7_0_plus"))
    monkeypatch.setattr(surgery.FaceTable, "delete_degree2", _raise_key_error)
    with pytest.raises(KeyError):
        search.check_predicates(table, (("delete_degree2_face_simple", "z"),))


def test_refused_surgery_is_read_as_a_failed_predicate(monkeypatch):
    table = surgery.FaceTable.from_embedding(catalog.get_witness("phi_11_8_plus_star"))
    predicates = (("delete_degree2_face_simple", "z"),
                  ("double_handle", (1, 2, 3, 4), (5, 6, 7, 8)))
    assert search.check_predicates(table, predicates)
    assert not search.check_predicates(table, (("delete_degree2_face_simple", "x"),))

    def refused(*args, **kwargs):
        raise SurgeryError("refused")

    for name in ("handle", "delete_degree2"):
        with monkeypatch.context() as m:
            m.setattr(surgery.FaceTable, name, refused)
            assert not search.check_predicates(table, predicates)




def test_sweep_past_the_cap_fails_before_enumerating(monkeypatch):
    calls = []
    monkeypatch.setattr(search, "candidate_graphs", lambda n, chi: calls.append(n) or iter(()))
    with pytest.raises(SearchError, match="capped"):
        search.sweep_minimal("projective", search.ENUMERATION_VERTEX_CAP + 1)
    assert calls == []


def _labeled_candidates(n: int, chi: int):
    """Every labeled edge set on range(n) with 2(n - chi) edges, minimum
    degree 3 and connected, as enumerated before rooting (reference copy)."""
    m = 2 * (n - chi)
    if m < 0 or m > n * (n - 1) // 2 or 2 * m < 3 * n:
        return
    pairs = list(itertools.combinations(range(n), 2))
    deg = [0] * n
    chosen = []

    def feasible(idx: int, picked: int) -> bool:
        if picked + (len(pairs) - idx) < m:
            return False
        for v in range(n):
            remaining = sum(1 for (a, b) in pairs[idx:] if v in (a, b))
            if deg[v] + remaining < 3:
                return False
        return True

    def rec(idx: int, picked: int):
        if picked == m:
            if all(d >= 3 for d in deg):
                g = Graph.from_edges(chosen, vertices=range(n))
                if g.is_connected():
                    yield g
            return
        if idx == len(pairs) or not feasible(idx, picked):
            return
        a, b = pairs[idx]
        chosen.append((a, b))
        deg[a] += 1
        deg[b] += 1
        yield from rec(idx + 1, picked + 1)
        chosen.pop()
        deg[a] -= 1
        deg[b] -= 1
        yield from rec(idx + 1, picked)

    yield from rec(0, 0)


def _reference_classes(n: int, chi: int) -> list:
    """One graph per class of ``_labeled_candidates``, merged by VF2."""
    reps: list = []
    for g in _labeled_candidates(n, chi):
        if not any(vf2_isomorphic(g, h) for h in reps):
            reps.append(g)
    return reps


@pytest.mark.parametrize("n, chi", [(4, 2), (5, 2), (6, 2), (7, 2), (4, 1), (5, 1), (6, 1),
                                    (5, 0), (6, 0)])
def test_candidate_graphs_match_the_labeled_enumeration(n, chi):
    reference = _reference_classes(n, chi)
    got = list(search.candidate_graphs(n, chi))
    assert len(got) == len(reference)
    for g in got:
        assert sum(vf2_isomorphic(g, h) for h in reference) == 1


def test_candidate_graphs_are_rooted_and_deterministic():
    got = list(search.candidate_graphs(7, 1))
    assert len(got) == 18
    for g in got:
        d = degree(g, 0)
        assert d == max(degree(g, v) for v in g.vertices)
        assert neighbors(g, 0) == set(range(1, d + 1))
    assert got == list(search.candidate_graphs(7, 1))


def test_candidate_graphs_build_a_graph_only_for_each_class(monkeypatch):
    # the 248 rooted labelings at (7, 1) are tested and merged on their edge
    # lists; only the 18 classes become a Graph
    calls = []
    from_edges = Graph.from_edges

    def counted(edges, vertices=()):
        calls.append(1)
        return from_edges(edges, vertices)

    monkeypatch.setattr(Graph, "from_edges", staticmethod(counted))
    assert len(list(search.candidate_graphs(7, 1))) == 18
    assert len(calls) == 18

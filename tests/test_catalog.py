"""Witness catalog: records, persistence, derivations, K_{m,n} builder."""

from __future__ import annotations

import hashlib
import inspect
import os
import shutil
import sys
from pathlib import Path

import pytest

from labelled import degree
from quadforge import catalog, emap, graphalg, search, serialize, surgery
from quadforge.errors import CatalogError, SurgeryError

SHIPPED_CATALOG = Path(catalog.__file__).parent / "data" / "catalog"


def test_record_table_names_unique():
    names = [rec.name for rec in catalog.record_table()]
    assert len(names) == len(set(names))
    assert "phi_4_0" in names
    assert "phi_11_8_plus_star" in names


def test_all_witnesses_present_and_verified():
    report = catalog.verify_all()
    assert len(report) == len(catalog.record_table())
    bad = [(name, msg) for name, ok, msg in report if not ok]
    assert bad == []


def test_witness_round_trip_from_disk():
    for rec in catalog.record_table():
        emb = catalog.get_witness(rec.name)
        text = serialize.write_emap(emb)
        assert serialize.parse_emap(text) == emb
        assert text == serialize.write_emap(serialize.parse_emap(text))


def test_core_witness_properties():
    w = catalog.get_witness("phi_4_0")
    assert emap.euler_characteristic(w) == 1
    assert not emap.is_face_simple(w)
    assert emap.is_nearly_face_simple_except(w, 0)

    w = catalog.get_witness("phi_5_0_star")
    assert emap.euler_characteristic(w) == 0
    assert emap.is_orientable(w)
    assert emap.is_face_simple(w)

    w = catalog.get_witness("klein_6_3")
    assert emap.euler_characteristic(w) == 0
    assert not emap.is_orientable(w)
    assert emap.is_face_simple(w)


def test_apex_witness_predicates():
    for i in (0, 2, 4):
        w = catalog.get_witness(f"phi_7_{i}_plus")
        assert emap.euler_characteristic(w) == i // 2 - 3
        assert emap.is_nearly_face_simple_except(w, "x")


def test_derived_witnesses_match_their_parents():
    q = catalog.get_witness("q7_1")
    parent = catalog.get_witness("phi_7_0_plus")
    assert len(q.graph.vertices) == len(parent.graph.vertices) - 1
    assert emap.is_face_simple(q)

    q8 = catalog.get_witness("q8_0")
    assert q8.graph == graphalg.complete(8)
    assert emap.is_orientable(q8)
    assert emap.euler_characteristic(q8) == -6


def test_double_handle_derivation_lands_on_target_graph():
    final = catalog.get_witness("phi_11_0_plus_star")
    assert final.graph == graphalg.phi_target("phi_11_0_plus_star")
    assert emap.euler_characteristic(final) == -16
    assert emap.is_orientable(final)


# Each record's target graph: the sha256 of its sorted vertex reprs and its
# sorted edge reprs.  q6_3_orientable's is its shipped witness's graph.
TARGET_DIGESTS = {
    "phi_4_0": "fe516ecdcb797906",
    "phi_5_0_star": "88c77b483ebb00ed",
    "phi_6_1": "6fecfb45bbe87cbc",
    "phi_7_0_plus": "e11008dbf14f8712",
    "phi_7_2_plus": "464d7120d55f701e",
    "phi_7_4_plus": "2af065fb3c008dbd",
    "phi_7_2_plus_star": "464d7120d55f701e",
    "phi_8_4_star": "3711c32de9dfce3e",
    "phi_10_1_star": "bffa7b32eae03feb",
    "phi_11_8_plus_star": "b21ed6b1245028b3",
    "k_6_3": "33151e800213b6ab",
    "c4_sphere": "6279b98e835ee974",
    "klein_6_3": "aa539f89b6935f61",
    "phi_11_4_plus_star": "67174caa6e222793",
    "phi_11_0_plus_star": "0a2b3c30b95f678c",
    "q7_1": "50a2210b8ace1326",
    "q7_3": "5c121c9a9fc05cf9",
    "q7_3_orientable": "5c121c9a9fc05cf9",
    "q11_5": "987091575fbaf110",
    "q11_1": "e00d20b953e8ee8e",
    "q8_0": "84b696f825fb35c3",
    "q6_3_orientable": "6eac2e12ab9fce87",
}


def graph_digest(g) -> str:
    text = repr((sorted(map(repr, g.vertices)), sorted(map(repr, g.edges))))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_each_record_states_its_pinned_target_graph():
    got = {rec.name: graph_digest(catalog.target_graph(rec.name))
           for rec in catalog.record_table()}
    assert got == TARGET_DIGESTS


def test_inserted_degree2_target_is_exact():
    # K5 and a vertex 5 joined to the corner 0 of the face (0, 1, 2, 3) and to its opposite
    k5_plus = emap.Graph.from_edges([*graphalg.complete(5).edges, (5, 0), (5, 2)])
    assert catalog.target_graph("q6_3_orientable") == k5_plus
    assert graphalg.parse_expr("phi(q6_3_orientable)").eval() == k5_plus
    assert catalog.get_witness("q6_3_orientable").graph == k5_plus


def test_unknown_record():
    with pytest.raises(CatalogError):
        catalog.get_record("no_such_witness")
    with pytest.raises(CatalogError):
        catalog.get_witness("no_such_witness")


def test_env_override_builds_fresh(tmp_path, monkeypatch):
    monkeypatch.setenv(catalog.CATALOG_ENV, str(tmp_path))
    catalog.clear_cache()
    try:
        emb = catalog.get_witness("c4_sphere")
        assert (tmp_path / "c4_sphere.emap").exists()
        assert (tmp_path / "manifest.txt").exists()
        assert emap.euler_characteristic(emb) == 2
    finally:
        monkeypatch.delenv(catalog.CATALOG_ENV)
        catalog.clear_cache()


def test_build_kmn_certified():
    for m, n in [(6, 2), (6, 3), (6, 7), (10, 3), (10, 4)]:
        emb = catalog.build_kmn(m, n)
        g = emb.graph
        assert len(g.vertices) == m + n
        assert len(g.edges) == m * n
        assert emap.is_quadrangular(emb)
        assert emap.is_orientable(emb)
        assert emap.euler_characteristic(emb) == m + n - m * n // 2
        if n >= 3:
            assert emap.is_face_simple(emb)


def test_build_kmn_rejects_bad_m():
    with pytest.raises(CatalogError):
        catalog.build_kmn(8, 3)
    with pytest.raises(CatalogError):
        catalog.build_kmn(6, 1)


def test_kmn_has_full_degree_vertices():
    emb = catalog.build_kmn(6, 5)
    degs = sorted(degree(emb.graph, v) for v in emb.graph.vertices)
    assert degs == [5] * 6 + [6] * 5


def test_handle_augment_bug_propagates_from_chain_site(monkeypatch):
    parent = catalog.witness_table("phi_11_8_plus_star")

    def broken(*args, **kwargs):
        raise KeyError("kernel bug")

    monkeypatch.setattr(catalog.surgery.FaceTable, "handle", broken)
    with pytest.raises(KeyError):
        catalog._first_chain_site(parent, (1, 2, 3, 4), (5, 6, 7, 8))


def test_refused_handle_is_read_as_an_unusable_site(monkeypatch):
    parent = catalog.witness_table("phi_11_8_plus_star")

    def refused(*args, **kwargs):
        raise SurgeryError("refused")

    monkeypatch.setattr(catalog.surgery.FaceTable, "handle", refused)
    with pytest.raises(CatalogError, match="no usable handle site"):
        catalog._first_chain_site(parent, (1, 2, 3, 4), ())


@pytest.mark.parametrize("rec", [rec for rec in catalog.record_table() if rec.parent],
                         ids=lambda rec: rec.name)
def test_derived_record_rebuilds_to_its_shipped_bytes(rec):
    assert serialize.write_emap(catalog._derive(rec)) == catalog._witness_path(rec.name).read_text()


def test_bad_derivation_is_not_persisted(tmp_path, monkeypatch):
    shutil.copytree(catalog.catalog_dir(), tmp_path, dirs_exist_ok=True)
    (tmp_path / "q7_1.emap").unlink()
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                if not line.startswith("q7_1 ")))
    before = manifest.read_text()
    monkeypatch.setenv(catalog.CATALOG_ENV, str(tmp_path))
    catalog.clear_cache()
    try:
        # a witness on the wrong graph must fail verification before it is written
        monkeypatch.setattr(catalog, "_derive", lambda rec: catalog.get_witness("phi_4_0"))
        with pytest.raises(CatalogError, match="target graph"):
            catalog.get_witness("q7_1")
        assert not (tmp_path / "q7_1.emap").exists()
        assert manifest.read_text() == before
    finally:
        monkeypatch.delenv(catalog.CATALOG_ENV)
        catalog.clear_cache()


def test_witness_cache_follows_catalog_dir(tmp_path, monkeypatch):
    good, bad = tmp_path / "good", tmp_path / "bad"
    shutil.copytree(catalog.catalog_dir(), good)
    shutil.copytree(catalog.catalog_dir(), bad)
    (bad / "phi_4_0.emap").write_text("not an emap file\n")
    (bad / "k_6_3.emap").write_text("not an emap file\n")
    monkeypatch.setenv(catalog.CATALOG_ENV, str(good))
    try:
        catalog.get_witness("phi_4_0")
        catalog.build_kmn(6, 3)
        monkeypatch.setenv(catalog.CATALOG_ENV, str(bad))
        with pytest.raises(CatalogError, match="phi_4_0"):
            catalog.get_witness("phi_4_0")
        with pytest.raises(CatalogError, match="k_6_3"):
            catalog.build_kmn(6, 3)
    finally:
        monkeypatch.delenv(catalog.CATALOG_ENV)
        catalog.clear_cache()


def test_witness_tables_follow_catalog_dir(tmp_path, monkeypatch):
    shutil.copytree(catalog.catalog_dir(), tmp_path, dirs_exist_ok=True)
    (tmp_path / "k_6_3.emap").write_text("not an emap file\n")
    catalog.witness_table("phi_4_0")
    catalog.witness_table("k_6_3")
    monkeypatch.setenv(catalog.CATALOG_ENV, str(tmp_path))
    try:
        catalog.follow_catalog_dir()
        assert catalog._witness_cache == {}
        with pytest.raises(CatalogError, match="k_6_3"):
            catalog.witness_table("k_6_3")
    finally:
        monkeypatch.delenv(catalog.CATALOG_ENV)
        catalog.clear_cache()


def test_follow_catalog_dir_builds_a_path_only_on_a_change(tmp_path, monkeypatch):
    catalog.get_witness("phi_4_0")
    catalog.build_kmn(6, 3)
    built = []
    real = catalog.catalog_dir

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(catalog, "catalog_dir", counting)
    catalog.get_witness("phi_4_0")  # cache hits: only follow_catalog_dir runs
    catalog.build_kmn(6, 3)
    assert built == []
    monkeypatch.setenv(catalog.CATALOG_ENV, str(tmp_path))
    try:
        catalog.follow_catalog_dir()
        catalog.follow_catalog_dir()
        assert built == [1]
        assert catalog._witness_cache == {}
    finally:
        monkeypatch.delenv(catalog.CATALOG_ENV)
        catalog.clear_cache()


@pytest.mark.parametrize("m, n", [(6, 45), (10, 41)])
def test_cold_build_kmn_sums_once_per_stride(m, n, monkeypatch):
    sums = []
    real = catalog.surgery.FaceTable.splice

    def counting(table, v, summand, v2):
        sums.append(v)
        return real(table, v, summand, v2)

    monkeypatch.setattr(catalog.surgery.FaceTable, "splice", counting)
    catalog.clear_cache()
    emb = catalog.build_kmn(m, n)
    assert emb.graph == graphalg.complete_bipartite(m, n)
    # the unit stride took 42 and 39 sums; the stride of m-2 takes 13 and 12
    assert 0 < len(sums) <= 15


def test_cold_build_kmn_does_not_recurse():
    catalog.clear_cache()
    catalog.get_witness("k_6_3")
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        emb = catalog.build_kmn(6, 202)
    finally:
        sys.setrecursionlimit(limit)
    assert emb.graph == graphalg.complete_bipartite(6, 202)
    assert emap.is_orientable(emb) and emap.is_face_simple(emb)


def test_cold_kmn_chain_adds_linearly_many_faces(monkeypatch):
    added, certified = [], []
    add, certify = catalog.surgery.FaceTable._add, catalog._certify_kmn

    def counting_add(table, w):
        added.append(w)
        return add(table, w)

    def counting_certify(table, m, n):
        certified.append((m, n))
        return certify(table, m, n)

    monkeypatch.setattr(catalog.surgery.FaceTable, "_add", counting_add)
    monkeypatch.setattr(catalog, "_certify_kmn", counting_certify)
    catalog.clear_cache()
    n = 402
    table = catalog.kmn_table(6, n)
    assert set(table.edges()) == graphalg.complete_bipartite(6, n).edges
    # the chain splices K_{6,6}'s 18 faces about 100 times in place;
    # relabelling and rebuilding each K after its splice added 66,078
    assert len(added) <= 5 * n
    assert sorted(certified) == sorted(catalog._KMN_CACHE)


@pytest.mark.parametrize("m", [6, 10])
def test_build_kmn_certified_through_k30(m):
    for n in range(2, 31):
        emb = catalog.build_kmn(m, n)
        assert emb.graph == graphalg.complete_bipartite(m, n)
        assert emap.is_quadrangular(emb)
        assert emap.is_orientable(emb)
        assert emap.euler_characteristic(emb) == m + n - m * n // 2
        assert emap.is_face_simple(emb) == (n >= 3)


def test_catalog_rebuilds_to_the_shipped_bytes(tmp_path, monkeypatch):
    # the record table alone fixes every witness file and the manifest
    monkeypatch.setenv(catalog.CATALOG_ENV, str(tmp_path))
    catalog.clear_cache()
    try:
        catalog.build_all()
    finally:
        monkeypatch.delenv(catalog.CATALOG_ENV)
        catalog.clear_cache()
    shipped = sorted(path.name for path in SHIPPED_CATALOG.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == shipped
    assert len(shipped) == len(catalog.record_table()) + 1
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (SHIPPED_CATALOG / name).read_bytes(), name


@pytest.fixture
def catalog_copy(tmp_path, monkeypatch):
    """A private copy of the shipped catalog, selected through QUADFORGE_CATALOG."""
    root = tmp_path / "catalog"
    shutil.copytree(catalog.catalog_dir(), root)
    monkeypatch.setenv(catalog.CATALOG_ENV, str(root))
    catalog.clear_cache()
    yield root
    monkeypatch.delenv(catalog.CATALOG_ENV)
    catalog.clear_cache()


def test_failed_search_reports_the_budget_it_ran(catalog_copy, monkeypatch):
    (catalog_copy / "phi_8_4_star.emap").unlink()
    runs = []

    def miss(spec, budget=None):
        runs.append(budget)
        return search.SearchResult("exhausted", None, 0)

    monkeypatch.setattr(search, "search_exact", miss)
    with pytest.raises(CatalogError) as err:
        catalog.get_witness("phi_8_4_star")
    assert runs == [catalog._EXACT_BUDGET]
    assert "status=exhausted" in str(err.value)
    assert "budget=50000000" in str(err.value)
    assert not (catalog_copy / "phi_8_4_star.emap").exists()


def test_missing_searched_witness_is_searched_again(catalog_copy):
    path = catalog_copy / "phi_8_4_star.emap"
    path.unlink()
    emb = catalog.get_witness("phi_8_4_star")
    catalog._verify(catalog.get_record("phi_8_4_star"), emb)
    assert serialize.parse_emap(path.read_text()) == emb
    assert path.read_bytes() == (SHIPPED_CATALOG / "phi_8_4_star.emap").read_bytes()
    manifest = (catalog_copy / "manifest.txt").read_text()
    assert manifest.count("phi_8_4_star ") == 1
    report = catalog.verify_all()
    assert len(report) == len(catalog.record_table())
    assert [(name, msg) for name, ok, msg in report if not ok] == []


def test_parse_bug_propagates_from_witness_loads(catalog_copy, monkeypatch):
    def broken(text):
        raise KeyError("kernel bug")

    monkeypatch.setattr(catalog.serialize, "parse_emap", broken)
    with pytest.raises(KeyError):
        catalog.get_witness("phi_4_0")
    with pytest.raises(KeyError):
        catalog.verify_all()


def test_a_witness_on_other_edges_of_the_target_vertices_is_refused(catalog_copy):
    # phi_6_1 lies on K6 minus 4-5; swapping labels 3 and 5 puts it on K6 minus 3-4
    emb = catalog.get_witness("phi_6_1")
    moved = surgery.relabel_embedding(emb, {v: {3: 5, 5: 3}.get(v, v) for v in emb.labels})
    assert set(moved.labels) == set(emb.labels) and moved.ends != emb.ends
    message = "phi_6_1: stored witness is not on the record's target graph"
    with pytest.raises(CatalogError, match=message):
        catalog._verify(catalog.get_record("phi_6_1"), moved)
    text = serialize.write_emap(moved)
    (catalog_copy / "phi_6_1.emap").write_text(text)
    catalog.clear_cache()
    with pytest.raises(CatalogError, match=message):
        catalog.get_witness("phi_6_1")
    manifest = catalog_copy / "manifest.txt"
    lines = [line.split() for line in manifest.read_text().splitlines()]
    for fields in lines:
        if fields[0] == "phi_6_1":
            fields[2] = catalog._digest(text)
    manifest.write_text("".join(" ".join(fields) + "\n" for fields in lines))
    report = {name: (ok, msg) for name, ok, msg in catalog.verify_all()}
    assert report["phi_6_1"] == (False, message)
    assert all(ok for name, (ok, _) in report.items() if name != "phi_6_1")


def test_truncated_witness_is_reported_corrupt(catalog_copy):
    path = catalog_copy / "phi_4_0.emap"
    lines = path.read_text().splitlines(True)
    path.write_text("".join(lines[: len(lines) // 2]))
    with pytest.raises(CatalogError, match="phi_4_0: witness file corrupt"):
        catalog.get_witness("phi_4_0")
    report = {name: (ok, msg) for name, ok, msg in catalog.verify_all()}
    assert report["phi_4_0"][0] is False
    assert all(ok for name, (ok, _) in report.items() if name != "phi_4_0")

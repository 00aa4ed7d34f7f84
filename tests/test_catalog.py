"""Witness catalog: records, persistence, derivations, K_{m,n} builder."""

from __future__ import annotations

import inspect
import os
import shutil
import sys

import pytest

from quadforge import catalog, emap, graphalg, search, serialize
from quadforge.errors import CatalogError, SurgeryError


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
    degs = sorted(emb.graph.degree(v) for v in emb.graph.vertices)
    assert degs == [5] * 6 + [6] * 5


def test_handle_augment_bug_propagates_from_chain_site(monkeypatch):
    parent = catalog.get_witness("phi_11_8_plus_star")

    def broken(*args, **kwargs):
        raise KeyError("kernel bug")

    monkeypatch.setattr(catalog.surgery.FaceTable, "handle", broken)
    with pytest.raises(KeyError):
        catalog._first_chain_site(parent, (1, 2, 3, 4), (5, 6, 7, 8))


def test_refused_handle_is_read_as_an_unusable_site(monkeypatch):
    parent = catalog.get_witness("phi_11_8_plus_star")

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


def test_failed_anneal_reports_the_budgets_it_ran(catalog_copy, monkeypatch):
    (catalog_copy / "phi_8_4_star.emap").unlink()
    runs = []

    def miss(spec, **kwargs):
        runs.append(kwargs.get("restarts"))
        return search.SearchResult("none", None, 0)

    monkeypatch.setattr(search, "search_randomized", miss)
    with pytest.raises(CatalogError) as err:
        catalog.get_witness("phi_8_4_star")
    assert runs == [512]
    assert "status=none" in str(err.value)
    assert "budget=randomized x512" in str(err.value)
    assert not (catalog_copy / "phi_8_4_star.emap").exists()


def test_missing_randomized_witness_is_searched_again(catalog_copy):
    path = catalog_copy / "phi_8_4_star.emap"
    path.unlink()
    emb = catalog.get_witness("phi_8_4_star")
    catalog._verify(catalog.get_record("phi_8_4_star"), emb)
    assert serialize.parse_emap(path.read_text()) == emb
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


def test_truncated_witness_is_reported_corrupt(catalog_copy):
    path = catalog_copy / "phi_4_0.emap"
    lines = path.read_text().splitlines(True)
    path.write_text("".join(lines[: len(lines) // 2]))
    with pytest.raises(CatalogError, match="phi_4_0: witness file corrupt"):
        catalog.get_witness("phi_4_0")
    report = {name: (ok, msg) for name, ok, msg in catalog.verify_all()}
    assert report["phi_4_0"][0] is False
    assert all(ok for name, (ok, _) in report.items() if name != "phi_4_0")

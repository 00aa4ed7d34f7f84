"""Parameter admissibility, plan construction, and end-to-end generation."""

from __future__ import annotations

import hashlib
import random
import shutil

import pytest

from quadforge import catalog, emap, graphalg, planner, search, serialize, surgery
from quadforge.errors import CatalogError, PlanError
from quadforge.planner import ParamRequest


def test_request_validation():
    with pytest.raises(PlanError):
        ParamRequest(n=3, t=0, kind="orientable")
    with pytest.raises(PlanError):
        ParamRequest(n=8, t=-1, kind="orientable")
    with pytest.raises(PlanError):
        ParamRequest(n=8, t=0, kind="klein")
    with pytest.raises(PlanError, match="kind must be"):
        ParamRequest(8, 0, "klein")
    assert ParamRequest(8, 0, "orientable") == ParamRequest(n=8, t=0, kind="orientable")


def test_plans_of_one_request_are_equal_and_hash_equal():
    # the memo `_GEN_CACHE` is keyed by plan nodes
    a = planner.plan(ParamRequest(50, 3, "nonorientable"))
    b = planner.plan(ParamRequest(n=50, t=3, kind="nonorientable"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != planner.plan(ParamRequest(50, 5, "nonorientable"))
    assert planner.PlanNode("base", 6, 1) == planner.PlanNode(
        step="base", n=6, t=1, record=None, i=None)


def test_deep_plans_are_equal_memo_keys():
    # about 1,000 steps; each node is a flat memo key, so no lookup recurses
    a = planner.plan(ParamRequest(4002, 3, "nonorientable"))
    b = planner.plan(ParamRequest(4002, 3, "nonorientable"))
    keys = dict.fromkeys(b)
    assert all(node in keys for node in a)
    assert len(a) > 980 and planner.plan_text(a) == planner.plan_text(b)


@pytest.mark.parametrize("record, field", [
    (emap.Graph.from_edges([(0, 1)]), "edges"),
    (emap.FaceWalk(((0, (0, 1)), (1, (0, 1)))), "darts"),
    (emap.Certificate(4, 6, 0, 1, False, True, False, (0, 1, 2, 3), 3, True), "minimal"),
    (ParamRequest(6, 1, "nonorientable"), "t"),
    (planner.PlanNode("base", 6, 1), "record"),
    (catalog.CatalogRecord("x", 1, False), "op"),
    (search.WitnessSpec(graphalg.complete(4), 1, None), "predicates"),
    (search.SearchResult("none"), "nodes"),
    (graphalg.parse_expr("K(4)"), "args"),
    (surgery.HandleSite((0, 1, 2, 3), (4, 5, 6, 7)), "alpha"),
], ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_records_are_immutable(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_record_defaults():
    rec = catalog.CatalogRecord("x", 1, False)
    assert rec == catalog.CatalogRecord(name="x", chi=1, orientable=False, predicates=(),
                                        op="searched", parent=None, args=())
    assert rec.provenance == "searched"
    assert search.SearchResult("none") == search.SearchResult(status="none", embedding=None,
                                                              nodes=0)
    assert search.WitnessSpec(graphalg.complete(4), 1, None).predicates == ()


def test_classify_specials():
    assert planner.classify(ParamRequest(n=4, t=2, kind="orientable")) == "special"
    assert planner.classify(ParamRequest(n=6, t=3, kind="nonorientable")) == "special"


def test_congruences():
    # nonorientable: t = n(n-5)/2 (mod 2); orientable: same (mod 4)
    assert planner.admissible(ParamRequest(n=10, t=1, kind="nonorientable"))
    assert not planner.admissible(ParamRequest(n=10, t=2, kind="nonorientable"))
    assert planner.admissible(ParamRequest(n=9, t=2, kind="orientable"))
    assert not planner.admissible(ParamRequest(n=9, t=0, kind="orientable"))
    # t range: 0 <= t <= n - 4
    assert not planner.admissible(ParamRequest(n=10, t=7, kind="nonorientable"))


def test_orientable_n6_row_is_empty():
    for t in range(0, 3):
        assert not planner.admissible(ParamRequest(n=6, t=t, kind="orientable"))


def test_plan_tree_shape():
    node = planner.plan(ParamRequest(n=14, t=3, kind="nonorientable"))
    text = planner.plan_text(node)
    assert "base" in text
    lines = text.splitlines()
    assert lines[0].startswith("nonorientable step")
    assert any(line.startswith("  ") for line in lines)


def test_plan_rejects_inadmissible():
    with pytest.raises(PlanError):
        planner.plan(ParamRequest(n=10, t=2, kind="nonorientable"))


def test_plan_of_a_special_is_its_record():
    for (n, t, kind), record in planner.SPECIALS.items():
        node = planner.plan(ParamRequest(n=n, t=t, kind=kind))
        assert node == (planner.PlanNode("base", n, t, record=record),)
        emb, cert, got = planner.generate(ParamRequest(n=n, t=t, kind=kind))
        assert got == node and emb is catalog.get_witness(record)


def test_generate_special_sphere():
    emb, cert, node = planner.generate(ParamRequest(n=4, t=2, kind="orientable"))
    assert cert.n == 4 and cert.t == 2
    assert cert.chi == 2
    assert cert.quadrangular
    assert not cert.face_simple  # the two sphere faces share all four edges


def test_generate_nonorientable_pairs():
    for n, t in [(6, 1), (7, 3), (9, 0), (11, 1), (12, 4)]:
        emb, cert, node = planner.generate(
            ParamRequest(n=n, t=t, kind="nonorientable"))
        assert (cert.n, cert.t) == (n, t)
        assert not cert.orientable
        assert cert.quadrangular and cert.face_simple
        assert cert.universal
        assert cert.minimal


def test_generate_orientable_pairs():
    for n, t in [(5, 0), (8, 0), (10, 1), (12, 2), (13, 8), (15, 3)]:
        emb, cert, node = planner.generate(
            ParamRequest(n=n, t=t, kind="orientable"))
        assert (cert.n, cert.t) == (n, t)
        assert cert.orientable
        assert cert.quadrangular and cert.face_simple
        assert cert.universal
        assert cert.min_degree >= 3
        assert cert.minimal


def test_generate_is_deterministic():
    req = ParamRequest(n=10, t=3, kind="nonorientable")
    a, _, _ = planner.generate(req)
    planner._GEN_CACHE.clear()
    b, _, _ = planner.generate(req)
    assert a == b


def test_generate_cache_follows_catalog_dir(tmp_path, monkeypatch):
    good, bad = tmp_path / "good", tmp_path / "bad"
    shutil.copytree(catalog.catalog_dir(), good)
    shutil.copytree(catalog.catalog_dir(), bad)
    for path in bad.glob("*.emap"):
        path.write_text("not an emap file\n")
    req = ParamRequest(n=50, t=3, kind="nonorientable")
    monkeypatch.setenv(catalog.CATALOG_ENV, str(good))
    try:
        planner.generate(req)
        monkeypatch.setenv(catalog.CATALOG_ENV, str(bad))
        with pytest.raises(CatalogError):
            planner.generate(req)
    finally:
        monkeypatch.delenv(catalog.CATALOG_ENV)
        catalog.clear_cache()


def test_generated_embedding_consistency():
    emb, cert, node = planner.generate(ParamRequest(n=11, t=3, kind="nonorientable"))
    assert len(emb.graph.vertices) == 11
    assert len(emb.graph.edges) == 11 * 10 // 2 - 3
    assert emap.euler_characteristic(emb) == cert.chi


def test_induction_step_answers_face_simplicity_from_the_tables(monkeypatch):
    child, _, _ = planner.generate(ParamRequest(n=10, t=3, kind="nonorientable"))
    chain = surgery.FaceTable.from_embedding(child)
    catalog.build_kmn(6, 9)  # warm: a cold build certifies with FaceTable.is_face_simple
    checked = []
    real = surgery.FaceTable.is_face_simple

    def counting(table):
        checked.append((table, len(table.vertices())))
        return real(table)

    def rebuilt(emb):
        raise AssertionError("the step guards must be answered from the face tables")

    monkeypatch.setattr(surgery.FaceTable, "is_face_simple", counting)
    monkeypatch.setattr(emap, "is_face_simple", rebuilt)
    planner._SITES.clear()
    planner._induct_step(chain, "phi_7_2_plus", 6)
    assert len(chain.vertices()) == 14
    # K_{6,9} by the first sum's hypotheses; the same table with the block summed
    # into it by the intermediate guard and by the second sum's hypotheses; the output
    assert [n for _, n in checked] == [15, 15, 15, 14]
    assert checked[0][0] is checked[1][0] is checked[2][0] and checked[3][0] is chain
    # a step on another chain of that size splices the summand's site: only the output
    checked.clear()
    again = surgery.FaceTable.from_embedding(child)
    planner._induct_step(again, "phi_7_2_plus", 6)
    assert checked == [(again, 14)] and again.faces() == chain.faces()


def test_cold_generation_calls_each_embedding_kernel_once(monkeypatch):
    catalog.clear_cache()
    for rec in catalog.record_table():
        catalog.get_witness(rec.name)
    kernels = ((surgery, "diamond_sum"), (emap, "embedding_from_faces"),
               (surgery.FaceTable, "embedding"), (emap, "is_orientable"),
               (emap.Embedding, "__init__"))
    calls = {name: 0 for _, name in kernels}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module, name in kernels:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    ranked_on = []
    ranked = surgery.FaceTable.ranked
    monkeypatch.setattr(surgery.FaceTable, "ranked",
                        lambda table, **key: ranked_on.append(table) or ranked(table, **key))
    req = ParamRequest(n=50, t=3, kind="nonorientable")
    planner.generate(req)
    # the K_{m,n} are summed in face tables, the output's rotation system is
    # built from the chain's table once, and it is certified once: the one
    # embedding constructed is the output
    assert calls == {"diamond_sum": 0, "embedding_from_faces": 0, "embedding": 1,
                     "is_orientable": 1, "__init__": 1}
    # the only tables put on ranks are the base's witness table, which the
    # chain starts from, and the catalog's K_{6,3}, which seeds the K_{6,n}:
    # the output's core is built on ranks from the chain's own table
    assert ranked_on == [catalog.witness_table(planner.plan(req)[0].record),
                         catalog.witness_table("k_6_3")]


def test_generated_output_is_traced_once(monkeypatch):
    for rec in catalog.record_table():
        catalog.get_witness(rec.name)
    traced = []
    trace = emap.Embedding._trace
    monkeypatch.setattr(emap.Embedding, "_trace", lambda emb: traced.append(emb) or trace(emb))
    emb, cert, _ = planner.generate(ParamRequest(n=50, t=3, kind="nonorientable"))
    # checked against the chain's table and certified from the same traced states
    assert len(traced) == 1 and traced[0] is emb
    assert cert.face_simple and cert.quadrangular


def test_sum_hypotheses_need_an_independent_neighbourhood():
    block = surgery.FaceTable.from_embedding(catalog.get_witness("phi_7_2_plus"))
    kmn = surgery.FaceTable.from_embedding(catalog.build_kmn(6, 5))
    assert planner._check_sum_hypotheses(kmn, 6, block, "x")
    dense, _, _ = planner.generate(ParamRequest(n=10, t=3, kind="nonorientable"))
    dense = surgery.FaceTable.from_embedding(dense)
    assert not planner._check_sum_hypotheses(dense, 0, block, "x")


def acceptance_requests():
    """The admissible pairs of acceptance criteria 1 and 2."""
    for kind, lo, hi in (("nonorientable", 6, 26), ("orientable", 5, 29)):
        for n in range(lo, hi + 1):
            for t in range(0, n - 3):
                req = ParamRequest(n=n, t=t, kind=kind)
                if planner.admissible(req):
                    yield req


def induction_nodes(plan):
    """The induction steps of ``plan``, the request first."""
    return plan[:0:-1]


def count_induction_steps(monkeypatch) -> list:
    calls = []
    real = planner._induct_step

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(planner, "_induct_step", counting)
    return calls


def count_table_loads(monkeypatch) -> list:
    """The embeddings that ``FaceTable.from_embedding`` loads from now on."""
    loads = []
    real = surgery.FaceTable.from_embedding

    def counting(emb):
        loads.append(emb)
        return real(emb)

    monkeypatch.setattr(surgery.FaceTable, "from_embedding", staticmethod(counting))
    return loads


def assert_loads_are_the_cached_witnesses(loads: list) -> None:
    """One load per cached witness, of the cached embedding itself, in load order."""
    assert list(map(id, loads)) == [id(emb) for emb, _ in catalog._witness_cache.values()]


def assert_witness_tables_unedited() -> None:
    """Every cached witness table still holds its witness's faces, in trace order."""
    assert catalog._witness_cache
    for name in catalog._witness_cache:
        want = surgery.FaceTable.from_embedding(catalog.get_witness(name)).faces()
        assert catalog.witness_table(name).faces() == want, name


def test_cold_generation_loads_each_witness_table_once(monkeypatch):
    catalog.clear_cache()
    loads = count_table_loads(monkeypatch)
    planner.generate(ParamRequest(n=50, t=3, kind="nonorientable"))
    # the base, the two blocks and the K_{6,3} seed, each loaded by its verification
    assert sorted(catalog._witness_cache) == ["k_6_3", "phi_6_1", "phi_7_0_plus", "phi_7_2_plus"]
    assert_loads_are_the_cached_witnesses(loads)


def test_witness_tables_are_loaded_once_and_only_read(tmp_path, monkeypatch):
    catalog.clear_cache()
    loads = count_table_loads(monkeypatch)
    for req in acceptance_requests():
        planner.generate(req)
    assert_loads_are_the_cached_witnesses(loads)
    monkeypatch.undo()
    assert_witness_tables_unedited()
    monkeypatch.setenv(catalog.CATALOG_ENV, str(tmp_path))
    try:
        catalog.build_all()
        assert len(catalog._witness_cache) == len(catalog.record_table())
        assert_witness_tables_unedited()
    finally:
        monkeypatch.delenv(catalog.CATALOG_ENV)
        catalog.clear_cache()


def test_each_plan_node_is_built_once(monkeypatch):
    requests = list(acceptance_requests())
    assert len(requests) == 224
    distinct = {node for req in requests for node in induction_nodes(planner.plan(req))}
    catalog.clear_cache()
    calls = count_induction_steps(monkeypatch)
    for req in requests:
        _, cert, _ = planner.generate(req)
        assert (cert.n, cert.t) == (req.n, req.t)
    assert len(calls) == len(distinct)


def summand_keys(plans) -> set:
    """The (m, n, block) of each induction step's summand, K_{m,n} with the block summed in."""
    return {(planner._STEP_VERTICES[node.step] + 2,
             node.n - planner._STEP_VERTICES[node.step] - 1, node.record)
            for p in plans for node in induction_nodes(p)}


def test_each_summand_is_made_once(monkeypatch):
    requests = list(acceptance_requests())
    keys = summand_keys(map(planner.plan, requests))
    catalog.clear_cache()
    made = []
    kmn_table = catalog.kmn_table
    monkeypatch.setattr(catalog, "kmn_table", lambda m, n: made.append((m, n)) or kmn_table(m, n))
    for req in requests:
        planner.generate(req)
    # one K_{m,n'} copy, one block summed into it, and one site, per distinct summand
    assert len(keys) == 109
    assert set(planner._SITES) == keys and len(made) == len(keys)
    assert all(type(site) is surgery.GluingSite and holds
               for site, holds in planner._SITES.values())
    catalog.clear_cache()
    assert planner._SITES == {}


def test_sites_do_not_outlive_a_catalog_change(tmp_path, monkeypatch):
    good, bad = tmp_path / "good", tmp_path / "bad"
    shutil.copytree(catalog.catalog_dir(), good)
    shutil.copytree(catalog.catalog_dir(), bad)
    for path in bad.glob("*.emap"):
        path.write_text("not an emap file\n")
    req = ParamRequest(n=14, t=3, kind="nonorientable")
    node = planner.plan(req)[-1]
    monkeypatch.setenv(catalog.CATALOG_ENV, str(good))
    try:
        planner.generate(req)  # makes the last step's summand
        child = planner._chain(planner.plan(req)[:-1])
        assert planner._SITES
        monkeypatch.setenv(catalog.CATALOG_ENV, str(bad))
        # a site kept from the good catalog would splice without reading the block
        with pytest.raises(CatalogError):
            planner._induct_step(child, node.record, planner._STEP_VERTICES[node.step] + 2)
    finally:
        monkeypatch.delenv(catalog.CATALOG_ENV)
        catalog.clear_cache()


def test_a_step_walks_no_rim_vertex(monkeypatch):
    # the guards read the edge index: a step walks round only the two
    # vertices whose neighbours its hypotheses check for independence
    req = ParamRequest(n=26, t=3, kind="nonorientable")
    catalog.clear_cache()
    steps = count_induction_steps(monkeypatch)
    walked = []
    real = surgery.FaceTable.neighbors

    def counting(table, v):
        walked.append(v)
        return real(table, v)

    monkeypatch.setattr(surgery.FaceTable, "neighbors", counting)
    planner.generate(req)
    assert len(steps) == len(planner.plan(req)) - 1 == 5
    assert len(walked) <= 2 * len(steps)


def count_splices(monkeypatch) -> list:
    calls = []
    real = surgery.FaceTable.splice

    def counting(table, *args):
        calls.append(args)
        return real(table, *args)

    monkeypatch.setattr(surgery.FaceTable, "splice", counting)
    return calls


def memo_holds_no_embedding() -> bool:
    return all(type(faces) is bytes for faces in planner._GEN_CACHE.values())


def test_clearing_the_memo_executes_again(monkeypatch):
    req = ParamRequest(n=18, t=3, kind="nonorientable")
    first, _, node = planner.generate(req)
    calls = count_induction_steps(monkeypatch)
    splices = count_splices(monkeypatch)
    # a repeated request rebuilds from the memo's faces: no step, no splice, equal bytes
    repeated = planner.generate(req)[0]
    assert calls == [] and splices == []
    assert serialize.write_emap(repeated) == serialize.write_emap(first)
    assert memo_holds_no_embedding()
    planner._GEN_CACHE.clear()
    again, _, _ = planner.generate(req)
    assert len(calls) == len(list(induction_nodes(node))) == 3
    assert again is not first and again == first


def test_memo_keeps_no_embedding_of_an_unrequested_node(monkeypatch):
    catalog.clear_cache()
    req = ParamRequest(n=50, t=3, kind="nonorientable")
    emb, _, node = planner.generate(req)
    chain = list(induction_nodes(node))
    assert len(chain) == 11 and set(planner._GEN_CACHE) == set(chain)
    assert memo_holds_no_embedding()
    # a request for a built node rebuilds its embedding from the memo, splicing nothing
    calls = count_induction_steps(monkeypatch)
    splices = count_splices(monkeypatch)
    child = chain[1]
    warm = planner.generate(ParamRequest(n=child.n, t=child.t, kind=req.kind))[0]
    assert calls == [] and splices == [] and memo_holds_no_embedding()
    assert planner.generate(req)[0] == emb and splices == []
    catalog.clear_cache()
    assert planner._GEN_CACHE == {}
    assert planner.generate(ParamRequest(n=child.n, t=child.t, kind=req.kind))[0] == warm


def test_output_bytes_do_not_depend_on_request_order():
    large = [ParamRequest(n=50, t=3, kind="nonorientable"),
             ParamRequest(n=49, t=2, kind="orientable")]
    cold = {}
    for req in large:
        catalog.clear_cache()
        cold[req] = serialize.write_emap(planner.generate(req)[0])
    requests = list(acceptance_requests())
    outputs = []
    for seed in (1, 2):
        random.Random(seed).shuffle(requests)
        catalog.clear_cache()
        outputs.append({req: serialize.write_emap(planner.generate(req)[0]) for req in requests})
    assert outputs[0] == outputs[1]
    # the batch built the lower halves of both chains; the large requests resume there
    assert all(any(node in planner._GEN_CACHE for node in induction_nodes(planner.plan(req)))
               for req in large)
    assert {req: serialize.write_emap(planner.generate(req)[0]) for req in large} == cold


def test_memo_does_not_outlive_a_catalog_change(tmp_path, monkeypatch):
    good, bad = tmp_path / "good", tmp_path / "bad"
    shutil.copytree(catalog.catalog_dir(), good)
    shutil.copytree(catalog.catalog_dir(), bad)
    for path in bad.glob("*.emap"):
        path.write_text("not an emap file\n")
    req = ParamRequest(n=14, t=3, kind="nonorientable")
    child = planner.plan(req)[-2]
    monkeypatch.setenv(catalog.CATALOG_ENV, str(good))
    try:
        planner.generate(req)  # builds the child node as well
        monkeypatch.setenv(catalog.CATALOG_ENV, str(bad))
        with pytest.raises(CatalogError):
            planner.generate(ParamRequest(n=child.n, t=child.t, kind=req.kind))
    finally:
        monkeypatch.delenv(catalog.CATALOG_ENV)
        catalog.clear_cache()


def test_plan_text_of_the_acceptance_pairs_is_pinned():
    text = "".join(planner.plan_text(planner.plan(req)) for req in acceptance_requests())
    assert "surgery handle on phi_8_4_star -> q8_0 (n=8, t=0)" in text
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "0671c4e0b94dd5260fe42af24f5572a70d658da74d5193ebbff023a046882391")


def pinned_requests():
    """The acceptance pairs, every admissible t at n = 50 and 49, and the specials."""
    yield from acceptance_requests()
    for n, kind in ((50, "nonorientable"), (49, "orientable")):
        for t in range(n - 3):
            req = ParamRequest(n=n, t=t, kind=kind)
            if planner.admissible(req):
                yield req
    for n, t, kind in planner.SPECIALS:
        yield ParamRequest(n=n, t=t, kind=kind)


def test_gen_output_bytes_are_pinned():
    # a change that alters `gen` output on purpose updates this digest and says so
    digest = hashlib.sha256()
    count = 0
    for req in pinned_requests():
        emb, cert, _ = planner.generate(req)
        digest.update(serialize.write_emap(emb).encode())
        digest.update(cert.to_text().encode())
        count += 1
    assert count == 260
    assert digest.hexdigest() == "099f7e002a9e12f142acb4f1437cce82ab78dc3914fdebccbdc111fae158de61"


def test_planner_tables_agree_with_the_catalog():
    names = [rec.name for rec in catalog.record_table()]
    for rec in catalog.record_table():
        if rec.parent is not None:
            assert names.index(rec.parent) < names.index(rec.name), rec.name
    blocks = ([f"phi_7_{i}_plus" for i in (0, 2, 4)]
              + [f"phi_11_{i}_plus_star" for i in (0, 4, 8)] + ["phi_7_2_plus_star"])
    for name in blocks:
        catalog.get_record(name)
    for bases in planner._BASES.values():
        for (n, t), name in bases.items():
            g = catalog.get_witness(name).graph
            missing = len(g.vertices) * (len(g.vertices) - 1) // 2 - len(g.edges)
            assert (len(g.vertices), missing) == (n, t), name

"""Acceptance gate: one test (and one pass/fail line) per shipped guarantee."""

from __future__ import annotations

import random
import time

from nx_oracle import vf2_isomorphic
from quadforge import catalog, emap, graphalg, planner, search, serialize, surgery
from quadforge.errors import SurgeryError
from quadforge.planner import ParamRequest


def admissible_pairs(kind: str, n_lo: int, n_hi: int):
    for n in range(n_lo, n_hi + 1):
        for t in range(0, n - 3):
            req = ParamRequest(n=n, t=t, kind=kind)
            if planner.admissible(req):
                yield req


def test_criterion_01_nonorientable_sweep():
    t0 = time.time()
    count = 0
    worst = 0.0
    for req in admissible_pairs("nonorientable", 6, 26):
        t1 = time.time()
        emb, cert, node = planner.generate(req)
        worst = max(worst, time.time() - t1)
        assert (cert.n, cert.t) == (req.n, req.t)
        assert not cert.orientable
        assert cert.quadrangular
        assert cert.face_simple
        assert cert.universal
        assert cert.minimal
        count += 1
    elapsed = time.time() - t0
    assert count >= 93
    assert worst < 5.0
    assert elapsed < 600
    print(f"criterion 1: PASS ({count} nonorientable pairs, "
          f"worst {worst:.2f}s, total {elapsed:.1f}s)")


def test_criterion_02_orientable_sweep():
    t0 = time.time()
    count = 0
    for req in admissible_pairs("orientable", 5, 29):
        emb, cert, node = planner.generate(req)
        assert (cert.n, cert.t) == (req.n, req.t)
        assert cert.orientable
        assert cert.quadrangular
        assert cert.face_simple
        assert cert.universal
        assert cert.minimal
        assert cert.min_degree >= 3
        # orientable + min degree >= 3 predicts face-simplicity; confirm the
        # direct dual-adjacency check agrees on every output
        assert emap.is_face_simple(emb)
        count += 1
    elapsed = time.time() - t0
    assert count >= 50
    assert elapsed < 600
    print(f"criterion 2: PASS ({count} orientable pairs, total {elapsed:.1f}s)")


def test_criterion_03_admissibility_brute_force():
    # Independent derivation: a quadrangulation needs |E| = C(n,2) - t even,
    # and an orientable one needs chi = n - |E|/2 even as well.
    checked = 0
    for n in range(4, 61):
        for t in range(0, n + 1):
            m = n * (n - 1) // 2 - t
            even_edges = m % 2 == 0
            even_chi = even_edges and (n - m // 2) % 2 == 0
            in_range = 0 <= t <= n - 4
            want_non = n >= 6 and in_range and even_edges
            want_ori = n >= 5 and in_range and even_chi
            got_non = planner.admissible(ParamRequest(n=n, t=t, kind="nonorientable"))
            got_ori = planner.admissible(ParamRequest(n=n, t=t, kind="orientable"))
            assert got_non == want_non, (n, t, "nonorientable")
            assert got_ori == want_ori, (n, t, "orientable")
            checked += 2
    assert not any(
        planner.admissible(ParamRequest(n=6, t=t, kind="orientable"))
        for t in range(0, 3))
    print(f"criterion 3: PASS ({checked} (n,t,kind) admissibility checks, "
          "orientable n=6 row empty)")


def test_criterion_04_diamond_sum_laws():
    pool = [catalog.get_witness(rec.name) for rec in catalog.record_table()]
    pool += [catalog.build_kmn(6, n) for n in range(2, 8)]
    pool += [catalog.build_kmn(10, n) for n in range(2, 5)]
    rng = random.Random(20260824)
    t0 = time.time()
    done = 0
    attempts = 0
    while done < 100 and attempts < 5000:
        attempts += 1
        a = rng.choice(pool)
        b = rng.choice(pool)
        sites = [
            (va, vb)
            for va in a.graph.sorted_vertices()
            for vb in b.graph.sorted_vertices()
            if a.graph.degree(va) == b.graph.degree(vb) >= 3
        ]
        if not sites:
            continue
        va, vb = rng.choice(sites)
        b2 = surgery.relabel_embedding(
            b, {v: f"w{i}" for i, v in enumerate(b.graph.sorted_vertices())})
        vb2 = f"w{b.graph.sorted_vertices().index(vb)}"
        try:
            out = surgery.diamond_sum(a, va, b2, vb2)
        except SurgeryError:
            continue  # e.g. the identification would create a parallel edge
        d = a.graph.degree(va)
        assert emap.euler_characteristic(out) == (
            emap.euler_characteristic(a) + emap.euler_characteristic(b) - 2)
        assert emap.is_quadrangular(out)
        assert emap.is_orientable(out) == (
            emap.is_orientable(a) and emap.is_orientable(b))
        assert len(out.graph.vertices) == (
            len(a.graph.vertices) + len(b.graph.vertices) - d - 2)
        done += 1
    elapsed = time.time() - t0
    assert done == 100
    assert elapsed < 60
    print(f"criterion 4: PASS (100 compositions in {attempts} attempts, "
          f"{elapsed:.1f}s)")


def test_criterion_05_face_simple_guarantee_holds_empirically(monkeypatch):
    # Audit this test's own run of the criteria 1-2 sweeps: for each diamond
    # sum of each induction step, the hypothesis verdict and whether the
    # spliced faces are face-simple.
    steps = []
    real_step = planner._induct_step
    real_check = planner._check_sum_hypotheses
    real_splice = surgery.FaceTable.splice

    def step(*args):
        steps.append([])
        return real_step(*args)

    def check(*args):
        ok = real_check(*args)
        steps[-1].append([ok, None])
        return ok

    def splice(table, *args):
        glued = real_splice(table, *args)
        steps[-1][-1][1] = table.is_face_simple()
        return glued

    monkeypatch.setattr(planner, "_induct_step", step)
    monkeypatch.setattr(planner, "_check_sum_hypotheses", check)
    monkeypatch.setattr(surgery.FaceTable, "splice", splice)
    planner._GEN_CACHE.clear()
    for kind, lo, hi in (("nonorientable", 6, 26), ("orientable", 5, 29)):
        for req in admissible_pairs(kind, lo, hi):
            planner.generate(req)
    assert steps, "the sweeps ran no induction step"
    # both sums of every step had their hypotheses checked and were spliced
    assert all(len(step_sums) == 2 for step_sums in steps)
    sums = [pair for step_sums in steps for pair in step_sums]
    assert all(out is not None for _, out in sums)
    violations = [pair for pair in sums if pair[0] and not pair[1]]
    assert violations == []
    print(f"criterion 5: PASS ({len(sums)} checked diamond sums in {len(steps)} steps, "
          "hypotheses always produced face-simple outputs)")


def test_criterion_06_complete_bipartite_builder():
    t0 = time.time()
    built = 0
    for m in (6, 10):
        for n in range(2, 16):
            emb = catalog.build_kmn(m, n)
            g = emb.graph
            assert len(g.vertices) == m + n
            assert len(g.edges) == m * n
            assert emap.is_quadrangular(emb)
            assert emap.is_orientable(emb)
            assert emap.euler_characteristic(emb) == m + n - m * n // 2
            if n >= 3:
                assert emap.is_face_simple(emb)
            built += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    print(f"criterion 6: PASS ({built} K_mn embeddings certified, "
          f"{elapsed:.1f}s)")


def test_criterion_07_handle_augmentation():
    # one handle turns the (8,4) witness into a complete-graph quadrangulation
    table = surgery.FaceTable.from_embedding(catalog.get_witness("phi_8_4_star"))
    sites = table.handle_sites((4, 5, 6, 7))
    assert sites
    table.handle(sites[0])
    out = table.embedding()
    cert = emap.certify(out)
    assert (cert.n, cert.t) == (8, 0)
    assert cert.orientable and cert.quadrangular
    assert out.graph == graphalg.complete(8)

    # two handles turn the 12-vertex apex witness into its zero-deleted form
    big = surgery.FaceTable.from_embedding(catalog.get_witness("phi_11_8_plus_star"))
    target = graphalg.phi_target("phi_11_0_plus_star")
    final = None
    for site in big.handle_sites((1, 2, 3, 4)):
        mid = big.copy()
        mid.handle(site)
        for site2 in mid.handle_sites((5, 6, 7, 8)):
            mid.handle(site2)
            final = mid.embedding()
            break
        if final is not None:
            break
    assert final is not None
    assert final.graph == target
    assert emap.is_orientable(final)
    assert emap.euler_characteristic(final) == -16
    print("criterion 7: PASS (single handle reaches (8,0); "
          "double handle reaches the 12-vertex zero-deletion graph exactly)")


def test_criterion_08_minimality_sweeps():
    t0 = time.time()
    sphere = search.sweep_minimal("sphere", 8)
    t_sphere = time.time() - t0
    assert all(sphere[n] == [] for n in range(4, 8))
    assert len(sphere[8]) == 1
    cube = emap.Graph.from_edges(
        [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6),
         (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)])
    assert vf2_isomorphic(sphere[8][0], cube)

    t1 = time.time()
    projective = search.sweep_minimal("projective", 6)
    t_proj = time.time() - t1
    assert all(projective[n] == [] for n in range(4, 6))
    assert len(projective[6]) == 1
    assert t_sphere < 900 and t_proj < 900
    print(f"criterion 8: PASS (sphere: none below 8 vertices, cube at 8, "
          f"{t_sphere:.0f}s; projective: none below 6, one at 6, {t_proj:.0f}s)")


def test_criterion_09_witness_acquisition():
    small = ["phi_4_0", "phi_5_0_star", "phi_6_1", "phi_7_0_plus",
             "phi_7_2_plus", "phi_7_4_plus", "k_6_3", "c4_sphere", "klein_6_3"]
    worst = 0.0
    for name in small:
        rec = catalog.get_record(name)
        g = rec.graphs()[0]
        t0 = time.time()
        res = search.search_exact(rec.spec_for(g))
        dt = time.time() - t0
        worst = max(worst, dt)
        assert res.status == "found", name
        assert dt < 60, name

    large = ["phi_7_2_plus_star", "phi_8_4_star", "phi_10_1_star",
             "phi_11_8_plus_star"]
    catalog.clear_cache()
    worst_reload = 0.0
    for name in large:
        t0 = time.time()
        emb = catalog.get_witness(name)  # loads + re-verifies from disk
        dt = time.time() - t0
        worst_reload = max(worst_reload, dt)
        assert dt < 1.0, name
        rec = catalog.get_record(name)
        assert search.check_predicates(emb, rec.predicates), name
    print(f"criterion 9: PASS (small records searched, worst {worst:.1f}s; "
          f"large records re-verified from disk, worst {worst_reload:.3f}s)")


def test_criterion_10_round_trip_and_determinism():
    for rec in catalog.record_table():
        emb = catalog.get_witness(rec.name)
        text = serialize.write_emap(emb)
        assert serialize.parse_emap(text) == emb, rec.name
        assert serialize.write_emap(serialize.parse_emap(text)) == text, rec.name

    req = ParamRequest(n=12, t=2, kind="orientable")
    emb_a, _, _ = planner.generate(req)
    planner._GEN_CACHE.clear()
    emb_b, _, _ = planner.generate(req)
    assert serialize.write_emap(emb_a) == serialize.write_emap(emb_b)
    print("criterion 10: PASS (all witnesses round-trip byte-stable; "
          "repeated generation is byte-identical)")

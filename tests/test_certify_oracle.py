"""``emap.certify`` and ``Embedding.faces`` against the walk-based reference.

``reference_faces`` and ``reference_certify`` below are the tracer and the
certificate as they were computed from ``FaceWalk`` objects before certify
read the embedding's integer tracing states: each face a tuple of darts,
each edge's faces collected in a dict.  Every embedding here must get the
same faces and the same certificate from both, or the same
``StructuralError`` message, and must survive a write and a parse.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from labelled import degree, embedding, rotation, signature
from quadforge import catalog, emap, planner, serialize, surgery
from quadforge.emap import Certificate, Embedding, FaceWalk, vkey
from quadforge.errors import StructuralError

# ---------------------------------------------------------------------------
# The reference: faces traced into walks, and the certificate read from them.
# ---------------------------------------------------------------------------


def reference_faces(emb: Embedding) -> tuple:
    edges = emb.graph.sorted_edges()
    eid = {e: i for i, e in enumerate(edges)}
    sig = signature(emb)
    succ = [0] * (4 * len(edges))
    for v, cyc in rotation(emb).items():
        # out[p]: the state leaving v along cyc[p] with o = +1
        out = [4 * eid[e] + (0 if e[0] == v else 2) for e in cyc]
        d = len(out)
        for p, e in enumerate(cyc):
            fwd, back = out[(p + 1) % d], out[p - 1] + 1
            s = out[p] ^ 2  # the state entering v along cyc[p] with o = +1
            if sig[e] == 1:
                succ[s], succ[s + 1] = fwd, back
            else:
                succ[s], succ[s + 1] = back, fwd
    flip = [3 if sig[e] == 1 else 2 for e in edges]
    seen = bytearray(len(succ))
    walks = []
    for start in range(len(succ)):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = 1
        cur = succ[start]
        while cur != start:
            if seen[cur]:
                raise StructuralError("face tracing re-entered a consumed state")
            orbit.append(cur)
            seen[cur] = 1
            cur = succ[cur]
        members = set(orbit)
        for s in orbit:
            comp = s ^ flip[s >> 2]
            if comp in members:
                raise StructuralError("degenerate self-reverse face walk")
            seen[comp] = 1
        walks.append(FaceWalk(tuple((edges[s >> 2][(s >> 1) & 1], edges[s >> 2])
                                    for s in orbit)))
    if sum(len(w) for w in walks) != 2 * len(edges):
        raise StructuralError("face walks do not cover each edge exactly twice")
    return tuple(walks)


def _edge_faces(faces: tuple) -> dict:
    uses = {}
    for i, w in enumerate(faces):
        for e in w.edges:
            uses.setdefault(e, []).append(i)
    return uses


def _faces_meet_once(faces: tuple, away_from: tuple) -> bool:
    pairs = set()
    for e, (fa, fb) in _edge_faces(faces).items():
        if e[0] in away_from or e[1] in away_from:
            continue
        key = (fa, fb) if fa < fb else (fb, fa)
        if fa == fb or key in pairs:
            return False
        pairs.add(key)
    return True


def _orientable(emb: Embedding) -> bool:
    g, sig = emb.graph, signature(emb)
    color = {g.labels[0]: 1}
    queue = list(color)
    adj = {v: [] for v in g.vertices}
    for e in g.edges:
        adj[e[0]].append((e[1], sig[e]))
        adj[e[1]].append((e[0], sig[e]))
    while queue:
        u = queue.pop()
        for w, s in adj[u]:
            want = color[u] * s
            if w not in color:
                color[w] = want
                queue.append(w)
            elif color[w] != want:
                return False
    return True


def reference_certify(emb: Embedding) -> Certificate:
    g = emb.graph
    faces = reference_faces(emb)
    n = len(g.vertices)
    m = len(g.edges)
    t = n * (n - 1) // 2 - m
    quad = all(len(w) == 4 for w in faces)
    return Certificate(
        n=n,
        edges=m,
        t=t,
        chi=n - m + len(faces),
        orientable=_orientable(emb),
        quadrangular=quad,
        face_simple=_faces_meet_once(faces, ()),
        universal=tuple(sorted((v for v in g.vertices if degree(g, v) == n - 1), key=vkey)),
        min_degree=min(degree(g, v) for v in g.vertices),
        minimal=quad and t <= n - 4,
    )


def reference_nearly_face_simple(emb: Embedding, v) -> bool:
    return _faces_meet_once(reference_faces(emb), (v,))


# ---------------------------------------------------------------------------
# The comparison.
# ---------------------------------------------------------------------------


def outcome(fn, emb: Embedding):
    """``fn(emb)``, or the message of the ``StructuralError`` it raises."""
    try:
        return fn(emb)
    except StructuralError as exc:
        return ("StructuralError", str(exc))


def assert_matches_reference(emb: Embedding) -> None:
    fresh = embedding(emb.graph, rotation(emb), signature(emb))
    assert outcome(lambda e: e.faces(), fresh) == outcome(reference_faces, emb)
    fresh = embedding(emb.graph, rotation(emb), signature(emb))
    got = outcome(emap.certify, fresh)
    assert got == outcome(reference_certify, emb)
    if isinstance(got, Certificate):
        for v in emb.labels[:3]:
            assert (emap.is_nearly_face_simple_except(fresh, v)
                    == reference_nearly_face_simple(emb, v))


def assert_round_trips(emb: Embedding) -> None:
    text = serialize.write_emap(emb)
    again = serialize.parse_emap(text)
    assert again == emb
    assert serialize.write_emap(again) == text


WITNESS_NAMES = [rec.name for rec in catalog.record_table()]
# negative ints and strings; strings never made only of digits (see test_serialize)
LABELS = st.one_of(st.integers(-50, 500), st.from_regex(r"[a-z_][a-z_0-9]{0,3}", fullmatch=True))


def test_catalog_holds_the_named_witnesses():
    assert {"klein_6_3", "c4_sphere"} <= set(WITNESS_NAMES)


@pytest.mark.parametrize("name", WITNESS_NAMES)
def test_witness_matches_reference(name):
    emb = catalog.get_witness(name)
    assert_matches_reference(emb)
    assert_round_trips(emb)


@pytest.mark.parametrize("name", WITNESS_NAMES)
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_relabelled_witness_matches_reference(name, data):
    emb = catalog.get_witness(name)
    vertices = emb.labels
    labels = data.draw(st.lists(LABELS, min_size=len(vertices), max_size=len(vertices),
                                unique=True))
    moved = surgery.relabel_embedding(emb, dict(zip(vertices, labels)))
    assert_matches_reference(moved)
    assert_round_trips(moved)


@pytest.mark.parametrize("n, t, kind", [(50, 3, "nonorientable"), (49, 2, "orientable")])
def test_generated_output_matches_reference(n, t, kind):
    emb, cert, _ = planner.generate(planner.ParamRequest(n=n, t=t, kind=kind))
    assert cert == reference_certify(emb)
    assert emb.faces() == reference_faces(emb)
    assert_round_trips(emb)


def mutants(emb: Embedding):
    """``emb`` with one edge sign flipped, and with two entries of one rotation swapped."""
    rot, sig = rotation(emb), signature(emb)
    for e in emb.graph.sorted_edges():
        yield embedding(emb.graph, rot, {**sig, e: -sig[e]})
    for v in emb.labels:
        cyc = list(rot[v])
        for i, j in ((0, 1), (0, 2)):
            if j < len(cyc):
                swapped = cyc.copy()
                swapped[i], swapped[j] = swapped[j], swapped[i]
                yield embedding(emb.graph, {**rot, v: tuple(swapped)}, sig)


@pytest.mark.parametrize("name", WITNESS_NAMES)
def test_mutants_match_reference(name):
    for mutant in mutants(catalog.get_witness(name)):
        assert_matches_reference(mutant)

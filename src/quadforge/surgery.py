"""Surgical primitives on quadrangular embeddings.

All three operations are implemented at the face level: compute the new
face set, then rebuild the signed rotation system with
``embedding_from_faces``.  Every output is re-traced and checked against
its postconditions; nothing is patched blindly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import emap
from .emap import Embedding, FaceWalk, Graph, Label, edge_between, other_end, vkey
from .errors import SurgeryError


def relabel_embedding(emb: Embedding, mapping: dict) -> Embedding:
    """Rename vertices; rotation, signature, and faces carry over unchanged.

    When the mapping keeps the ``vkey`` order and the input's faces are
    already traced, the output takes them relabelled instead of tracing again.
    """
    if set(mapping) != set(emb.graph.vertices):
        raise SurgeryError("relabel mapping must cover every vertex exactly")
    if len(set(mapping.values())) != len(mapping):
        raise SurgeryError("relabel mapping is not injective")

    key = {v: vkey(w) for v, w in mapping.items()}
    me = {
        (a, b): (mapping[a], mapping[b]) if key[a] < key[b] else (mapping[b], mapping[a])
        for a, b in emb.graph.edges
    }
    graph = Graph(frozenset(mapping.values()), frozenset(me.values()))
    rotation = {mapping[v]: tuple(me[e] for e in cyc) for v, cyc in emb.rotation.items()}
    signature = {me[e]: s for e, s in emb.signature.items()}
    out = Embedding(graph, rotation, signature)
    if emb._faces is not None:
        order = [key[v] for v in emb.graph.sorted_vertices()]
        if all(a < b for a, b in zip(order, order[1:])):
            # The mapping keeps the vkey order, so edge ids, rotation phases and
            # tracing states are unchanged: the faces are the input's, relabelled.
            out._faces = tuple(FaceWalk(tuple((mapping[v], me[e]) for v, e in w.darts))
                               for w in emb._faces)
    return out


def fresh_relabel(emb: Embedding, taken) -> tuple:
    """``(relabelled, mapping)``: ``emb`` on ints above every int in ``taken``.

    The vertices are numbered in ``vkey`` order, so the mapping keeps that
    order and the input's traced faces carry over.
    """
    base = max((v for v in taken if isinstance(v, int)), default=-1) + 1
    mapping = {v: base + i for i, v in enumerate(emb.graph.sorted_vertices())}
    return relabel_embedding(emb, mapping), mapping


def _face_vertex_walks(emb: Embedding) -> list:
    return [w.vertices for w in emb.faces()]


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
    cyc = tuple(other_end(e, v) for e in emb.rotation[v])
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
    ``reflect=None`` the reflection is chosen so that the result is
    orientable exactly when both inputs are.
    """
    if not emap.is_quadrangular(a) or not emap.is_quadrangular(b):
        raise SurgeryError("diamond sum requires quadrangular embeddings")
    if v not in a.graph.vertices or v2 not in b.graph.vertices:
        raise SurgeryError(f"unknown summing vertex {v!r} or {v2!r}")
    d = a.graph.degree(v)
    d2 = b.graph.degree(v2)
    if d != d2:
        raise SurgeryError(f"degree mismatch at ({v!r}, {v2!r}): {d} != {d2}")
    if d < 3:
        raise SurgeryError(f"diamond sum site needs degree >= 3, got {d}")

    if reflect is None:
        want_orientable = emap.is_orientable(a) and emap.is_orientable(b)
        last = None
        for r in (False, True):
            try:
                out = _diamond_sum_fixed(a, v, b, v2, offset, r)
            except SurgeryError as exc:
                last = exc
                continue
            if emap.is_orientable(out) == want_orientable:
                return out
        if last is not None:
            raise last
        raise SurgeryError("no gluing reflection satisfies the orientability contract")
    out = _diamond_sum_fixed(a, v, b, v2, offset, reflect)
    if emap.is_orientable(out) != (emap.is_orientable(a) and emap.is_orientable(b)):
        raise SurgeryError("requested gluing violates the orientability contract")
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


@dataclass(frozen=True)
class HandleSite:
    """Two quadrilateral faces with designated opposite-corner pairs.

    ``alpha = (a, p, c, q)`` and ``beta = (b, r, d, s)``: the handle adds
    the 4-cycle a-b-c-d through these faces.
    """

    alpha: tuple
    beta: tuple

    def cycle(self) -> tuple:
        return (self.alpha[0], self.beta[0], self.alpha[2], self.beta[2])


def find_handle_sites(emb: Embedding, cycle: tuple) -> list:
    """All valid sites realizing the 4-cycle ``(a, b, c, d)``, in trace order."""
    if len(cycle) != 4 or len(set(cycle)) != 4:
        raise SurgeryError(f"handle cycle must have 4 distinct vertices, got {cycle}")
    a, b, c, d = cycle
    for u in cycle:
        if u not in emb.graph.vertices:
            raise SurgeryError(f"unknown vertex {u!r} in handle cycle")
    for u, w in ((a, b), (b, c), (c, d), (d, a)):
        if emb.graph.has_edge(u, w):
            return []

    def spans(first, second):
        found = []
        for idx, walk in enumerate(_face_vertex_walks(emb)):
            if len(walk) != 4:
                continue
            for i in range(4):
                if walk[i] == first and walk[(i + 2) % 4] == second:
                    found.append((idx, (first, walk[(i + 1) % 4], second, walk[(i + 3) % 4])))
        return found

    sites = []
    for ia, alpha in spans(a, c):
        for ib, beta in spans(b, d):
            if ia != ib:
                sites.append(HandleSite(alpha=alpha, beta=beta))
    return sites


def handle_augment(emb: Embedding, site: HandleSite) -> Embedding:
    """Add a handle through the site's two faces, creating the 4-cycle's edges."""
    if not emap.is_quadrangular(emb):
        raise SurgeryError("handle augmentation requires a quadrangular embedding")
    a, p, c, q = site.alpha
    b, r, d, s = site.beta
    if site.alpha == site.beta:
        raise SurgeryError("handle site faces coincide")
    if len({a, b, c, d}) != 4:
        raise SurgeryError("handle cycle corners are not pairwise distinct")
    for u, w in ((a, b), (b, c), (c, d), (d, a)):
        if emb.graph.has_edge(u, w):
            raise SurgeryError(f"edge {edge_between(u, w)} already present")

    walks = _face_vertex_walks(emb)
    ia = _locate_face(walks, site.alpha)
    ib = _locate_face(walks, site.beta, skip={ia})
    orientable_before = emap.is_orientable(emb)

    def build(beta):
        bb, rr, dd, ss = beta
        faces = [w for i, w in enumerate(walks) if i not in (ia, ib)]
        faces += [(a, p, c, bb), (c, q, a, dd), (bb, rr, dd, c), (dd, ss, bb, a)]
        return emap.embedding_from_faces(faces)

    out = build(site.beta)
    if orientable_before and not emap.is_orientable(out):
        out = build((b, s, d, r))
    chi = emap.euler_characteristic(emb)
    if emap.euler_characteristic(out) != chi - 2:
        raise SurgeryError("handle augmentation did not drop chi by 2")
    if not emap.is_quadrangular(out):
        raise SurgeryError("handle augmentation output is not quadrangular")
    if emap.is_orientable(out) != orientable_before:
        raise SurgeryError("handle augmentation changed orientability")
    return out


def _locate_face(walks, quad, skip=frozenset()):
    target = emap.normalize_walk(quad)
    for i, w in enumerate(walks):
        if i not in skip and emap.normalize_walk(w) == target:
            return i
    raise SurgeryError(f"no face matches {quad}")


def delete_degree2(emb: Embedding, z: Label) -> Embedding:
    """Remove a degree-2 vertex, merging its two faces into one quadrilateral."""
    if not emap.is_quadrangular(emb):
        raise SurgeryError("degree-2 deletion requires a quadrangular embedding")
    if z not in emb.graph.vertices:
        raise SurgeryError(f"unknown vertex {z!r}")
    if emb.graph.degree(z) != 2:
        raise SurgeryError(f"vertex {z!r} has degree {emb.graph.degree(z)}, expected 2")
    at_z = _faces_at_vertex(emb, z)
    if len(at_z) != 2:
        raise SurgeryError(f"the two faces at {z!r} coincide")
    (i1, w1, p1), (i2, w2, p2) = at_z
    x1, y1 = w1[(p1 + 1) % 4], w1[(p1 + 3) % 4]
    m1 = w1[(p1 + 2) % 4]
    x2, y2 = w2[(p2 + 1) % 4], w2[(p2 + 3) % 4]
    m2 = w2[(p2 + 2) % 4]
    if {x1, y1} != {x2, y2}:
        raise SurgeryError(f"faces at {z!r} do not share the x-z-y path")
    # Either orientation of the second remnant closes the merged walk at x1.
    merged = (x1, m1, y1, m2)
    faces = [w.vertices for i, w in enumerate(emb.faces()) if i not in (i1, i2)]
    faces.append(merged)
    out = emap.embedding_from_faces(faces)
    if emap.euler_characteristic(out) != emap.euler_characteristic(emb):
        raise SurgeryError("degree-2 deletion changed the Euler characteristic")
    if not emap.is_quadrangular(out):
        raise SurgeryError("degree-2 deletion output is not quadrangular")
    return out


def insert_degree2(emb: Embedding, face, corner: Label) -> tuple:
    """Split a face with a new degree-2 vertex joined to ``corner`` and its opposite."""
    if not emap.is_quadrangular(emb):
        raise SurgeryError("degree-2 insertion requires a quadrangular embedding")
    walk = face.vertices if isinstance(face, FaceWalk) else tuple(face)
    walks = _face_vertex_walks(emb)
    idx = _locate_face(walks, walk)
    w = walks[idx]
    if corner not in w:
        raise SurgeryError(f"{corner!r} is not a corner of face {w}")
    i = w.index(corner)
    p, a, q, b = w[i], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]
    z = _fresh_label(emb.graph.vertices)
    faces = [x for j, x in enumerate(walks) if j != idx]
    faces += [(p, a, q, z), (q, b, p, z)]
    out = emap.embedding_from_faces(faces)
    if emap.euler_characteristic(out) != emap.euler_characteristic(emb):
        raise SurgeryError("degree-2 insertion changed the Euler characteristic")
    if not emap.is_quadrangular(out):
        raise SurgeryError("degree-2 insertion output is not quadrangular")
    return out, z


def _fresh_label(vertices) -> int:
    used = {v for v in vertices if isinstance(v, int)}
    z = 0
    while z in used:
        z += 1
    return z

"""Surgical primitives on quadrangular embeddings.

The four operations on an ``Embedding`` (diamond sum, handle augmentation,
degree-2 deletion and insertion) are implemented at the face level: compute
the new face set, then rebuild the signed rotation system with
``embedding_from_faces``.  Every output is re-traced and checked against its
postconditions; nothing is patched blindly.

``FaceTable`` is the in-place counterpart of the diamond sum, for both
chains of sums: the catalog's ``K_{m,n}`` and the planner's induction chain.
It holds a quadrangular face set with an edge -> faces index, and its
``splice`` replaces the disk around one vertex by the summand's faces,
touching only the faces it adds and removes.  Every predicate a table answers
is computed from its faces: face-simplicity from counters it keeps up to date,
orientability by one pass over the edge index.  An ``Embedding`` is rebuilt
from the faces once, when it is wanted.
"""

from __future__ import annotations

import itertools
import struct
from collections import Counter
from dataclasses import dataclass

from . import emap
from .emap import Embedding, FaceWalk, Graph, Label, edge_between, other_end, vkey
from .errors import StructuralError, SurgeryError


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
    ``reflect=None`` the first gluing that builds is taken, reversed first.
    Either gluing keeps the contract that the result is orientable exactly
    when both inputs are (two surfaces glued along a boundary circle give an
    orientable surface exactly when both are); it is checked on the output.
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


def _ekey(u: Label, v: Label) -> tuple:
    """``edge_between(u, v)``, without its ``vkey`` calls when both labels are ints."""
    if type(u) is int and type(v) is int and u != v:
        return (u, v) if u < v else (v, u)
    return edge_between(u, v)


class FaceTable:
    """A mutable quadrangular face set, summed into in place by ``splice``.

    ``_faces`` maps face ids to vertex walks, in insertion order; ``_edges``
    maps each edge to the ids of the faces along it, ``_at`` each vertex to the
    ids of the faces with a corner there, and ``_degree`` each vertex to its
    number of corners, which is its degree.  ``_shared`` counts the edges that
    each pair of distinct adjacent faces shares; ``_multi`` is the number of
    pairs sharing more than one, and ``_loops`` the number of edges with one
    face on both sides.  The faces are face-simple exactly when both are 0.
    """

    def __init__(self, faces):
        self._faces = {}
        self._edges = {}
        self._at = {}
        self._degree = {}
        self._shared = {}
        self._multi = 0
        self._loops = 0
        self._next_id = 0
        for w in faces:
            self._add(tuple(w))
        self._check_closed(self._edges)

    @classmethod
    def from_embedding(cls, emb: Embedding) -> FaceTable:
        return cls(w.vertices for w in emb.faces())

    def faces(self) -> tuple:
        """The vertex walks, in the order they were added."""
        return tuple(self._faces.values())

    def frozen(self) -> bytes:
        """The faces, in order, packed as C ints; the labels must be ints."""
        labels = list(itertools.chain.from_iterable(self._faces.values()))
        return struct.pack(f"{len(labels)}i", *labels)

    def vertices(self):
        return self._degree.keys()

    def edges(self):
        return self._edges.keys()

    def neighbors(self, v: Label) -> set:
        out = set()
        for f in self._at[v]:
            w = self._faces[f]
            for i, u in enumerate(w):
                if u == v:
                    out.add(w[i - 1])
                    out.add(w[i - 3])
        return out

    def degree(self, v: Label) -> int:
        return self._degree[v]

    def min_degree(self) -> int:
        return min(self._degree.values())

    def universal_vertices(self) -> set:
        n = len(self._degree)
        return {v for v, d in self._degree.items() if d == n - 1}

    def is_face_simple(self) -> bool:
        """``emap.is_face_simple`` of these faces."""
        return not self._multi and not self._loops

    def is_nearly_face_simple_except(self, v: Label) -> bool:
        """``emap.is_nearly_face_simple_except`` of these faces, from ``v``'s edges only."""
        if v not in self._degree:
            raise StructuralError(f"unknown vertex {v!r}")
        loops = self._loops
        at_v = Counter()  # pair of faces -> the edges at v they share
        for u in self.neighbors(v):
            f, g = self._edges[_ekey(u, v)]
            if f == g:
                loops -= 1
            else:
                at_v[(f, g) if f < g else (g, f)] += 1
        shared = self._shared
        rescued = sum(1 for key, c in at_v.items() if shared[key] >= 2 > shared[key] - c)
        return not loops and self._multi == rescued

    def is_independent(self, v: Label) -> bool:
        """No edge joins two neighbours of ``v``."""
        nbrs = self.neighbors(v)
        return not any(u in nbrs for a in nbrs for u in self.neighbors(a))

    def is_orientable(self) -> bool:
        """``emap.is_orientable`` of these faces: whether each can be given a
        direction in which the two faces along every edge walk it opposite ways."""
        steps = {f: set(zip(w, w[1:] + w[:1])) for f, w in self._faces.items()}
        forward = {}  # face id -> walked as stored (True) or reversed
        for root in self._faces:
            if root in forward:
                continue
            forward[root] = True
            stack = [root]
            while stack:
                f = stack.pop()
                for a, b in steps[f]:
                    if not forward[f]:
                        a, b = b, a
                    f1, f2 = self._edges[_ekey(a, b)]
                    g = f2 if f1 == f else f1
                    if g not in forward:
                        forward[g] = (b, a) in steps[g]
                        stack.append(g)
                    elif ((b, a) if forward[g] else (a, b)) not in steps[g]:
                        return False
        return True

    def splice(self, v: Label, summand: FaceTable, v2: Label) -> dict:
        """Diamond sum in place: excise ``v`` here and ``v2`` in ``summand``, and glue.

        The vertices here keep their labels.  Each neighbour of ``v2`` takes the
        label of the neighbour of ``v`` it is glued to; the summand's other
        vertices take fresh ints above every int here, in ``vkey`` order.  The
        rims (see ``_rim``) are glued as ``diamond_sum`` glues at offset 0: the
        j-th neighbour of ``v`` to the (-j)-th of ``v2``, or to the j-th when
        that would create a parallel edge.  Either gluing keeps the contract
        that the sum is orientable exactly when both summands are.  Returns
        the summand's labels -> their labels here.
        """
        if v not in self._degree or v2 not in summand._degree:
            raise SurgeryError(f"unknown summing vertex {v!r} or {v2!r}")
        d, d2 = self._degree[v], summand._degree[v2]
        if d != d2:
            raise SurgeryError(f"degree mismatch at ({v!r}, {v2!r}): {d} != {d2}")
        if d < 3:
            raise SurgeryError(f"diamond sum site needs degree >= 3, got {d}")
        rim, opposite = self._rim(v)
        rim2, opposite2 = summand._rim(v2)
        on_rim2 = set(rim2)
        rim_edges = [(a, b) for a in rim2 for b in sorted(summand.neighbors(a), key=vkey)
                     if b in on_rim2]
        for reflect in (False, True):
            mu = [(j if reflect else -j) % d for j in range(d)]
            glue = {rim2[mu[j]]: rim[j] for j in range(d)}
            clash = next((e for a, b in rim_edges
                          if (e := _ekey(glue[a], glue[b])) in self._edges), None)
            if clash is None:
                break
        else:
            raise SurgeryError(f"identification creates a parallel edge {clash}")

        base = max((u for u in self._degree if type(u) is int), default=-1) + 1
        inner = sorted(summand._degree.keys() - on_rim2 - {v2}, key=vkey)
        labels = {u: base + i for i, u in enumerate(inner)}
        labels.update(glue)
        for f in list(self._at[v]):
            self._remove(f)
        skip = summand._at[v2]
        added = [self._add(tuple(labels[u] for u in w))
                 for f, w in summand._faces.items() if f not in skip]
        for j in range(d):
            a, a1 = rim[j], rim[(j + 1) % d]
            m2 = opposite2[frozenset((rim2[mu[j]], rim2[mu[(j + 1) % d]]))]
            added.append(self._add((a, opposite[frozenset((a, a1))], a1, labels[m2])))
        self._check_closed({_ekey(u, w[i - 3]) for w in added for i, u in enumerate(w)})
        return labels

    def _rim(self, v: Label) -> tuple:
        """Neighbour cycle of ``v``, and the map {a_j, a_j+1} -> opposite corner.

        The cycle starts at ``v``'s least neighbour and runs towards the lesser
        of that neighbour's two neighbours on it, so it depends on labels only.
        """
        opposite = {}
        for f in self._at[v]:
            w = self._faces[f]
            if w.count(v) != 1:
                raise SurgeryError(f"face {w} has {w.count(v)} corners at {v!r}")
            i = w.index(v)
            key = frozenset((w[i - 3], w[i - 1]))
            if len(key) != 2 or key in opposite:
                raise SurgeryError(f"two faces at {v!r} span the same neighbor pair {set(key)}")
            opposite[key] = w[i - 2]
        links = {}
        for a, b in opposite:
            links.setdefault(a, []).append(b)
            links.setdefault(b, []).append(a)
        if any(len(pair) != 2 for pair in links.values()):
            raise SurgeryError(f"the faces at {v!r} do not close up around it")
        start = min(links, key=vkey)
        rim = [start]
        prev, cur = start, min(links[start], key=vkey)
        while cur != start:
            rim.append(cur)
            a, b = links[cur]
            prev, cur = cur, b if a == prev else a
        if len(rim) != len(opposite):
            raise SurgeryError(f"the faces at {v!r} do not close up around it")
        return rim, opposite

    def _add(self, w: tuple) -> tuple:
        if len(w) != 4:
            raise SurgeryError(f"face {w} has length {len(w)}, expected 4")
        f = self._next_id
        self._next_id += 1
        self._faces[f] = w
        for i, u in enumerate(w):
            self._at.setdefault(u, set()).add(f)
            self._degree[u] = self._degree.get(u, 0) + 1
            e = _ekey(u, w[i - 3])
            sides = self._edges.setdefault(e, [])
            if len(sides) == 2:
                raise SurgeryError(f"edge {e} lies on more than two faces")
            if sides:
                self._meet(sides[0], f, 1)
            sides.append(f)
        return w

    def _remove(self, f: int) -> None:
        w = self._faces.pop(f)
        for i, u in enumerate(w):
            d = self._degree[u] - 1
            if d:
                self._degree[u] = d
                self._at[u].discard(f)
            else:
                del self._degree[u], self._at[u]
            e = _ekey(u, w[i - 3])
            sides = self._edges[e]
            sides.remove(f)
            if sides:
                self._meet(sides[0], f, -1)
            else:
                del self._edges[e]

    def _meet(self, f: int, g: int, step: int) -> None:
        """Count (``step`` = 1) or uncount (-1) one edge along faces ``f`` and ``g``."""
        if f == g:
            self._loops += step
            return
        key = (f, g) if f < g else (g, f)
        c = self._shared.get(key, 0)
        if max(c, c + step) == 2:
            self._multi += step
        if c + step:
            self._shared[key] = c + step
        else:
            del self._shared[key]

    def _check_closed(self, edges) -> None:
        for e in edges:
            if len(self._edges.get(e, ())) == 1:
                raise SurgeryError(f"edge {e} lies on only one face")


def ranked_faces(faces, key=vkey) -> list:
    """``faces`` relabelled onto 0..n-1 in ``key`` order."""
    rank = {u: i for i, u in enumerate(sorted({u for w in faces for u in w}, key=key))}
    return [tuple(rank[u] for u in w) for w in faces]


def thawed(frozen: bytes) -> list:
    """The faces that ``FaceTable.frozen`` packed, in order."""
    it = iter(memoryview(frozen).cast("i"))
    return list(zip(it, it, it, it))


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

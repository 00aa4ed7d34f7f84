"""Cellular embeddings as signed rotation systems.

An embedding is stored as a cyclic order of incident edges at every vertex
plus a sign in {+1, -1} per edge.  Face tracing follows the rotation at each
vertex; crossing a negative edge swaps the traversal side.  That convention
is fixed repo-wide: the tracing state is (edge, tail vertex, orientation o),
and the step is

    o' = o * sign(e);  at the head w, the next edge is the rotation
    successor of e when o' = +1 and the predecessor when o' = -1.

Vertex labels are ints or strings; all orderings use ``vkey`` so output is
reproducible.  An ``Embedding`` is held as one integer core: its labels in
``vkey`` order, so that a vertex is its rank; the two end ranks of every edge,
with the edges numbered in order of those pairs; each rank's rotation as edge
ids; and each edge's sign.  A tracing state is the integer

    s = 4*e + 2*side + (o == -1),   side = 0 when the tail is e's smaller end.

The state that crosses edge e the other way on the other side of the surface
is ``s ^ 3`` for a positive edge and ``s ^ 2`` for a negative one.  Faces are
the orbits of a flat successor list over these states, taken in increasing
order of their first state.  An embedding traces them once and keeps them;
the Euler characteristic, quadrangularity and face-simplicity (the two faces
along edge e are those of states 4e and 4e + 1) are read from the states,
and the degrees and orientability from the core.  The label-level views, a
``Graph`` and the ``rotation`` and ``signature`` dicts over its edge tuples,
are built only when a caller asks for them (search, surgery on labels,
``dual``), and ``FaceWalk`` objects only when ``faces()`` is asked for.
``certify``, ``serialize`` and ``FaceTable.embedding`` use the core alone.

This is the repo's one encoding of a tracing state: the backtracking
searcher (``search._QuadSearcher``) builds its faces over the same edge
numbering, vertex ranks, states and reverse rule.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import StructuralError

Label = int | str
Edge = tuple  # normalized 2-tuple of labels, endpoints sorted by vkey


def vkey(v: Label):
    """Total order on labels: all ints first, then strings."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise StructuralError(f"bad vertex label {v!r}")
    if isinstance(v, int):
        return (0, v, "")
    return (1, 0, v)


def parse_label(token: str) -> Label:
    """The label a text token names: an int when the token is ASCII
    ``-?[0-9]+``, else the token itself.  Every reader and writer of labels
    in text uses this one rule."""
    digits = token[1:] if token[:1] == "-" else token
    return int(token) if digits.isdigit() and digits.isascii() else token


def edge_between(u: Label, v: Label) -> Edge:
    if u == v:
        raise StructuralError(f"loop at {u!r} not allowed")
    return (u, v) if vkey(u) < vkey(v) else (v, u)


def other_end(e: Edge, v: Label) -> Label:
    if e[0] == v:
        return e[1]
    if e[1] == v:
        return e[0]
    raise StructuralError(f"vertex {v!r} not an endpoint of {e}")


class Graph:
    """Labeled simple graph: loop-free, no parallel edges.

    Construction ranks the vertices by ``vkey``; the sorted edge list and the
    incidence index are built from the ranks on first use.  A graph is
    immutable, and equal only to a graph with the same vertices and edges.
    """

    def __init__(self, vertices: frozenset, edges: frozenset):
        order = tuple(sorted(vertices, key=vkey))
        rank = {v: i for i, v in enumerate(order)}
        for e in edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                raise StructuralError(f"edge {e!r} is not a pair")
            ra, rb = rank.get(e[0]), rank.get(e[1])
            if (ra is None or rb is None or ra >= rb or type(e[0]) is not type(order[ra])
                    or type(e[1]) is not type(order[rb])):
                # not plainly two ranked labels in order: the full checks name the fault
                if edge_between(*e) != e:
                    raise StructuralError(f"edge {e!r} is not normalized")
                if e[0] not in vertices or e[1] not in vertices:
                    raise StructuralError(f"edge {e!r} has an endpoint outside the vertex set")
        self.__dict__.update(vertices=vertices, edges=edges, _order=order, _rank=rank)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: a Graph is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(vertices={self.vertices!r}, edges={self.edges!r})"

    @staticmethod
    def from_edges(edges: Iterable[tuple], vertices: Iterable[Label] = ()) -> "Graph":
        es = frozenset(edge_between(u, v) for u, v in edges)
        vs = frozenset(vertices) | frozenset(itertools.chain.from_iterable(es))
        return Graph(vs, es)

    @cached_property
    def _edge_order(self) -> tuple:
        rank, n = self._rank, len(self._order)
        return tuple(sorted(self.edges, key=lambda e: rank[e[0]] * n + rank[e[1]]))

    @cached_property
    def _incidence(self) -> dict:
        """Vertex -> its incident edges, in sorted edge order."""
        inc = {v: [] for v in self._order}
        for e in self._edge_order:
            inc[e[0]].append(e)
            inc[e[1]].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    def neighbors(self, v: Label) -> set:
        if v not in self.vertices:
            raise StructuralError(f"unknown vertex {v!r}")
        return {e[0] if e[1] == v else e[1] for e in self._incidence[v]}

    def degree(self, v: Label) -> int:
        if v not in self.vertices:
            raise StructuralError(f"unknown vertex {v!r}")
        return len(self._incidence[v])

    def incident_edges(self, v: Label) -> list:
        return list(self._incidence.get(v, ()))

    def has_edge(self, u: Label, v: Label) -> bool:
        return u != v and edge_between(u, v) in self.edges

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        inc = self._incidence
        start = self._order[0]
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for e in inc[v]:
                w = e[0] if e[1] == v else e[1]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def sorted_vertices(self) -> list:
        return list(self._order)

    def sorted_edges(self) -> list:
        return list(self._edge_order)


def universal_vertices(g: Graph) -> set:
    n = len(g.vertices)
    return {v for v, es in g._incidence.items() if len(es) == n - 1}


class FaceWalk(NamedTuple):
    """Closed boundary walk; ``darts[i] = (vertex, edge)`` leaves vertex along edge."""

    darts: tuple

    def __len__(self) -> int:
        return len(self.darts)

    @property
    def vertices(self) -> tuple:
        return tuple(v for v, _ in self.darts)

    @property
    def edges(self) -> tuple:
        return tuple(e for _, e in self.darts)


class Embedding:
    """Signed rotation system over a connected simple graph, held on integers.

    The core is four lists:

    - ``labels``: the vertex labels in ``vkey`` order; a vertex's rank is its index;
    - ``ends``: edge ``e``'s end ranks, the lesser at ``ends[2e]`` and the greater
      at ``ends[2e + 1]``, with the edges numbered in order of those pairs;
    - ``rot``: each rank's rotation as edge ids, started at the least id;
    - ``sign``: each edge id's sign, +1 or -1.

    Two embeddings are equal when their cores are.  ``graph``, ``rotation`` and
    ``signature`` are the label-level views (a ``Graph``, and dicts over its
    edge tuples), built on first use.  Treat instances as immutable: every
    operation returns a new embedding.  The faces are traced once, on first
    use, into ``_orbits``: each face the list of its tracing states, in the
    order the face is walked.  A state that is not on any orbit lies on the
    reverse of one, and ``_face_of`` maps every state to the index of its face.
    """

    def __init__(self, graph: Graph, rotation: Mapping, signature: Mapping):
        if not graph.is_connected():
            raise StructuralError("embedding requires a connected graph")
        eid = {e: i for i, e in enumerate(graph._edge_order)}
        rot, cycles = {}, []
        for v, incident in graph._incidence.items():
            if v not in rotation:
                raise StructuralError(f"no rotation given for vertex {v!r}")
            cyc = tuple(rotation[v])
            if len(cyc) != len(incident) or set(cyc) != set(incident):
                raise StructuralError(f"rotation at {v!r} is not a permutation of its incident edges")
            if cyc:
                # canonical phase: start each cycle at its smallest edge, so
                # structural equality and serialization are representation-free
                k = cyc.index(incident[0])
                cyc = cyc[k:] + cyc[:k]
            rot[v] = cyc
            cycles.append([eid[e] for e in cyc])
        sig = {}
        for e in graph._edge_order:
            if e not in signature:
                raise StructuralError(f"no signature entry for edge {e}")
            s = signature[e]
            if s not in (1, -1):
                raise StructuralError(f"signature of {e} must be +1 or -1, got {s!r}")
            sig[e] = s
        rank = graph._rank
        ends = [rank[v] for v in itertools.chain.from_iterable(graph._edge_order)]
        self._adopt(graph._order, ends, cycles, list(sig.values()))
        self.__dict__.update(graph=graph, rotation=rot, signature=sig)

    @classmethod
    def _of_core(cls, labels: tuple, ends: list, rot: list, sign: list) -> "Embedding":
        """The embedding of a core already checked as the class docstring
        describes it; only connectivity is checked here."""
        seen = bytearray(len(labels))
        stack = []
        if labels:
            seen[0] = 1
            stack.append(0)
        while stack:
            v = stack.pop()
            for e in rot[v]:
                w = ends[2 * e] ^ ends[2 * e + 1] ^ v  # the other end
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
        if not labels or not all(seen):
            raise StructuralError("embedding requires a connected graph")
        emb = cls.__new__(cls)
        emb._adopt(labels, ends, rot, sign)
        return emb

    def _adopt(self, labels: tuple, ends: list, rot: list, sign: list) -> None:
        self.labels = labels
        self.ends = ends
        self.rot = rot
        self.sign = sign
        self._orbits = self._face_of = self._faces = None

    def __eq__(self, o) -> bool:
        return (
            isinstance(o, Embedding)
            and self.labels == o.labels
            and self.ends == o.ends
            and self.rot == o.rot
            and self.sign == o.sign
        )

    @cached_property
    def graph(self) -> Graph:
        """The labelled graph, its edges numbered as the core numbers them."""
        labels, ends = self.labels, self.ends
        return Graph(frozenset(labels),
                     frozenset([(labels[a], labels[b]) for a, b in zip(ends[0::2], ends[1::2])]))

    @cached_property
    def rotation(self) -> dict:
        """Vertex -> its incident edges in rotation order, from its least edge."""
        edges = self.graph._edge_order
        return {v: tuple([edges[e] for e in cyc]) for v, cyc in zip(self.labels, self.rot)}

    @cached_property
    def signature(self) -> dict:
        """Edge -> its sign."""
        return dict(zip(self.graph._edge_order, self.sign))

    def faces(self) -> tuple:
        if self._faces is None:
            labels, ends = self.labels, self.ends  # state s leaves ends[s >> 1]
            edges = self.graph._edge_order
            self._faces = tuple(FaceWalk(tuple((labels[ends[s >> 1]], edges[s >> 2]) for s in orbit))
                                for orbit in self._traced())
        return self._faces

    def _traced(self) -> list:
        """``_orbits``, traced on first use."""
        if self._orbits is None:
            self._orbits, self._face_of = self._trace()
        return self._orbits

    def _trace(self) -> tuple:
        ends, sign = self.ends, self.sign
        succ = [0] * (4 * len(sign))
        for v, cyc in enumerate(self.rot):
            # out[p]: the state leaving v along cyc[p] with o = +1
            out = [4 * e if ends[2 * e] == v else 4 * e + 2 for e in cyc]
            if not out:
                continue  # the one vertex of a graph with no edge
            back = out[-1] + 1  # the state leaving v along the previous edge with o = -1
            for o, e, fwd in zip(out, cyc, out[1:] + out[:1]):
                s = o ^ 2  # the state entering v along e with o = +1
                if sign[e] == 1:
                    succ[s], succ[s + 1] = fwd, back
                else:
                    succ[s], succ[s + 1] = back, fwd
                back = o + 1
        flip = [3 if s == 1 else 2 for s in sign]
        face_of = [-1] * len(succ)
        orbits = []
        for start in range(len(succ)):
            if face_of[start] >= 0:
                continue
            f = len(orbits)
            orbit = [start]
            face_of[start] = f
            cur = succ[start]
            while cur != start:
                if face_of[cur] >= 0:
                    raise StructuralError("face tracing re-entered a consumed state")
                orbit.append(cur)
                face_of[cur] = f
                cur = succ[cur]
            for s in orbit:
                comp = s ^ flip[s >> 2]
                if face_of[comp] == f:  # comp is on this very orbit
                    raise StructuralError("degenerate self-reverse face walk")
                face_of[comp] = f
            orbits.append(orbit)
        if sum(map(len, orbits)) != 2 * len(sign):
            raise StructuralError("face walks do not cover each edge exactly twice")
        return orbits, face_of


def euler_characteristic(emb: Embedding) -> int:
    return len(emb.labels) - len(emb.sign) + len(emb._traced())


def is_orientable(emb: Embedding) -> bool:
    """True iff the signature is switching-equivalent to all-positive.

    Equivalent to every cycle having positive sign product, decided by a
    BFS two-coloring of the vertex ranks.
    """
    ends, sign, rot = emb.ends, emb.sign, emb.rot
    color = [0] * len(rot)
    color[0] = 1
    stack = [0]
    while stack:
        u = stack.pop()
        cu = color[u]
        for e in rot[u]:
            w = ends[2 * e] ^ ends[2 * e + 1] ^ u
            want = cu * sign[e]
            if not color[w]:
                color[w] = want
                stack.append(w)
            elif color[w] != want:
                return False
    return True


def _edge_faces(emb: Embedding) -> tuple:
    """Two lists over the edge ids: the lesser and the greater index in
    ``emb.faces()`` of the two faces along each edge (one index twice when a
    face runs along the edge both ways).  States ``4e`` and ``4e + 1`` lie on
    the two different traversals of edge ``e``."""
    emb._traced()
    fa, fb = emb._face_of[0::4], emb._face_of[1::4]
    return list(map(min, fa, fb)), list(map(max, fa, fb))


def is_quadrangular(emb: Embedding) -> bool:
    return all(len(orbit) == 4 for orbit in emb._traced())


def _faces_meet_once(emb: Embedding, away_from: tuple) -> bool:
    """No face runs along an edge twice and no two faces share two edges,
    counting only the edges with no end in ``away_from``."""
    lo, hi = _edge_faces(emb)
    if away_from:
        skip = {e for v in away_from for e in emb.rot[emb.labels.index(v)]}
        lo = [f for e, f in enumerate(lo) if e not in skip]
        hi = [f for e, f in enumerate(hi) if e not in skip]
    return not any(map(operator.eq, lo, hi)) and len(set(zip(lo, hi))) == len(lo)


def is_face_simple(emb: Embedding) -> bool:
    return _faces_meet_once(emb, ())


def is_nearly_face_simple_except(emb: Embedding, v: Label) -> bool:
    """Face-simplicity may fail only through shared edges incident with v."""
    if v not in emb.labels:
        raise StructuralError(f"unknown vertex {v!r}")
    return _faces_meet_once(emb, (v,))


class Certificate(NamedTuple):
    """Machine-checked summary of an embedding, serialized as key=value lines."""

    n: int
    edges: int
    t: int
    chi: int
    orientable: bool
    quadrangular: bool
    face_simple: bool
    universal: tuple
    min_degree: int
    minimal: bool

    KEYS = ("n", "edges", "t", "chi", "orientable", "quadrangular",
            "face_simple", "universal", "min_degree", "minimal")

    def to_text(self) -> str:
        vals = {
            "n": self.n,
            "edges": self.edges,
            "t": self.t,
            "chi": self.chi,
            "orientable": _fmt_bool(self.orientable),
            "quadrangular": _fmt_bool(self.quadrangular),
            "face_simple": _fmt_bool(self.face_simple),
            "universal": ",".join(str(v) for v in self.universal),
            "min_degree": self.min_degree,
            "minimal": _fmt_bool(self.minimal),
        }
        return "".join(f"{k}={vals[k]}\n" for k in self.KEYS)


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def certify(emb: Embedding) -> Certificate:
    """The certificate of ``emb``, read from its core and its traced faces."""
    n = len(emb.labels)
    m = len(emb.sign)
    t = n * (n - 1) // 2 - m
    degree = list(map(len, emb.rot))
    quad = is_quadrangular(emb)  # traces the faces, once
    return Certificate(
        n=n,
        edges=m,
        t=t,
        chi=euler_characteristic(emb),
        orientable=is_orientable(emb),
        quadrangular=quad,
        face_simple=is_face_simple(emb),
        universal=tuple([v for v, d in zip(emb.labels, degree) if d == n - 1]),
        min_degree=min(degree),
        minimal=quad and t <= n - 4,
    )


# ---------------------------------------------------------------------------
# Rebuilding an embedding from an explicit face set.
#
# Surgery edits faces, not rotations.  Given closed vertex walks using every
# edge exactly twice, we recover the rotation at each vertex by walking the
# umbrella of glued polygon corners, then solve for edge signs consistent
# with the face-tracing convention above.
#
# Everything runs on integers: vertices are ranked by vkey, slot g is the
# g-th step of the concatenated walks, and side-end 2g (2g + 1) is slot g's
# end at its tail (head).  A corner at a vertex of degree >= 3 pins the
# orientation o of the slot leaving it; every slot a then obeys
#
#     o[a] * sign(edge of a) * o[next slot of a] = 1,
#
# propagated from a worklist.  At a vertex of degree <= 2 no corner pins
# anything, and switching there (negating its edge signs and the orientations
# of the slots leaving it) keeps every constraint and every pin: it is a gauge.
# So the first slot leaving such a vertex is fixed to +1, which succeeds
# exactly when -1 does.  When some vertex has degree >= 3, propagation from
# these values settles every slot, vertex by vertex outwards; only a cycle or
# a path can leave a slot free, and each one left is fixed to +1 in turn.
# An inconsistent face set meets a violated constraint.
# ---------------------------------------------------------------------------

def normalize_walk(walk: Sequence[Label]) -> tuple:
    """Canonical representative of a cyclic walk up to rotation and reflection."""
    w = tuple(walk)
    k = len(w)
    candidates = []
    for seq in (w, tuple(reversed(w))):
        for i in range(k):
            candidates.append(seq[i:] + seq[:i])
    return min(candidates, key=lambda s: tuple(vkey(x) for x in s))


def _walk_key(w: tuple) -> tuple:
    """Smallest rotation or reflection of a closed walk of vertex ranks."""
    m = min(w)
    k = len(w)
    r = w[::-1]
    return min(min(w[i:] + w[:i], r[k - 1 - i:] + r[:k - 1 - i])
               for i in range(k) if w[i] == m)


def embedding_from_faces(face_walks: Sequence[Sequence[Label]]) -> Embedding:
    walks = [tuple(w) for w in face_walks]
    if not walks:
        raise StructuralError("no faces given")
    for w in walks:
        if len(w) < 2:
            raise StructuralError(f"face walk {w} is too short")
    labels = sorted({v for w in walks for v in w}, key=vkey)
    rank = {v: i for i, v in enumerate(labels)}
    n = len(labels)
    ranked = [tuple(rank[v] for v in w) for w in walks]
    tail = [v for w in ranked for v in w]
    nxt, prv = [], []
    for w in ranked:
        base, k = len(nxt), len(w)
        nxt.extend(range(base + 1, base + k))
        nxt.append(base)
        prv.append(base + k - 1)
        prv.extend(range(base, base + k - 1))
    slots = len(tail)

    uses = {}
    for g in range(slots):
        a, b = tail[g], tail[nxt[g]]
        if a == b:
            raise StructuralError(f"loop at {labels[a]!r} not allowed")
        uses.setdefault(a * n + b if a < b else b * n + a, []).append(g)
    keys = sorted(uses)
    edges = [(labels[key // n], labels[key % n]) for key in keys]
    sedge = [0] * slots  # edge id of each slot
    mate = [0] * slots  # the other slot on the same edge
    for i, key in enumerate(keys):
        if len(uses[key]) != 2:
            raise StructuralError(f"edge {edges[i]} is used {len(uses[key])} times, expected 2")
        g1, g2 = uses[key]
        sedge[g1] = sedge[g2] = i
        mate[g1], mate[g2] = g2, g1
    graph = Graph(frozenset(labels), frozenset(edges))

    # Umbrella walk at each vertex from its smallest side-end: cross the edge
    # to the mate slot's end at the same vertex, then turn the face corner.
    first = {}
    for g, v in enumerate(tail):
        if v not in first:
            first[v] = g
    ends = Counter(tail)  # half the side-ends at each vertex: its degree
    rot = {}
    pos = [0] * (2 * slots)  # each side-end's index in its vertex's rotation
    for v, g0 in first.items():
        start = 2 * g0 - 1 if prv[g0] == g0 - 1 else 2 * g0
        cyc = []
        cur = start
        while not cyc or cur != start:
            g = cur >> 1
            m = mate[g]
            glued = 2 * m + ((cur & 1) ^ (tail[g] != tail[m]))
            pos[cur] = pos[glued] = len(cyc)
            cyc.append(sedge[g])
            cur = 2 * nxt[m] if glued & 1 else 2 * prv[m] + 1
        if len(cyc) != ends[v]:
            raise StructuralError(f"vertex {labels[v]!r} is pinched: umbrella misses some corners")
        rot[v] = cyc

    o = [0] * slots
    for g, v in enumerate(tail):
        d = ends[v]
        if d >= 3:
            o[g] = 1 if pos[2 * g] == (pos[2 * prv[g] + 1] + 1) % d else -1
        elif first[v] == g:
            o[g] = 1
    sign = [0] * len(keys)

    def settle(work):
        while work:
            a = work.pop()
            b, e = nxt[a], sedge[a]
            oa, ob, se = o[a], o[b], sign[e]
            if oa and ob:
                if not se:
                    sign[e] = oa * ob
                    work.append(mate[a])
                elif se != oa * ob:
                    raise StructuralError("face set admits no consistent signed rotation system")
            elif se and oa:
                o[b] = se * oa
                work.append(b)
            elif se and ob:
                o[a] = se * ob
                work.append(prv[a])

    settle(list(range(slots)))
    for g in range(slots):
        if not o[g]:
            o[g] = 1
            settle([g, prv[g]])

    emb = Embedding(graph,
                    {labels[v]: tuple(edges[e] for e in cyc) for v, cyc in rot.items()},
                    dict(zip(edges, sign)))
    got = sorted(_walk_key(tuple(rank[v] for v in w.vertices)) for w in emb.faces())
    if got != sorted(_walk_key(w) for w in ranked):
        raise StructuralError("rebuilt embedding does not reproduce the requested faces")
    return emb

"""Surgery on quadrangular face sets.

Every surgery is done on a ``FaceTable``: a mutable quadrangular face set
held in flat lists of ints (four corner slots per face, two side slots per
edge).  Each operation replaces a few faces in place and touches only the
faces it removes and adds: ``splice`` (the diamond sum), ``handle`` (handle
augmentation along a 4-cycle), ``delete_degree2`` and ``insert_degree2``.
A splice reads its summand only through a ``GluingSite``: what ``site``
reads of a table at its summed vertex, once, as an immutable record that
can be spliced into any number of tables.
Every predicate a table answers is computed from its faces: face-simplicity
from counters it keeps up to date, orientability by one orientation pass over
the faces.  The search's witness predicates (``search.PREDICATES``) are
answered on a table.

An ``Embedding`` appears only at the edges, and there only as its integer
core.  A table is loaded from an embedding's traced faces
(``FaceTable.from_embedding``), and ``FaceTable.embedding`` builds the signed
rotation system from the table, once, when it is wanted: each vertex's
rotation is its rim, and the signs come from the same orientation pass.  It
fills the core (ranked labels, edge end ranks, rotations as edge ids, signs)
with no label-level graph, ranking the labels once, and checks on ranks that
the core traces back to the table's faces.  The core keeps the table's
labels, or, with ``on_ranks`` (the planner's output), takes the ranks
0..n-1 as labels, so no renumbered copy of the table is made.
``relabel_embedding`` renames a core.  Both number the edges with
``emap.number_edges``.  ``diamond_sum`` is that pattern for two
embeddings: load both, splice, rebuild, relabel.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from operator import eq, ne
from typing import Iterator, NamedTuple

from . import emap
from .emap import Embedding, Label, edge_between, vkey
from .errors import StructuralError, SurgeryError


def relabel_embedding(emb: Embedding, mapping: dict) -> Embedding:
    """Rename vertices; rotation and signature carry over, so the faces are
    the input's, renamed.  The new labels are ranked, the edges renumbered by
    their new end ranks (``emap.number_edges``), each rotation mapped and
    started at its least id, and the signs permuted."""
    if set(mapping) != set(emb.labels):
        raise SurgeryError("relabel mapping must cover every vertex exactly")
    if len(set(mapping.values())) != len(mapping):
        raise SurgeryError("relabel mapping is not injective")
    labels = tuple(sorted(mapping.values(), key=vkey))
    n, m = len(labels), len(emb.sign)
    rank = {u: i for i, u in enumerate(labels)}
    moved = [rank[mapping[v]] for v in emb.labels]  # each rank's new rank
    pairs = [moved[r] for r in emb.ends]  # each edge's new end ranks, by its old id
    order, new_id, ends = emap.number_edges(n, m, zip(range(m), pairs[0::2], pairs[1::2]))
    rot = [None] * n
    for r, cyc in zip(moved, emb.rot):
        cyc = [new_id[e] for e in cyc]
        k = cyc.index(min(cyc)) if cyc else 0
        rot[r] = cyc[k:] + cyc[:k]
    return Embedding(labels, ends, rot, [emb.sign[e] for e in order])


def diamond_sum(
    a: Embedding,
    v: Label,
    b: Embedding,
    v2: Label,
    offset: int = 0,
    reflect: bool | None = None,
) -> Embedding:
    """Excise v and v2, glue the disk boundaries, and requadrangulate.

    ``FaceTable.splice`` of the two embeddings' tables, with ``offset`` and
    ``reflect`` as it takes them.  The output keeps the labels of both inputs,
    so the summand's vertices off the rim of v2 must not be labels of ``a``
    other than v: after the splice, so that its refusals come first, the rim
    is read from the summand's table and the labels from the two cores.
    Either gluing keeps the contract that the result is orientable exactly
    when both inputs are (two surfaces glued along a boundary circle give an
    orientable surface exactly when both are); it is checked on the output.
    """
    table, summand = FaceTable.from_embedding(a), FaceTable.from_embedding(b)
    labels = table.splice(v, summand, v2, offset, reflect)
    rim = summand.neighbors(v2)
    clash = (set(b.labels) - rim - {v2}) & (set(a.labels) - {v})
    if clash:
        raise SurgeryError(f"label collision between summands: {sorted(clash, key=vkey)}")
    if table.is_orientable() != (emap.is_orientable(a) and emap.is_orientable(b)):
        raise SurgeryError("gluing violates the orientability contract")
    back = {u: u for u in table.vertices()}
    back.update((labels[u], u) for u in labels if u not in rim)
    return relabel_embedding(table.embedding(), back)


def _next(s: int) -> int:
    """The slot after ``s`` round its face."""
    return (s & -4) | ((s + 1) & 3)


def _prev(s: int) -> int:
    """The slot before ``s`` round its face."""
    return (s & -4) | ((s - 1) & 3)


class FaceTable:
    """A mutable quadrangular face set, edited in place by its surgeries.

    Storage is flat.  Face ``f`` owns the slots ``4f .. 4f+3``, one per
    corner: ``_w[s]`` is the corner's label and ``_fe[s]`` the id of the edge
    from it to the face's next corner.  Edge ``e``'s two sides are the slots
    ``_side[2e]`` and ``_side[2e+1]`` (-1 while missing), and ``_eid`` maps
    each edge, ordered as ``edge_between`` orders it, to its id.  The ids of
    removed faces and edges are reused.  ``_degree`` maps each vertex to its
    number of corners, which is its degree, and ``_anchor`` to the slot of
    one of them: the others are found by walking round the vertex, across its
    edges (``_walk``).  ``_multi`` is the number of pairs of distinct faces
    that share more than one edge, and ``_loops`` the number of edges with
    one face on both sides; the faces are face-simple exactly when both are 0.
    An edit keeps both counts up to date as it removes and adds faces
    (``_meet``).

    A new table is loaded in bulk from the flat list of its corners
    (``_load``), in a few passes over whole lists: face ``f`` of the list
    gets id ``f``, each edge the next id where it first appears, each edge's
    sides its two slots in order, and each vertex the anchor of its last
    corner, as if the faces were added one at a time.  ``_loops`` and
    ``_multi`` are then counted from their definitions, over the two faces
    along each edge.  ``thaw`` loads the corners that ``frozen`` packed, as
    they lie.  Faces that cannot be loaded are refused by replay: ``_refuse``
    adds them one at a time to an empty table, as an edit adds its faces,
    and raises the first error that meets.  ``copy`` copies the lists and
    dicts, and re-adds no face.
    """

    def __init__(self, faces):
        faces = [tuple(w) for w in faces]
        if any(len(w) != 4 for w in faces):
            _refuse(faces)
        self._load(list(itertools.chain.from_iterable(faces)))

    @classmethod
    def thaw(cls, frozen: bytes) -> FaceTable:
        """The table of the faces that ``frozen`` packed, in order."""
        out = cls.__new__(cls)
        out._load(memoryview(frozen).cast("i").tolist())
        return out

    def _load(self, w: list) -> None:
        """Fill the table from ``w``, four corners per face; it must be empty."""
        n = len(w)
        eid, fe = _index_edges(w)
        side = sorted(range(n), key=fe.__getitem__)  # each edge's slots, in order
        paired = list(map(fe.__getitem__, side))
        if 2 * len(eid) != n or paired[0::2] != paired[1::2]:
            # some edge lies on one face, or on more than two
            _refuse(zip(*[iter(w)] * 4))
        along = [s >> 2 for s in side]
        f, g = along[0::2], along[1::2]  # the two faces along each edge
        self._w = w
        self._fe = fe
        self._side = side
        self._eid = eid
        self._degree = dict(Counter(w))
        self._anchor = dict(zip(w, range(n)))  # the last corner of each
        self._free_faces = []
        self._free_edges = []
        self._loops = sum(map(eq, f, g))
        self._multi = 0
        if len(set(zip(f, g))) < len(f):  # some pair of faces shares two edges
            self._multi = sum(c >= 2 for (a, b), c in Counter(zip(f, g)).items() if a != b)

    @classmethod
    def from_embedding(cls, emb: Embedding) -> FaceTable:
        labels, ends = emb.labels, emb.ends  # state s leaves ends[s >> 1]
        return cls([labels[ends[s >> 1]] for s in orbit] for orbit in emb._traced())

    def copy(self) -> FaceTable:
        """An independent table over the same faces, with the same ids."""
        out = FaceTable.__new__(FaceTable)
        for name, value in vars(self).items():
            setattr(out, name, value.copy() if isinstance(value, (list, dict)) else value)
        return out

    def ranked(self, key=vkey) -> FaceTable:
        """A copy on labels 0..n-1, numbered in ``key`` order."""
        rank = {u: i for i, u in enumerate(sorted(self._degree, key=key))}
        out = self.copy()
        out._w = [None if u is None else rank[u] for u in self._w]
        out._eid = {(ra, rb) if (ra := rank[a]) < (rb := rank[b]) else (rb, ra): e
                    for (a, b), e in self._eid.items()}
        out._degree = {rank[u]: d for u, d in self._degree.items()}
        out._anchor = {rank[u]: s for u, s in self._anchor.items()}
        return out

    def faces(self) -> tuple:
        """The vertex walks, in face-id order."""
        w = self._w
        return tuple(tuple(w[s:s + 4]) for s in range(0, len(w), 4) if w[s] is not None)

    def frozen(self) -> bytes:
        """The faces, in order, packed as C ints; the labels must be ints."""
        return array("i", [u for u in self._w if u is not None]).tobytes()

    def vertices(self):
        return self._degree.keys()

    def edges(self):
        return self._eid.keys()

    def neighbors(self, v: Label) -> set:
        w = self._w
        out = set()
        for c, forward in self._walk(self._anchor[v], True):
            out.add(w[_prev(c)] if forward else w[_next(c)])  # the one it is entered from
        return out

    def degree(self, v: Label) -> int:
        return self._degree[v]

    def min_degree(self) -> int:
        return min(self._degree.values())

    def universal_vertices(self) -> set:
        n = len(self._degree)
        return {v for v, d in self._degree.items() if d == n - 1}

    def is_face_simple(self) -> bool:
        """Whether no face runs along an edge twice and no two faces share two
        edges, from the counters; ``emap.is_face_simple`` is the tests' reference."""
        return not self._multi and not self._loops

    def is_nearly_face_simple_except(self, v: Label) -> bool:
        """Whether face-simplicity fails only through shared edges at ``v``,
        read from ``v``'s edges only; ``emap.is_nearly_face_simple_except`` is
        the tests' reference."""
        if v not in self._degree:
            raise StructuralError(f"unknown vertex {v!r}")
        fe, side = self._fe, self._side
        loops = self._loops
        at_v = Counter()  # pair of faces -> the edges at v they share
        for c, forward in self._walk(self._anchor[v], True):
            e = fe[_prev(c)] if forward else fe[c]  # each edge at v is entered once
            f, g = side[2 * e] >> 2, side[2 * e + 1] >> 2
            if f == g:
                loops -= 1
            else:
                at_v[(f, g) if f < g else (g, f)] += 1
        rescued = 0
        for (f, g), c in at_v.items():
            shared = self._mates(f).count(g)
            rescued += shared >= 2 > shared - c
        return not loops and self._multi == rescued

    def nearly_face_simple_universal(self):
        """The least universal vertex, in ``vkey`` order, at which these faces
        are nearly face-simple (``is_nearly_face_simple_except``), or None."""
        return next((v for v in sorted(self.universal_vertices(), key=vkey)
                     if self.is_nearly_face_simple_except(v)), None)

    def is_independent(self, v: Label) -> bool:
        """No edge joins two neighbours of ``v``, as the edge index tells after one
        walk round ``v``."""
        return not self._edges_among(self.neighbors(v))

    def _edges_among(self, vs) -> list:
        """The edges with both ends in ``vs``, read from the edge index: each
        pair of ``vs`` looked up, or every edge scanned, whichever is fewer."""
        vs, eid = set(vs), self._eid
        if len(vs) * (len(vs) - 1) // 2 < len(eid):
            # taken from vs in vkey order, each pair is ordered as its key would be
            return [e for e in itertools.combinations(sorted(vs, key=vkey), 2) if e in eid]
        return [e for e in eid if e[0] in vs and e[1] in vs]

    def is_orientable(self) -> bool:
        """``emap.is_orientable`` of these faces: whether the orientation pass
        (``_orientation``) gives every face a direction in which the two faces
        along each edge walk it opposite ways."""
        return self._orientation()[2]

    def embedding(self, on_ranks: bool = False) -> Embedding:
        """The signed rotation system whose faces these are.

        The orientation pass starts from the face at the least vertex v between
        its least neighbour a and the lesser b of a's two neighbours round it
        (of two such faces, the one with the lesser corner opposite v),
        directed a -> v -> b.  Each vertex's rotation is its rim, walked round
        (as ``_walk`` walks it) from its first corner in the faces in the order
        the pass reaches them, the way that corner's directed face turns.  A
        corner turns +1 when its face runs from its previous edge to its next
        one the way its vertex's rotation does, and -1 otherwise; each edge's
        sign is the product of the turns at its two ends in either face along
        it, which is what ``emap``'s tracer needs to walk that face.  So the
        signs are all +1 exactly when the faces are orientable, and the result
        does not depend on face or edge ids.

        The labels are ranked once, each slot's rank and each edge's new id
        are looked up once, and the edges are numbered by their end ranks
        (``emap.number_edges``).  The core's labels are the table's, or with
        ``on_ranks`` the ranks ``0..n-1`` themselves: the embedding that
        ``ranked().embedding()`` gives, with no copy of the table.  Its traced
        faces must be these faces, compared on ranks, or ``StructuralError``
        is raised.
        """
        w, fe, side = self._w, self._fe, self._side
        labels = tuple(sorted(self._degree, key=vkey))
        n = len(labels)
        rank = {u: i for i, u in enumerate(labels)}
        rk = list(map(rank.get, w))  # each slot's rank; None at a removed face's

        def span(c):  # a corner's two neighbours, least first, and its opposite corner
            a, b = rk[_prev(c)], rk[_next(c)]
            return (a, b, rk[c ^ 2]) if a < b else (b, a, rk[c ^ 2])

        c = min((c for c, _ in self._walk(self._anchor[labels[0]], True)), key=span)
        direction, reached, _ = self._orientation(c >> 2, 1 if span(c)[0] == rk[_prev(c)] else -1)
        order, new_id, ends = emap.number_edges(  # order: the table's edge ids, by end ranks
            n, len(side) >> 1, ((e, rank[a], rank[b]) for (a, b), e in self._eid.items()))
        nid = list(map(new_id.__getitem__, fe))  # the new id of the edge from each slot
        degree = [self._degree[u] for u in labels]
        turn = [0] * len(w)  # +1 where a corner turns with its vertex's rotation
        rot = [None] * n
        for f in reached:
            forward = direction[f] == 1
            for c in range(4 * f, 4 * f + 4):
                if turn[c]:
                    continue  # its vertex was walked round from a corner reached earlier
                # round the vertex as _walk goes, carried by the slot q whose edge
                # each corner is left by: the corner itself when it is passed
                # forward, and the slot before it when it is passed backward (a
                # table has no loop, so no two corners round the vertex share q)
                r = rk[c]
                d = degree[r]
                if forward:
                    turn[c] = 1
                    q0 = q = c
                else:
                    turn[c] = -1
                    q0 = q = c - 1 if c & 3 else c + 3  # _prev(c)
                cyc = []
                for _ in range(d):
                    cyc.append(nid[q])
                    e = 2 * fe[q]
                    t = side[e]  # the slot across q's edge
                    if t == q:
                        t = side[e + 1]
                    if rk[t] == r:  # the next corner is t, passed backward
                        turn[t] = -1
                        q = t - 1 if t & 3 else t + 3  # _prev(t)
                    else:  # the next corner is the one after t, passed forward
                        q = t + 1 if ~t & 3 else t - 3  # _next(t)
                        turn[q] = 1
                    if q == q0:
                        break
                if len(cyc) != d or q != q0:
                    raise SurgeryError(f"vertex {labels[r]!r} is pinched: its corners form "
                                       "more than one cycle")
                k = cyc.index(min(cyc))
                rot[r] = cyc[k:] + cyc[:k]
        sign = [turn[s] * turn[s + 1 if ~s & 3 else s - 3]  # the turns at s and _next(s)
                for s in [side[2 * e] for e in order]]
        emb = Embedding(tuple(range(n)) if on_ranks else labels, ends, rot, sign)
        self._check_traced(emb, order, rk)
        return emb

    def site(self, v2: Label) -> GluingSite:
        """Everything ``splice`` reads of this table as a summand at ``v2``, read once.

        The rim and opposite corners are ``_rim``'s, and the edges among the
        rim come from the edge index.  The corners of the faces away from
        ``v2`` are taken in one pass over the corner slots, with the slots of
        ``v2``'s faces and of removed faces masked out.  The site holds no
        reference to the table, so the table may change afterwards, and one
        site may be spliced into any number of tables.
        """
        if v2 not in self._degree:
            raise SurgeryError(f"unknown vertex {v2!r}")
        rim, opposite, at_v2 = self._rim(v2)
        mask = bytearray(b"\x01") * len(self._w)
        for f in itertools.chain(self._free_faces, (c >> 2 for c in at_v2)):
            mask[4 * f:4 * f + 4] = bytes(4)
        return GluingSite(v2, tuple(rim), tuple(opposite),
                          tuple(self._edges_among(rim)),
                          tuple(sorted(self._degree.keys() - set(rim) - {v2}, key=vkey)),
                          tuple(itertools.compress(self._w, mask)))

    def splice(self, v: Label, summand: FaceTable | GluingSite, v2: Label | None = None,
               offset: int = 0, reflect: bool | None = None) -> dict:
        """Diamond sum in place: excise ``v`` here and ``v2`` in ``summand``, and glue.

        ``summand`` is a table, summed at ``v2``, or a site that ``site`` read
        (``v2`` is then the site's vertex); a table's site is read after this
        table's own checks, so both refuse alike, with the same messages in
        the same order.  The vertices here keep their labels.  Each neighbour
        of ``v2`` takes the label of the neighbour of ``v`` it is glued to;
        the summand's other vertices take fresh ints above every int here but
        ``v``, in ``vkey`` order.  Offsets count on the label-canonical rims
        (see ``_rim``): the j-th neighbour of ``v`` is glued to the
        (offset - j)-th of ``v2``, or to the (offset + j)-th when ``reflect``.
        With ``reflect=None`` the first gluing is taken unless it would create
        a parallel edge, and the second then.  Either gluing keeps the
        contract that the sum is orientable exactly when both summands are.
        ``summand`` is only read.  Returns the summand's labels -> their labels
        here.

        A refusal raised before the first face is removed leaves this table
        as it was: an unknown vertex, a degree mismatch, a degree below 3, a
        rim that does not close up round ``v`` or ``v2``, or a parallel edge.
        A refusal from ``_add`` or ``_check_closed`` comes after the edit, so
        the table must then be discarded.
        """
        if isinstance(summand, GluingSite):
            site, v2, d2 = summand, summand.vertex, len(summand.rim)
        else:
            site, d2 = None, summand._degree.get(v2)
        if v not in self._degree or d2 is None:
            raise SurgeryError(f"unknown summing vertex {v!r} or {v2!r}")
        d = self._degree[v]
        if d != d2:
            raise SurgeryError(f"degree mismatch at ({v!r}, {v2!r}): {d} != {d2}")
        if d < 3:
            raise SurgeryError(f"diamond sum site needs degree >= 3, got {d}")
        rim, opposite, at_v = self._rim(v)
        if site is None:
            site = summand.site(v2)
        rim2 = site.rim
        for flip in (False, True) if reflect is None else (reflect,):
            mu = [(offset + j if flip else offset - j) % d for j in range(d + 1)]
            glue = {rim2[mu[j]]: rim[j] for j in range(d)}
            clashes = [e for a, b in site.rim_edges
                       if (e := edge_between(glue[a], glue[b])) in self._eid]
            if not clashes:
                break
        else:
            clash = min(clashes, key=lambda e: (vkey(e[0]), vkey(e[1])))
            raise SurgeryError(f"identification creates a parallel edge {clash}")

        base = max((u for u in self._degree if type(u) is int and u != v), default=-1) + 1
        for c in at_v:
            self._remove(c >> 2)
        labels = {u: base + i for i, u in enumerate(site.inner)}
        labels.update(glue)
        corners = list(map(labels.__getitem__, site.corners))
        added = [self._add(corners[s:s + 4]) for s in range(0, len(corners), 4)]
        for j in range(d):
            # the summand's face between rim2[mu[j]] and rim2[mu[j + 1]]
            m2 = site.opposite[mu[j] if flip else mu[j + 1]]
            added.append(self._add((rim[j], opposite[j], rim[(j + 1) % d], labels[m2])))
        self._check_closed(added)
        return labels

    def handle_sites(self, cycle: tuple) -> list:
        """Every site for a handle along the 4-cycle ``(a, b, c, d)``: a face
        with a and c at opposite corners, and another with b and d, in face-id
        order (for a table loaded from an embedding, the order its faces are
        traced in).  None when an edge of the cycle is already present."""
        if len(cycle) != 4 or len(set(cycle)) != 4:
            raise SurgeryError(f"handle cycle must have 4 distinct vertices, got {cycle}")
        for u in cycle:
            if u not in self._degree:
                raise SurgeryError(f"unknown vertex {u!r} in handle cycle")
        a, b, c, d = cycle
        if any(edge_between(u, x) in self._eid for u, x in ((a, b), (b, c), (c, d), (d, a))):
            return []
        return [HandleSite(alpha, beta) for f, alpha in self._spans(a, c)
                for g, beta in self._spans(b, d) if f != g]

    def handled(self, cycle: tuple) -> Iterator[FaceTable]:
        """For each site of ``handle_sites(cycle)``, in order, a copy of the
        table with a handle added there; a site ``handle`` refuses is passed
        over.  The table itself is only read."""
        for site in self.handle_sites(cycle):
            out = self.copy()
            try:
                out.handle(site)
            except SurgeryError:
                continue
            yield out

    def handle(self, site: HandleSite) -> None:
        """Add a handle through the site's two faces, creating the 4-cycle's edges.

        The two faces are replaced by a tube of four.  When the table is
        orientable and the tube glued along ``site.beta`` is not, ``beta`` is
        glued the other way round.
        """
        a, p, c, q = site.alpha
        b, r, d, s = site.beta
        if len({a, b, c, d}) != 4:
            raise SurgeryError("handle cycle corners are not pairwise distinct")
        for u, x in ((a, b), (b, c), (c, d), (d, a)):
            if edge_between(u, x) in self._eid:
                raise SurgeryError(f"edge {edge_between(u, x)} already present")
        f = self._find(site.alpha)
        g = self._find(site.beta, skip=f)
        orientable = self.is_orientable()
        self._remove(f)
        self._remove(g)
        tube = [self._add((a, p, c, b)), self._add((c, q, a, d))]
        back = [self._add((b, r, d, c)), self._add((d, s, b, a))]
        self._check_closed(tube + back)
        if orientable and not self.is_orientable():
            for h in back:
                self._remove(h)
            back = [self._add((b, s, d, c)), self._add((d, r, b, a))]
            self._check_closed(back)

    def delete_degree2(self, z: Label) -> None:
        """Remove a degree-2 vertex, merging its two faces into one quadrilateral."""
        if z not in self._degree:
            raise SurgeryError(f"unknown vertex {z!r}")
        if self._degree[z] != 2:
            raise SurgeryError(f"vertex {z!r} has degree {self._degree[z]}, expected 2")
        w = self._w
        (c1, _), (c2, _) = self._walk(self._anchor[z], True)
        if c1 >> 2 == c2 >> 2:
            raise SurgeryError(f"the two faces at {z!r} coincide")
        (x1, m1, y1), (x2, m2, y2) = ((w[_next(c)], w[c ^ 2], w[_prev(c)]) for c in (c1, c2))
        if {x1, y1} != {x2, y2}:
            raise SurgeryError(f"faces at {z!r} do not share the x-z-y path")
        self._remove(c1 >> 2)
        self._remove(c2 >> 2)
        # either orientation of the second remnant closes the merged walk at x1
        self._check_closed([self._add((x1, m1, y1, m2))])

    def insert_degree2(self, face, corner: Label) -> Label:
        """Split a face with a new degree-2 vertex joined to ``corner`` and its
        opposite; returns the new vertex, the least nonnegative int not a label here."""
        f = self._find(face)
        walk = self._w[4 * f:4 * f + 4]
        if corner not in walk:
            raise SurgeryError(f"{corner!r} is not a corner of face {tuple(walk)}")
        i = walk.index(corner)
        p, a, q, b = walk[i:] + walk[:i]
        z = _fresh_label(self._degree)
        self._remove(f)
        self._check_closed([self._add((p, a, q, z)), self._add((q, b, p, z))])
        return z

    def _find(self, walk, skip: int = -1) -> int:
        """The id of a face other than ``skip`` walked as ``walk``, up to
        rotation and reflection."""
        target = emap.normalize_walk(walk)
        if len(target) == 4 and target[0] in self._degree:
            for c, _ in self._walk(self._anchor[target[0]], True):
                f = c >> 2
                if f != skip and emap.normalize_walk(self._w[4 * f:4 * f + 4]) == target:
                    return f
        raise SurgeryError(f"no face matches {tuple(walk)}")

    def _spans(self, first: Label, second: Label) -> list:
        """``(f, (first, p, second, q))`` for each face ``f`` walked
        first-p-second-q, in face-id order."""
        w = self._w
        out = []
        for f in sorted({c >> 2 for c, _ in self._walk(self._anchor[first], True)}):
            for s in range(4 * f, 4 * f + 4):
                if w[s] == first and w[s ^ 2] == second:
                    out.append((f, (first, w[_next(s)], second, w[_prev(s)])))
        return out

    def _walk(self, c: int, forward: bool) -> list:
        """The corners round the vertex at slot ``c``, from ``c``, as (slot, forward).

        A corner is passed forward when it is entered across the edge from its
        face's previous corner and left across the edge to its next one.  Each
        step crosses the edge it leaves by into the face on its other side.
        Raises ``SurgeryError`` when the vertex's corners do not form one
        cycle round it.
        """
        w, fe, side = self._w, self._fe, self._side
        v = w[c]
        d = self._degree[v]
        out = []
        s, fwd = c, forward
        for _ in range(d):
            out.append((s, fwd))
            q = s if fwd else (s - 1 if s & 3 else s + 3)  # _prev(s), inlined
            e = 2 * fe[q]
            t = side[e]
            if t == q:
                t = side[e + 1]
            if w[t] == v:
                s, fwd = t, False
            else:
                s, fwd = (t + 1 if ~t & 3 else t - 3), True  # _next(t)
            if s == c and fwd == forward:
                break
        if len(out) != d or s != c or fwd != forward:
            raise SurgeryError(f"vertex {v!r} is pinched: its corners form more than one cycle")
        return out

    def _rim(self, v: Label) -> tuple:
        """Neighbour cycle of ``v``, the opposite corner of the face between each
        neighbour and the next, and the slots of ``v``'s corners in those faces.

        The cycle starts at ``v``'s least neighbour and runs towards the lesser
        of that neighbour's two neighbours on it, so it depends on labels only.
        """
        w = self._w
        rim, opposite, corners = [], [], []
        for c, forward in self._walk(self._anchor[v], True):
            b = c & -4
            if w[b:b + 4].count(v) != 1:
                raise SurgeryError(f"face {tuple(w[b:b + 4])} has {w[b:b + 4].count(v)} "
                                   f"corners at {v!r}")
            rim.append(w[_prev(c)] if forward else w[_next(c)])
            opposite.append(w[b | ((c + 2) & 3)])
            corners.append(c)
        d = len(rim)
        if len(set(rim)) != d:
            raise SurgeryError(f"the faces at {v!r} do not close up around it")
        k = rim.index(min(rim, key=vkey))
        if vkey(rim[k - 1]) < vkey(rim[(k + 1) % d]):
            # reversed, the face between rim[j] and rim[j+1] is the one that
            # was between rim[j+1] and rim[j+2]
            rim.reverse()
            opposite = opposite[-2::-1] + opposite[-1:]
            corners = corners[-2::-1] + corners[-1:]
            k = d - 1 - k
        return rim[k:] + rim[:k], opposite[k:] + opposite[:k], corners[k:] + corners[:k]

    def _orientation(self, root: int = 0, root_direction: int = 1) -> tuple:
        """The orientation pass: (direction, reached, orientable).

        Faces are reached depth first from ``root``, then from each face not
        yet reached, and each of a face's edges is crossed in the order of its
        walk.  ``direction[f]`` is +1 when face ``f`` keeps the direction of
        its walk and -1 when it is reversed: ``root`` takes
        ``root_direction``, and each face reached takes the direction in which
        it walks the edge it was reached by the other way from the face it was
        reached from.  ``reached`` lists the faces in the order they are
        walked, so each vertex's first corner reached is its first slot in
        those faces, and ``orientable`` says whether every edge ends with its
        two faces walking it opposite ways.
        """
        w, fe, side = self._w, self._fe, self._side
        direction = [0] * (len(w) >> 2)
        reached = []
        orientable = True
        for root in (root, *range(len(direction))) if direction else ():
            if direction[root] or w[4 * root] is None:
                continue
            direction[root] = root_direction
            stack = [root]
            while stack:
                f = stack.pop()
                reached.append(f)
                d = direction[f]
                for s in range(4 * f, 4 * f + 4):
                    e = 2 * fe[s]
                    t = side[e]
                    if t == s:
                        t = side[e + 1]
                    g = t >> 2
                    want = -d if w[t] == w[s] else d
                    if not direction[g]:
                        direction[g] = want
                        stack.append(g)
                    elif direction[g] != want:
                        orientable = False
        return direction, reached, orientable

    def _check_traced(self, emb: Embedding, order: list, rk: list) -> None:
        """Raise unless ``emb``'s traced faces are exactly these faces.

        ``order[e]`` is the table's id of ``emb``'s edge ``e``, and ``rk[s]``
        the rank of slot ``s``'s label.  Each traced face, an orbit of
        ``emb``'s tracing states (traced here once, and kept for
        ``emap.certify``), is matched on ranks with one of the two faces along
        its first edge, read from that edge in either direction, and no face
        twice.
        """
        side = self._side
        ends = emb.ends  # state s leaves the rank ends[s >> 1]
        orbits = emb._traced()
        if len(orbits) != (len(rk) >> 2) - len(self._free_faces) or any(len(o) != 4 for o in orbits):
            raise StructuralError("rebuilt embedding does not reproduce the table's faces")
        matched = bytearray(len(rk) >> 2)
        for s0, s1, s2, s3 in orbits:
            v0, v1 = ends[s0 >> 1], ends[s1 >> 1]
            e = order[s0 >> 2]
            for s in (side[2 * e], side[2 * e + 1]):
                # the face read from slot s (s, the next, opposite and previous
                # corners) must be v0 v1 v2 v3, or v1 v0 v3 v2: the other way round
                after, before = (s & -4) | ((s + 1) & 3), (s & -4) | ((s - 1) & 3)
                if rk[s] == v0:
                    same = (rk[after] == v1 and rk[s ^ 2] == ends[s2 >> 1]
                            and rk[before] == ends[s3 >> 1])
                else:
                    same = (rk[s] == v1 and rk[after] == v0
                            and rk[s ^ 2] == ends[s3 >> 1] and rk[before] == ends[s2 >> 1])
                if same and not matched[s >> 2]:
                    matched[s >> 2] = 1
                    break
            else:
                raise StructuralError("rebuilt embedding does not reproduce the table's faces")

    def _mates(self, f: int) -> list:
        """The face across each edge of face ``f`` (``f`` across a loop, -1 across none)."""
        fe, side = self._fe, self._side
        out = []
        for s in range(4 * f, 4 * f + 4):
            e = fe[s]
            t = side[2 * e]
            out.append((side[2 * e + 1] if t == s else t) >> 2)
        return out

    def _meet(self, f: int, mates: list, step: int) -> None:
        """Count (``step`` = 1) or uncount (-1) the edges face ``f`` shares with
        ``mates``, the faces across those of its edges that have two sides; the
        caller skips it when ``mates`` holds no face twice and not ``f``."""
        self._loops += step * mates.count(f)
        for g in set(mates) - {f}:
            if mates.count(g) >= 2:
                self._multi += step

    def _add(self, w) -> int:
        if len(w) != 4:
            raise SurgeryError(f"face {tuple(w)} has length {len(w)}, expected 4")
        if self._free_faces:
            f = self._free_faces.pop()
        else:
            f = len(self._w) >> 2
            self._w += (None,) * 4
            self._fe += (0,) * 4
        b = 4 * f
        self._w[b:b + 4] = w
        fe, side, eid = self._fe, self._side, self._eid
        degree, anchor = self._degree, self._anchor
        mates = []
        for i in range(4):
            u, x = w[i], w[(i + 1) & 3]
            key = (((u, x) if u < x else (x, u)) if type(u) is type(x) is int and u != x
                   else edge_between(u, x))  # edge_between's int path, inlined
            e = eid.get(key)
            if e is None:
                if self._free_edges:
                    e = self._free_edges.pop()
                else:
                    e = len(side) >> 1
                    side += (-1, -1)
                eid[key] = e
                side[2 * e] = b + i
            elif side[2 * e + 1] < 0:
                side[2 * e + 1] = b + i
                mates.append(side[2 * e] >> 2)
            else:
                raise SurgeryError(f"edge {key} lies on more than two faces")
            fe[b + i] = e
            degree[u] = degree.get(u, 0) + 1
            anchor[u] = b + i
        if mates and (f in mates or len(set(mates)) < len(mates)):
            self._meet(f, mates, 1)
        return f

    def _remove(self, f: int) -> None:
        """Drop face ``f``.  A vertex it leaves may keep a stale anchor; each
        operation adds a face at each such vertex before anything walks round it."""
        labels, fe, side, degree = self._w, self._fe, self._side, self._degree
        mates = []
        for i in range(4):
            s = 4 * f + i
            u = labels[s]
            if degree[u] > 1:
                degree[u] -= 1
            else:
                del degree[u], self._anchor[u]
            e = fe[s]
            if side[2 * e] == s:
                side[2 * e] = side[2 * e + 1]
            side[2 * e + 1] = -1
            if side[2 * e] < 0:
                x = labels[4 * f + ((i + 1) & 3)]  # a present edge is no loop, so u != x
                del self._eid[((u, x) if u < x else (x, u)) if type(u) is type(x) is int
                              else edge_between(u, x)]  # edge_between's int path, inlined
                self._free_edges.append(e)
            else:
                mates.append(side[2 * e] >> 2)
        if mates and (f in mates or len(set(mates)) < len(mates)):
            self._meet(f, mates, -1)
        labels[4 * f:4 * f + 4] = (None,) * 4
        self._free_faces.append(f)

    def _check_closed(self, faces) -> None:
        """Raise unless every edge of ``faces`` lies on two faces."""
        w, fe, side = self._w, self._fe, self._side
        for f in faces:
            for s in range(4 * f, 4 * f + 4):
                if side[2 * fe[s] + 1] < 0:
                    edge = edge_between(w[s], w[_next(s)])
                    raise SurgeryError(f"edge {edge} lies on only one face")


def _index_edges(w: list) -> tuple:
    """``(eid, fe)`` of the flat corner list ``w``: each edge's id, numbered
    where it first appears, and the id of the edge from each corner to the
    next round its face.  The key made at an edge's second side is freed on
    return, before the caller's passes over the sides."""
    ahead = w[1:] + w[:1]  # the corner after each, round its face
    ahead[3::4] = w[0::4]
    if set(map(type, w)) <= {int} and all(map(ne, w, ahead)):
        keys = [(u, x) if u < x else (x, u) for u, x in zip(w, ahead)]  # edge_between's int path
    else:
        try:
            keys = list(map(edge_between, w, ahead))
        except StructuralError:
            _refuse(zip(*[iter(w)] * 4))
    eid = {}
    return eid, [eid.setdefault(key, len(eid)) for key in keys]


def _refuse(faces) -> None:
    """Raise the error that loading ``faces`` one at a time meets first, by
    adding them to an empty table (``_add``) and then checking that every
    edge lies on two faces (``_check_closed``)."""
    table = FaceTable([])
    for w in faces:
        table._add(w)
    table._check_closed(range(len(table._w) >> 2))


class GluingSite(NamedTuple):
    """What ``FaceTable.splice`` reads of a summand at its summed vertex
    (``FaceTable.site``).

    ``rim`` and ``opposite`` are ``_rim``'s: the vertex's neighbours round it,
    label-canonically, one per corner of the vertex, and the corner opposite
    the vertex in the face after each.  ``rim_edges`` are the edges with both
    ends on the rim, ``inner`` the vertices off the rim but the summed one in
    ``vkey`` order, and ``corners`` the corners of every face away from the
    vertex, four per face, in face-id order.
    """

    vertex: Label
    rim: tuple
    opposite: tuple
    rim_edges: tuple
    inner: tuple
    corners: tuple


class HandleSite(NamedTuple):
    """Two quadrilateral faces with designated opposite-corner pairs.

    ``alpha = (a, p, c, q)`` and ``beta = (b, r, d, s)``: the handle adds
    the 4-cycle a-b-c-d through these faces.
    """

    alpha: tuple
    beta: tuple


def _fresh_label(vertices) -> int:
    used = {v for v in vertices if isinstance(v, int)}
    z = 0
    while z in used:
        z += 1
    return z

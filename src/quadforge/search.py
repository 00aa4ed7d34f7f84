"""Materializing base embeddings from property specifications.

One engine, ``_QuadSearcher``: depth-first search over signed rotation
systems that builds quadrangular faces one at a time, always extending the
face of the lexicographically smallest open tracing state.  Symmetry is
broken by fixing every spanning-tree edge sign to +1 (each switching class
has exactly one such representative) and by orienting one high-degree
vertex's rotation (quotienting the global reflection).

The search is a driver loop over a stack of per-face generators.  Each
generator builds one face, at most four states deep, and hands it back to
the driver when it closes; the driver pushes a generator for the next open
face, or yields the complete system when no face is left open, and resumes
the top generator to undo the face and try its next branch.  So the nesting
is at most four generators deep, whatever the edge count.  A node is one
state tried as the next state of a face, and a budget counts nodes.  A
state that would end a face's fourth step at a vertex other than the face's
start is a dead end: it counts as a node but gets no generator frame.

The engine works in ``emap``'s one encoding of a face-tracing state: the
target graph's core (``Graph.labels`` and ``Graph.ends``), the state
``s = 4*e + 2*side + (o == -1)`` and its reverse ``s ^ 3`` across a
positive edge or ``s ^ 2`` across a negative one.  Of its own it keeps only
what a partial rotation system needs: per-dart rotation links, the open
edge signs and the marks of the states already on a closed face.  Each
complete system is passed to ``Embedding`` as its integer core, with
no label-level graph or rotation dicts in between; the embedding traces its
faces into orbits of the same states (``Embedding._traced``) the first time
they are read: for chi, or to load the ``surgery.FaceTable`` that every
witness predicate's check reads.  ``search_exact`` runs it once,
exhaustively, so with an unlimited budget "none" is a proof of nonexistence
for the labeled graph; ``enumerate_embeddings`` runs it to the end and
filters what it yields.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import emap, surgery
from .emap import Embedding, Graph
from .errors import FormatError, SearchError, SurgeryError


class WitnessSpec(NamedTuple):
    """Target graph plus the property bundle a witness must satisfy."""

    graph: Graph
    chi: int | None  # None, only when enumerating, means "any"
    orientable: bool | None  # None means "either"
    predicates: tuple = ()

    def validate(self) -> None:
        n = len(self.graph.vertices)
        m = len(self.graph.edges)
        if m == 0:
            raise SearchError("the target graph has no edge, so its embedding has no face")
        if m % 2 != 0:
            raise SearchError(f"quadrangular embedding needs an even edge count, got {m}")
        if self.chi != n - m // 2:
            raise SearchError(
                f"chi={self.chi} inconsistent with |V|-|E|/2={n - m // 2} for a quadrangulation"
            )
        if self.orientable is True and self.chi % 2 != 0:
            raise SearchError(f"orientable surfaces have even chi, got {self.chi}")
        if not self.graph.is_connected():
            raise SearchError("target graph must be connected")


def _delete_degree2_ok(table: surgery.FaceTable, z) -> bool:
    out = table.copy()
    try:
        out.delete_degree2(z)
    except SurgeryError:
        return False
    return out.is_face_simple()


def _double_handle_ok(table: surgery.FaceTable, cycle1, cycle2) -> bool:
    """Some site for cycle1 leaves a usable site for cycle2 after augmenting."""
    return any(mid.handle_sites(tuple(cycle2)) for mid in table.handled(tuple(cycle1)))


# Every witness predicate, by name: the number of vertex labels its spec line
# gives (0, 1, 4 for a 4-cycle or 8 for two), the words a refusal of another
# number uses, and the check, called with the candidate's face table and the
# predicate's arguments.  The spec reader and ``check_predicates`` read only
# this table.
PREDICATES = {
    "face_simple": (0, "no arguments", surgery.FaceTable.is_face_simple),
    "universal_vertex": (0, "no arguments", lambda table: bool(table.universal_vertices())),
    "nearly_face_simple_except_some_universal":
        (0, "no arguments", lambda table: table.nearly_face_simple_universal() is not None),
    "nearly_face_simple_except": (1, "one vertex", surgery.FaceTable.is_nearly_face_simple_except),
    "delete_degree2_face_simple": (1, "one vertex", _delete_degree2_ok),
    "has_handle_site":
        (4, "a 4-cycle", lambda table, cycle: bool(table.handle_sites(tuple(cycle)))),
    "double_handle": (8, "two 4-cycles", _double_handle_ok),
}


def spec_predicate(name: str, labels: tuple) -> tuple:
    """The predicate tuple of a spec line ``predicate NAME LABEL...``: the
    name, then the one vertex or each 4-cycle, of four distinct labels."""
    if name not in PREDICATES:
        raise FormatError(f"unknown predicate {name!r}")
    count, takes, _ = PREDICATES[name]
    if len(labels) != count:
        raise FormatError(f"{name} takes {takes}")
    if count == 1:
        return (name, labels[0])
    cycles = [labels[i:i + 4] for i in range(0, count, 4)]
    if any(len(set(cycle)) < 4 for cycle in cycles):
        raise FormatError(f"{name} takes {takes} of distinct vertices")
    return (name, *cycles)


def check_predicates(table: surgery.FaceTable, predicates) -> bool:
    """Whether the faces of ``table`` pass every predicate; the surgery
    predicates make their edits on copies, so ``table`` is only read."""
    for name, *args in predicates:
        if name not in PREDICATES:
            raise SearchError(f"unknown predicate {name!r}")
        if not PREDICATES[name][2](table, *args):
            return False
    return True


class SearchResult(NamedTuple):
    status: str  # "found" | "none" | "exhausted"
    embedding: Embedding | None = None
    nodes: int = 0


class _Budget(Exception):
    pass


class _QuadSearcher:
    """Backtracking search for quadrangular signed rotation systems.

    It runs on ``emap``'s tracing states.  Edge e is the e-th pair of
    ``graph.ends``, and dart ``d = 2*e + end`` is e at its smaller
    (end 0) or larger (end 1) endpoint.  The state leaving along dart d with
    orientation o is ``s = 2*d + (o == -1)``, and its head is dart
    ``(s >> 1) ^ 1``.  The partial rotation at a vertex is kept as per-dart
    links ``nxt``/``prv`` (-1 while open), and ``done`` marks the states of
    the closed faces, each with its reverse ``s ^ 3`` or ``s ^ 2``.  Every
    move is undone by the frame that made it.  The dart ranks ``vertex`` are
    the graph's ``ends``, so ``_build`` passes a complete system to
    ``Embedding`` with the rotations as edge ids and a copy of the signs.

    ``search`` keeps a stack of ``_extend`` generators, one per face: the
    closed faces, then the one being built.  ``_extend`` makes one frame
    per state of its face, so at most four; when ``_close`` marks the face
    done it yields the face's first state to ``search``, which pushes a
    generator for the next open state (``done.find``) or yields
    ``_build()`` when none is left, then resumes the face to unmark it.
    Each state tried is a node, counted against the budget on entry.  A
    state whose head would end the fourth step away from the face's start
    would be refused for every sign, so its parent counts it without making
    the frame: the node count is as if the frame were made.

    The link check in ``_extend`` turns the corner at the head dart hd: with
    o = +1 the rotation steps from hd to the next dart d, with o = -1 from d
    to hd.  Both ends must be free, and a link may close a cycle only through
    every dart at the vertex.  Every d links to the same side of hd, so the
    end of hd's path on that side (its head along ``prv`` for o = +1, its
    tail along ``nxt`` for o = -1) is walked once per sign, and d closes a
    cycle exactly when it is that end.  ``nxt`` and ``prv`` are linked only
    for a state that closes the face (``_close`` reads the link) or recurses
    (the next frame does); the mirror check reads the link a state would
    make, and a state refused as done or as a dead end never needs it.

    Every corner is linked through this check, never found linked.  A
    dart's link is made only by the step turning its corner.  A second turn
    would come from the same state, which is done or held once by the path,
    or from its reverse.  A reverse on a closed face had the state marked
    done by ``_close``.  One on the open path would make the stretch between
    them read the same reversed: that needs a state that is its own reverse,
    or a step from a state to its reverse, which turns a degree-1 corner and
    so keeps the orientation bit that the reverse flips.  Neither exists.  A
    corner found linked would be pruned by the check on hd's side, not built
    wrong.
    """

    def __init__(self, graph: Graph, orientable: bool | None):
        self.labels = graph.labels
        self.vertex = graph.ends  # dart -> vertex rank: the core's ``ends``, never changed
        self.darts = [[] for _ in self.labels]  # vertex rank -> its darts, in edge order
        for d, v in enumerate(self.vertex):
            self.darts[v].append(d)
        self.nxt = [-1] * len(self.vertex)
        self.prv = [-1] * len(self.vertex)
        self.sign = [1] * len(graph.edges) if orientable is True else self._tree_signs()
        # Quotient the global reflection: at the first vertex of degree >= 3,
        # its first dart's successor is a smaller dart than its predecessor.
        self.refl = next((ds[0] for ds in self.darts if len(ds) >= 3), -1)
        self.done = bytearray(4 * len(graph.edges))
        self.nodes = 0
        self.budget = None

    def _tree_signs(self) -> list:
        """+1 on a BFS spanning tree and 0 (open) elsewhere: each switching
        class has exactly one such representative."""
        sign = [0] * (len(self.vertex) >> 1)
        order, seen = [0], {0}
        for v in order:
            for d in self.darts[v]:
                w = self.vertex[d ^ 1]
                if w not in seen:
                    seen.add(w)
                    sign[d >> 1] = 1
                    order.append(w)
        return sign

    def search(self, budget: int | None) -> Iterator[Embedding]:
        """Every complete system, in branch order, from the stack of face
        generators described above."""
        self.budget = budget
        done, faces, start = self.done, [], 0
        while True:
            # the states below the first state of the face just closed are all done
            start = done.find(0, start)
            if start < 0:
                yield self._build()
            else:
                faces.append(self._extend([start]))
            while faces:
                start = next(faces[-1], None)
                if start is not None:
                    break
                faces.pop()
            else:
                return

    def _extend(self, path: list):
        """Extend the face whose states so far are ``path`` by each state
        that may follow the last one; yield ``path[0]`` each time the face
        closes, with its states marked done until resumed."""
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise _Budget()
        sign, nxt, prv, done = self.sign, self.nxt, self.prv, self.done
        vertex, refl = self.vertex, self.refl
        s, first, depth = path[-1], path[0], len(path)
        e, hd = s >> 2, (s >> 1) ^ 1  # the edge and its dart at the head
        closing, last = depth == 4, depth == 3  # ``last``: a child ends the fourth step
        start = vertex[first >> 1]
        darts = self.darts[vertex[hd]]
        degree = len(darts)
        for sg in (sign[e],) if sign[e] else (1, -1):
            o = (s & 1) ^ (sg < 0)  # orientation bit after crossing e
            if closing and o != first & 1:
                continue  # (the head is at the start's vertex: see the dead ends below)
            # the corner at the head: o = +1 (bit 0) links hd to d, o = -1
            # links d to hd.  Every d takes the link on the side walked from
            # hd to the end of its path; linking that end closes a cycle.
            d_side, hd_side = (nxt, prv) if o else (prv, nxt)
            if hd_side[hd] >= 0:
                continue
            end, k = hd, 1
            while d_side[end] >= 0:
                end = d_side[end]
                k += 1
            shut = end if k != degree else -1  # a cycle must pass every dart
            fresh = not sign[e]
            sign[e] = sg  # sg is the sign already set on an edge that is not fresh
            for d in (first >> 1,) if closing else darts:
                if d_side[d] >= 0 or d == shut:
                    continue
                # a later state of the path has its corner linked, refused above
                t = 2 * d + o
                if not closing and (done[t] or t == first):
                    continue
                a, b = (d, hd) if o else (hd, d)
                # the mirror image of this branch is searched instead: the
                # check reads nxt[refl] > prv[refl] >= 0 as a to b would leave it
                if refl == a and b > prv[a] >= 0 or refl == b and nxt[b] > a:
                    continue
                if last and vertex[d ^ 1] != start:
                    # a dead end: its frame would refuse every sign
                    self.nodes += 1
                    if self.budget is not None and self.nodes > self.budget:
                        raise _Budget()
                    continue
                # link only a state that closes the face or recurses: only
                # _close and the next frame read the link
                nxt[a], prv[b] = b, a
                if closing:
                    marked = self._close(path)
                    if marked:
                        yield first
                        for t in marked:
                            done[t] = 0
                else:
                    path.append(t)
                    yield from self._extend(path)
                    path.pop()
                nxt[a] = prv[b] = -1
            if fresh:
                sign[e] = 0

    def _close(self, path: list) -> list:
        """Mark the face's states and their reverses done; [] if one already is."""
        done, sign = self.done, self.sign
        marked = []
        for s in path:
            rev = s ^ (3 if sign[s >> 2] > 0 else 2)
            if done[s] or done[rev]:
                for t in marked:
                    done[t] = 0
                return []
            done[s] = done[rev] = 1
            marked += (s, rev)
        return marked

    def _build(self) -> Embedding:
        """The complete system; each rotation starts at its least edge, the first dart's."""
        nxt, rot = self.nxt, []
        for ds in self.darts:
            cyc = ds[:1]
            while cyc and nxt[cyc[-1]] != cyc[0]:
                cyc.append(nxt[cyc[-1]])
            rot.append([d >> 1 for d in cyc])
        return Embedding(self.labels, self.vertex, rot, self.sign.copy())


def search_exact(spec: WitnessSpec, budget: int | None = None) -> SearchResult:
    """First witness for ``spec`` by exhaustive backtracking, or a proof of absence."""
    spec.validate()
    searcher = _QuadSearcher(spec.graph, spec.orientable)
    try:
        for emb in searcher.search(budget):
            if _matches(emb, spec):
                return SearchResult("found", emb, searcher.nodes)
    except _Budget:
        return SearchResult("exhausted", None, searcher.nodes)
    return SearchResult("none", None, searcher.nodes)


def _matches(emb: Embedding, spec: WitnessSpec, table: surgery.FaceTable | None = None) -> bool:
    """Whether ``emb`` passes ``spec``; the predicates read ``table``, ``emb``'s faces."""
    if spec.chi is not None and emap.euler_characteristic(emb) != spec.chi:
        return False
    if spec.orientable is not None and emap.is_orientable(emb) != spec.orientable:
        return False
    # emb is quadrangular, so its faces load into a table
    return not spec.predicates or check_predicates(
        table or surgery.FaceTable.from_embedding(emb), spec.predicates)


ENUMERATION_VERTEX_CAP = 8


def enumerate_embeddings(g: Graph, predicates=(), chi: int | None = None,
                         orientable: bool | None = None) -> Iterator[Embedding]:
    """All quadrangular embeddings of g up to switching and reflection,
    filtered.  A graph with no edge, an odd edge count or more than one
    component has none."""
    if len(g.vertices) > ENUMERATION_VERTEX_CAP:
        raise SearchError(f"enumeration is capped at {ENUMERATION_VERTEX_CAP} vertices")
    if not g.edges or len(g.edges) % 2 != 0 or not g.is_connected():
        return
    spec = WitnessSpec(g, chi, orientable, predicates)
    for emb in _QuadSearcher(g, None).search(None):
        if _matches(emb, spec):
            yield emb


# ---------------------------------------------------------------------------
# Minimality sweeps: candidate graphs for face-simple quadrangulations.
# ---------------------------------------------------------------------------

SWEEP_SURFACES = {"sphere": 2, "projective": 1}


def candidate_graphs(n: int, chi: int) -> Iterator[Graph]:
    """Connected graphs on n vertices, one per isomorphism class, that could
    carry a face-simple quadrangulation of a surface with the given Euler
    characteristic.

    Quadrangularity forces |E| = 2(n - chi); face-simplicity forces minimum
    degree 3 (a degree-1 edge lies twice on one face, the two faces at a
    degree-2 vertex share two edges).

    Only rooted labelings are enumerated.  For each maximum degree d, vertex
    0 has degree d and neighbours 1..d, no vertex has degree above d, and
    degrees do not increase along 1..d nor along d+1..n-1.  Every class keeps
    a representative: in any graph of the class, call a vertex of maximum
    degree d vertex 0, number its neighbours 1..d by nonincreasing degree and
    its other vertices d+1..n-1 likewise.  The search prunes only branches
    that cannot end in such a labeling: a vertex above degree d or above its
    predecessor in its block (whose degree is final once its row of pairs is
    decided), below degree 3 with too few undecided pairs left, or too few
    pairs left for the edges still missing.  The labelings that remain are
    tested for connectivity and merged by ``graphalg._canonical_form`` on
    their own edge lists; only the first labeling of each class is built
    into a ``Graph`` and yielded.
    """
    from . import graphalg

    m = 2 * (n - chi)
    if m < 0 or m > n * (n - 1) // 2 or 2 * m < 3 * n:
        return
    seen = set()
    for d in range(-(-2 * m // n), n):  # n vertices of degree <= d carry 2m ends
        for edges in _rooted_labelings(n, m, d):
            if not emap.connected(n, edges):
                continue
            form = graphalg._canonical_form(n, edges)
            if form not in seen:
                seen.add(form)
                yield Graph.from_edges(edges, vertices=range(n))


def _rooted_labelings(n: int, m: int, d: int) -> Iterator[list]:
    """Edge lists of the graphs on range(n) with m edges, degrees in [3, d],
    N(0) = {1..d} and degrees nonincreasing along 1..d and along d+1..n-1.
    The pairs (0, j) are fixed; the others are decided in lexicographic
    order, so every vertex below a pair's first end has its final degree.
    The vertices are already 0..n-1, so ``graphalg._canonical_form`` reads
    a list as it is.  Some lists are of disconnected graphs.
    """
    pairs = [(a, b) for a in range(1, n) for b in range(a + 1, n)]
    deg = [d] + [1] * d + [0] * (n - 1 - d)
    undecided = [0] + [n - 2] * (n - 1)
    chosen = [(0, j) for j in range(1, d + 1)]
    need = m - d
    opens_block = (1, d + 1)

    def rec(idx: int, picked: int):
        if picked == need:
            if min(deg) >= 3 and all(deg[v] <= deg[v - 1] for v in range(2, n)
                                     if v not in opens_block):
                yield list(chosen)
            return
        if len(pairs) - idx < need - picked:
            return
        a, b = pairs[idx]
        undecided[a] -= 1
        undecided[b] -= 1
        cap = d if a in opens_block else deg[a - 1]
        if deg[a] < cap and deg[b] < d:
            chosen.append((a, b))
            deg[a] += 1
            deg[b] += 1
            yield from rec(idx + 1, picked + 1)
            chosen.pop()
            deg[a] -= 1
            deg[b] -= 1
        if deg[a] + undecided[a] >= 3 and deg[b] + undecided[b] >= 3:
            yield from rec(idx + 1, picked)
        undecided[a] += 1
        undecided[b] += 1

    yield from rec(0, 0)


def sweep_minimal(surface: str, max_n: int) -> dict:
    """For each n <= max_n, the candidate graphs admitting a face-simple
    quadrangulation of the surface; {n: [Graph, ...]}."""
    if surface not in SWEEP_SURFACES:
        raise SearchError(f"unknown surface {surface!r}; choose from {sorted(SWEEP_SURFACES)}")
    if max_n > ENUMERATION_VERTEX_CAP:
        raise SearchError(f"enumeration is capped at {ENUMERATION_VERTEX_CAP} vertices")
    chi = SWEEP_SURFACES[surface]
    orientable = surface == "sphere"
    results = {}
    for n in range(4, max_n + 1):
        hits = []
        for g in candidate_graphs(n, chi):
            embs = enumerate_embeddings(g, (("face_simple",),), chi=chi, orientable=orientable)
            if next(embs, None) is not None:
                hits.append(g)
        results[n] = hits
    return results

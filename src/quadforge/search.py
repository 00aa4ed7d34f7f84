"""Materializing base embeddings from property specifications.

One engine, ``_QuadSearcher``: depth-first search over signed rotation
systems that builds quadrangular faces one at a time, always extending the
face of the lexicographically smallest open tracing state.  Partial walks
that cannot close at length 4 are pruned immediately.  Symmetry is broken by
fixing every spanning-tree edge sign to +1 (each switching class has exactly
one such representative) and by orienting one high-degree vertex's rotation
(quotienting the global reflection).

The engine works in ``emap``'s one encoding of a face-tracing state: edges
numbered in ``Graph.sorted_edges()`` order, vertices ranked by ``vkey``, the
state ``s = 4*e + 2*side + (o == -1)`` and its reverse ``s ^ 3`` across a
positive edge or ``s ^ 2`` across a negative one.  Of its own it keeps only
what a partial rotation system needs: per-dart rotation links, the open
edge signs and the marks of the states already on a closed face.  Each
complete system becomes an ``Embedding``, which traces its faces into
orbits of the same states (``Embedding._traced``) the first time a predicate
reads them.  It is driven two ways:

* ``search_exact`` - one exhaustive run.  With an unlimited budget, "none"
  is therefore a proof of nonexistence for the labeled graph.

* ``search_randomized`` - many short runs, each with its branch order
  shuffled, for targets too large to backtrack exhaustively.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from . import emap, surgery
from .emap import Embedding, Graph, vkey
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


def _some_universal_ok(emb: Embedding) -> bool:
    return any(emap.is_nearly_face_simple_except(emb, v)
               for v in sorted(emap.universal_vertices(emb.graph), key=vkey))


def _delete_degree2_ok(table: surgery.FaceTable, z) -> bool:
    out = table.copy()
    try:
        out.delete_degree2(z)
    except SurgeryError:
        return False
    return out.is_face_simple()


def _double_handle_ok(table: surgery.FaceTable, cycle1, cycle2) -> bool:
    """Some site for cycle1 leaves a usable site for cycle2 after augmenting."""
    for site in table.handle_sites(tuple(cycle1)):
        mid = table.copy()
        try:
            mid.handle(site)
        except SurgeryError:
            continue
        if mid.handle_sites(tuple(cycle2)):
            return True
    return False


# Every witness predicate, by name: the number of vertex labels its spec line
# gives (0, 1, 4 for a 4-cycle or 8 for two), the words a refusal of another
# number uses, whether its check reads the face table rather than the
# embedding, and the check, called with that and the predicate's arguments.
# The spec reader and ``check_predicates`` read only this table.
PREDICATES = {
    "face_simple": (0, "no arguments", False, emap.is_face_simple),
    "universal_vertex":
        (0, "no arguments", False, lambda emb: bool(emap.universal_vertices(emb.graph))),
    "nearly_face_simple_except_some_universal": (0, "no arguments", False, _some_universal_ok),
    "nearly_face_simple_except": (1, "one vertex", False, emap.is_nearly_face_simple_except),
    "delete_degree2_face_simple": (1, "one vertex", True, _delete_degree2_ok),
    "has_handle_site":
        (4, "a 4-cycle", True, lambda table, cycle: bool(table.handle_sites(tuple(cycle)))),
    "double_handle": (8, "two 4-cycles", True, _double_handle_ok),
}


def spec_predicate(name: str, labels: tuple) -> tuple:
    """The predicate tuple of a spec line ``predicate NAME LABEL...``: the
    name, then the one vertex or each 4-cycle of labels."""
    if name not in PREDICATES:
        raise FormatError(f"unknown predicate {name!r}")
    count, takes, _, _ = PREDICATES[name]
    if len(labels) != count:
        raise FormatError(f"{name} takes {takes}")
    if count == 1:
        return (name, labels[0])
    return (name, *(labels[i:i + 4] for i in range(0, count, 4)))


def check_predicates(emb: Embedding, predicates) -> bool:
    """Whether ``emb`` passes every predicate.  Those that read the face
    table are answered from one table, built at the first of them; the
    surgery predicates make their edits on copies."""
    table = None
    for name, *args in predicates:
        if name not in PREDICATES:
            raise SearchError(f"unknown predicate {name!r}")
        _, _, on_table, check = PREDICATES[name]
        if on_table:
            table = table or surgery.FaceTable.from_embedding(emb)
        if not check(table if on_table else emb, *args):
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

    It runs on ``emap``'s tracing states.  Edge e is the e-th edge of
    ``graph.sorted_edges()``, and dart ``d = 2*e + end`` is e at its smaller
    (end 0) or larger (end 1) endpoint.  The state leaving along dart d with
    orientation o is ``s = 2*d + (o == -1)``, and its head is dart
    ``(s >> 1) ^ 1``.  The partial rotation at a vertex is kept as per-dart
    links ``nxt``/``prv`` (-1 while open), and ``done`` marks the states of
    the closed faces, each with its reverse ``s ^ 3`` or ``s ^ 2``.  Every
    move is undone by the frame that made it.

    Every corner is linked through ``_can_link``, never found linked.  A
    dart's link is made only by the step turning its corner.  A second turn
    would come from the same state, which is done or held once by the path,
    or from its reverse.  A reverse on a closed face had the state marked
    done by ``_close``.  One on the open path would make the stretch between
    them read the same reversed: that needs a state that is its own reverse,
    or a step from a state to its reverse, which turns a degree-1 corner and
    so keeps the orientation bit that the reverse flips.  Neither exists.
    A corner found linked would be pruned by ``_can_link``, not built wrong.
    """

    def __init__(self, graph: Graph, orientable: bool | None, rng: random.Random | None = None):
        self.graph = graph
        self.rng = rng  # when set, branch order is shuffled (search stays exhaustive)
        self.edges = graph.sorted_edges()
        rank = {v: i for i, v in enumerate(graph.sorted_vertices())}
        self.vertex = [rank[v] for e in self.edges for v in e]  # dart -> vertex rank
        self.darts = [[] for _ in rank]  # vertex rank -> its darts, in edge order
        for d, v in enumerate(self.vertex):
            self.darts[v].append(d)
        self.nxt = [-1] * len(self.vertex)
        self.prv = [-1] * len(self.vertex)
        self.sign = [1] * len(self.edges) if orientable is True else self._tree_signs()
        # Quotient the global reflection: at the first vertex of degree >= 3,
        # its first dart's successor is a smaller dart than its predecessor.
        self.refl = next((ds[0] for ds in self.darts if len(ds) >= 3), -1)
        self.done = bytearray(4 * len(self.edges))
        self.nodes = 0
        self.budget = None

    def _tree_signs(self) -> list:
        """+1 on a BFS spanning tree and 0 (open) elsewhere: each switching
        class has exactly one such representative."""
        sign = [0] * len(self.edges)
        order, seen = [0], {0}
        for v in order:
            for d in self.darts[v]:
                w = self.vertex[d ^ 1]
                if w not in seen:
                    seen.add(w)
                    sign[d >> 1] = 1
                    order.append(w)
        return sign

    def _can_link(self, a: int, b: int) -> bool:
        """Whether the rotation at a's vertex may step from dart a to dart b:
        both are free, and a cycle closes only through every dart there."""
        nxt = self.nxt
        if nxt[a] >= 0 or self.prv[b] >= 0:
            return False
        cur, k = b, 1
        while nxt[cur] >= 0:
            cur = nxt[cur]
            k += 1
        return cur != a or k == len(self.darts[self.vertex[a]])

    def search(self, budget: int | None) -> Iterator[Embedding]:
        self.budget = budget
        yield from self._next_face(0)

    def _next_face(self, start: int):
        # the states below the first state of the face just closed are all done
        start = self.done.find(0, start)
        if start < 0:
            yield self._build()
        else:
            yield from self._extend([start])

    def _extend(self, path: list):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise _Budget()
        sign, nxt, prv, done, rng = self.sign, self.nxt, self.prv, self.done, self.rng
        s = path[-1]
        e, hd = s >> 2, (s >> 1) ^ 1  # the edge and its dart at the head
        closing = len(path) == 4
        signs = [sign[e]] if sign[e] else [1, -1]
        if rng is not None and len(signs) > 1:
            rng.shuffle(signs)
        for sg in signs:
            o = (s & 1) ^ (sg < 0)  # orientation bit after crossing e
            if closing and (o != path[0] & 1 or self.vertex[path[0] >> 1] != self.vertex[hd]):
                continue
            # corner at the head: o = +1 links d to hd, o = -1 links hd to d
            choices = (path[0] >> 1,) if closing else self.darts[self.vertex[hd]]
            if rng is not None and len(choices) > 1:
                choices = list(choices)
                rng.shuffle(choices)
            for d in choices:
                a, b = (d, hd) if o else (hd, d)
                if not self._can_link(a, b):
                    continue
                fresh = not sign[e]
                sign[e] = sg  # sg is the sign already set on an edge that is not fresh
                nxt[a], prv[b] = b, a
                if self.refl in (a, b) and nxt[self.refl] > prv[self.refl] >= 0:
                    pass  # the mirror image of this branch is searched instead
                elif closing:
                    marked = self._close(path)
                    if marked:
                        yield from self._next_face(path[0])
                        for t in marked:
                            done[t] = 0
                else:
                    t = 2 * d + o
                    if not done[t] and t not in path:
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
        rotation = {}
        for v, ds in zip(self.graph.sorted_vertices(), self.darts):
            cyc = ds[:1]
            while cyc and self.nxt[cyc[-1]] != cyc[0]:
                cyc.append(self.nxt[cyc[-1]])
            rotation[v] = tuple([self.edges[d >> 1] for d in cyc])
        return Embedding(self.graph, rotation, dict(zip(self.edges, self.sign)))


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


RANDOMIZED_RESTARTS = 512
CANDIDATES_PER_RESTART = 4


def search_randomized(spec: WitnessSpec, seed: int = 0,
                      restarts: int = RANDOMIZED_RESTARTS) -> SearchResult:
    """Random-restart exact backtracking: each restart shuffles branch order
    and tests the first ``CANDIDATES_PER_RESTART`` quadrangular candidates
    against the predicates.

    Deterministic for fixed (spec, seed, restarts); no completeness claim —
    use search_exact for nonexistence proofs.
    """
    spec.validate()
    total = 0
    for r in range(restarts):
        searcher = _QuadSearcher(spec.graph, spec.orientable, random.Random(1_000_003 * seed + r))
        for produced, emb in enumerate(searcher.search(None), start=1):
            if _matches(emb, spec):
                return SearchResult("found", emb, total + searcher.nodes)
            if produced >= CANDIDATES_PER_RESTART:
                break
        total += searcher.nodes
    return SearchResult("none", None, total)


def _matches(emb: Embedding, spec: WitnessSpec) -> bool:
    if spec.chi is not None and emap.euler_characteristic(emb) != spec.chi:
        return False
    if spec.orientable is not None and emap.is_orientable(emb) != spec.orientable:
        return False
    return check_predicates(emb, spec.predicates)


ENUMERATION_VERTEX_CAP = 8


def enumerate_embeddings(g: Graph, predicates=(), chi: int | None = None,
                         orientable: bool | None = None) -> Iterator[Embedding]:
    """All quadrangular embeddings of g up to switching and reflection, filtered."""
    if len(g.vertices) > ENUMERATION_VERTEX_CAP:
        raise SearchError(f"enumeration is capped at {ENUMERATION_VERTEX_CAP} vertices")
    if len(g.edges) % 2 != 0 or not g.is_connected():
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
    pairs left for the edges still missing.  The labelings of one class that
    remain are merged by ``graphalg.canonical_form``; the first one found is
    yielded.
    """
    from . import graphalg

    m = 2 * (n - chi)
    if m < 0 or m > n * (n - 1) // 2 or 2 * m < 3 * n:
        return
    seen = set()
    for d in range(-(-2 * m // n), n):  # n vertices of degree <= d carry 2m ends
        for edges in _rooted_labelings(n, m, d):
            g = Graph.from_edges(edges, vertices=range(n))
            if not g.is_connected():
                continue
            form = graphalg.canonical_form(g)
            if form not in seen:
                seen.add(form)
                yield g


def _rooted_labelings(n: int, m: int, d: int) -> Iterator[list]:
    """Edge lists of the graphs on range(n) with m edges, degrees in [3, d],
    N(0) = {1..d} and degrees nonincreasing along 1..d and along d+1..n-1.
    The pairs (0, j) are fixed; the others are decided in lexicographic
    order, so every vertex below a pair's first end has its final degree.
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

"""Materializing base embeddings from property specifications.

One engine, ``_QuadSearcher``: depth-first search over signed rotation
systems that builds quadrangular faces one at a time, always extending the
face of the lexicographically smallest open tracing state.  Partial walks
that cannot close at length 4 are pruned immediately.  Symmetry is broken by
fixing every spanning-tree edge sign to +1 (each switching class has exactly
one such representative) and by orienting one high-degree vertex's rotation
(quotienting the global reflection).  It is driven two ways:

* ``search_exact`` - one exhaustive run.  With an unlimited budget, "none"
  is therefore a proof of nonexistence for the labeled graph.

* ``search_randomized`` - many short runs, each with its branch order
  shuffled, for targets too large to backtrack exhaustively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from . import emap, surgery
from .emap import Embedding, Graph, vkey
from .errors import QuadforgeError, SearchError


@dataclass(frozen=True)
class WitnessSpec:
    """Target graph plus the property bundle a witness must satisfy."""

    graph: Graph
    chi: int
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


def check_predicates(emb: Embedding, predicates) -> bool:
    for pred in predicates:
        name, *args = pred
        if name == "face_simple":
            ok = emap.is_face_simple(emb)
        elif name == "nearly_face_simple_except":
            ok = emap.is_nearly_face_simple_except(emb, args[0])
        elif name == "nearly_face_simple_except_some_universal":
            ok = any(
                emap.is_nearly_face_simple_except(emb, v)
                for v in sorted(emap.universal_vertices(emb.graph), key=vkey)
            )
        elif name == "universal_vertex":
            ok = bool(emap.universal_vertices(emb.graph))
        elif name == "has_handle_site":
            ok = bool(surgery.find_handle_sites(emb, tuple(args[0])))
        elif name == "delete_degree2_face_simple":
            try:
                ok = emap.is_face_simple(surgery.delete_degree2(emb, args[0]))
            except QuadforgeError:
                ok = False
        elif name == "double_handle":
            ok = _double_handle_ok(emb, tuple(args[0]), tuple(args[1]))
        else:
            raise SearchError(f"unknown predicate {name!r}")
        if not ok:
            return False
    return True


def _double_handle_ok(emb: Embedding, cycle1, cycle2) -> bool:
    """Some site for cycle1 leaves a usable site for cycle2 after augmenting."""
    for site in surgery.find_handle_sites(emb, cycle1):
        try:
            mid = surgery.handle_augment(emb, site)
        except QuadforgeError:
            continue
        if surgery.find_handle_sites(mid, cycle2):
            return True
    return False


@dataclass
class SearchResult:
    status: str  # "found" | "none" | "exhausted"
    embedding: Embedding | None = None
    nodes: int = 0
    seed: int | None = None


class _Budget(Exception):
    pass


class _QuadSearcher:
    """Backtracking search for quadrangular signed rotation systems."""

    def __init__(self, graph: Graph, orientable: bool | None, rng: random.Random | None = None):
        self.graph = graph
        self.orientable = orientable
        self.rng = rng  # when set, branch order is shuffled (search stays exhaustive)
        self.vertices = graph.sorted_vertices()
        self.edges = graph.sorted_edges()
        self.eindex = {e: i for i, e in enumerate(self.edges)}
        self.m = len(self.edges)
        self.incident = {v: [self.eindex[e] for e in graph.incident_edges(v)] for v in self.vertices}
        self.deg = {v: len(self.incident[v]) for v in self.vertices}
        # succ/pred per vertex: partial rotation as edge-id -> edge-id links
        self.succ = {v: {} for v in self.vertices}
        self.pred = {v: {} for v in self.vertices}
        self.links = {v: 0 for v in self.vertices}
        self.sign = [0] * self.m  # 0 unknown, else +1/-1
        self._fix_signs()
        self._fix_reflection_vertex()
        self.done = [False] * (4 * self.m)
        self.nodes = 0
        self.budget = None

    # -- symmetry breaking -------------------------------------------------
    def _fix_signs(self):
        if self.orientable is True:
            self.sign = [1] * self.m
            return
        # Spanning-tree edges get sign +1: one representative per switching class.
        root = self.vertices[0]
        seen = {root}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for ei in self.incident[v]:
                    e = self.edges[ei]
                    w = emap.other_end(e, v)
                    if w not in seen:
                        seen.add(w)
                        self.sign[ei] = 1
                        nxt.append(w)
            frontier = nxt

    def _fix_reflection_vertex(self):
        self.refl_v = None
        for v in self.vertices:
            if self.deg[v] >= 3:
                self.refl_v = v
                self.refl_e = min(self.incident[v])
                break

    def _reflection_ok(self, v) -> bool:
        if v != self.refl_v:
            return True
        e0 = self.refl_e
        s = self.succ[v].get(e0)
        p = self.pred[v].get(e0)
        if s is None or p is None:
            return True
        return s < p

    # -- rotation link bookkeeping ----------------------------------------
    def _can_link(self, v, e, f) -> bool:
        if e in self.succ[v] or f in self.pred[v]:
            return False
        if e == f:
            return self.deg[v] == 1
        # walk forward from f: closing back to e is only legal when the
        # link completes the full rotation cycle at v
        cur = f
        while cur in self.succ[v]:
            cur = self.succ[v][cur]
        if cur == e and self.links[v] + 1 != self.deg[v]:
            return False
        return True

    def _link(self, v, e, f):
        self.succ[v][e] = f
        self.pred[v][f] = e
        self.links[v] += 1

    def _unlink(self, v, e, f):
        del self.succ[v][e]
        del self.pred[v][f]
        self.links[v] -= 1

    # -- state encoding: (edge id, tail vertex, o) -------------------------
    def _state_id(self, ei, tail_is_hi, o):
        return 4 * ei + 2 * tail_is_hi + (0 if o == 1 else 1)

    def search(self, budget: int | None) -> Iterator[Embedding]:
        self.budget = budget
        yield from self._next_face()

    def _next_face(self):
        start = None
        for s in range(4 * self.m):
            if not self.done[s]:
                start = s
                break
        if start is None:
            yield self._build()
            return
        ei, rest = divmod(start, 4)
        tail_is_hi, oi = divmod(rest, 2)
        e = self.edges[ei]
        tail = e[1] if tail_is_hi else e[0]
        o = 1 if oi == 0 else -1
        yield from self._extend(start, [(ei, tail, o)], [])

    def _trail_undo(self, trail):
        for kind, *args in reversed(trail):
            if kind == "link":
                self._unlink(*args)
            elif kind == "sign":
                self.sign[args[0]] = 0
            else:
                self.done[args[0]] = False

    def _extend(self, start, path, trail):
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise _Budget()
        ei, tail, o = path[-1]
        e = self.edges[ei]
        head = emap.other_end(e, tail)
        closing = len(path) == 4

        sign_options = [self.sign[ei]] if self.sign[ei] != 0 else [1, -1]
        if self.rng is not None and len(sign_options) > 1:
            self.rng.shuffle(sign_options)
        for sg in sign_options:
            o2 = o * sg
            if closing:
                s0_ei, s0_tail, s0_o = path[0]
                if head != s0_tail or o2 != s0_o:
                    continue
                targets = [s0_ei]
            else:
                targets = None
            # corner at head: o2=+1 wants succ(e)=f, o2=-1 wants succ(f)=e
            if o2 == 1:
                forced = self.succ[head].get(ei)
            else:
                forced = self.pred[head].get(ei)
            if forced is not None:
                choices = [forced] if (targets is None or forced in targets) else []
                need_link = False
            else:
                pool = targets if targets is not None else self.incident[head]
                if self.rng is not None and len(pool) > 1:
                    pool = list(pool)
                    self.rng.shuffle(pool)
                choices = pool
                need_link = True
            for fi in choices:
                if need_link:
                    a, b = (ei, fi) if o2 == 1 else (fi, ei)
                    if not self._can_link(head, a, b):
                        continue
                sub = []
                if self.sign[ei] == 0:
                    self.sign[ei] = sg
                    sub.append(("sign", ei))
                if need_link:
                    a, b = (ei, fi) if o2 == 1 else (fi, ei)
                    self._link(head, a, b)
                    sub.append(("link", head, a, b))
                    if not self._reflection_ok(head):
                        self._trail_undo(sub)
                        continue
                if closing:
                    ok = True
                    marks = []
                    for pei, ptail, po in path:
                        pe = self.edges[pei]
                        sid = self._state_id(pei, pe[1] == ptail, po)
                        phead = emap.other_end(pe, ptail)
                        comp = self._state_id(pei, pe[1] == phead, -po * self.sign[pei])
                        if self.done[sid] or self.done[comp]:
                            ok = False
                            break
                        self.done[sid] = True
                        self.done[comp] = True
                        marks.append(sid)
                        marks.append(comp)
                    if ok:
                        trail.extend(sub)
                        for sid in marks:
                            trail.append(("done", sid))
                        yield from self._next_face()
                        for _ in range(len(sub) + len(marks)):
                            trail.pop()
                        for sid in marks:
                            self.done[sid] = False
                        self._trail_undo(sub)
                    else:
                        for sid in marks:
                            self.done[sid] = False
                        self._trail_undo(sub)
                else:
                    nxt_tail = head
                    nxt_state = (fi, nxt_tail, o2)
                    fe = self.edges[fi]
                    sid = self._state_id(fi, fe[1] == nxt_tail, o2)
                    if self.done[sid] or any(
                        p == nxt_state for p in path
                    ):
                        self._trail_undo(sub)
                        continue
                    path.append(nxt_state)
                    trail.extend(sub)
                    yield from self._extend(start, path, trail)
                    for _ in sub:
                        trail.pop()
                    path.pop()
                    self._trail_undo(sub)

    def _build(self) -> Embedding:
        rotation = {}
        for v in self.vertices:
            start = min(self.incident[v])
            cyc = [start]
            cur = start
            while True:
                cur = self.succ[v][cur]
                if cur == start:
                    break
                cyc.append(cur)
            rotation[v] = tuple(self.edges[i] for i in cyc)
        signature = {self.edges[i]: (self.sign[i] if self.sign[i] != 0 else 1) for i in range(self.m)}
        return Embedding(self.graph, rotation, signature)


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
                return SearchResult("found", emb, total + searcher.nodes, seed=seed)
            if produced >= CANDIDATES_PER_RESTART:
                break
        total += searcher.nodes
    return SearchResult("none", None, total, seed=seed)


def _matches(emb: Embedding, spec: WitnessSpec) -> bool:
    if emap.euler_characteristic(emb) != spec.chi:
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
    searcher = _QuadSearcher(g, None)
    for emb in searcher.search(None):
        if chi is not None and emap.euler_characteristic(emb) != chi:
            continue
        if orientable is not None and emap.is_orientable(emb) != orientable:
            continue
        if check_predicates(emb, predicates):
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
            found = next(
                iter(enumerate_embeddings(g, (("face_simple",),), chi=chi,
                                          orientable=orientable)),
                None,
            )
            if found is not None:
                hits.append(g)
        results[n] = hits
    return results

"""Admissibility arithmetic and the inductive derivation of quadrangulations.

A request ``(n, t, kind)`` asks for a quadrangulation of a simple graph with
``n`` vertices and ``C(n,2) - t`` edges on an orientable or nonorientable
surface.  Admissible requests satisfy ``0 <= t <= n-4`` and a congruence on
``t``; they are fulfilled by a derivation plan: a chain of diamond-sum
induction steps grounded in catalog base records.

Each induction step composes three quadrangulations.  A fixed small block
with a distinguished degree-6 (or degree-10) vertex ``x`` and a degree-2
vertex ``z`` is first diamond-summed with a complete-bipartite
quadrangulation at ``x``, producing a face-simple quadrangulation in which
``z``'s neighborhood is an independent set of size ``n'-1``; that is then
diamond-summed at ``z`` with the child at one of its universal vertices.  The
result gains 4 (or 8) vertices and ``i`` missing edges.  The sums are
``surgery.FaceTable`` splices: the chain is one face table, each step
replaces the faces around the summed vertex, and the chain's vertices keep
their labels.  The complete-bipartite summand is a copy from
``catalog.kmn_table``, summed at its first n-side vertex; each block's table
is built once per catalog directory, and only read.  The sum hypotheses
are checked before every sum and face-simplicity after it, each answered from
the tables' indices — the construction is refused rather than allowed to
drift from its contract.  No orientability is carried along the chain: the
certificate of the finished embedding decides it.

The chains are grounded in base nodes, each naming the catalog record that
holds its ``(n, t)``.  Whether that record is searched or derived from
another, and by which surgery, is the record's own ``op`` and ``parent`` in
``catalog.record_table``; ``plan_text`` reads it from there.

The plans of different requests share their chains, so ``execute`` keeps
the faces of every plan node it builds until the catalog directory changes:
each node is built, and its per-step guards run, once per catalog, and a
request resumes from its nearest built ancestor.  The memo keeps no
embedding: a requested node's table is put on 0..n-1 and its rotation
system built from it (``FaceTable.embedding``) on every request, which
splices nothing when the node is already built.  ``generate`` certifies its
embedding against the request on every call.
"""

from __future__ import annotations

from typing import NamedTuple

from . import catalog, emap, surgery
from .emap import Certificate, Embedding, vkey
from .errors import PlanError


class ParamRequest(NamedTuple("ParamRequest", [("n", int), ("t", int), ("kind", str)])):
    __slots__ = ()

    def __new__(cls, n: int, t: int, kind: str):  # kind: "orientable" | "nonorientable"
        if kind not in ("orientable", "nonorientable"):
            raise PlanError(f"kind must be orientable or nonorientable, got {kind!r}")
        if n < 4:
            raise PlanError(f"n must be at least 4, got {n}")
        if t < 0:
            raise PlanError(f"t must be nonnegative, got {t}")
        return super().__new__(cls, n, t, kind)


class PlanNode(NamedTuple):
    """One derivation step; a plan is the root of a chain of these."""

    step: str  # "base" | "nonorient" | "orient" | "intermediate"
    n: int
    t: int
    record: str | None = None  # base: catalog record holding the result
    i: int | None = None       # nonorient/orient: missing edges added
    child: PlanNode | None = None


def congruence_mod(kind: str) -> int:
    return 2 if kind == "nonorientable" else 4


def _congruent(n: int, t: int, kind: str) -> bool:
    return (t - n * (n - 5) // 2) % congruence_mod(kind) == 0


SPECIALS = {(4, 2, "orientable"): "c4_sphere", (6, 3, "nonorientable"): "klein_6_3"}


def classify(req: ParamRequest) -> str:
    """"admissible" (in the constructible family), "special" (the two extras), or "inadmissible"."""
    if (req.n, req.t, req.kind) in SPECIALS:
        return "special"
    n_min = 6 if req.kind == "nonorientable" else 5
    if req.n >= n_min and 0 <= req.t <= req.n - 4 and _congruent(req.n, req.t, req.kind):
        return "admissible"
    return "inadmissible"


def admissible(req: ParamRequest) -> bool:
    return classify(req) == "admissible"


def _inadmissible_reason(req: ParamRequest) -> str:
    n, t, kind = req.n, req.t, req.kind
    n_min = 6 if kind == "nonorientable" else 5
    if n < n_min:
        return f"n={n} is below the {kind} minimum n={n_min}"
    if not 0 <= t <= n - 4:
        return f"t={t} is outside 0 <= t <= n-4 = {n - 4}"
    mod = congruence_mod(kind)
    return (
        f"t={t} violates the congruence t = n(n-5)/2 (mod {mod}): "
        f"needs t = {n * (n - 5) // 2 % mod} (mod {mod})"
    )


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

# The catalog record of each base (n, t); the record says how it is made.
_BASES = {
    "nonorientable": {
        (4, 0): "phi_4_0",
        (5, 0): "phi_5_0_star",
        (6, 1): "phi_6_1",
        (7, 1): "q7_1",
        (7, 3): "q7_3",
    },
    "orientable": {
        (5, 0): "phi_5_0_star",
        (6, 3): "q6_3_orientable",
        (7, 3): "q7_3_orientable",
        (8, 0): "q8_0",
        (8, 4): "phi_8_4_star",
        (10, 1): "phi_10_1_star",
        (11, 1): "q11_1",
        (11, 5): "q11_5",
    },
}

# Orientable (n, t) built by an intermediate step (+4 vertices, +2 missing
# edges, over (n-4, t-2)) rather than by an orientable step.
_INTERMEDIATES = {(9, 2), (10, 5), (12, 2), (12, 6), (14, 3), (14, 7)}

# The least n built by a nonorientable (+4) or orientable (+8) step.
_FIRST_STEP_N = {"nonorientable": 8, "orientable": 13}


def _schedule_i(t: int, kind: str) -> int:
    if kind == "nonorientable":
        if t <= 1:
            return 0
        if t <= 3:
            return 2
        return 4
    if t <= 3:
        return 0
    if t <= 7:
        return 4
    return 8


def plan(req: ParamRequest) -> PlanNode:
    """The derivation of an admissible request; a special's is its catalog record."""
    status = classify(req)
    if status == "inadmissible":
        raise PlanError(f"({req.n},{req.t},{req.kind}) is not admissible: "
                        + _inadmissible_reason(req))
    if status == "special":
        return PlanNode("base", req.n, req.t, record=SPECIALS[(req.n, req.t, req.kind)])
    n, t, kind = req
    step, dn = ("nonorient", 4) if kind == "nonorientable" else ("orient", 8)
    steps = []  # (step, n, t, i) from the request down to its base
    while (record := _BASES[kind].get((n, t))) is None:
        if kind == "orientable" and (n, t) in _INTERMEDIATES:
            steps.append(("intermediate", n, t, None))
            n, t = n - 4, t - 2
        elif n < _FIRST_STEP_N[kind]:
            raise PlanError(f"no {kind} base derivation for (n={n}, t={t})")
        else:
            i = _schedule_i(t, kind)
            steps.append((step, n, t, i))
            n, t = n - dn, t - i
    node = PlanNode("base", n, t, record=record)
    for step, n, t, i in reversed(steps):
        node = PlanNode(step, n, t, i=i, child=node)
    return node


def plan_text(node: PlanNode) -> str:
    lines = []
    while node is not None:
        if node.step == "base":
            rec = catalog.get_record(node.record)
            what = (f"surgery {rec.op} on {rec.parent} -> " if rec.parent else "base ") + rec.name
        elif node.step == "intermediate":
            what = "intermediate +4 vertices, +2 missing edges"
        else:
            sign, dn = ("nonorientable", 4) if node.step == "nonorient" else ("orientable", 8)
            what = f"{sign} step +{dn} vertices, +{node.i} missing edges"
        lines.append(f"{'  ' * len(lines)}{what} (n={node.n}, t={node.t})")
        node = node.child
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _choose_universal(chain: surgery.FaceTable):
    """Smallest universal vertex at which the chain is nearly face-simple."""
    for v in sorted(chain.universal_vertices(), key=vkey):
        if chain.is_nearly_face_simple_except(v):
            return v
    raise PlanError("child embedding has no universal vertex with the "
                    "nearly-face-simple property")


def _check_sum_hypotheses(face_simple_side: surgery.FaceTable, side_face_simple: bool, v,
                          other: surgery.FaceTable, v2) -> bool:
    """Hypotheses under which a diamond sum is guaranteed face-simple.

    ``side_face_simple`` is ``face_simple_side.is_face_simple()``, which the
    caller computes once and may reuse.
    """
    return (
        side_face_simple
        and face_simple_side.min_degree() >= 3
        and face_simple_side.is_independent(v)
        and other.is_nearly_face_simple_except(v2)
    )


# The face table of each block witness, built once per catalog directory; a
# step only reads it.
_BLOCKS: dict = catalog.register_cache({})


def _block_table(record: str) -> surgery.FaceTable:
    catalog.follow_catalog_dir()
    table = _BLOCKS.get(record)
    if table is None:
        table = _BLOCKS[record] = surgery.FaceTable.from_embedding(catalog.get_witness(record))
    return table


def _induct_step(chain: surgery.FaceTable, block_record: str, m: int) -> None:
    """Splice one step into ``chain``: the block at x with K_{m,n'-1}, then that at z."""
    n_child = len(chain.vertices())
    block = _block_table(block_record)
    mid = catalog.kmn_table(m, n_child - 1)
    u = m  # the first vertex of the n-side, whose vertices have degree m
    if not _check_sum_hypotheses(mid, mid.is_face_simple(), u, block, "x"):
        raise PlanError(f"{block_record} + K_{{{m},{n_child - 1}}} violates the "
                        "face-simplicity hypotheses")
    z = mid.splice(u, block, "x")["z"]
    mid_simple = mid.is_face_simple()
    if not mid_simple:
        raise PlanError("intermediate diamond sum is not face-simple")
    v = _choose_universal(chain)
    if not _check_sum_hypotheses(mid, mid_simple, z, chain, v):
        raise PlanError("second diamond sum violates the face-simplicity hypotheses")
    chain.splice(v, mid, z)
    if not chain.is_face_simple():
        raise PlanError("derivation output is not face-simple")


def _step_block(node: PlanNode) -> tuple:
    """(block record, m) of an induction step."""
    if node.step == "nonorient":
        return f"phi_7_{node.i}_plus", 6
    if node.step == "orient":
        return f"phi_11_{node.i}_plus_star", 10
    if node.step == "intermediate":
        return "phi_7_2_plus_star", 6
    raise PlanError(f"unknown plan step {node.step!r}")


def _check_size(node: PlanNode, n: int, edges: int) -> None:
    t = n * (n - 1) // 2 - edges
    if (n, t) != (node.n, node.t):
        raise PlanError(f"step produced ({n},{t}), plan requires ({node.n},{node.t})")


# The built induction nodes, each mapped to the faces its chain table held
# after its step, frozen; no embedding is kept.  Plans of different requests
# share their chains, and equal nodes are equal keys, so each node is spliced
# (and its per-step guards run) once; a request resumes from its nearest built
# ancestor.
_GEN_CACHE: dict = catalog.register_cache({})


def execute(node: PlanNode) -> Embedding:
    """The embedding ``node`` describes; each node is built at most once per catalog directory."""
    catalog.follow_catalog_dir()
    if node.step == "base":
        return _base(node)
    # one expression, so that the chain is freed once its ranked copy is made
    return _chain(node).ranked().embedding()


def _base(node: PlanNode) -> Embedding:
    out = catalog.get_witness(node.record)
    _check_size(node, len(out.graph.vertices), len(out.graph.edges))
    return out


def _chain(node: PlanNode) -> surgery.FaceTable:
    """A table of ``node``'s chain on ints: spliced up to ``node`` from its nearest
    built ancestor's frozen faces or from its base, each spliced node frozen into the memo."""
    path = []
    while node.step != "base" and node not in _GEN_CACHE:
        path.append(node)
        node = node.child
    if node.step == "base":
        chain = surgery.FaceTable.from_embedding(_base(node)).ranked()
    else:
        chain = surgery.FaceTable(surgery.thawed(_GEN_CACHE[node]))
    for node in reversed(path):
        _induct_step(chain, *_step_block(node))
        _check_size(node, len(chain.vertices()), len(chain.edges()))
        _GEN_CACHE[node] = chain.frozen()
    return chain


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def generate(req: ParamRequest) -> tuple:
    """(Embedding, Certificate, PlanNode) for an admissible or special request.

    The embedding may be rebuilt from the plan-node memo's faces; the
    certificate is computed and checked against the request on every call.
    """
    p = plan(req)
    emb = execute(p)
    cert = emap.certify(emb)
    _check_certificate(req, cert)
    return emb, cert, p


def _check_certificate(req: ParamRequest, cert: Certificate) -> None:
    wanted_orientable = req.kind == "orientable"
    problems = []
    if cert.n != req.n or cert.t != req.t:
        problems.append(f"(n,t)=({cert.n},{cert.t})")
    if cert.orientable != wanted_orientable:
        problems.append(f"orientable={cert.orientable}")
    if not cert.quadrangular:
        problems.append("not quadrangular")
    special = (req.n, req.t, req.kind) in SPECIALS
    if not cert.universal and not special:
        problems.append("no universal vertex")
    expect_face_simple = (req.n, req.t, req.kind) != (4, 2, "orientable")
    if cert.face_simple != expect_face_simple:
        problems.append(f"face_simple={cert.face_simple}")
    if req.t <= req.n - 4 and not cert.minimal:
        problems.append("minimality criterion not met")
    if problems:
        raise PlanError(
            f"certificate mismatch for ({req.n},{req.t},{req.kind}): " + ", ".join(problems)
        )

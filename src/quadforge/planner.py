"""Admissibility arithmetic and the inductive derivation of quadrangulations.

A request ``(n, t, kind)`` asks for a quadrangulation of a simple graph with
``n`` vertices and ``C(n,2) - t`` edges on an orientable or nonorientable
surface.  Admissible requests satisfy ``0 <= t <= n-4`` and a congruence on
``t``; they are fulfilled by a derivation plan: a tuple of plan nodes, a
catalog base record first and then one diamond-sum induction step per node,
each on the result of the one before, up to the request.

Each induction step composes three quadrangulations.  A fixed small block
with a distinguished degree-6 (or degree-10) vertex ``x`` and a degree-2
vertex ``z`` is first diamond-summed with a complete-bipartite
quadrangulation at ``x``, producing a face-simple quadrangulation in which
``z``'s neighborhood is an independent set of size ``n'-1``; that is then
diamond-summed at ``z`` with the chain so far at one of its universal
vertices.  The result gains 4 (or 8) vertices and ``i`` missing edges.  Each
step node names its block record: ``phi_7_{i}_plus`` for a nonorientable
step, ``phi_11_{i}_plus_star`` for an orientable one and
``phi_7_2_plus_star`` for an intermediate one.  The sums are
``surgery.FaceTable`` splices: the chain is one face table, each step
replaces the faces around the summed vertex, and the chain's vertices keep
their labels.  The complete-bipartite summand is a copy from
``catalog.kmn_table``, summed at its first n-side vertex; each block's table
is the one the catalog verified its witness on (``catalog.witness_table``),
and is only read.  The sum hypotheses are checked before every sum and
face-simplicity after it, each answered from the tables' indices
(independence and the parallel-edge check of a gluing from the edge index,
so a step walks round no rim vertex) — the construction is refused rather
than allowed to drift from its contract.  No orientability is carried along
the chain: the certificate of the finished embedding decides it.

The first sum, its guards and the face-simple side's half of the second
sum's hypotheses depend only on ``m``, ``n'`` and the block.  So each such
summand is made once per catalog, and ``_SITES`` keeps only its gluing site
at z (``FaceTable.site``: the rim, the opposite corners, the edges among the
rim, the other vertices and the corners of the faces away from z) with that
half's verdict.  A step splices the site into the chain, after checking the
chain's half: that the chain is nearly face-simple at the universal vertex
chosen, which is how ``_choose_universal`` chooses it.  Each conjunct is
thus evaluated once for each distinct input.

Each plan starts at a base node naming the catalog record that holds its
``(n, t)``.  Whether that record is searched or derived from another, and by
which surgery, is the record's own ``op`` and ``parent`` in
``catalog.record_table``; ``plan_text`` reads it from there.

The plans of different requests share their chains, so ``execute`` keeps
the faces of every plan node it builds until the catalog directory changes:
each node is built, and its per-step guards run, once per catalog, and a
request resumes from the last node of its plan that is built.  A node's
fields decide its whole chain, so the memo is keyed by the flat node.  The
memo keeps no embedding, only each node's faces packed as ints: a request
loads its resume node's table from them in bulk (``FaceTable.thaw``), and
its requested node's rotation system is built from that table on every
request, which splices nothing when the node is already built.  It is built
straight onto labels 0..n-1 (``FaceTable.embedding`` with ``on_ranks``),
with no ranked copy of the table.  ``generate`` certifies its embedding
against the request on every call.
"""

from __future__ import annotations

from typing import NamedTuple

from . import catalog, emap, surgery
from .emap import Certificate, Embedding
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
    """One derivation step; a plan is a tuple of these, its base first.

    ``plan`` walks ``(n, t)`` down the same way for every request of a kind,
    and the step names the kind, so a node's fields decide its whole chain:
    equal nodes build equal tables, and the memo is keyed by the node alone.
    """

    step: str  # "base" | "nonorient" | "orient" | "intermediate"
    n: int
    t: int
    record: str | None = None  # base: catalog record holding the result; else the block
    i: int | None = None       # nonorient/orient: missing edges added


def congruence_mod(kind: str) -> int:
    return 2 if kind == "nonorientable" else 4


def _congruent(n: int, t: int, kind: str) -> bool:
    return (t - n * (n - 5) // 2) % congruence_mod(kind) == 0


SPECIALS = {(4, 2, "orientable"): "c4_sphere", (6, 3, "nonorientable"): "klein_6_3"}

# The least admissible n of each kind.
_N_MIN = {"nonorientable": 6, "orientable": 5}


def classify(req: ParamRequest) -> str:
    """"admissible" (in the constructible family), "special" (the two extras), or "inadmissible"."""
    if (req.n, req.t, req.kind) in SPECIALS:
        return "special"
    if req.n >= _N_MIN[req.kind] and 0 <= req.t <= req.n - 4 and _congruent(req.n, req.t, req.kind):
        return "admissible"
    return "inadmissible"


def admissible(req: ParamRequest) -> bool:
    return classify(req) == "admissible"


def _inadmissible_reason(req: ParamRequest) -> str:
    n, t, kind = req.n, req.t, req.kind
    if n < _N_MIN[kind]:
        return f"n={n} is below the {kind} minimum n={_N_MIN[kind]}"
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

# The vertices each induction step adds; its K_{m,n'-1} summand has m = that + 2.
_STEP_VERTICES = {"nonorient": 4, "orient": 8, "intermediate": 4}


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


def plan(req: ParamRequest) -> tuple:
    """The derivation of an admissible request, base first and the request last;
    a special's is its catalog record."""
    status = classify(req)
    if status == "inadmissible":
        raise PlanError(f"({req.n},{req.t},{req.kind}) is not admissible: "
                        + _inadmissible_reason(req))
    if status == "special":
        return (PlanNode("base", req.n, req.t, SPECIALS[(req.n, req.t, req.kind)]),)
    n, t, kind = req
    if kind == "nonorientable":
        step, block = "nonorient", "phi_7_{}_plus"
    else:
        step, block = "orient", "phi_11_{}_plus_star"
    nodes = []  # from the request down to its base
    while (record := _BASES[kind].get((n, t))) is None:
        if kind == "orientable" and (n, t) in _INTERMEDIATES:
            nodes.append(PlanNode("intermediate", n, t, "phi_7_2_plus_star"))
            n, t = n - _STEP_VERTICES["intermediate"], t - 2
        elif n < _FIRST_STEP_N[kind]:
            raise PlanError(f"no {kind} base derivation for (n={n}, t={t})")
        else:
            i = _schedule_i(t, kind)
            nodes.append(PlanNode(step, n, t, block.format(i), i))
            n, t = n - _STEP_VERTICES[step], t - i
    nodes.append(PlanNode("base", n, t, record))
    return tuple(reversed(nodes))


def plan_text(plan: tuple) -> str:
    lines = []
    for node in reversed(plan):
        if node.step == "base":
            rec = catalog.get_record(node.record)
            what = (f"surgery {rec.op} on {rec.parent} -> " if rec.parent else "base ") + rec.name
        elif node.step == "intermediate":
            what = f"intermediate +{_STEP_VERTICES[node.step]} vertices, +2 missing edges"
        else:
            sign = "nonorientable" if node.step == "nonorient" else "orientable"
            what = f"{sign} step +{_STEP_VERTICES[node.step]} vertices, +{node.i} missing edges"
        lines.append(f"{'  ' * len(lines)}{what} (n={node.n}, t={node.t})")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _choose_universal(chain: surgery.FaceTable):
    """Smallest universal vertex at which the chain is nearly face-simple."""
    v = chain.nearly_face_simple_universal()
    if v is None:
        raise PlanError("child embedding has no universal vertex with the "
                        "nearly-face-simple property")
    return v


def _check_sum_hypotheses(face_simple_side: surgery.FaceTable, v,
                          other: surgery.FaceTable, v2) -> bool:
    """Hypotheses under which a diamond sum is guaranteed face-simple."""
    return _face_simple_side(face_simple_side, v) and other.is_nearly_face_simple_except(v2)


def _face_simple_side(table: surgery.FaceTable, v) -> bool:
    """The face-simple side's half of the sum hypotheses, at ``v``; the other
    side's half is its ``is_nearly_face_simple_except`` at its summed vertex."""
    return table.is_face_simple() and table.min_degree() >= 3 and table.is_independent(v)


# (m, n, block) -> (site, holds): the gluing site at z of K_{m,n} with the
# block summed into it at x, verified, and whether that sum holds the
# face-simple side's half of the second sum's hypotheses at z.  A site holds
# no table, and splicing it only reads it, so each summand is made, and its
# guards run, once per catalog.
_SITES: dict = catalog.register_cache({})


def _summand(block_record: str, m: int, n_side: int) -> tuple:
    """``_SITES``'s entry for the block summed into K_{m,n_side}, made on first use."""
    catalog.follow_catalog_dir()
    key = (m, n_side, block_record)
    if key not in _SITES:
        block = catalog.witness_table(block_record)  # only read
        mid = catalog.kmn_table(m, n_side)
        u = m  # the first vertex of the n-side, whose vertices have degree m
        if not _check_sum_hypotheses(mid, u, block, "x"):
            raise PlanError(f"{block_record} + K_{{{m},{n_side}}} violates the "
                            "face-simplicity hypotheses")
        z = mid.splice(u, block, "x")["z"]
        if not mid.is_face_simple():
            raise PlanError("intermediate diamond sum is not face-simple")
        _SITES[key] = mid.site(z), _face_simple_side(mid, z)
    return _SITES[key]


def _induct_step(chain: surgery.FaceTable, block_record: str, m: int) -> None:
    """Splice one step into ``chain``: the block at x with K_{m,n'-1}, then that at z.

    The summand comes from ``_SITES`` with its half of the second sum's
    hypotheses; the chain's half, nearly face-simple at ``v``, is how
    ``_choose_universal`` picks ``v``, so it is evaluated once.
    """
    site, holds = _summand(block_record, m, len(chain.vertices()) - 1)
    v = _choose_universal(chain)
    if not holds:
        raise PlanError("second diamond sum violates the face-simplicity hypotheses")
    chain.splice(v, site)
    if not chain.is_face_simple():
        raise PlanError("derivation output is not face-simple")


def _check_size(node: PlanNode, table: surgery.FaceTable) -> None:
    n = len(table.vertices())
    t = n * (n - 1) // 2 - len(table.edges())
    if (n, t) != (node.n, node.t):
        raise PlanError(f"step produced ({n},{t}), plan requires ({node.n},{node.t})")


# The built induction nodes, each mapped to the faces its chain table held
# after its step, frozen; no embedding is kept.  Plans of different requests
# share their chains, and equal nodes are equal keys, so each node is spliced
# (and its per-step guards run) once; a request resumes from its last built
# node.
_GEN_CACHE: dict = catalog.register_cache({})


def execute(plan: tuple) -> Embedding:
    """The embedding ``plan`` describes; each node is built at most once per catalog directory."""
    catalog.follow_catalog_dir()
    if len(plan) == 1:  # the base's witness, on its own labels
        _check_size(plan[0], catalog.witness_table(plan[0].record))
        return catalog.get_witness(plan[0].record)
    # the chain's core on labels 0..n-1, built from its table with no copy of it
    return _chain(plan).embedding(on_ranks=True)


def _chain(plan: tuple) -> surgery.FaceTable:
    """A table of ``plan``'s chain on ints: spliced up to its last node from the last
    built node's frozen faces, thawed, or from a ranked copy of its base's witness
    table, each spliced node frozen into the memo."""
    k = len(plan) - 1
    while k and plan[k] not in _GEN_CACHE:
        k -= 1
    chain = (surgery.FaceTable.thaw(_GEN_CACHE[plan[k]]) if k
             else catalog.witness_table(plan[0].record).ranked())
    _check_size(plan[k], chain)
    for node in plan[k + 1:]:
        _induct_step(chain, node.record, _STEP_VERTICES[node.step] + 2)
        _check_size(node, chain)
        _GEN_CACHE[node] = chain.frozen()
    return chain


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def generate(req: ParamRequest) -> tuple:
    """(Embedding, Certificate, plan) for an admissible or special request.

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

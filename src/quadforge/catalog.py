"""Named base-embedding records, persistent verified witnesses, and the
complete-bipartite quadrangulation builder.

Records come in two flavors.  *Searched* records are acquired once by the
search module's exhaustive backtracking, persisted as emap files, and
re-verified against their property bundle on every load.  *Derived* records
are rebuilt deterministically from their parents by a named surgery, so they
regenerate byte-for-byte.  Each record states its own ``op``, ``parent`` and
``args``, and ``record_table`` is the only place they are written: a
searched record's ``args`` build its target graph, and a derived record's
surgery makes both its witness (``_derive``) and its target graph
(``target_graph``) from its parent's.  The planner reads them too, and the
manifest's provenance is generated from them.  Each witness is cached with
the ``surgery.FaceTable`` that ``_verify`` loaded it into (``witness_table``):
the planner, ``_kmn`` and ``_derive`` build from that table, and only read it.

The catalog directory defaults to the ``data/catalog`` tree shipped with the
package and can be overridden with the ``QUADFORGE_CATALOG`` environment
variable.  The witness (with its table) and ``K_{m,n}`` caches follow it: they
are emptied when the directory changes, together with every cache registered
by ``register_cache`` (the planner's memo of built plan nodes).

The ``K_{m,n}`` (m = 2 mod 4, m >= 6) are summed in a ``surgery.FaceTable``,
as the planner's chain is: ``K_{m,k} <> K_{m,j} = K_{m,k+j-2}`` (Bouchet, JCTB
24, 1978) at an n-side vertex of each, and ``K_{m,3} = K_{m-4,3} <> K_{6,3}``
at an m-side vertex of each, from the planar double wheel ``K_{m,2}`` and the
record ``k_6_3``.  Up to ``K_{m,m}`` the chain adds ``K_{m,3}``, one size at a
time; above it, it adds ``K_{m,m}``, a stride of m-2 sizes.  That is the
planner's step (4 vertices with m = 6, 8 with m = 10), so the chain of sizes a
derivation asks for costs one splice per step.  A cold build copies the
nearest cached ``K`` below and splices back up in that one table.  Labels are
canonical throughout (the m-side, of degree n, on 0..m-1; the n-side on
m..m+n-1): the summand is spliced in at the last n-side vertex, whose label
its first fresh vertex takes, so no splice is followed by a relabel.  Only a
``K_{m,3}``, built at an m-side vertex, is put back on canonical labels.  The
``K`` with n <= m and each one asked for are certified from their faces and
cached as tables, which are never spliced into: ``kmn_table`` hands out a
copy, and ``build_kmn`` the table's ``embedding``.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

from . import emap, search, serialize, surgery
from .emap import Embedding, Graph, edge_between, vkey
from .errors import CatalogError, QuadforgeError
from .graphalg import (complete, complete_bipartite, delete_edges, delete_vertex, h_graph,
                       j_graph, join, subdivide_edge)
from .search import WitnessSpec

CATALOG_ENV = "QUADFORGE_CATALOG"


def catalog_dir() -> Path:
    override = os.environ.get(CATALOG_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "data" / "catalog"


class CatalogRecord(NamedTuple):
    """Specification bundle for one named embedding: the graph it lies on,
    and how it is made.

    ``op`` says where the witness comes from, and ``args`` are its operands.
    A ``"searched"`` witness is found by exhaustive search on the graph that
    ``args[0]()`` builds.  Any other ``op`` is a surgery, applied with the
    same operands to the witness of ``parent`` and to its graph
    (``target_graph``): ``"delete_degree2"`` deletes the vertex ``args[0]``,
    ``"insert_degree2"`` splits the face ``args[0]`` at its corner
    ``args[1]``, and ``"handle"`` adds a handle along the one 4-cycle in
    ``args`` (a second would find its sites in the handled table's face order).
    """

    name: str
    chi: int
    orientable: bool | None
    predicates: tuple = ()
    op: str = "searched"
    parent: str | None = None
    args: tuple = ()

    @property
    def provenance(self) -> str:
        return f"derived({self.op},{self.parent})" if self.parent else self.op

    def graphs(self) -> tuple:
        return (target_graph(self.name),)

    def spec_for(self, g: Graph) -> WitnessSpec:
        return WitnessSpec(g, self.chi, self.orientable, self.predicates)

    def spec_hash(self) -> str:
        # the name twice: the second is the target graph's, which is the record's
        return _digest("|".join([self.name, self.name, str(self.chi), str(self.orientable),
                                 repr(self.predicates), self.provenance]))


def _digest(text: str) -> str:
    """A manifest hash: the first 16 hex digits of the sha256 of ``text``."""
    import hashlib  # on use: a gen or verify process never hashes

    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _apex(block: Graph) -> Graph:
    """The apex block over ``block``: a hub 0 joined to it, x and y joined to
    both, and z subdividing the edge x-y."""
    return subdivide_edge(join(join(complete(1), block), Graph.from_edges([("x", "y")])),
                          "x", "y", "z")


def record_table() -> tuple:
    """Every record, each derived one after its parent."""
    recs = [
        CatalogRecord("phi_4_0", 1, False,
                      (("nearly_face_simple_except_some_universal",),),
                      args=(lambda: complete(4),)),
        CatalogRecord("phi_5_0_star", 0, True,
                      (("face_simple",), ("universal_vertex",)), args=(lambda: complete(5),)),
        CatalogRecord("phi_6_1", -1, False,
                      (("face_simple",), ("universal_vertex",)),
                      args=(lambda: delete_edges(complete(6), [(4, 5)]),)),
        CatalogRecord("phi_7_0_plus", -3, False,
                      (("nearly_face_simple_except", "x"),
                       ("delete_degree2_face_simple", "z")), args=(lambda: _apex(h_graph(0)),)),
        CatalogRecord("phi_7_2_plus", -2, False,
                      (("nearly_face_simple_except", "x"),
                       ("delete_degree2_face_simple", "z")), args=(lambda: _apex(h_graph(2)),)),
        CatalogRecord("phi_7_4_plus", -1, False,
                      (("nearly_face_simple_except", "x"),), args=(lambda: _apex(h_graph(4)),)),
        CatalogRecord("phi_7_2_plus_star", -2, True,
                      (("nearly_face_simple_except", "x"),), args=(lambda: _apex(h_graph(2)),)),
        CatalogRecord("phi_8_4_star", -4, True,
                      (("face_simple",), ("universal_vertex",),
                       ("has_handle_site", (4, 5, 6, 7))),
                      args=(lambda: delete_edges(complete(8), [(4, 5), (5, 6), (6, 7), (7, 4)]),)),
        CatalogRecord("phi_10_1_star", -12, True,
                      (("face_simple",), ("universal_vertex",)),
                      args=(lambda: delete_edges(complete(10), [(8, 9)]),)),
        CatalogRecord("phi_11_8_plus_star", -12, True,
                      (("nearly_face_simple_except", "x"),
                       ("has_handle_site", (1, 2, 3, 4)),
                       ("has_handle_site", (5, 6, 7, 8)),
                       ("double_handle", (1, 2, 3, 4), (5, 6, 7, 8))),
                      args=(lambda: _apex(j_graph(8)),)),
        CatalogRecord("k_6_3", 0, True, (("face_simple",),), args=(lambda: complete_bipartite(6, 3),)),
        CatalogRecord("c4_sphere", 2, True, (),
                      args=(lambda: Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)]),)),
        CatalogRecord("klein_6_3", 0, False,  # the octahedron: K6 minus a perfect matching
                      (("face_simple",),),
                      args=(lambda: delete_edges(complete(6), [(0, 3), (1, 4), (2, 5)]),)),
        # Derived records: rebuilt from parents, never searched.
        CatalogRecord("phi_11_4_plus_star", -14, True,
                      (("nearly_face_simple_except", "x"),
                       ("has_handle_site", (5, 6, 7, 8))),
                      op="handle", parent="phi_11_8_plus_star", args=((1, 2, 3, 4),)),
        CatalogRecord("phi_11_0_plus_star", -16, True,
                      (("nearly_face_simple_except", "x"),),
                      op="handle", parent="phi_11_4_plus_star", args=((5, 6, 7, 8),)),
        CatalogRecord("q7_1", -3, False,
                      (("face_simple",), ("universal_vertex",)),
                      op="delete_degree2", parent="phi_7_0_plus", args=("z",)),
        CatalogRecord("q7_3", -2, False,
                      (("face_simple",), ("universal_vertex",)),
                      op="delete_degree2", parent="phi_7_2_plus", args=("z",)),
        CatalogRecord("q7_3_orientable", -2, True,
                      (("face_simple",), ("universal_vertex",)),
                      op="delete_degree2", parent="phi_7_2_plus_star", args=("z",)),
        CatalogRecord("q11_5", -14, True,
                      (("face_simple",), ("universal_vertex",)),
                      op="delete_degree2", parent="phi_11_4_plus_star", args=("z",)),
        CatalogRecord("q11_1", -16, True,
                      (("face_simple",), ("universal_vertex",)),
                      op="delete_degree2", parent="phi_11_0_plus_star", args=("z",)),
        CatalogRecord("q8_0", -6, True,
                      (("face_simple",), ("universal_vertex",)),
                      op="handle", parent="phi_8_4_star", args=((4, 5, 6, 7),)),
        # phi_5_0_star's first face, split at its least corner
        CatalogRecord("q6_3_orientable", 0, True,
                      (("universal_vertex",),),
                      op="insert_degree2", parent="phi_5_0_star", args=((0, 1, 2, 3), 0)),
    ]
    return tuple(recs)


_RECORDS = {r.name: r for r in record_table()}
_witness_cache: dict = {}  # name -> (its verified embedding, the table it was verified on)
_cache_dir: Path | None = None  # the catalog directory the caches were filled from
_cache_env: str | None = None  # the raw QUADFORGE_CATALOG value _cache_dir came from
_registered_caches: list = []  # caches elsewhere of results built from witnesses
_locks: defaultdict = defaultdict(threading.Lock)
_EXACT_BUDGET = 50_000_000


def get_record(name: str) -> CatalogRecord:
    try:
        return _RECORDS[name]
    except KeyError:
        raise CatalogError(f"unknown catalog record {name!r}") from None


def _witness_path(name: str) -> Path:
    return catalog_dir() / f"{name}.emap"


def target_graph(name: str) -> Graph:
    """The labelled graph the record's witness lies on: a searched record's
    is built by its ``args``, and a derived record's is its parent's with the
    record's ``op`` applied, with the operands ``_derive`` gives the surgery."""
    rec = get_record(name)
    if rec.parent is None:
        return rec.args[0]()
    g = target_graph(rec.parent)
    if rec.op == "delete_degree2":
        return delete_vertex(g, *rec.args)
    if rec.op == "insert_degree2":  # the new vertex is joined to the corner and its opposite
        face, corner = rec.args
        z = surgery._fresh_label(g.vertices)
        ends = (corner, face[(face.index(corner) + 2) % 4])
        return Graph(g.vertices | {z}, g.edges | {edge_between(z, v) for v in ends})
    if rec.op == "handle":  # the edges of the 4-cycle
        (c,) = rec.args
        return Graph(g.vertices, g.edges | {edge_between(u, v) for u, v in zip(c, c[1:] + c[:1])})
    raise CatalogError(f"{name}: no derivation rule for op {rec.op!r}")


def _verify(rec: CatalogRecord, emb: Embedding) -> surgery.FaceTable:
    """The face table of ``emb``, refusing ``emb`` unless it is a quadrangulation
    of the record's target graph that the search would take for the record's spec."""
    spec = rec.spec_for(target_graph(rec.name))
    if emb.labels != spec.graph.labels or emb.ends != spec.graph.ends:
        raise CatalogError(f"{rec.name}: stored witness is not on the record's target graph")
    if not emap.is_quadrangular(emb):
        raise CatalogError(f"{rec.name}: witness is not quadrangular")
    table = surgery.FaceTable.from_embedding(emb)
    if not search._matches(emb, spec, table):
        raise CatalogError(f"{rec.name}: witness fails its chi, orientability or predicate bundle")
    return table


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _manifest_path() -> Path:
    return catalog_dir() / "manifest.txt"


def _read_manifest() -> dict:
    path = _manifest_path()
    entries = {}
    if path.exists():
        try:
            text = path.read_text()
        except UnicodeDecodeError as exc:
            raise CatalogError(f"{path} is not UTF-8 text: {exc}") from None
        for line in text.splitlines():
            parts = line.split()
            if len(parts) == 4:
                entries[parts[0]] = (parts[1], parts[2], parts[3])
    return entries


def _persist(rec: CatalogRecord, emb: Embedding) -> None:
    """Write the witness file and its manifest line; the manifest is read
    first, so a manifest that cannot be read leaves no file behind."""
    entries = _read_manifest()
    text = serialize.write_emap(emb)
    _atomic_write(_witness_path(rec.name), text)
    entries[rec.name] = (rec.spec_hash(), _digest(text), rec.provenance)
    lines = [
        f"{name} {sh} {fh} {prov}"
        for name, (sh, fh, prov) in sorted(entries.items())
    ]
    _atomic_write(_manifest_path(), "\n".join(lines) + "\n")


def _acquire_searched(rec: CatalogRecord) -> Embedding:
    result = search.search_exact(rec.spec_for(target_graph(rec.name)), _EXACT_BUDGET)
    if result.status != "found":
        raise CatalogError(f"{rec.name}: witness search failed "
                           f"(status={result.status}, budget={_EXACT_BUDGET})")
    return result.embedding


def _first_chain_site(parent: surgery.FaceTable, cycle: tuple, predicates: tuple) -> Embedding:
    """``parent`` with a handle at the first site for ``cycle`` whose result
    passes ``predicates``: the derived record's own bundle, so a site that
    leaves a later handle without a site is passed over."""
    for table in parent.handled(cycle):
        if search.check_predicates(table, predicates):
            return table.embedding()
    raise CatalogError(f"no usable handle site for cycle {cycle}")


def _derive(rec: CatalogRecord) -> Embedding:
    """The witness of a derived record: its ``op`` applied to its parent's table."""
    parent = witness_table(rec.parent)
    if rec.op == "handle":
        (cycle,) = rec.args
        return _first_chain_site(parent, cycle, rec.predicates)
    table = parent.copy()
    getattr(table, rec.op)(*rec.args)  # delete_degree2 or insert_degree2, in place
    return table.embedding()


def get_witness(name: str) -> Embedding:
    """The verified embedding for a record; searched/derived and persisted on first use."""
    return _witness(name)[0]


def witness_table(name: str) -> surgery.FaceTable:
    """The face table the record's witness was verified on; callers only read it."""
    return _witness(name)[1]


def _witness(name: str) -> tuple:
    rec = get_record(name)
    follow_catalog_dir()
    if name in _witness_cache:
        return _witness_cache[name]
    with _locks[name]:
        if name in _witness_cache:
            return _witness_cache[name]
        path = _witness_path(name)
        if path.exists():
            try:
                emb = serialize.parse_emap(path.read_text())
            except (QuadforgeError, UnicodeDecodeError) as exc:
                raise CatalogError(f"{name}: witness file corrupt: {exc}") from exc
            table = _verify(rec, emb)
        else:
            emb = _derive(rec) if rec.parent else _acquire_searched(rec)
            table = _verify(rec, emb)
            _persist(rec, emb)
        _witness_cache[name] = emb, table
        return emb, table


def verify_all() -> list:
    """Re-certify every record; returns (name, ok, message) triples, each
    refusal's message starting with the record's name, as a ``CatalogError``'s does."""
    report = []
    manifest = _read_manifest()
    for rec in record_table():
        try:
            path = _witness_path(rec.name)
            if not path.exists():
                raise CatalogError(f"{rec.name}: witness file missing")
            text = path.read_text()
            entry = manifest.get(rec.name)
            if entry is None:
                raise CatalogError(f"{rec.name}: no well-formed manifest line for the witness file")
            if entry[1] != _digest(text):
                raise CatalogError(f"{rec.name}: witness file does not match manifest hash")
            if entry[0] != rec.spec_hash():
                raise CatalogError(f"{rec.name}: record spec changed since witness was stored")
            _verify(rec, serialize.parse_emap(text))
            report.append((rec.name, True, "ok"))
        except CatalogError as exc:
            report.append((rec.name, False, str(exc)))
        except (QuadforgeError, OSError, UnicodeDecodeError) as exc:
            report.append((rec.name, False, f"{rec.name}: {exc}"))
    return report


def build_all() -> list:
    """Materialize and persist every record in dependency order; returns the witnesses."""
    return [get_witness(rec.name) for rec in record_table()]


def register_cache(cache: dict) -> dict:
    """Have ``clear_cache`` and a change of catalog directory empty ``cache``."""
    _registered_caches.append(cache)
    return cache


def clear_cache() -> None:
    _witness_cache.clear()
    _KMN_CACHE.clear()
    for cache in _registered_caches:
        cache.clear()


def follow_catalog_dir() -> None:
    """Empty the caches when the catalog directory changed since they were filled.

    It runs on every cache lookup, so a ``Path`` is built only when the raw
    ``QUADFORGE_CATALOG`` value differs from the one seen last.
    """
    global _cache_dir, _cache_env
    env = os.environ.get(CATALOG_ENV)
    if env == _cache_env and _cache_dir is not None:
        return
    _cache_env = env
    current = catalog_dir()
    if current != _cache_dir:
        clear_cache()
        _cache_dir = current


# ---------------------------------------------------------------------------
# Complete-bipartite quadrangulations, summed in a face table.
# ---------------------------------------------------------------------------

_KMN_CACHE: dict = {}  # (m, n) -> the certified K_{m,n}'s face table, never spliced into


def build_kmn(m: int, n: int) -> Embedding:
    """Orientable quadrangular embedding of K_{m,n}: m-side 0..m-1, n-side m..m+n-1."""
    return _kmn(m, n).embedding()


def kmn_table(m: int, n: int) -> surgery.FaceTable:
    """A copy of the certified K_{m,n}'s face table, on ``build_kmn``'s labels."""
    return _kmn(m, n).copy()


def _kmn(m: int, n: int) -> surgery.FaceTable:
    """The cached table of K_{m,n}, spliced up from the nearest cached K on first use."""
    if m % 4 != 2 or m < 6:
        raise CatalogError(f"m must be at least 6 and congruent to 2 mod 4, got {m}")
    if n < 2:
        raise CatalogError(f"n must be at least 2, got {n}")
    follow_catalog_dir()
    want = (m, n)
    path = []  # the K still to sum, the requested one first
    while (m, n) not in _KMN_CACHE:
        if n == 2 or (m, n) == (6, 3):
            # the planar double wheel (both degree-m vertices see the m-cycle
            # 0..m-1), or the catalog's K_{6,3}
            base = (surgery.FaceTable([(m, i, m + 1, (i + 1) % m) for i in range(m)]) if n == 2
                    else witness_table("k_6_3"))
            _cache_kmn(_canonical(base, n), m, n)
            break
        path.append((m, n))
        m, n = (m - 4, 3) if n == 3 else (m, n - (m - 2 if n > m else 1))
    if path:
        table = _KMN_CACHE[m, n].copy()
    for m, n in reversed(path):
        if n == 3:  # K_{m-4,3} <> K_{6,3}, at an m-side vertex of each
            table.splice(0, _kmn(6, 3), 0)
            table = _canonical(table, 3)
        else:  # K_{m,k} <> K_{m,j}, at the last n-side vertex of K_{m,k} and the first of K_{m,j}
            j = m if n > m else 3
            table.splice(m + n - j + 1, _kmn(m, j), m)
        if (m, n) == want:
            _cache_kmn(table, m, n)
        elif n <= m:
            _cache_kmn(table.copy(), m, n)
    return _KMN_CACHE[want]


def _canonical(table: surgery.FaceTable, n: int) -> surgery.FaceTable:
    """K_{m,n}'s ``table`` on canonical labels: the m-side, whose vertices have
    degree n, first; each side in ``vkey`` order."""
    return table.ranked(key=lambda v: (table.degree(v) != n, vkey(v)))


def _cache_kmn(table: surgery.FaceTable, m: int, n: int) -> None:
    _certify_kmn(table, m, n)
    _KMN_CACHE[m, n] = table


def _certify_kmn(table: surgery.FaceTable, m: int, n: int) -> None:
    name = f"K_{{{m},{n}}}"
    edges = table.edges()
    if len(edges) != m * n or not all(a < m <= b < m + n for a, b in edges):
        raise CatalogError(f"builder output is not {name}")
    faces = table.faces()
    if any(len(w) != 4 for w in faces):
        raise CatalogError(f"{name} embedding is not quadrangular")
    if not table.is_orientable():
        raise CatalogError(f"{name} embedding is not orientable")
    if len(table.vertices()) - len(edges) + len(faces) != m + n - m * n // 2:
        raise CatalogError(f"{name} embedding has wrong Euler characteristic")
    if min(m, n) >= 3 and not table.is_face_simple():
        raise CatalogError(f"{name} embedding is not face-simple")

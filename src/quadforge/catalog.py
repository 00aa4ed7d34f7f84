"""Named base-embedding records, persistent verified witnesses, and the
complete-bipartite quadrangulation builder.

Records come in two flavors.  *Searched* records are acquired once by the
search module (exhaustive backtracking for small graphs, randomized restarts
of the same backtracking for large ones), persisted as emap files, and
re-verified against their property bundle on every load.  *Derived* records
are rebuilt deterministically from their parents by a named surgery, so they
regenerate byte-for-byte.  Each record states its own ``op``, ``parent`` and
``args``, and ``record_table`` is the only place they are written:
``_derive``, ``graphalg.phi_target`` and the planner read them, and the
manifest's provenance is generated from them.

The catalog directory defaults to the ``data/catalog`` tree shipped with the
package and can be overridden with the ``QUADFORGE_CATALOG`` environment
variable.  The witness and ``K_{m,n}`` caches follow it: they are emptied when
the directory changes, together with every cache registered by
``register_cache`` (the planner's memo of built plan nodes).

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
import zlib
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

from . import emap, graphalg, search, serialize, surgery
from .emap import Embedding, Graph, vkey
from .errors import CatalogError, QuadforgeError, SurgeryError
from .search import WitnessSpec

CATALOG_ENV = "QUADFORGE_CATALOG"


def catalog_dir() -> Path:
    override = os.environ.get(CATALOG_ENV)
    if override:
        return Path(override)
    return Path(__file__).parent / "data" / "catalog"


class CatalogRecord(NamedTuple):
    """Specification bundle for one named embedding, and how it is made.

    ``op`` says where the witness comes from: ``"searched"`` (exhaustive
    search), ``"randomized"`` (randomized-restart search), or the surgery
    that derives it from the witness of ``parent``, with ``args`` as its
    operands: ``"delete_degree2"`` deletes ``z``, ``"insert_degree2"`` splits
    the first face at its least corner, and ``"handle"`` adds a handle along
    each 4-cycle in ``args``.
    """

    name: str
    chi: int
    orientable: bool | None
    predicates: tuple = ()
    op: str = "searched"
    parent: str | None = None
    args: tuple = ()
    counts: tuple | None = None  # (vertices, edges), checked in place of a target graph

    @property
    def target(self) -> str:
        """The phi_target name of the record's graph; empty when counts are checked."""
        return "" if self.counts else self.name

    @property
    def provenance(self) -> str:
        return f"derived({self.op},{self.parent})" if self.parent else self.op

    def graphs(self) -> tuple:
        if not self.target:
            return ()
        return (graphalg.phi_target(self.target),)

    def spec_for(self, g: Graph) -> WitnessSpec:
        return WitnessSpec(g, self.chi, self.orientable, self.predicates)

    def spec_hash(self) -> str:
        import hashlib  # on use: a gen or verify process never hashes

        text = "|".join(
            [
                self.name,
                self.target,
                str(self.chi),
                str(self.orientable),
                repr(self.predicates),
                self.provenance,
            ]
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_table() -> tuple:
    """Every record, each derived one after its parent."""
    recs = [
        CatalogRecord("phi_4_0", 1, False,
                      (("nearly_face_simple_except_some_universal",),)),
        CatalogRecord("phi_5_0_star", 0, True,
                      (("face_simple",), ("universal_vertex",))),
        CatalogRecord("phi_6_1", -1, False,
                      (("face_simple",), ("universal_vertex",))),
        CatalogRecord("phi_7_0_plus", -3, False,
                      (("nearly_face_simple_except", "x"),
                       ("delete_degree2_face_simple", "z"))),
        CatalogRecord("phi_7_2_plus", -2, False,
                      (("nearly_face_simple_except", "x"),
                       ("delete_degree2_face_simple", "z"))),
        CatalogRecord("phi_7_4_plus", -1, False,
                      (("nearly_face_simple_except", "x"),)),
        # Randomized records: their graphs carry 20-48 edges, beyond comfortable
        # exhaustive backtracking.
        CatalogRecord("phi_7_2_plus_star", -2, True,
                      (("nearly_face_simple_except", "x"),),
                      op="randomized"),
        CatalogRecord("phi_8_4_star", -4, True,
                      (("face_simple",), ("universal_vertex",),
                       ("has_handle_site", (4, 5, 6, 7))),
                      op="randomized"),
        CatalogRecord("phi_10_1_star", -12, True,
                      (("face_simple",), ("universal_vertex",)),
                      op="randomized"),
        CatalogRecord("phi_11_8_plus_star", -12, True,
                      (("nearly_face_simple_except", "x"),
                       ("has_handle_site", (1, 2, 3, 4)),
                       ("has_handle_site", (5, 6, 7, 8)),
                       ("double_handle", (1, 2, 3, 4), (5, 6, 7, 8))),
                      op="randomized"),
        CatalogRecord("k_6_3", 0, True, (("face_simple",),)),
        CatalogRecord("c4_sphere", 2, True, ()),
        CatalogRecord("klein_6_3", 0, False,
                      (("face_simple",),)),
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
                      op="delete_degree2", parent="phi_7_0_plus"),
        CatalogRecord("q7_3", -2, False,
                      (("face_simple",), ("universal_vertex",)),
                      op="delete_degree2", parent="phi_7_2_plus"),
        CatalogRecord("q7_3_orientable", -2, True,
                      (("face_simple",), ("universal_vertex",)),
                      op="delete_degree2", parent="phi_7_2_plus_star"),
        CatalogRecord("q11_5", -14, True,
                      (("face_simple",), ("universal_vertex",)),
                      op="delete_degree2", parent="phi_11_4_plus_star"),
        CatalogRecord("q11_1", -16, True,
                      (("face_simple",), ("universal_vertex",)),
                      op="delete_degree2", parent="phi_11_0_plus_star"),
        CatalogRecord("q8_0", -6, True,
                      (("face_simple",), ("universal_vertex",)),
                      op="handle", parent="phi_8_4_star", args=((4, 5, 6, 7),)),
        # Target graph depends on which K5-face hosts the new degree-2 vertex,
        # so this record is verified by counts and predicates, not exact labels.
        CatalogRecord("q6_3_orientable", 0, True,
                      (("universal_vertex",),),
                      op="insert_degree2", parent="phi_5_0_star", counts=(6, 12)),
    ]
    return tuple(recs)


_RECORDS = {r.name: r for r in record_table()}
_witness_cache: dict = {}
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


def _verify(rec: CatalogRecord, emb: Embedding) -> None:
    graphs = rec.graphs()
    if graphs and emb.graph != graphs[0]:
        raise CatalogError(f"{rec.name}: stored witness is not on the record's target graph")
    if rec.counts is not None:
        got = (len(emb.graph.vertices), len(emb.graph.edges))
        if got != rec.counts:
            raise CatalogError(f"{rec.name}: witness has counts {got}, record requires {rec.counts}")
    if not emap.is_quadrangular(emb):
        raise CatalogError(f"{rec.name}: witness is not quadrangular")
    if emap.euler_characteristic(emb) != rec.chi:
        raise CatalogError(
            f"{rec.name}: chi={emap.euler_characteristic(emb)}, record requires {rec.chi}"
        )
    if rec.orientable is not None and emap.is_orientable(emb) != rec.orientable:
        raise CatalogError(f"{rec.name}: orientability mismatch")
    if not search.check_predicates(emb, rec.predicates):
        raise CatalogError(f"{rec.name}: witness fails its predicate bundle")


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
    import hashlib

    entries = _read_manifest()
    text = serialize.write_emap(emb)
    _atomic_write(_witness_path(rec.name), text)
    file_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
    entries[rec.name] = (rec.spec_hash(), file_hash, rec.provenance)
    lines = [
        f"{name} {sh} {fh} {prov}"
        for name, (sh, fh, prov) in sorted(entries.items())
    ]
    _atomic_write(_manifest_path(), "\n".join(lines) + "\n")


def _acquire_searched(rec: CatalogRecord) -> Embedding:
    spec = rec.spec_for(*rec.graphs())
    if rec.op == "randomized":
        result = search.search_randomized(spec, seed=zlib.crc32(rec.name.encode()),
                                          restarts=search.RANDOMIZED_RESTARTS)
        budget = f"randomized x{search.RANDOMIZED_RESTARTS}"
    else:
        result = search.search_exact(spec, _EXACT_BUDGET)
        budget = _EXACT_BUDGET
    if result.status != "found":
        raise CatalogError(f"{rec.name}: witness search failed "
                           f"(status={result.status}, budget={budget})")
    return result.embedding


def _first_chain_site(parent: Embedding, cycle: tuple, predicates: tuple) -> Embedding:
    """``parent`` with a handle at the first site for ``cycle`` whose result
    passes ``predicates``: the derived record's own bundle, so a site that
    leaves a later handle without a site is passed over."""
    table = surgery.FaceTable.from_embedding(parent)
    for site in table.handle_sites(cycle):
        out = table.copy()
        try:
            out.handle(site)
        except SurgeryError:
            continue
        emb = out.embedding()
        if search.check_predicates(emb, predicates):
            return emb
    raise CatalogError(f"no usable handle site for cycle {cycle}")


def _derive(rec: CatalogRecord) -> Embedding:
    """The witness of a derived record: its ``op`` applied to its parent's."""
    out = get_witness(rec.parent)
    if rec.op == "handle":
        for cycle in rec.args:
            out = _first_chain_site(out, cycle, rec.predicates)
        return out
    table = surgery.FaceTable.from_embedding(out)
    if rec.op == "delete_degree2":
        table.delete_degree2("z")
    elif rec.op == "insert_degree2":
        face = table.faces()[0]
        table.insert_degree2(face, min(face, key=vkey))
    else:
        raise CatalogError(f"{rec.name}: no derivation rule for op {rec.op!r}")
    return table.embedding()


def get_witness(name: str) -> Embedding:
    """The verified embedding for a record; searched/derived and persisted on first use."""
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
            _verify(rec, emb)
        else:
            emb = _derive(rec) if rec.parent else _acquire_searched(rec)
            _verify(rec, emb)
            _persist(rec, emb)
        _witness_cache[name] = emb
        return emb


def verify_all() -> list:
    """Re-certify every record; returns (name, ok, message) triples."""
    import hashlib

    report = []
    manifest = _read_manifest()
    for rec in record_table():
        try:
            path = _witness_path(rec.name)
            if not path.exists():
                raise CatalogError("witness file missing")
            text = path.read_text()
            entry = manifest.get(rec.name)
            if entry is None:
                raise CatalogError("no well-formed manifest line for the witness file")
            if entry[1] != hashlib.sha256(text.encode()).hexdigest()[:16]:
                raise CatalogError("witness file does not match manifest hash")
            if entry[0] != rec.spec_hash():
                raise CatalogError("record spec changed since witness was stored")
            emb = serialize.parse_emap(text)
            _verify(rec, emb)
            report.append((rec.name, True, "ok"))
        except (QuadforgeError, OSError, UnicodeDecodeError) as exc:
            report.append((rec.name, False, str(exc)))
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
            base = ([(m, i, m + 1, (i + 1) % m) for i in range(m)] if n == 2
                    else [w.vertices for w in get_witness("k_6_3").faces()])
            _cache_kmn(_canonical(surgery.FaceTable(base), n), m, n)
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

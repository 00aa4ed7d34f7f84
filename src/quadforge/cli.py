"""Command-line front end.

Subcommands: gen, verify, search, surgery, catalog, dual, kmn, sweep.
All embeddings cross the process boundary as emap text; every command that
produces an embedding also prints its certificate.  Exit codes: 0 success,
1 domain failure (inadmissible parameters, unsatisfiable search, failed
expectation), 2 I/O or format error.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog, emap, graphalg, planner, search, serialize, surgery
from .emap import parse_label
from .errors import FormatError, QuadforgeError, StructuralError


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, UnicodeDecodeError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except QuadforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quadforge")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress all output except certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a minimal face-simple quadrangulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--kind", choices=("orientable", "nonorientable"), required=True)
    p.add_argument("--plan-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="certify an emap file")
    p.add_argument("file")
    p.add_argument("--expect", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search for an embedding matching a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--method", choices=("exact", "random"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=_positive_int, default=search.RANDOMIZED_RESTARTS)
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("surgery", help="apply a surgery operation to emap files")
    ops = p.add_subparsers(dest="op", required=True)

    q = ops.add_parser("diamond", help="diamond sum of two embeddings")
    q.add_argument("file_a")
    q.add_argument("vertex_a")
    q.add_argument("file_b")
    q.add_argument("vertex_b")
    q.add_argument("--offset", type=int, default=0,
                   help="rotate the gluing: offsets count on each vertex's rim started at its "
                        "least neighbour and run towards the lesser of that neighbour's two "
                        "neighbours on the rim")
    q.add_argument("--reflect", action="store_true",
                   help="glue the rims the same way round; by default they are glued opposite "
                        "ways, or the same way when that would create a parallel edge")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_diamond)

    q = ops.add_parser("handle", help="augment along a 4-cycle of new edges")
    q.add_argument("file")
    q.add_argument("cycle", nargs=4)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_handle)

    q = ops.add_parser("delete2", help="remove a degree-2 vertex, merging its faces")
    q.add_argument("file")
    q.add_argument("vertex")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_delete2)

    q = ops.add_parser("insert2", help="split a face with a new degree-2 vertex")
    q.add_argument("file")
    q.add_argument("face", nargs=4)
    q.add_argument("corner")
    q.add_argument("--out")
    q.set_defaults(func=_cmd_insert2)

    p = sub.add_parser("catalog", help="manage the witness catalog")
    p.add_argument("action", choices=("build", "verify", "list"))
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("dual", help="print the dual multigraph of an embedding")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("kmn", help="build a complete-bipartite quadrangulation")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_kmn)

    p = sub.add_parser("sweep", help="exhaustive minimality sweep on a surface")
    p.add_argument("--surface", choices=("sphere", "projective"), required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


# ---------------------------------------------------------------------------
# Shared output helpers.
# ---------------------------------------------------------------------------

def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _emit(args, emb: emap.Embedding, cert: emap.Certificate | None = None) -> None:
    """Write the emap (to --out or stdout) and print its certificate.

    ``cert`` is the embedding's certificate when the caller already has it.
    """
    text = serialize.write_emap(emb)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        _say(args, f"wrote {out}")
    elif not args.quiet:
        sys.stdout.write(text)
    sys.stdout.write((cert or emap.certify(emb)).to_text())


def _load(path: str) -> emap.Embedding:
    with open(path) as fh:
        return serialize.parse_emap(fh.read())


def _load_table(path: str) -> surgery.FaceTable:
    return surgery.FaceTable.from_embedding(_load(path))


# ---------------------------------------------------------------------------
# Subcommand bodies.
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    req = planner.ParamRequest(n=args.n, t=args.t, kind=args.kind)
    if args.plan_only:
        print(planner.plan_text(planner.plan(req)))
        return 0
    emb, cert, plan = planner.generate(req)
    _say(args, planner.plan_text(plan))
    _emit(args, emb, cert)
    return 0


def _cmd_verify(args) -> int:
    emb = _load(args.file)
    cert = emap.certify(emb)
    text = cert.to_text()
    sys.stdout.write(text)
    have = dict(line.split("=", 1) for line in text.splitlines())
    failed = []
    for item in args.expect:
        if "=" not in item:
            print(f"error: malformed --expect {item!r}", file=sys.stderr)
            return 2
        key, want = item.split("=", 1)
        if key not in have:
            print(f"error: unknown certificate key {key!r}", file=sys.stderr)
            return 2
        if have[key] != want:
            failed.append(f"{key}: expected {want}, got {have[key]}")
    if failed:
        for line in failed:
            print(f"mismatch: {line}", file=sys.stderr)
        return 1
    return 0


def _parse_spec_file(text: str) -> search.WitnessSpec:
    graph = None
    chi = None
    orientable = None
    predicates = []
    named = []  # (line, vertex labels) of each predicate
    seen = set()  # the keys read so far; only ``predicate`` may repeat
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in seen and key != "predicate":
            raise FormatError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key == "graph":
            try:
                expr = graphalg.parse_expr(rest)
            except StructuralError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            graph = expr.eval()
        elif key == "chi":
            chi = parse_label(rest)
            if not isinstance(chi, int):
                raise FormatError(f"line {lineno}: chi must be an integer, got {rest!r}")
        elif key == "orientable":
            if rest not in ("true", "false", "either"):
                raise FormatError(f"line {lineno}: orientable must be true/false/either")
            orientable = None if rest == "either" else rest == "true"
        elif key == "predicate":
            if not rest:
                raise FormatError(f"line {lineno}: predicate needs a name")
            name, *toks = rest.split()
            labels = tuple(parse_label(t) for t in toks)
            try:
                predicates.append(search.spec_predicate(name, labels))
            except FormatError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            named.append((lineno, labels))
        else:
            raise FormatError(f"line {lineno}: unknown spec key {key!r}")
    if graph is None or chi is None:
        raise FormatError("spec file needs both a graph and a chi line")
    for lineno, labels in named:
        for v in labels:
            if v not in graph.vertices:
                raise FormatError(f"line {lineno}: vertex {v!r} is not in the graph")
    return search.WitnessSpec(graph=graph, chi=chi, orientable=orientable,
                              predicates=tuple(predicates))


def _cmd_search(args) -> int:
    with open(args.spec) as fh:
        spec = _parse_spec_file(fh.read())
    if args.method == "exact":
        result = search.search_exact(spec, args.budget)
    else:
        result = search.search_randomized(spec, seed=args.seed, restarts=args.restarts)
    if result.status == "found":
        _emit(args, result.embedding)
        return 0
    print(f"no witness: search status {result.status} "
          f"after {result.nodes} nodes", file=sys.stderr)
    return 1


def _cmd_diamond(args) -> int:
    a = _load(args.file_a)
    b = _load(args.file_b)
    out = surgery.diamond_sum(a, parse_label(args.vertex_a),
                              b, parse_label(args.vertex_b),
                              offset=args.offset,
                              reflect=True if args.reflect else None)
    _emit(args, out)
    return 0


def _cmd_handle(args) -> int:
    table = _load_table(args.file)
    cycle = tuple(parse_label(t) for t in args.cycle)
    sites = table.handle_sites(cycle)
    if not sites:
        print(f"error: no handle site for cycle {cycle}", file=sys.stderr)
        return 1
    table.handle(sites[0])
    _emit(args, table.embedding())
    return 0


def _cmd_delete2(args) -> int:
    table = _load_table(args.file)
    table.delete_degree2(parse_label(args.vertex))
    _emit(args, table.embedding())
    return 0


def _cmd_insert2(args) -> int:
    table = _load_table(args.file)
    face = tuple(parse_label(t) for t in args.face)
    z = table.insert_degree2(face, parse_label(args.corner))
    _say(args, f"inserted vertex {z}")
    _emit(args, table.embedding())
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "build":
        embs = catalog.build_all()
        _say(args, f"built {len(embs)} witnesses in {catalog.catalog_dir()}")
        return 0
    if args.action == "verify":
        failed = [(name, msg) for name, ok, msg in catalog.verify_all() if not ok]
        for name, msg in failed:
            print(f"error: {name}: {msg}", file=sys.stderr)
        if failed:
            return 1
        _say(args, "catalog verified")
        return 0
    for rec in sorted(catalog.record_table(), key=lambda r: r.name):
        tag = "orientable" if rec.orientable else "nonorientable"
        print(f"{rec.name} chi={rec.chi} {tag} {rec.provenance}")
    return 0


def _cmd_dual(args) -> int:
    emb = _load(args.file)
    lo, hi = emap._edge_faces(emb)
    print(f"faces {len(emb.faces())}")
    # one dual edge per primal edge; parallel ones ordered by the primal edge's repr
    for fa, fb, (u, v) in sorted(zip(lo, hi, emb.graph._edge_order),
                                 key=lambda d: (d[0], d[1], repr(d[2]))):
        print(f"{fa} {fb} via {u}-{v}")
    return 0


def _cmd_kmn(args) -> int:
    emb = catalog.build_kmn(args.m, args.n)
    _emit(args, emb)
    return 0


def _cmd_sweep(args) -> int:
    results = search.sweep_minimal(args.surface, args.max_n)
    for n in sorted(results):
        hits = results[n]
        print(f"n={n} face_simple_quadrangulations={len(hits)}")
        for g in hits:
            edges = " ".join(f"{u}-{v}" for u, v in g.sorted_edges())
            print(f"  witness {edges}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

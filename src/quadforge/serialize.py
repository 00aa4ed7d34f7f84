"""Text formats for embeddings and certificates.

The emap format is line-oriented and canonical: edges are numbered in sorted
order, rotations are listed per vertex in label order, and each rotation
cycle starts at its smallest edge id.  Writing the same embedding twice
yields byte-identical text, and ``parse_emap(write_emap(e))`` structurally
equals ``e``.

    emap 1
    V <vertex count>
    E <edge count>
    e <id> <u> <v> <+|->
    ...
    r <vertex> : <edge ids in rotation order>
    ...
"""

from __future__ import annotations

import itertools

from .emap import Embedding, Graph, parse_label, vkey
from .errors import FormatError

_SIGNS = {"+": 1, "-": -1}


class _Labels(dict):
    """Token -> the label it names, each distinct token parsed once."""

    def __missing__(self, token: str):
        label = self[token] = parse_label(token)
        return label


def _digits(tokens: list) -> list:
    """Edge ids and counts as ints: ASCII digits only, as every writer makes them."""
    joined = "".join(tokens)
    if tokens and not (joined.isdigit() and joined.isascii()):
        bad = next(t for t in tokens if not (t.isdigit() and t.isascii()))
        raise ValueError(f"invalid literal for int() with base 10: {bad!r}")
    return list(map(int, tokens))


def _label_token(v) -> str:
    s = str(v)
    # a string that looks like an int would be read back as one by parse_label
    if (not s or any(c.isspace() for c in s) or s == ":"
            or (isinstance(v, str) and not isinstance(parse_label(s), str))):
        raise FormatError(f"vertex label {v!r} cannot be serialized")
    return s


def _label_tokens(g: Graph) -> dict:
    """Each vertex -> its token, each label checked once."""
    try:
        return {v: _label_token(v) for v in g._order}
    except FormatError:
        # refuse the first label the file would have written
        for e in g._edge_order:
            _label_token(e[0])
            _label_token(e[1])
        raise


def write_emap(emb: Embedding) -> str:
    g = emb.graph
    edges, eid = g._edge_order, g._edge_id
    tok = _label_tokens(g)
    sig = emb.signature
    lines = ["emap 1", f"V {len(g.vertices)}", f"E {len(edges)}"]
    lines += [f"e {i} {tok[e[0]]} {tok[e[1]]} {'+' if sig[e] == 1 else '-'}"
              for i, e in enumerate(edges)]
    # each rotation already starts at its smallest edge (see Embedding)
    lines += [f"r {tok[v]} : " + " ".join(map(str, map(eid.__getitem__, emb.rotation[v])))
              for v in g._order]
    return "\n".join(lines) + "\n"


def parse_emap(text: str) -> Embedding:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "emap 1":
        raise FormatError("line 1: expected header 'emap 1'")
    declared = {}  # "V" and "E" -> the count the file declares
    labels = _Labels()
    edges_by_id = {}
    signature = {}
    rotations = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        tag = parts[0]
        try:
            if tag == "e":
                if len(parts) > 5:
                    raise FormatError(f"line {lineno}: extra field {parts[5]!r}")
                token = parts[1]
                # _digits's check inlined: one id per line, on the hot path
                eid = int(token) if token.isdigit() and token.isascii() else _digits([token])[0]
                if eid in edges_by_id:
                    raise FormatError(f"line {lineno}: duplicate edge id {eid}")
                u, v = labels[parts[2]], labels[parts[3]]
                sign = _SIGNS.get(parts[4])
                if sign is None:
                    raise FormatError(f"line {lineno}: sign must be + or -, got {parts[4]!r}")
                if u == v:
                    raise FormatError(f"line {lineno}: loop edge {u!r}")
                if type(u) is int and type(v) is int:
                    e = (u, v) if u < v else (v, u)
                else:
                    e = (u, v) if vkey(u) < vkey(v) else (v, u)
                edges_by_id[eid] = e
                signature[e] = sign
            elif tag == "r":
                if parts[2] != ":":
                    raise FormatError(f"line {lineno}: expected ':' after vertex")
                v = labels[parts[1]]
                if v in rotations:
                    raise FormatError(f"line {lineno}: duplicate rotation for vertex {v!r}")
                rotations[v] = _digits(parts[3:])
            elif tag in ("V", "E"):
                if len(parts) > 2:
                    raise FormatError(f"line {lineno}: extra field {parts[2]!r}")
                declared[tag] = _digits([parts[1]])[0]
            else:
                raise FormatError(f"line {lineno}: unknown record tag {tag!r}")
        except FormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise FormatError(f"line {lineno}: malformed record: {exc}") from exc
    if declared.get("E", len(edges_by_id)) != len(edges_by_id):
        raise FormatError(f"E declares {declared['E']} edges, file lists {len(edges_by_id)}")
    edges = frozenset(edges_by_id.values())
    if len(edges) != len(edges_by_id):
        raise FormatError("the same edge appears under two ids")
    graph = Graph(frozenset(itertools.chain.from_iterable(edges)), edges)
    if declared.get("V", len(graph.vertices)) != len(graph.vertices):
        raise FormatError(f"V declares {declared['V']} vertices, edges mention {len(graph.vertices)}")
    order, cid = graph._edge_order, graph._edge_id
    canon = {i: cid[e] for i, e in edges_by_id.items()}  # file id -> edge id
    cycles = {}
    for v, ids in rotations.items():
        if v not in graph.vertices:
            raise FormatError(f"rotation given for unknown vertex {v!r}")
        try:
            cyc = [canon[i] for i in ids]
        except KeyError as exc:
            raise FormatError(f"rotation at {v!r} references unknown edge id {exc.args[0]}") from None
        expected = [cid[e] for e in graph._incidence[v]]  # ascending
        if sorted(cyc) != expected:
            raise FormatError(f"rotation at {v!r} is not a permutation of its incident edges")
        k = cyc.index(expected[0])  # start at the smallest edge, as Embedding does
        cyc = cyc[k:] + cyc[:k]
        cycles[v] = tuple([order[i] for i in cyc])
    missing = set(graph.vertices) - set(cycles)
    if missing:
        raise FormatError(f"no rotation for vertices {sorted(missing, key=vkey)}")
    return Embedding._of_checked(graph, {v: cycles[v] for v in graph._order}, signature)

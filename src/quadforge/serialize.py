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

from .emap import Embedding, Graph, parse_label, vkey
from .errors import FormatError


def _label_token(v) -> str:
    s = str(v)
    # a string that looks like an int would be read back as one by parse_label
    if (not s or any(c.isspace() for c in s) or s == ":"
            or (isinstance(v, str) and not isinstance(parse_label(s), str))):
        raise FormatError(f"vertex label {v!r} cannot be serialized")
    return s


def write_emap(emb: Embedding) -> str:
    edges = emb.graph.sorted_edges()
    eid = {e: i for i, e in enumerate(edges)}
    lines = ["emap 1", f"V {len(emb.graph.vertices)}", f"E {len(edges)}"]
    for i, e in enumerate(edges):
        sign = "+" if emb.signature[e] == 1 else "-"
        lines.append(f"e {i} {_label_token(e[0])} {_label_token(e[1])} {sign}")
    for v in emb.graph.sorted_vertices():
        ids = [eid[e] for e in emb.rotation[v]]
        k = ids.index(min(ids))
        ids = ids[k:] + ids[:k]
        lines.append(f"r {_label_token(v)} : " + " ".join(str(i) for i in ids))
    return "\n".join(lines) + "\n"


def parse_emap(text: str) -> Embedding:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "emap 1":
        raise FormatError("line 1: expected header 'emap 1'")
    n_decl = m_decl = None
    edges_by_id = {}
    signature = {}
    rotations = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "V":
                n_decl = int(parts[1])
            elif tag == "E":
                m_decl = int(parts[1])
            elif tag == "e":
                eid = int(parts[1])
                if eid in edges_by_id:
                    raise FormatError(f"line {lineno}: duplicate edge id {eid}")
                u, v = parse_label(parts[2]), parse_label(parts[3])
                if parts[4] == "+":
                    sign = 1
                elif parts[4] == "-":
                    sign = -1
                else:
                    raise FormatError(f"line {lineno}: sign must be + or -, got {parts[4]!r}")
                if u == v:
                    raise FormatError(f"line {lineno}: loop edge {u!r}")
                e = tuple(sorted((u, v), key=vkey))
                edges_by_id[eid] = e
                signature[e] = sign
            elif tag == "r":
                if parts[2] != ":":
                    raise FormatError(f"line {lineno}: expected ':' after vertex")
                v = parse_label(parts[1])
                if v in rotations:
                    raise FormatError(f"line {lineno}: duplicate rotation for vertex {v!r}")
                rotations[v] = [int(t) for t in parts[3:]]
            else:
                raise FormatError(f"line {lineno}: unknown record tag {tag!r}")
        except FormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise FormatError(f"line {lineno}: malformed record: {exc}") from exc
    if m_decl is not None and m_decl != len(edges_by_id):
        raise FormatError(f"E declares {m_decl} edges, file lists {len(edges_by_id)}")
    if len(set(edges_by_id.values())) != len(edges_by_id):
        raise FormatError("the same edge appears under two ids")
    graph = Graph.from_edges(edges_by_id.values())
    if n_decl is not None and n_decl != len(graph.vertices):
        raise FormatError(f"V declares {n_decl} vertices, edges mention {len(graph.vertices)}")
    rotation = {}
    for v, ids in rotations.items():
        if v not in graph.vertices:
            raise FormatError(f"rotation given for unknown vertex {v!r}")
        cyc = []
        for i in ids:
            if i not in edges_by_id:
                raise FormatError(f"rotation at {v!r} references unknown edge id {i}")
            cyc.append(edges_by_id[i])
        expected = set(graph.incident_edges(v))
        if set(cyc) != expected or len(cyc) != len(expected):
            raise FormatError(f"rotation at {v!r} is not a permutation of its incident edges")
        rotation[v] = tuple(cyc)
    missing = set(graph.vertices) - set(rotation)
    if missing:
        raise FormatError(f"no rotation for vertices {sorted(missing, key=vkey)}")
    return Embedding(graph, rotation, signature)

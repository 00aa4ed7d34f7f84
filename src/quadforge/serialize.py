"""Text formats for embeddings and certificates.

The emap format is line-oriented and canonical: edges are numbered in sorted
order, rotations are listed per vertex in label order, and each rotation
cycle starts at its smallest edge id.  Writing the same embedding twice
yields byte-identical text, and ``parse_emap(write_emap(e))`` structurally
equals ``e``.  Both work on the embedding's integer core (see ``emap``):
the writer reads it, and the reader fills it, with no label-level graph.

    emap 1
    V <vertex count>
    E <edge count>
    e <id> <u> <v> <+|->
    ...
    r <vertex> : <edge ids in rotation order>
    ...
"""

from __future__ import annotations

from .emap import Embedding, parse_label, vkey
from .errors import FormatError

_SIGNS = {"+": 1, "-": -1}


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


def _label_tokens(labels: tuple, ends: list) -> list:
    """Each rank's token, each label checked once."""
    try:
        return [_label_token(v) for v in labels]
    except FormatError:
        # refuse the first label the file would have written
        for r in ends:
            _label_token(labels[r])
        raise


def write_emap(emb: Embedding) -> str:
    """The emap text of ``emb``, written from its core.  A vertex on no
    edge is refused: the reader takes the vertices from the edge lines."""
    ends, sign = emb.ends, emb.sign
    if not all(emb.rot):
        v = next(v for v, cyc in zip(emb.labels, emb.rot) if not cyc)
        raise FormatError(f"vertex {v!r} is on no edge and cannot be read back")
    tok = _label_tokens(emb.labels, ends)
    lines = ["emap 1", f"V {len(tok)}", f"E {len(sign)}"]
    lines += [f"e {i} {tok[a]} {tok[b]} {'+' if s == 1 else '-'}"
              for i, (a, b, s) in enumerate(zip(ends[0::2], ends[1::2], sign))]
    # each rotation already starts at its smallest edge (see Embedding)
    lines += [f"r {t} : " + " ".join(map(str, cyc)) for t, cyc in zip(tok, emb.rot)]
    return "\n".join(lines) + "\n"


def parse_emap(text: str) -> Embedding:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "emap 1":
        raise FormatError("line 1: expected header 'emap 1'")
    declared = {}  # "V" and "E" -> the count the file declares
    labels = {}  # token -> the label it names, each distinct token parsed once
    edges_by_id = {}  # file id -> (u, v, sign), u before v in vkey order
    rotations = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        try:
            # the e and r tags first: nearly every line is one of them
            if tag == "e":
                if len(parts) > 5:
                    raise FormatError(f"line {lineno}: extra field {parts[5]!r}")
                token = parts[1]
                # _digits's check inlined: one id per line, on the hot path
                eid = int(token) if token.isdigit() and token.isascii() else _digits([token])[0]
                if eid in edges_by_id:
                    raise FormatError(f"line {lineno}: duplicate edge id {eid}")
                u, v = labels.get(parts[2]), labels.get(parts[3])
                if u is None:
                    u = labels[parts[2]] = parse_label(parts[2])
                if v is None:
                    v = labels[parts[3]] = parse_label(parts[3])
                sign = _SIGNS.get(parts[4])
                if sign is None:
                    raise FormatError(f"line {lineno}: sign must be + or -, got {parts[4]!r}")
                if u == v:
                    raise FormatError(f"line {lineno}: loop edge {u!r}")
                if type(u) is int and type(v) is int:
                    edges_by_id[eid] = (u, v, sign) if u < v else (v, u, sign)
                else:
                    edges_by_id[eid] = (u, v, sign) if vkey(u) < vkey(v) else (v, u, sign)
            elif tag == "r":
                if parts[2] != ":":
                    raise FormatError(f"line {lineno}: expected ':' after vertex")
                v = labels.get(parts[1])
                if v is None:
                    v = labels[parts[1]] = parse_label(parts[1])
                if v in rotations:
                    raise FormatError(f"line {lineno}: duplicate rotation for vertex {v!r}")
                rotations[v] = _digits(parts[3:])
            elif tag[0] == "#":
                continue
            elif tag in ("V", "E"):
                if len(parts) > 2:
                    raise FormatError(f"line {lineno}: extra field {parts[2]!r}")
                count = _digits([parts[1]])[0]
                if tag in declared:
                    raise FormatError(f"line {lineno}: duplicate {tag} line")
                declared[tag] = count
            else:
                raise FormatError(f"line {lineno}: unknown record tag {tag!r}")
        except FormatError:
            raise
        except (IndexError, ValueError) as exc:
            raise FormatError(f"line {lineno}: malformed record: {exc}") from exc
    m = len(edges_by_id)
    if declared.get("E", m) != m:
        raise FormatError(f"E declares {declared['E']} edges, file lists {m}")
    vertices = tuple(sorted({u for u, v, _ in edges_by_id.values()}
                            | {v for u, v, _ in edges_by_id.values()}, key=vkey))
    n = len(vertices)
    rank = {u: i for i, u in enumerate(vertices)}
    # file id -> the edge's key, rank a * n + rank b, which sorts as the edge ids do
    key = {i: rank[u] * n + rank[v] for i, (u, v, _) in edges_by_id.items()}
    if len(set(key.values())) != m:
        raise FormatError("the same edge appears under two ids")
    if declared.get("V", n) != n:
        raise FormatError(f"V declares {declared['V']} vertices, edges mention {n}")
    order = sorted(key, key=key.__getitem__)  # the file's edge ids, by end ranks
    canon = {i: e for e, i in enumerate(order)}  # file id -> edge id
    ends = []
    for i in order:
        ends += divmod(key[i], n)
    sign = [edges_by_id[i][2] for i in order]
    incident = [[] for _ in vertices]  # each rank's edge ids, ascending
    for e, r in enumerate(ends):
        incident[r].append(e >> 1)
    rot = [None] * n
    for v, ids in rotations.items():
        r = rank.get(v)
        if r is None:
            raise FormatError(f"rotation given for unknown vertex {v!r}")
        try:
            cyc = [canon[i] for i in ids]
        except KeyError as exc:
            raise FormatError(f"rotation at {v!r} references unknown edge id {exc.args[0]}") from None
        if sorted(cyc) != incident[r]:
            raise FormatError(f"rotation at {v!r} is not a permutation of its incident edges")
        k = cyc.index(incident[r][0])  # start at the smallest edge, as Embedding does
        rot[r] = cyc[k:] + cyc[:k]
    missing = [u for u, cyc in zip(vertices, rot) if cyc is None]
    if missing:
        raise FormatError(f"no rotation for vertices {missing}")
    return Embedding._of_core(vertices, ends, rot, sign)

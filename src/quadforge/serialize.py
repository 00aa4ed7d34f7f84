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

The reader takes more than the writer makes: records in any order, any
distinct ids, either end first, any rotation start, runs of white space,
blank lines and ``#`` comments.  A file in exactly the written layout (the
e lines by id in sorted edge order, each with its lesser end first; the r
lines in label order, each started at its least id; single spaces and a
final newline), which every file quadforge writes has, is read as whole
columns.  Every other file is read line by line to the same core, and a
refusal names its first faulty line.
"""

from __future__ import annotations

import operator

from .emap import Embedding, parse_label, vkey
from .errors import FormatError

_SIGNS = {"+": 1, "-": -1}
_ROW_SIGNS = {"+\ne": 1, "-\ne": -1}  # an e line's sign and the next line's tag


def _digits(tokens: list) -> list:
    """Edge ids and counts as ints: ASCII digits only, as every writer makes them."""
    joined = "".join(tokens)
    if tokens and not (joined.isdigit() and joined.isascii()):
        bad = next(t for t in tokens if not (t.isdigit() and t.isascii()))
        raise ValueError(f"invalid literal for int() with base 10: {bad!r}")
    return list(map(int, tokens))


def _label_token(v) -> str:
    try:
        s = str(v)
    except ValueError:  # an int past str()'s digit limit, which repr() has too
        raise FormatError(f"vertex label (an int of {v.bit_length()} bits) "
                          "cannot be serialized") from None
    try:
        # a string that looks like an int would be read back as one by
        # parse_label, or not at all past int()'s digit limit
        readable = not isinstance(v, str) or isinstance(parse_label(s), str)
    except ValueError:
        readable = False
    if not s or any(c.isspace() for c in s) or s == ":" or not readable:
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
    """The embedding ``text`` names.  A file in exactly the layout
    ``write_emap`` writes is read as whole columns (``_read_columns``); any
    other file is read line by line (``_read_lines``), which names the first
    faulty line of a file it refuses.  Both give the same core."""
    return Embedding(*(_read_columns(text) or _read_lines(text)))


def _read_columns(text: str):
    """The core of ``text`` when it has exactly the written layout: the
    header; the e lines with ids 0..m-1 in end-rank order, each with its
    lesser end first; one r line per rank, in rank order, each started at
    its least id; single spaces and a final newline.  Else None.

    Every token is either compared with the string it must be or is a label
    token free of whitespace, so the text splits at its spaces and newlines
    as ``str.split`` and ``str.splitlines`` split it, and the line loop
    would read the same core."""
    if not text.startswith("emap 1\nV "):
        return None
    i2 = text.find("\n", 9)  # the end of the V line
    i3 = text.find("\n", i2 + 1) if i2 > 0 else -1  # and of the E line
    end = text.find("\nr ", i3) if i3 > 0 else -1  # and of the last e line
    if end < 0 or not text.startswith("e 0 ", i3 + 1):
        return None
    # the e lines split at their spaces alone: each row's sign comes joined to
    # the next row's tag, so a row with too few or too many tokens shows
    cols = text[i3 + 1:end].split(" ")
    m = len(cols) >> 2
    if len(cols) != 4 * m + 1 or text[i2 + 1:i3] != f"E {m}":
        return None
    ids = list(map(str, range(m)))
    if cols[1::4] != ids:
        return None
    sign = list(map(_ROW_SIGNS.get, cols[4:-1:4]))
    sign.append(_SIGNS.get(cols[-1]))
    if None in sign:
        return None
    tokens = set(cols[2::4])
    tokens.update(cols[3::4])
    if any(t.split() != [t] for t in tokens):  # empty, or holding whitespace
        return None
    try:
        labels = {t: parse_label(t) for t in tokens}
    except ValueError:  # an int past int()'s digit limit: the line reader names its line
        return None
    vertices = tuple(sorted(set(labels.values()), key=vkey))
    n = len(vertices)
    if n != len(tokens) or text[7:i2] != f"V {n}":
        return None
    rank = {v: r for r, v in enumerate(vertices)}
    token_rank = {t: rank[v] for t, v in labels.items()}
    a = list(map(token_rank.__getitem__, cols[2::4]))
    b = list(map(token_rank.__getitem__, cols[3::4]))
    del cols  # every token is read: let them go before the r lines are split
    pairs = list(zip(a, b))
    # lesser end first, and each pair after the last: no loop, no repeated edge
    if not (all(map(operator.lt, a, b)) and all(map(operator.lt, pairs, pairs[1:]))):
        return None
    ends = [0] * (2 * m)
    ends[0::2] = a
    ends[1::2] = b
    rows = text[end + 1:].split("\n")
    if len(rows) != n + 1 or rows[-1]:
        return None
    incident = [[] for _ in vertices]  # each rank's edge ids, ascending
    for e, r in enumerate(ends):
        incident[r].append(e >> 1)
    eid = dict(zip(ids, range(m)))
    tok = sorted(token_rank, key=token_rank.__getitem__)  # each rank's token
    rot = []
    try:
        for t, row, inc in zip(tok, rows, incident):
            head = f"r {t} : "
            if not row.startswith(head):
                return None
            cyc = list(map(eid.__getitem__, row[len(head):].split(" ")))
            if cyc[0] != inc[0] or sorted(cyc) != inc:
                return None
            rot.append(cyc)
    except KeyError:
        return None
    return vertices, ends, rot, sign


def _read_lines(text: str) -> tuple:
    """The core of ``text``, read line by line in any order, or the
    ``FormatError`` that names its first fault."""
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
    return vertices, ends, rot, sign

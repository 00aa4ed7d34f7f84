"""``serialize.parse_emap`` against the reference reader.

``reference_parse_emap`` below is the emap reader as it was before its line
loop was tightened and before it read the written layout as whole columns:
each distinct label token parsed through a ``dict.__missing__`` cache, and
blank and comment lines skipped before any tag is read.  Every mutant of a
catalog file or a ``gen`` output must get the same core, certificate and
written bytes from both readers, or the same error text.  A second set of
mutants keeps the written layout, so that the column path meets valid,
refused and borderline files too: a label with whitespace glued on, which
``str.split`` would cut away, must not be read as a label of its own.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from quadforge import catalog, emap, planner, serialize
from quadforge.emap import Embedding, parse_label, vkey
from quadforge.errors import FormatError, StructuralError

# ---------------------------------------------------------------------------
# The reference reader.
# ---------------------------------------------------------------------------

_SIGNS = {"+": 1, "-": -1}


class _Labels(dict):
    """Token -> the label it names, each distinct token parsed once."""

    def __missing__(self, token: str):
        label = self[token] = parse_label(token)
        return label


def _digits(tokens: list) -> list:
    joined = "".join(tokens)
    if tokens and not (joined.isdigit() and joined.isascii()):
        bad = next(t for t in tokens if not (t.isdigit() and t.isascii()))
        raise ValueError(f"invalid literal for int() with base 10: {bad!r}")
    return list(map(int, tokens))


def reference_parse_emap(text: str) -> Embedding:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "emap 1":
        raise FormatError("line 1: expected header 'emap 1'")
    declared = {}
    labels = _Labels()
    edges_by_id = {}
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
                    edges_by_id[eid] = (u, v, sign) if u < v else (v, u, sign)
                else:
                    edges_by_id[eid] = (u, v, sign) if vkey(u) < vkey(v) else (v, u, sign)
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
    key = {i: rank[u] * n + rank[v] for i, (u, v, _) in edges_by_id.items()}
    if len(set(key.values())) != m:
        raise FormatError("the same edge appears under two ids")
    if declared.get("V", n) != n:
        raise FormatError(f"V declares {declared['V']} vertices, edges mention {n}")
    order = sorted(key, key=key.__getitem__)
    canon = {i: e for e, i in enumerate(order)}
    ends = []
    for i in order:
        ends += divmod(key[i], n)
    sign = [edges_by_id[i][2] for i in order]
    incident = [[] for _ in vertices]
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
        k = cyc.index(incident[r][0])
        rot[r] = cyc[k:] + cyc[:k]
    missing = [u for u, cyc in zip(vertices, rot) if cyc is None]
    if missing:
        raise FormatError(f"no rotation for vertices {missing}")
    return Embedding(vertices, ends, rot, sign)


# ---------------------------------------------------------------------------
# The mutants and the comparison.
# ---------------------------------------------------------------------------

SHIPPED_CATALOG = Path(catalog.__file__).parent / "data" / "catalog"

# whitespace that str.split() or str.splitlines() cuts at and a single-space
# split does not, and a doubled space
WHITESPACE = ("\t", "\r", "\x85", "\u2028", "\x1c", "  ")
# tokens a mutation writes in: ids and labels the files use, ints that int()
# takes but the reader must not, tags, signs, the colon, a comment mark and
# whitespace
TOKENS = ("0", "1", "2", "7", "-1", "01", "٠", "0_1", "+0", "#", "#x", "+", "-", ":",
          "e", "r", "V", "E", "x", "emap") + WHITESPACE


def _mutate_lines(lines: list, rng: random.Random) -> None:
    i = rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, lines[i])
    elif kind == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        lines.insert(i, rng.choice(("", "   ", "#", "# note", "\t#e 0 0 1 +")))
    else:
        tokens = lines[i].split()
        if not tokens:
            return
        k = rng.randrange(len(tokens))
        op = rng.randrange(4)
        if op == 0:
            tokens[k] = rng.choice(TOKENS)
        elif op == 1:
            del tokens[k]
        elif op == 2:
            tokens.insert(k + rng.randrange(2), rng.choice(TOKENS))
        else:
            j = rng.randrange(len(tokens))
            tokens[k], tokens[j] = tokens[j], tokens[k]
        lines[i] = " ".join(tokens)


def _keep_layout(lines: list, rng: random.Random) -> None:
    """One mutation that keeps every line's tag, field count and spacing."""
    rows = {tag: [i for i, line in enumerate(lines) if line.startswith(tag + " ")]
            for tag in "er"}
    if not (rows["e"] and rows["r"]):
        return
    kind = rng.randrange(5)
    if kind == 2:  # swap two e lines, ids and all
        i, j = rng.choice(rows["e"]), rng.choice(rows["e"])
        lines[i], lines[j] = lines[j], lines[i]
        return
    i = rng.choice(rows["r" if kind == 3 else "e"])
    fields = lines[i].split(" ")
    if kind == 0 and len(fields) == 5:  # flip a sign
        fields[4] = {"+": "-", "-": "+"}.get(fields[4], fields[4])
    elif kind == 1 and len(fields) == 5:  # swap the two ends
        fields[2], fields[3] = fields[3], fields[2]
    elif kind == 3 and len(fields) > 4:  # swap two ids, or start at another id
        ids = fields[3:]
        if rng.randrange(2):
            j, k = rng.sample(range(len(ids)), 2)
            ids[j], ids[k] = ids[k], ids[j]
        else:
            k = rng.randrange(1, len(ids))
            ids = ids[k:] + ids[:k]
        fields[3:] = ids
    elif kind == 4 and len(fields) == 5:
        # put another label's token, this one's other spelling or this one
        # with whitespace glued on in place of a label token: here alone or
        # on every line that names it
        old = fields[rng.choice((2, 3))]
        other = lines[rng.choice(rows["r"])].split(" ")
        way = rng.randrange(4)
        if way == 0 and len(other) > 1:
            new = other[1]
        elif way == 1 and old.isdigit():
            new = "0" + old  # the same int label
        elif way == 2:
            new = "9" * 4301  # past int()'s default digit limit
        else:
            ws, k = rng.choice(WHITESPACE), rng.randrange(len(old) + 1)
            new = old[:k] + ws + old[k:]
        if rng.randrange(2):
            fields[fields.index(old, 2)] = new
        else:
            for tag, at in (("e", (2, 3)), ("r", (1,))):
                for j in rows[tag]:
                    named = lines[j].split(" ")
                    for f in at:
                        if named[f:f + 1] == [old]:
                            named[f] = new
                    lines[j] = " ".join(named)
            return
    lines[i] = " ".join(fields)


def mutant(text: str, rng: random.Random) -> str:
    """``text`` after one to three line or token mutations."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if lines:
            _mutate_lines(lines, rng)
    return "\n".join(lines) + "\n"


def layout_mutant(text: str, rng: random.Random) -> str:
    """``text`` after one to three mutations that keep the written layout.
    One time in six it loses its final newline, and then half the time one
    of its lines is repeated after its last."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        _keep_layout(lines, rng)
    if rng.randrange(6):
        return "\n".join(lines) + "\n"
    if rng.randrange(2):
        lines.append(rng.choice(lines))
    return "\n".join(lines)


def outcome(reader, text: str):
    """The core, certificate and written text of ``reader(text)``, each step
    given as the type and message of the error it raises when it raises one."""
    try:
        emb = reader(text)
    except (FormatError, StructuralError) as exc:
        return type(exc).__name__, str(exc)
    got = [(emb.labels, emb.ends, emb.rot, emb.sign)]
    for step in (emap.certify, serialize.write_emap):
        try:
            got.append(step(emb))
        except (FormatError, StructuralError) as exc:
            got.append((type(exc).__name__, str(exc)))
    return got


def sources() -> list:
    texts = [path.read_text(encoding="utf-8") for path in sorted(SHIPPED_CATALOG.glob("*.emap"))]
    for req in (planner.ParamRequest(n=14, t=3, kind="nonorientable"),
                planner.ParamRequest(n=13, t=4, kind="orientable")):
        texts.append(serialize.write_emap(planner.generate(req)[0]))
    return texts


@pytest.mark.parametrize("seed", range(4))
def test_mutants_read_as_the_reference_reads_them(seed):
    rng = random.Random(seed)
    texts = sources()
    assert len(texts) == 24
    read = 0
    for _ in range(1500):
        text = mutant(rng.choice(texts), rng)
        want = outcome(reference_parse_emap, text)
        assert outcome(serialize.parse_emap, text) == want, text
        read += isinstance(want, list)
    assert 0 < read < 1500  # both ways out of the reader are taken


@pytest.mark.parametrize("seed", range(4))
def test_layout_keeping_mutants_read_as_the_reference_reads_them(seed):
    rng = random.Random(seed)
    texts = sources()
    read = columns = 0
    for _ in range(1500):
        text = layout_mutant(rng.choice(texts), rng)
        want = outcome(reference_parse_emap, text)
        assert outcome(serialize.parse_emap, text) == want, text
        read += isinstance(want, list)
        columns += serialize._read_columns(text) is not None
    assert 0 < columns <= read < 1500  # the column path is taken, and refuses

"""emap text format: canonical writing, line-located parse errors, round trips."""

from __future__ import annotations

import pytest

from labelled import embedding
from quadforge import cli, emap, graphalg, search, serialize
from quadforge.errors import FormatError


def sample_embedding() -> emap.Embedding:
    g = graphalg.complete(4)
    rot = {
        0: ((0, 1), (0, 2), (0, 3)),
        1: ((0, 1), (1, 2), (1, 3)),
        2: ((0, 2), (2, 3), (1, 2)),
        3: ((0, 3), (1, 3), (2, 3)),
    }
    sig = {(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): -1, (1, 3): -1, (2, 3): -1}
    return embedding(g, rot, sig)


def test_round_trip_identity():
    emb = sample_embedding()
    again = serialize.parse_emap(serialize.write_emap(emb))
    assert again == emb


def test_write_is_canonical_and_stable():
    emb = sample_embedding()
    text = serialize.write_emap(emb)
    assert text == serialize.write_emap(serialize.parse_emap(text))
    assert text.startswith("emap 1\n")
    assert text.endswith("\n")


def test_round_trip_mixed_labels():
    g = emap.Graph.from_edges(
        [(0, "x"), (0, "y"), (0, "z"), (1, "x"), (1, "y"), (1, "z")])
    spec = search.WitnessSpec(graph=g, chi=2, orientable=True)
    res = search.search_exact(spec)
    assert res.status == "found"
    emb = res.embedding
    assert serialize.parse_emap(serialize.write_emap(emb)) == emb


def test_bad_header():
    with pytest.raises(FormatError, match="line 1"):
        serialize.parse_emap("emap 2\nV 1\nE 0\n")


def test_bad_sign_token():
    text = "emap 1\nV 2\nE 1\ne 0 0 1 *\nr 0 : 0\nr 1 : 0\n"
    with pytest.raises(FormatError, match="line 4"):
        serialize.parse_emap(text)


def test_duplicate_edge_id():
    text = ("emap 1\nV 3\nE 2\n"
            "e 0 0 1 +\ne 0 1 2 +\n"
            "r 0 : 0\nr 1 : 0 1\nr 2 : 1\n")
    with pytest.raises(FormatError, match="line 5"):
        serialize.parse_emap(text)


def test_missing_rotation():
    text = "emap 1\nV 2\nE 1\ne 0 0 1 +\nr 0 : 0\n"
    with pytest.raises(FormatError, match="1"):
        serialize.parse_emap(text)


def test_rotation_not_permutation():
    text = "emap 1\nV 2\nE 1\ne 0 0 1 +\nr 0 : 0 0\nr 1 : 0\n"
    with pytest.raises(FormatError):
        serialize.parse_emap(text)


def test_loop_rejected():
    text = "emap 1\nV 1\nE 1\ne 0 0 0 +\nr 0 : 0\n"
    with pytest.raises(FormatError):
        serialize.parse_emap(text)


def test_vertex_count_mismatch():
    text = "emap 1\nV 3\nE 1\ne 0 0 1 +\nr 0 : 0\nr 1 : 0\n"
    with pytest.raises(FormatError):
        serialize.parse_emap(text)


# One case per refusal of ``parse_emap``, each with the fragment of its message.
# Every case is the one-edge file "e 0 0 1 +", "r 0 : 0", "r 1 : 0" with one fault.
GOOD_TEXT = "emap 1\nV 2\nE 1\ne 0 0 1 +\nr 0 : 0\nr 1 : 0\n"
REFUSALS = {
    "unknown edge id": (GOOD_TEXT.replace("r 1 : 0", "r 1 : 7"),
                        "rotation at 1 references unknown edge id 7"),
    "duplicate rotation": (GOOD_TEXT + "r 1 : 0\n",
                           "line 7: duplicate rotation for vertex 1"),
    "rotation of an unmentioned vertex": (GOOD_TEXT + "r 2 :\n",
                                          "rotation given for unknown vertex 2"),
    "missing colon": (GOOD_TEXT.replace("r 1 : 0", "r 1 0"),
                      "line 6: expected ':' after vertex"),
    "unknown tag": (GOOD_TEXT + "x 1\n", "line 7: unknown record tag 'x'"),
    "non-integer id": (GOOD_TEXT.replace("e 0 0", "e a 0"),
                       "line 4: malformed record: invalid literal for int()"),
    "short edge line": (GOOD_TEXT.replace("e 0 0 1 +", "e 0 0 1"),
                        "line 4: malformed record: list index out of range"),
    # ids and counts are ASCII digits, as written, though int() takes more
    "id with an underscore": (GOOD_TEXT.replace("e 0 0", "e 0_0 0"),
                              "line 4: malformed record: invalid literal for int() with base 10: '0_0'"),
    "id with a plus sign": (GOOD_TEXT.replace("e 0 0", "e +0 0"),
                            "line 4: malformed record: invalid literal for int() with base 10: '+0'"),
    "id in Arabic-Indic digits": (GOOD_TEXT.replace("e 0 0", "e \u0660 0"),
                                  "line 4: malformed record: invalid literal for int()"),
    "rotation id with a plus sign": (GOOD_TEXT.replace("r 1 : 0", "r 1 : +0"),
                                     "line 6: malformed record: invalid literal for int()"),
    "count with an underscore": (GOOD_TEXT.replace("V 2", "V 0_2"),
                                 "line 2: malformed record: invalid literal for int() with base 10: '0_2'"),
    "extra field on an edge line": (GOOD_TEXT.replace("e 0 0 1 +", "e 0 0 1 + junk"),
                                    "line 4: extra field 'junk'"),
    "extra field on the vertex count": (GOOD_TEXT.replace("V 2", "V 2 7"),
                                        "line 2: extra field '7'"),
    "extra field on the edge count": (GOOD_TEXT.replace("E 1", "E 1 1"),
                                      "line 3: extra field '1'"),
    "repeated vertex count": (GOOD_TEXT.replace("V 2", "V 9\nV 2"), "line 3: duplicate V line"),
    "repeated edge count": (GOOD_TEXT.replace("E 1", "E 7\nE 1"), "line 4: duplicate E line"),
    "edge count": (GOOD_TEXT.replace("E 1", "E 2"), "E declares 2 edges, file lists 1"),
    "edge under two ids": (GOOD_TEXT.replace("e 0 0 1 +", "e 0 0 1 +\ne 1 1 0 -")
                           .replace("E 1", "E 2"),
                           "the same edge appears under two ids"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_parse_refusal_names_its_fault(case):
    text, fragment = REFUSALS[case]
    with pytest.raises(FormatError) as err:
        serialize.parse_emap(text)
    assert fragment in str(err.value)


def test_refused_file_exits_2_from_verify(tmp_path, capsys):
    bad = tmp_path / "bad.emap"
    for case, (text, fragment) in REFUSALS.items():
        bad.write_text(text, encoding="utf-8")
        assert cli.main(["verify", str(bad)]) == 2, case
        assert fragment in capsys.readouterr().err, case


def test_comment_and_blank_lines_ignored():
    emb = sample_embedding()
    text = serialize.write_emap(emb)
    padded = text.replace("emap 1\n", "emap 1\n# a comment\n\n")
    assert serialize.parse_emap(padded) == emb


@pytest.mark.parametrize("label", ["3", "-12", "007", "a b", "a\tb", ":", ""])
def test_digit_only_string_label_rejected(label):
    # written as is, a digit-only label would be read back as an int, and an
    # empty one, one with white space or ":" would not be read back at all
    emb = search.search_exact(search.WitnessSpec(
        graph=emap.Graph.from_edges([(0, label), (0, "y"), (1, label), (1, "y")]),
        chi=2, orientable=True)).embedding
    with pytest.raises(FormatError, match="cannot be serialized"):
        serialize.write_emap(emb)


@pytest.mark.parametrize("label", ["--5", "²"])
def test_label_that_is_no_ascii_integer_round_trips(label):
    # one integer rule, ASCII -?[0-9]+, for writing and reading labels
    emb = search.search_exact(search.WitnessSpec(
        graph=emap.Graph.from_edges([(0, label), (0, "y"), (1, label), (1, "y")]),
        chi=2, orientable=True)).embedding
    text = serialize.write_emap(emb)
    again = serialize.parse_emap(text)
    assert again == emb and label in again.graph.vertices
    assert serialize.write_emap(again) == text

"""End-to-end command-line behavior and exit-code contract."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import nx_oracle
from quadforge import catalog, cli, emap, planner, search, serialize, surgery


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_certified_file(tmp_path, capsys):
    out = tmp_path / "q.emap"
    code, stdout, _ = run(capsys, "gen", "--n", "10", "--t", "3",
                          "--kind", "nonorientable", "--out", str(out))
    assert code == 0
    assert "n=10" in stdout and "t=3" in stdout
    assert "face_simple=true" in stdout
    emb = serialize.parse_emap(out.read_text())
    assert len(emb.graph.vertices) == 10


def test_gen_inadmissible_cites_congruence(capsys):
    code, _, stderr = run(capsys, "gen", "--n", "6", "--t", "0",
                          "--kind", "orientable")
    assert code == 1
    assert "mod 4" in stderr


def test_gen_plan_only_refuses_an_inadmissible_request(capsys):
    code, stdout, stderr = run(capsys, "gen", "--n", "6", "--t", "0",
                               "--kind", "orientable", "--plan-only")
    assert (code, stdout) == (1, "")
    assert "violates the congruence" in stderr and "mod 4" in stderr


@pytest.mark.parametrize("n, t, kind, record, certified", [
    # the octahedron on the Klein bottle: face-simple, but t = 3 > n - 4
    (6, 3, "nonorientable", "klein_6_3", ["orientable=false", "face_simple=true", "minimal=false"]),
    # the 4-cycle on the sphere: its two faces share all four edges
    (4, 2, "orientable", "c4_sphere", ["orientable=true", "face_simple=false"]),
])
def test_gen_reaches_the_specials(tmp_path, capsys, n, t, kind, record, certified):
    out = tmp_path / "q.emap"
    argv = ["gen", "--n", str(n), "--t", str(t), "--kind", kind]
    code, stdout, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    assert stdout.startswith(f"base {record} (n={n}, t={t})\n")
    assert set(certified) <= set(stdout.splitlines())
    assert serialize.parse_emap(out.read_text()) == catalog.get_witness(record)
    code, stdout, _ = run(capsys, *argv, "--plan-only")
    assert (code, stdout.strip()) == (0, f"base {record} (n={n}, t={t})")


def test_gen_plan_only(capsys):
    code, stdout, _ = run(capsys, "gen", "--n", "14", "--t", "3",
                          "--kind", "nonorientable", "--plan-only")
    assert code == 0
    assert "base" in stdout
    assert "emap 1" not in stdout


@pytest.mark.parametrize("n, t, kind", [(6, 3, "nonorientable"), (14, 3, "nonorientable")])
def test_gen_plan_only_ends_with_a_newline(capsys, n, t, kind):
    code, stdout, _ = run(capsys, "gen", "--n", str(n), "--t", str(t), "--kind", kind,
                          "--plan-only")
    req = planner.ParamRequest(n=n, t=t, kind=kind)
    assert (code, stdout) == (0, planner.plan_text(planner.plan(req)) + "\n")


@pytest.mark.parametrize("n, t, kind", [(4002, 3, "nonorientable"), (7937, 2, "orientable")])
def test_gen_plan_only_prints_a_deep_plan(capsys, n, t, kind):
    # about 1,000 induction steps: as deep as Python's default recursion limit
    code, stdout, _ = run(capsys, "gen", "--n", str(n), "--t", str(t), "--kind", kind,
                          "--plan-only")
    nodes = planner.plan(planner.ParamRequest(n=n, t=t, kind=kind))[::-1]
    lines = stdout.splitlines()
    assert (code, len(lines)) == (0, len(nodes)) and len(nodes) > 980
    for depth, (line, node) in enumerate(zip(lines, nodes)):
        assert line == "  " * depth + line.lstrip()
        assert line.endswith(f"(n={node.n}, t={node.t})")


def test_gen_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.emap"
    b = tmp_path / "b.emap"
    for path in (a, b):
        code, _, _ = run(capsys, "gen", "--n", "9", "--t", "0",
                         "--kind", "nonorientable", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_certifies_once(capsys, monkeypatch):
    certified, generated = [], []
    certify, generate = emap.certify, planner.generate
    monkeypatch.setattr(emap, "certify", lambda emb: certified.append(emb) or certify(emb))
    monkeypatch.setattr(planner, "generate",
                        lambda req: generated.append(generate(req)) or generated[-1])
    code, stdout, _ = run(capsys, "--quiet", "gen", "--n", "14", "--t", "3",
                          "--kind", "nonorientable")
    assert code == 0
    assert len(certified) == 1
    assert stdout == generated[0][1].to_text()


def test_verify_expectations(tmp_path, capsys):
    out = tmp_path / "q.emap"
    run(capsys, "gen", "--n", "8", "--t", "0", "--kind", "nonorientable",
        "--out", str(out))
    code, _, _ = run(capsys, "verify", str(out),
                     "--expect", "orientable=false", "--expect", "t=0")
    assert code == 0
    code, _, stderr = run(capsys, "verify", str(out),
                          "--expect", "orientable=true")
    assert code == 1
    assert "mismatch" in stderr


def test_verify_does_not_rewrite_input(tmp_path, capsys):
    out = tmp_path / "q.emap"
    run(capsys, "gen", "--n", "8", "--t", "0", "--kind", "nonorientable",
        "--out", str(out))
    before = out.read_bytes()
    run(capsys, "verify", str(out))
    assert out.read_bytes() == before


def test_malformed_emap_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.emap"
    bad.write_text("emap 1\nV 2\nE 1\ne 0 0 1 *\nr 0 : 0\nr 1 : 0\n")
    code, _, stderr = run(capsys, "verify", str(bad))
    assert code == 2
    assert "line 4" in stderr


def test_missing_file_is_io_error(capsys):
    code, _, stderr = run(capsys, "verify", "/nonexistent/q.emap")
    assert code == 2


def test_search_spec_file(tmp_path, capsys):
    spec = tmp_path / "k4.spec"
    spec.write_text("graph K(4)\nchi 1\norientable false\n"
                    "predicate nearly_face_simple_except_some_universal\n")
    code, stdout, _ = run(capsys, "search", "--spec", str(spec))
    assert code == 0
    assert "emap 1" in stdout
    assert "quadrangular=true" in stdout


def test_search_unsatisfiable(tmp_path, capsys):
    spec = tmp_path / "k4fs.spec"
    spec.write_text("graph K(4)\nchi 1\norientable false\n"
                    "predicate face_simple\n")
    code, _, stderr = run(capsys, "search", "--spec", str(spec))
    assert code == 1
    assert "no witness" in stderr


BAD_SPEC_FILES = [
    ("graph K(4)\n", "needs both a graph and a chi line"),
    ("graph K(4)\nchi x\n", "line 2"),
    # chi is read by the one label rule: ASCII [-]digits only
    ("graph K(4)\nchi +0_1\n", "line 2: chi must be an integer, got '+0_1'"),
    ("graph K(4)\nchi \u0661\n", "line 2: chi must be an integer, got '\u0661'"),
    ("graph K(4)\nchi 1_0\n", "line 2: chi must be an integer, got '1_0'"),
    ("graph K(x)\nchi 1\n", "line 1"),
    ("chi 1\n# K4\ngraph K(4\n", "line 3"),
    ("graph K(4)\nchi 1\npredicate nearly_face_simple_except --5\n", "line 3"),
    ("graph K(4)\nchi 1\npredicate nearly_face_simple_except ²\n", "line 3"),
    ("graph K(4)\nchi 1\npredicate\n", "line 3"),
    # a setting given twice is refused; predicate lines repeat freely
    ("graph K(5)\ngraph K(4)\nchi 1\nchi 0\n", "line 2: duplicate key 'graph'"),
    ("graph K(4)\nchi 1\nchi 0\n", "line 3: duplicate key 'chi'"),
    ("graph K(4)\nchi 1\norientable false\norientable either\n",
     "line 4: duplicate key 'orientable'"),
    # one wrong number of labels per argument shape, and an unknown name
    ("graph K(4)\nchi 1\npredicate face_simple 0\n", "line 3: face_simple takes no arguments"),
    ("graph K(4)\nchi 1\npredicate nearly_face_simple_except 0 1\n",
     "line 3: nearly_face_simple_except takes one vertex"),
    ("graph K(4)\nchi 1\npredicate has_handle_site 0 1 2\n",
     "line 3: has_handle_site takes a 4-cycle"),
    ("graph K(4)\nchi 1\npredicate double_handle 0 1 2 3\n",
     "line 3: double_handle takes two 4-cycles"),
    ("graph K(4)\nchi 1\npredicate made_up\n", "line 3: unknown predicate 'made_up'"),
]


def test_search_bad_spec_file(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    for text, where in BAD_SPEC_FILES:
        spec.write_text(text)
        code, _, stderr = run(capsys, "search", "--spec", str(spec))
        assert (code, "format error" in stderr, where in stderr) == (2, True, True), text


def spec_line(pred: tuple) -> str:
    """A predicate tuple spelled as a spec file line."""
    name, *args = pred
    labels = [v for arg in args for v in (arg if isinstance(arg, tuple) else (arg,))]
    return " ".join(["predicate", name, *map(str, labels)])


def test_catalog_predicates_read_back_from_spec_lines():
    for rec in catalog.record_table():
        lines = [f"graph phi({rec.target})" if rec.target else "graph K(4)",
                 f"chi {rec.chi}", *map(spec_line, rec.predicates)]
        spec = cli._parse_spec_file("".join(line + "\n" for line in lines))
        # spec_hash reads the repr, so equal tuples are not enough
        assert repr(spec.predicates) == repr(rec.predicates), rec.name


@pytest.mark.parametrize("expr, code", [
    # a malformed graph line is a format error
    ("K(\x00)", 2), ("(" * 300 + "K(4)" + ")" * 300, 2), ("K(x)", 2), ("frobnicate(3)", 2),
    ("subdivide(K(4), 0-1, é)", 2),
    # a well-formed one that cannot be built is a domain error
    ("delete(K(4), 0-9)", 1), ("phi(nope)", 1),
])
def test_search_spec_graph_exit_codes(tmp_path, capsys, expr, code):
    spec = tmp_path / "graph.spec"
    spec.write_text(f"graph {expr}\nchi 1\n")
    got, _, stderr = run(capsys, "search", "--spec", str(spec))
    assert (got, ("format error: line 1" if code == 2 else "error:") in stderr) == (code, True)


def test_search_method_is_exact_or_random(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--spec", str(tmp_path / "any.spec"), "--method", "anneal"])
    assert exc.value.code == 2
    assert "invalid choice: 'anneal'" in capsys.readouterr().err


def test_surgery_diamond_via_files(tmp_path, capsys):
    a = tmp_path / "a.emap"
    b = tmp_path / "b.emap"
    run(capsys, "kmn", "--m", "6", "--n", "3", "--out", str(a))
    run(capsys, "gen", "--n", "7", "--t", "1", "--kind", "nonorientable",
        "--out", str(b))
    # no shared labels other than along the rims: relabeled inputs needed;
    # here we just exercise the error path for a degree mismatch
    code, _, stderr = run(capsys, "surgery", "diamond", str(a), "0",
                          str(b), "0")
    assert code == 1


def certificate(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


def test_surgery_diamond_of_two_tori(tmp_path, capsys):
    a = tmp_path / "a.emap"
    b = tmp_path / "b.emap"
    k63 = catalog.build_kmn(6, 3)
    a.write_text(serialize.write_emap(k63))
    b.write_text(serialize.write_emap(
        surgery.relabel_embedding(k63, {v: v + 100 for v in k63.graph.vertices})))
    code, stdout, _ = run(capsys, "--quiet", "surgery", "diamond", str(a), "0", str(b), "100")
    assert code == 0
    cert = certificate(stdout)
    # chi adds up: 0 + 0 - 2; the rims are identified, 9 + 9 - 3 - 2 vertices
    assert (cert["chi"], cert["n"], cert["quadrangular"]) == ("-2", "13", "true")
    # the second summand's vertices off the rim keep their labels
    code, stdout, _ = run(capsys, "surgery", "diamond", str(a), "0", str(b), "100",
                          "--offset", "1", "--reflect")
    assert code == 0
    assert "r 101 :" in stdout and certificate(stdout)["chi"] == "-2"
    # without the relabelling, the vertices off the rim collide
    code, _, stderr = run(capsys, "surgery", "diamond", str(a), "0", str(a), "0")
    assert code == 1
    assert "label collision" in stderr


def test_surgery_handle_and_degree2_moves_via_files(tmp_path, capsys):
    src = tmp_path / "phi.emap"
    src.write_text(serialize.write_emap(catalog.get_witness("phi_8_4_star")))
    out = tmp_path / "out.emap"
    code, stdout, _ = run(capsys, "surgery", "handle", str(src), "4", "5", "6", "7",
                          "--out", str(out))
    assert code == 0
    assert (certificate(stdout)["t"], certificate(stdout)["chi"]) == ("0", "-6")
    code, _, stderr = run(capsys, "surgery", "handle", str(out), "4", "5", "6", "7")
    assert code == 1 and "no handle site" in stderr
    face = catalog.get_witness("phi_8_4_star").faces()[0].vertices
    code, stdout, _ = run(capsys, "surgery", "insert2", str(src), *map(str, face),
                          str(face[0]), "--out", str(out))
    assert code == 0 and "inserted vertex 8" in stdout
    code, stdout, _ = run(capsys, "surgery", "delete2", str(out), "8")
    assert code == 0
    assert certificate(stdout)["n"] == "8"
    code, _, stderr = run(capsys, "surgery", "delete2", str(src), "0")
    assert code == 1 and "expected 2" in stderr
    code, _, stderr = run(capsys, "surgery", "insert2", str(src), "0", "1", "2", "3", "0")
    assert code == 1 and "no face matches" in stderr
    code, _, _ = run(capsys, "surgery", "delete2", str(tmp_path / "missing.emap"), "0")
    assert code == 2


def test_dual_output(tmp_path, capsys):
    out = tmp_path / "k.emap"
    run(capsys, "kmn", "--m", "6", "--n", "3", "--out", str(out))
    code, stdout, _ = run(capsys, "dual", str(out))
    assert code == 0
    assert stdout.startswith("faces 9")
    assert len(stdout.splitlines()) == 1 + 18


def test_dual_matches_the_networkx_rendering(tmp_path, capsys):
    # the order of parallel dual edges is pinned too: ten catalog duals have
    # some, and the one face of a star on the sphere gives three parallel loops
    out, star = tmp_path / "q.emap", tmp_path / "star.emap"
    assert run(capsys, "--quiet", "gen", "--n", "30", "--t", "3",
               "--kind", "nonorientable", "--out", str(out))[0] == 0
    g = emap.Graph.from_edges([(0, 1), (0, 2), (0, 10)])
    star.write_text(serialize.write_emap(emap.Embedding(
        g, {v: g._incidence[v] for v in g.vertices}, {e: 1 for e in g.edges})))
    files = sorted(catalog.catalog_dir().glob("*.emap")) + [out, star]
    assert len(files) == 24
    for path in files:
        emb = serialize.parse_emap(path.read_text())
        code, stdout, _ = run(capsys, "dual", str(path))
        assert (code, stdout) == (0, nx_oracle.dual_text(emb)), path.name
        cert = emap.certify(emb)
        lines = stdout.splitlines()
        # F = chi - V + E faces, and one dual edge per primal edge
        assert lines[0] == f"faces {cert.chi - cert.n + cert.edges}", path.name
        assert len(lines) - 1 == cert.edges, path.name


def test_kmn_certificate(capsys):
    code, stdout, _ = run(capsys, "kmn", "--m", "6", "--n", "4")
    assert code == 0
    assert "chi=-2" in stdout
    assert "orientable=true" in stdout


def test_sweep_guard(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(search, "candidate_graphs", lambda n, chi: calls.append(n) or iter(()))
    code, stdout, stderr = run(capsys, "sweep", "--surface", "sphere", "--max-n", "9")
    assert code == 1
    assert "capped" in stderr
    assert stdout == "" and calls == []


def test_sweep_projective(capsys):
    code, stdout, _ = run(capsys, "sweep", "--surface", "projective",
                          "--max-n", "5")
    assert code == 0
    assert "n=5 face_simple_quadrangulations=0" in stdout


def test_quiet_gen_prints_only_certificate(capsys):
    code, stdout, _ = run(capsys, "--quiet", "gen", "--n", "8", "--t", "0",
                          "--kind", "nonorientable")
    assert code == 0
    lines = stdout.splitlines()
    assert all("=" in line for line in lines)
    assert len(lines) == 10


def test_catalog_list_and_verify(capsys):
    code, stdout, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "phi_4_0" in stdout
    code, _, _ = run(capsys, "catalog", "verify")
    assert code == 0


@pytest.fixture
def catalog_copy(tmp_path, monkeypatch):
    """A private copy of the shipped catalog, selected through QUADFORGE_CATALOG."""
    root = tmp_path / "catalog"
    shutil.copytree(catalog.catalog_dir(), root)
    monkeypatch.setenv(catalog.CATALOG_ENV, str(root))
    catalog.clear_cache()
    yield root
    monkeypatch.delenv(catalog.CATALOG_ENV)
    catalog.clear_cache()


def test_catalog_build_reports_count(catalog_copy, capsys):
    code, stdout, _ = run(capsys, "catalog", "build")
    assert code == 0
    assert f"built {len(catalog.record_table())} witnesses" in stdout


def test_catalog_verify_fails_on_altered_witness(catalog_copy, capsys):
    path = catalog_copy / "phi_5_0_star.emap"
    lines = path.read_text().splitlines(True)
    i = next(i for i, line in enumerate(lines) if line.startswith("e "))
    lines[i] = lines[i][:-2] + ("-" if lines[i][-2] == "+" else "+") + "\n"
    path.write_text("".join(lines))
    code, stdout, stderr = run(capsys, "catalog", "verify")
    assert code == 1
    assert "phi_5_0_star" in stderr
    assert "catalog verified" not in stdout


@pytest.mark.parametrize("name, edit", [
    ("phi_4_0", lambda line: ""),
    ("phi_5_0_star", lambda line: line.rstrip("\n") + " extra\n"),
], ids=["line-deleted", "five-fields"])
def test_catalog_verify_fails_without_a_manifest_line(catalog_copy, capsys, name, edit):
    manifest = catalog_copy / "manifest.txt"
    manifest.write_text("".join(edit(line) if line.startswith(name + " ") else line
                                for line in manifest.read_text().splitlines(True)))
    with open(catalog_copy / f"{name}.emap", "a") as f:
        f.write("# an edit the manifest cannot vouch for\n")
    code, stdout, stderr = run(capsys, "catalog", "verify")
    assert code == 1
    assert f"{name}: no well-formed manifest line" in stderr
    assert "catalog verified" not in stdout


def test_a_manifest_that_is_not_utf8_is_named_and_nothing_is_written(catalog_copy, capsys):
    manifest = catalog_copy / "manifest.txt"
    with open(manifest, "ab") as f:
        f.write(b"\xff")
    before = manifest.read_bytes()
    code, stdout, stderr = run(capsys, "catalog", "verify")
    assert (code, "manifest.txt" in stderr, "catalog verified" in stdout) == (1, True, False)
    # a witness searched again is not written, since no manifest line could vouch for it
    witness = catalog_copy / "phi_4_0.emap"
    witness.unlink()
    code, _, stderr = run(capsys, "gen", "--n", "8", "--t", "0", "--kind", "nonorientable")
    assert (code, "manifest.txt" in stderr) == (1, True)
    assert not witness.exists() and manifest.read_bytes() == before


@pytest.mark.parametrize("argv, code, message", [
    (["verify", "BAD"], 2, "format error: "),
    (["dual", "BAD"], 2, "format error: "),
    (["surgery", "delete2", "BAD", "0"], 2, "format error: "),
    (["search", "--spec", "BAD"], 2, "format error: "),
    (["catalog", "verify"], 1, "error: phi_4_0: "),
    (["gen", "--n", "8", "--t", "0", "--kind", "nonorientable"], 1,
     "error: phi_4_0: witness file corrupt: "),
], ids=["verify", "dual", "surgery-delete2", "search-spec", "catalog-verify", "gen"])
def test_a_file_that_is_not_utf8_is_refused(catalog_copy, tmp_path, capsys, argv, code, message):
    bad = b"emap 1\nV \xff\n"
    (tmp_path / "bad.emap").write_bytes(bad)
    (catalog_copy / "phi_4_0.emap").write_bytes(bad)
    argv = [str(tmp_path / "bad.emap") if arg == "BAD" else arg for arg in argv]
    got, _, stderr = run(capsys, *argv)
    assert got == code
    assert stderr.startswith(message) and "can't decode byte 0xff" in stderr


def _fresh_python(script: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """``script`` run with ``args`` in a new interpreter, with ``env`` added to its environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


SHIPPED = Path(catalog.__file__).parent / "data" / "catalog"


@pytest.mark.parametrize("argv, expect", [
    # an orientable chain: its blocks carry the string labels x and z
    (("gen", "--n", "21", "--t", "4", "--kind", "orientable"), "quadrangular=true"),
    (("verify", str(SHIPPED / "phi_7_2_plus.emap")), "quadrangular=true"),
    # the faces are numbered in the order the ranks trace them
    (("dual", str(SHIPPED / "phi_11_4_plus_star.emap")), "via 0-x"),
])
def test_output_does_not_depend_on_the_hash_seed(argv, expect):
    script = "import sys\nfrom quadforge import cli\nsys.exit(cli.main(sys.argv[1:]))"
    outputs = [_fresh_python(script, *argv, PYTHONHASHSEED=seed).stdout for seed in ("0", "1")]
    assert expect in outputs[0] and outputs[0] == outputs[1]


def test_every_subcommand_runs_without_networkx(tmp_path):
    # networkx is only the tests' oracle: with it unimportable, each command
    # exits as it does with it
    script = textwrap.dedent("""
        import sys
        sys.modules["networkx"] = None  # `import networkx` raises ImportError
        from quadforge import catalog, cli, serialize, surgery
        d = sys.argv[1]
        q, a, b, phi, out, spec = (f"{d}/{name}" for name in
                                   ("q.emap", "a.emap", "b.emap", "phi.emap", "out.emap", "k4.spec"))
        k63 = catalog.build_kmn(6, 3)
        with open(b, "w") as f:
            f.write(serialize.write_emap(surgery.relabel_embedding(
                k63, {v: v + 100 for v in k63.graph.vertices})))
        with open(phi, "w") as f:
            f.write(serialize.write_emap(catalog.get_witness("phi_8_4_star")))
        with open(spec, "w") as f:
            f.write("graph K(4)\\nchi 1\\norientable false\\n")
        face = [str(v) for v in catalog.get_witness("phi_8_4_star").faces()[0].vertices]
        commands = [
            ["gen", "--n", "14", "--t", "3", "--kind", "nonorientable", "--out", q],
            ["verify", q],
            ["dual", q],
            ["kmn", "--m", "6", "--n", "3", "--out", a],
            ["surgery", "diamond", a, "0", b, "100"],
            ["surgery", "handle", phi, "4", "5", "6", "7"],
            ["surgery", "insert2", phi, *face, face[0], "--out", out],
            ["surgery", "delete2", out, "8"],
            ["catalog", "list"],
            ["catalog", "verify"],
            ["search", "--spec", spec],
            ["sweep", "--surface", "projective", "--max-n", "6"],
        ]
        for argv in commands:
            assert cli.main(["--quiet", *argv]) == 0, argv
        assert sys.modules["networkx"] is None
    """)
    assert "n=6 face_simple_quadrangulations=1" in _fresh_python(script, str(tmp_path)).stdout


def test_gen_and_verify_leave_networkx_unloaded(tmp_path):
    script = textwrap.dedent("""
        import sys
        from quadforge import cli
        out = sys.argv[1]
        assert cli.main(["--quiet", "gen", "--n", "14", "--t", "3",
                         "--kind", "nonorientable", "--out", out]) == 0
        assert cli.main(["verify", out]) == 0
        assert cli.main(["dual", out]) == 0
        assert "networkx" not in sys.modules, "gen, verify or dual imported networkx"
    """)
    assert "faces " in _fresh_python(script, str(tmp_path / "q.emap")).stdout


def test_sweep_leaves_networkx_unloaded():
    script = textwrap.dedent("""
        import sys
        from quadforge import cli
        assert cli.main(["sweep", "--surface", "projective", "--max-n", "6"]) == 0
        assert "networkx" not in sys.modules, "sweep imported networkx"
    """)
    assert "n=6 face_simple_quadrangulations=1" in _fresh_python(script).stdout


def test_gen_and_verify_import_no_dataclasses_inspect_or_hashlib(tmp_path):
    # Each costs a cold `gen` milliseconds of import; only the catalog's
    # manifest checks hash.  Modules a site hook loaded before are not counted.
    script = textwrap.dedent("""
        import sys
        bare = set(sys.modules)
        from quadforge import cli
        out = sys.argv[1]
        assert cli.main(["--quiet", "gen", "--n", "14", "--t", "3",
                         "--kind", "nonorientable", "--out", out]) == 0
        assert cli.main(["verify", out]) == 0
        added = {"dataclasses", "inspect", "hashlib"} & (set(sys.modules) - bare)
        assert not added, f"gen or verify imported {sorted(added)}"
        assert cli.main(["catalog", "verify"]) == 0
        assert "hashlib" in sys.modules
    """)
    assert "catalog verified" in _fresh_python(script, str(tmp_path / "q.emap")).stdout


def test_forced_sweep_past_the_cap_fails_at_once(capsys, monkeypatch):
    # `--force` no longer exists: the parser rejects it before any enumeration.
    calls = []
    monkeypatch.setattr(search, "candidate_graphs", lambda n, chi: calls.append(n) or iter(()))
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--surface", "sphere", "--max-n", "9", "--force"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in captured.err
    assert captured.out == "" and calls == []


def test_search_has_no_workers_option(tmp_path, capsys):
    # `--workers` no longer exists: the parser rejects it before any search.
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--spec", str(tmp_path / "any.spec"), "--method", "random",
                  "--workers", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in captured.err
    assert captured.out == ""


def test_random_search_prints_the_same_witness_every_run(tmp_path, capsys):
    text = ("graph phi(phi_7_2_plus_star)\nchi -2\norientable true\n"
            "predicate nearly_face_simple_except x\n")
    spec = tmp_path / "phi.spec"
    spec.write_text(text)
    argv = ["search", "--spec", str(spec), "--method", "random",
            "--seed", "0", "--restarts", "8"]
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second
    res = search.search_randomized(cli._parse_spec_file(text), seed=0, restarts=8)
    assert res.status == "found"
    witness = res.embedding
    assert first == (0, serialize.write_emap(witness) + emap.certify(witness).to_text(), "")


@pytest.mark.parametrize("flag", ["--restarts", "--budget"])
def test_search_restarts_and_workers_are_at_least_one(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--spec", str(tmp_path / "any.spec"), "--method", "random",
                  flag, "0"])
    assert exc.value.code == 2
    assert "must be at least 1, got 0" in capsys.readouterr().err

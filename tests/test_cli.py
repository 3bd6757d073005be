import json
import os
import subprocess
import sys

import pytest

from gradedlie import onerelator
from gradedlie.cli import main
from gradedlie.graphalg import GraphError
from gradedlie.presented import load_presentation


@pytest.fixture
def heisenberg_file(tmp_path):
    f = tmp_path / "heisenberg.lie"
    f.write_text(
        "field = Q\ngen a weight 1\ngen b weight 1\nrel [a,[a,b]]\nrel [b,[a,b]]\n"
    )
    return str(f)


@pytest.fixture
def c4_file(tmp_path):
    f = tmp_path / "c4.graph"
    f.write_text("vertices a b c d\nedge a b\nedge b c\nedge c d\nedge d a\n")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dims(capsys, heisenberg_file):
    code, out = run(capsys, "--max-degree", "4", "dims", heisenberg_file)
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["data"]["dims"] == ["2", "1", "0", "0"]


def test_hall(capsys):
    code, out = run(capsys, "--max-degree", "5", "hall", "--gens", "x,y")
    assert code == 0
    report = json.loads(out)
    assert report["data"]["counts"] == ["2", "1", "2", "3", "6"]


def test_hilbert(capsys, tmp_path):
    f = tmp_path / "mn.lie"
    f.write_text("field = Q\ngen a weight 1\ngen b weight 1\ngen x weight 1\nrel [a,b]\n")
    code, out = run(capsys, "--max-degree", "5", "hilbert", str(f))
    assert code == 0
    report = json.loads(out)
    assert report["data"]["coefficients"] == ["1", "3", "8", "21", "55", "144"]


def test_hopf_and_homology(capsys, heisenberg_file):
    code, out = run(capsys, "--max-degree", "5", "hopf", heisenberg_file)
    assert code == 0
    report = json.loads(out)
    assert report["data"]["h2_total"] == "2"
    code, out = run(
        capsys, "--max-degree", "4", "--hom-bound", "2", "homology", heisenberg_file
    )
    assert code == 0
    report = json.loads(out)
    assert report["data"]["table"]["0"] == {"0": "1"}


@pytest.fixture
def tree_file(tmp_path):
    f = tmp_path / "tree.graph"
    f.write_text("vertices a b c\nedge a b\nedge b c\n")
    return str(f)


def test_raag_chordal_exit_codes(capsys, c4_file, tree_file):
    # either answer is verified, with its certificate: exit 0 and ok true
    code, out = run(capsys, "raag", "chordal", c4_file)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["data"]["chordal"] is False
    assert len(report["data"]["induced_cycle"]) == 4

    code, out = run(capsys, "raag", "chordal", tree_file)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["data"]["chordal"] is True
    assert sorted(report["data"]["peo"]) == ["a", "b", "c"]


def test_raag_verdict_exit_codes(capsys, c4_file, tree_file):
    code, out = run(capsys, "raag", "verdict", c4_file)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["data"]["coherent"] is False
    assert len(report["data"]["cycle"]) == 4

    code, out = run(capsys, "raag", "verdict", tree_file)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["data"]["coherent"] is True
    assert "decomposition" in report["data"]


def test_raag_resolve_and_verdict(capsys, c4_file):
    code, out = run(capsys, "--max-degree", "4", "raag", "resolve", c4_file)
    assert code == 0  # resolution is exact even for non-chordal graphs
    report = json.loads(out)
    assert report["data"]["exact"] and report["data"]["euler_ok"]
    # per weight, [dim P_j, rank d_j]; C4 has cliques of size <= 2
    ranks = report["data"]["ranks"]
    assert ranks[:3] == [[["1", "0"]], [["4", "0"], ["4", "4"]], [["12", "0"], ["16", "12"], ["4", "4"]]]
    assert len(ranks) == 5

    code, out = run(capsys, "raag", "verdict", c4_file)
    assert code == 0
    assert json.loads(out)["data"]["coherent"] is False


def test_onerelator_decompose(capsys, tmp_path):
    f = tmp_path / "onerel.lie"
    f.write_text("field = Q\ngen x weight 1\ngen y weight 1\nrel [x,[x,y]]\n")
    code, out = run(capsys, "--max-degree", "8", "onerelator", "decompose", str(f))
    assert code == 0
    report = json.loads(out)
    assert report["data"]["dims_match"] is True
    assert report["data"]["base_free"] is True


def test_graph_verify(capsys, tmp_path):
    (tmp_path / "k2.lie").write_text(
        "field = Q\ngen a weight 1\ngen b weight 1\nrel [a,b]\n"
    )
    (tmp_path / "k1.lie").write_text("field = Q\ngen x weight 1\n")
    (tmp_path / "zero.lie").write_text("field = Q\n")
    g = tmp_path / "mn.graph"
    g.write_text("vertex vM k2.lie\nvertex vN k1.lie\nedge e1 vM vN forest zero.lie\n")
    code, out = run(
        capsys, "--max-degree", "6", "graph", "verify", str(g), "--explicit-to", "4"
    )
    assert code == 0
    report = json.loads(out)
    assert report["data"]["euler_ok"] is True
    assert report["data"]["explicit_ok"] is True


def test_infer(capsys, tmp_path):
    f = tmp_path / "mn.lie"
    f.write_text("field = Q\ngen a weight 1\ngen b weight 1\ngen x weight 1\nrel [a,b]\n")
    code, out = run(
        capsys,
        "--max-degree", "7",
        "infer", str(f),
        "--gen", "a", "--gen", "b", "--gen", "[x,a]", "--gen", "[x,b]",
    )
    assert code == 0
    report = json.loads(out)
    assert report["data"]["relator_weights"] == ["2", "3"]


def test_infer_at_max_degree_0_is_not_conclusive(capsys):
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "mn.lie")
    code, out = run(capsys, "--max-degree", "0", "infer", path, "--gen", "a")
    report = json.loads(out)
    assert report["data"]["conclusive"] is False
    assert report["ok"] is False and code == 1


@pytest.mark.parametrize("max_degree, gens, conclusive", [
    ("1", ["[a,x]"], False),
    ("2", ["[[a,x],x]"], False),
    ("2", ["[a,x]", "[b,x]"], True),
], ids=["below-weight-2", "below-weight-3", "at-weight-2"])
def test_infer_is_conclusive_from_the_largest_given_weight(capsys, max_degree, gens, conclusive):
    # S/[S,S] is spanned by the given generators, so the generator set is
    # complete exactly when the truncation reaches their largest weight
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "mn.lie")
    argv = ["--max-degree", max_degree, "infer", path]
    for g in gens:
        argv += ["--gen", g]
    code, out = run(capsys, *argv)
    report = json.loads(out)
    assert report["data"]["conclusive"] is conclusive
    assert report["ok"] is conclusive and code == (0 if conclusive else 1)


def test_example_sec6(capsys):
    code, out = run(capsys, "example", "sec6")
    assert code == 0
    report = json.loads(out)
    assert report["data"]["h1_total"] == "4"
    assert report["data"]["h2_total"] == "2"
    # flags are JSON booleans, counts are strings
    nfp = report["data"]["not_free_product"]
    assert nfp["contradiction"] is True and nfp["ok"] is True
    assert nfp["h2_M"] == "1"


def test_input_errors(capsys, tmp_path):
    bad = tmp_path / "bad.lie"
    bad.write_text("field = Q\ngen a weight one\n")
    latin1 = tmp_path / "latin1.lie"
    latin1.write_bytes("field = Q\ngen é weight 1\n".encode("latin-1"))
    latin1_raag = tmp_path / "latin1-raag.graph"
    latin1_raag.write_bytes("vertices a é\n".encode("latin-1"))
    latin1_vertex = tmp_path / "latin1-vertex.graph"
    latin1_vertex.write_text(f"vertex v {latin1.name}\n")
    bad_raag = tmp_path / "bad-raag.graph"
    bad_raag.write_text("vertices a b\nedge a\n")
    c5 = os.path.join(os.path.dirname(__file__), "golden", "inputs", "c5.graph")
    (tmp_path / "sub").mkdir()
    vertex_dir = tmp_path / "vertex-dir.graph"
    vertex_dir.write_text("vertex v sub\n")
    # (argv, a file the one error line must name, or None)
    for argv, named in [
        (["dims", str(tmp_path / "missing.lie")], tmp_path / "missing.lie"),
        (["dims", str(bad)], bad),
        (["raag", "resolve", str(bad_raag)], bad_raag),
        # a bad --field under every command, used there or not
        (["--field", "R", "hall", "--gens", "x"], None),
        (["--field", "R", "raag", "chordal", c5], None),
        (["--field", "Fp:4", "raag", "verdict", c5], None),
        # a directory as the input, or as a file the input names
        (["dims", str(tmp_path)], tmp_path),
        (["raag", "chordal", str(tmp_path)], tmp_path),
        (["graph", "verify", str(tmp_path)], tmp_path),
        (["graph", "verify", str(vertex_dir)], tmp_path / "sub"),
        # an input file that is not UTF-8, given or named by a graph
        (["dims", str(latin1)], latin1),
        (["infer", str(latin1), "--gen", "a"], latin1),
        (["graph", "verify", str(latin1)], latin1),
        (["raag", "resolve", str(latin1_raag)], latin1_raag),
        (["graph", "verify", str(latin1_vertex)], latin1),
        # a --out file in a missing directory
        (["--out", str(tmp_path / "missing" / "r.json"), "hall", "--gens", "x"],
         tmp_path / "missing" / "r.json"),
    ]:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, (argv, captured.err)
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        assert named is None or str(named) in captured.err, (argv, captured.err)
        assert captured.out == "", argv


@pytest.mark.parametrize("argv", [["hall", "--gens", "x"], ["raag", "resolve", "c5.graph"],
                                  ["dims", "mn.lie"]], ids=lambda argv: argv[0])
def test_reports_give_the_canonical_field_name(capsys, monkeypatch, argv):
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), "golden", "inputs"))
    code, out = run(capsys, "--field", "Fp:007", "--max-degree", "3", *argv)
    assert code == 0 and json.loads(out)["field"] == "Fp:7"


def test_internal_error_exits_3(capsys, monkeypatch, heisenberg_file):
    import gradedlie.cli as cli

    def broken(args):
        raise KeyError("no such table\nsecond line")

    monkeypatch.setattr(cli, "cmd_dims", broken)
    code = main(["dims", heisenberg_file])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: KeyError(")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_internal_key_error_in_inference_exits_3(capsys, monkeypatch):
    # a fault inside inference is a bug, not a verdict on the input
    from gradedlie import presented

    def broken(self):
        raise KeyError("lost column")

    monkeypatch.setattr(presented.SparseMatrix, "kernel", broken)
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "mn.lie")
    code = main(["--max-degree", "3", "infer", path, "--gen", "a", "--gen", "[x,a]"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: KeyError(")
    assert captured.err.count("\n") == 1


def test_byte_identical_reports(capsys, heisenberg_file):
    _, out1 = run(capsys, "--max-degree", "4", "dims", heisenberg_file)
    _, out2 = run(capsys, "--max-degree", "4", "dims", heisenberg_file)
    assert out1 == out2


def test_out_file_and_table_format(capsys, heisenberg_file, tmp_path):
    target = tmp_path / "report.json"
    code = main(["--max-degree", "3", "--out", str(target), "dims", heisenberg_file])
    assert code == 0
    assert json.loads(target.read_text())["data"]["dims"] == ["2", "1", "0"]
    code, out = run(capsys, "--format", "table", "--max-degree", "3", "dims", heisenberg_file)
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-degree", "-1", "hall", "--gens", "x,y"],
        ["--max-degree", "-3", "hilbert", "{mn}"],
        ["--hom-bound", "-1", "homology", "{mn}"],
        ["hall", "--gens", "x:a"],
        ["dims", "{deep}"],
        ["selftest"],
        ["--seed", "1", "dims", "{mn}"],
        ["--cap", "5", "onerelator", "decompose", "{mn}"],
        ["hall", "--gens", ","],
        ["infer", "{mn}"],
        ["--field", "Fp:1681", "hall", "--gens", "x"],
        ["hall", "--gens", "x,x"],
        ["infer", "{mn}", "--gen", "0*a"],
        ["infer", "{mn}", "--gen", "a+[a,b]"],
        ["infer", "{mn}", "--gen", "a$"],
    ],
    ids=["negative-max-degree-hall", "negative-max-degree-hilbert",
         "negative-hom-bound", "bad-generator-weight", "deep-nesting",
         "removed-subcommand", "removed-seed-option", "removed-cap-option",
         "empty-generator-list", "infer-without-gen", "field-square-of-a-prime",
         "hall-generator-repeated", "infer-zero-gen", "infer-mixed-weight-gen",
         "infer-bad-character"],
)
def test_bad_input_exits_2(capsys, tmp_path, argv):
    mn = tmp_path / "mn.lie"
    mn.write_text("field = Q\ngen a weight 1\ngen b weight 1\ngen x weight 1\nrel [a,b]\n")
    deep = tmp_path / "deep.lie"
    nested = "x"
    for _ in range(1200):
        nested = f"[x,{nested}]"
    deep.write_text(f"field = Q\ngen x weight 1\ngen y weight 1\nrel {nested}\n")
    argv = [a.format(mn=mn, deep=deep) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_example_sec6_over_large_prime_field(capsys):
    _, out = run(capsys, "example", "sec6")
    over_q = json.loads(out)["data"]
    code, out = run(capsys, "--field", "Fp:2147483647", "example", "sec6")
    assert code == 0
    data = json.loads(out)["data"]
    for key in ("h1_total", "h2_total", "relator_weights"):
        assert data[key] == over_q[key]


@pytest.mark.parametrize("command,key", [("chordal", "induced_cycle"), ("verdict", "cycle")])
def test_raag_reports_independent_of_hash_seed(tmp_path, command, key):
    import os
    import subprocess
    import sys

    c5 = tmp_path / "c5.graph"
    c5.write_text("vertices a b c d e\nedge a b\nedge b c\nedge c d\nedge d e\nedge e a\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "gradedlie.cli", "raag", command, str(c5)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr  # C5 is not chordal, verified
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["data"][key] == ["a", "b", "c", "d", "e"]


HNN_GRAPH = (
    "vertex v free2.lie\nedge t v v kuv.lie\nmap sigma t u -> {u}\nmap sigma t v -> b\n"
    "der t u -> {du} stable-weight {sw}\nder t v -> 0*a stable-weight {sw}\n"
)
BAD_GRAPH_AND_PRESENTATION_INPUTS = {
    "der-stable-weight-x": HNN_GRAPH.format(u="a", du="[a,b]", sw="x"),
    "der-stable-weight-0": HNN_GRAPH.format(u="a", du="[a,b]", sw="0"),
    "der-stable-weight-negative": HNN_GRAPH.format(u="a", du="[a,b]", sw="-1"),
    "edge-stable-weight-x": "vertex v free2.lie\nedge t v v zero.lie stable-weight x\n",
    "edge-stable-weight-0": "vertex v free2.lie\nedge t v v zero.lie stable-weight 0\n",
    "edge-stable-weight-negative": "vertex v free2.lie\nedge t v v zero.lie stable-weight -1\n",
    "map-syntax-error": HNN_GRAPH.format(u="[a,", du="[a,b]", sw="1"),
    "map-unknown-generator": HNN_GRAPH.format(u="q", du="[a,b]", sw="1"),
    "map-unknown-in-bracket": HNN_GRAPH.format(u="[a,q]", du="[a,b]", sw="1"),
    "der-syntax-error": HNN_GRAPH.format(u="a", du="[a,", sw="1"),
    "der-unknown-generator": HNN_GRAPH.format(u="a", du="q", sw="1"),
    "der-unknown-in-bracket": HNN_GRAPH.format(u="a", du="[a,q]", sw="1"),
    # one-pass parsing: the unknown name comes before the syntax error
    "rel-unknown-before-syntax-error": "field = Q\ngen a weight 1\ngen b weight 1\nrel [q,\n",
    "generator-weight-0": "field = Q\ngen x weight 0\n",
    "duplicate-generator": "field = Q\ngen x weight 1\ngen y weight 1\ngen x weight 2\n",
    "rel-scalar-too-long": "field = Q\ngen a weight 1\ngen b weight 1\nrel " + "1" * 5000 + "*[a,b]\n",
    "field-line-unknown": "field = xQ\ngen x weight 1\n",
    "field-line-bad-modulus": "field = Fp:7.0\ngen x weight 1\n",
    "vertex-field-line": "vertex v badfield.lie\n",
    "vertex-declared-twice": "vertex v free2.lie\nvertex v kuv.lie\n",
    "edge-declared-twice": "vertex v free2.lie\nedge t v v zero.lie stable-weight 1\n"
                           "edge t v v zero.lie stable-weight 1\n",
    "edge-to-undeclared-vertex": "vertex v free2.lie\nedge t v w zero.lie stable-weight 1\n",
    "forest-edge-without-tau": "vertex v free2.lie\nvertex w free2.lie\nedge e v w forest kuv.lie\n"
                               "map sigma e u -> a\nmap sigma e v -> b\n",
    "map-line-bare": "vertex v free2.lie\nmap sigma\n",
    "unrecognized-graph-line": "vertex v free2.lie\nvertices a b\n",
    "conflicting-stable-weights": HNN_GRAPH.format(u="a", du="[a,b]", sw="1").replace(
        "kuv.lie", "kuv.lie stable-weight 2"),
    "field-line-empty": "field =\ngen x weight 1\n",
    "vertices-repeated": "vertices a a\n",
    "edge-arity": "vertex v free2.lie\nedge t v zero.lie\n",
    "map-without-arrow": "vertex v free2.lie\nedge t v v zero.lie stable-weight 1\n"
                         "map sigma t u a\n",
    "der-without-stable-weight": HNN_GRAPH.format(u="a", du="[a,b]", sw="1").replace(
        " stable-weight 1\nder t v", "\nder t v"),
    "no-vertex": "edge t v v zero.lie stable-weight 1\n",
    "map-image-missing": HNN_GRAPH.format(u="a", du="[a,b]", sw="1").replace(
        "map sigma t v -> b\n", ""),
    "map-image-zero": HNN_GRAPH.format(u="0*a", du="[a,b]", sw="1"),
    "map-image-for-unknown-generator": HNN_GRAPH.format(u="a", du="[a,b]", sw="1")
                                       + "map sigma t q -> a\n",
    "non-forest-edge-without-stable-weight": "vertex v free2.lie\nedge t v v zero.lie\n",
    "der-value-missing": HNN_GRAPH.format(u="a", du="[a,b]", sw="1").replace(
        "der t v -> 0*a stable-weight 1\n", ""),
    # checked when the graph is loaded, so the error names the file
    "der-value-of-wrong-weight": HNN_GRAPH.format(u="a", du="b", sw="1"),
    "disconnected-graph": "vertex v free2.lie\nvertex w free2.lie\n",
    "stable-letter-named-like-a-generator": "vertex v free2.lie\n"
                                            "edge v.a v v zero.lie stable-weight 1\n",
}


@pytest.mark.parametrize("case", sorted(BAD_GRAPH_AND_PRESENTATION_INPUTS))
def test_bad_graph_and_presentation_input_exits_2(capsys, tmp_path, case):
    (tmp_path / "free2.lie").write_text("field = Q\ngen a weight 1\ngen b weight 1\n")
    (tmp_path / "kuv.lie").write_text("field = Q\ngen u weight 1\ngen v weight 1\n")
    (tmp_path / "zero.lie").write_text("field = Q\n")
    (tmp_path / "badfield.lie").write_text("gen a weight 1\nfield = Fp:x\n")
    text = BAD_GRAPH_AND_PRESENTATION_INPUTS[case]
    if text.startswith("field"):
        bad = tmp_path / "bad.lie"
        argv = ["--max-degree", "3", "dims", str(bad)]
    elif text.startswith("vertices"):
        bad = tmp_path / "bad.graph"
        argv = ["raag", "chordal", str(bad)]
    else:
        bad = tmp_path / "bad.graph"
        argv = ["--max-degree", "3", "graph", "verify", str(bad)]
    bad.write_text(text)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(bad) in captured.err  # the error names the file
    assert "Traceback" not in captured.err and "internal error" not in captured.err
    assert captured.out == ""


def test_map_and_der_lines_need_a_declared_edge(capsys, tmp_path):
    # a mistyped edge id must not drop that edge's maps without a word
    (tmp_path / "free2.lie").write_text("field = Q\ngen a weight 1\ngen b weight 1\n")
    graph = tmp_path / "typo.graph"
    graph.write_text(
        "vertex v free2.lie\nmap sigma e9 u -> a\nder e9 u -> [a,b] stable-weight 1\n"
    )
    code = main(["--max-degree", "3", "graph", "verify", str(graph)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(graph) in captured.err and "undeclared edge e9" in captured.err


@pytest.mark.parametrize("spec", ["Fp:x", "Fp:", "Fp:7.0"])
def test_malformed_field_flag_exits_2(capsys, spec):
    code = main(["--field", spec, "--max-degree", "3", "hall", "--gens", "x,y"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and "internal error" not in captured.err
    assert captured.out == ""


def test_rational_scalars_over_a_prime_field(capsys, tmp_path):
    head = "field = Q\ngen a weight 1\ngen b weight 1\ngen x weight 1\n"
    dims = {}
    for name, rel in (("plain", "[a,b]"), ("half", "1/2*[a,b]"), ("seventh", "1/7*[a,b]")):
        (tmp_path / f"{name}.lie").write_text(f"{head}rel {rel}\n")
        code = main(["--field", "Fp:7", "--max-degree", "4", "dims", str(tmp_path / f"{name}.lie")])
        captured = capsys.readouterr()
        dims[name] = code, captured.out and json.loads(captured.out)["data"]["dims"], captured.err
    assert dims["half"] == dims["plain"] == (0, ["3", "2", "5", "10"], "")
    code, out, err = dims["seventh"]  # 7 is not invertible mod 7
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "not invertible" in err


def test_onerelator_base_checked_past_max_degree(capsys):
    # the relator has weight 3: a check of the base to weight 2 alone
    # would be inconclusive, not a proof that the base is not free
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "onerel3.lie")
    code, out = run(capsys, "--max-degree", "2", "onerelator", "decompose", path)
    assert code == 0
    assert json.loads(out)["data"]["base_free"] is True


def test_failed_tower_rebuild_exits_1_with_nulls(capsys, monkeypatch):
    # a rebuild that fails is a verification failure, not a crash: the
    # values it would give print as null, and the tower itself still prints
    def broken(*args, **kwargs):
        raise GraphError("no HNN extension")

    monkeypatch.setattr(onerelator, "hnn", broken)
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "onerel3.lie")
    code, out = run(capsys, "--max-degree", "5", "onerelator", "decompose", path)
    report = json.loads(out)
    assert code == 1 and report["ok"] is False
    data = report["data"]
    assert {key: data[key] for key in data if key != "tower"} == {
        "rebuilt_dims": None, "original_dims": None, "dims_match": None,
        "base_free": None, "layers": []}
    assert data["tower"]["depth"] == 3


def test_onerelator_layer_cap_exits_2(capsys, monkeypatch):
    # onerel3.lie has a tower of depth 3, which needs more than 2 steps
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "onerel3.lie")
    monkeypatch.setattr(onerelator, "LAYER_CAP", 2)
    P = load_presentation(path)
    with pytest.raises(onerelator.DecompositionError, match="cap 2 exceeded"):
        onerelator.decompose(P)
    code = main(["onerelator", "decompose", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cap 2 exceeded") and captured.err.count("\n") == 1


def test_graph_verify_checks_embeddings_to_explicit_weight(capsys, tmp_path):
    # u, v -> a, b is injective up to weight 4 only: the vertex relator has
    # weight 5
    (tmp_path / "v5.lie").write_text(
        "field = Q\ngen a weight 1\ngen b weight 1\nrel [a,[a,[a,[a,b]]]]\n"
    )
    (tmp_path / "f2.lie").write_text("field = Q\ngen x weight 1\ngen y weight 1\n")
    (tmp_path / "kuv.lie").write_text("field = Q\ngen u weight 1\ngen v weight 1\n")
    g = tmp_path / "g.graph"
    g.write_text(
        "vertex vA v5.lie\nvertex vB f2.lie\nedge e vA vB forest kuv.lie\n"
        "map sigma e u -> a\nmap sigma e v -> b\nmap tau e u -> x\nmap tau e v -> y\n"
    )
    code, out = run(
        capsys, "--max-degree", "4", "graph", "verify", str(g), "--explicit-to", "4"
    )
    assert code == 0
    code, out = run(
        capsys, "--max-degree", "4", "graph", "verify", str(g), "--explicit-to", "6"
    )
    assert code == 1
    data = json.loads(out)["data"]
    assert ["edge", "e", "5"] in data["embedding_failures"]
    assert data["euler_ok"] is None and data["explicit_checks"] == []
    assert data["explicit_ok"] is False


def test_file_field_line_used_without_field_flag(capsys, tmp_path):
    # over F_2 the relator 2*[a,b] is zero; --field overrides the file
    f = tmp_path / "f2.lie"
    f.write_text("field = Fp:2\ngen a weight 1\ngen b weight 1\nrel 2*[a,b]\n")
    code = main(["--max-degree", "3", "dims", str(f)])
    captured = capsys.readouterr()
    assert code == 2 and "zero relator" in captured.err and captured.out == ""
    code, out = run(capsys, "--field", "Q", "--max-degree", "3", "dims", str(f))
    assert code == 0
    report = json.loads(out)
    assert report["field"] == "Q" and report["data"]["dims"] == ["2", "0", "0"]
    f.write_text("field = Fp:2\ngen a weight 1\ngen b weight 1\nrel [a,b]\n")
    code, out = run(capsys, "--max-degree", "3", "hopf", str(f))
    assert code == 0 and json.loads(out)["field"] == "Fp:2"
    # with neither a flag nor a field line there is no field to use
    f.write_text("gen a weight 1\n")
    code = main(["--max-degree", "3", "dims", str(f)])
    captured = capsys.readouterr()
    assert code == 2 and "no field given" in captured.err and captured.out == ""


def _amalgam_files(tmp_path, fields):
    for (name, text), field in zip(
        [("k2.lie", "gen a weight 1\ngen b weight 1\nrel [a,b]\n"),
         ("k1.lie", "gen x weight 1\n"), ("zero.lie", "")], fields
    ):
        (tmp_path / name).write_text(f"field = {field}\n{text}")
    g = tmp_path / "mn.graph"
    g.write_text("vertex vM k2.lie\nvertex vN k1.lie\nedge e1 vM vN forest zero.lie\n")
    return str(g)


def test_graph_verify_uses_the_vertex_files_field(capsys, tmp_path):
    g = _amalgam_files(tmp_path, ["Fp:7"] * 3)
    code, out = run(capsys, "--max-degree", "4", "graph", "verify", g, "--explicit-to", "3")
    report = json.loads(out)
    assert report["field"] == "Fp:7"
    # M * N over the zero edge algebra: per weight [src_dim, mid_dim,
    # rank_alpha], with src = U(L), mid = U(L)/U(M) + U(L)/U(N)
    assert report["data"]["explicit_ranks"] == [
        ["1", "2", "1"], ["3", "3", "3"], ["8", "8", "8"], ["21", "21", "21"]
    ]
    code, out = run(capsys, "--field", "Q", "--max-degree", "4", "graph", "verify", g)
    assert code == 0 and json.loads(out)["field"] == "Q"


@pytest.mark.parametrize("fields", [["Q", "Fp:7", "Q"], ["Q", "Q", "Fp:7"]],
                         ids=["vertices", "edge"])
def test_graph_files_over_different_fields_exit_2(capsys, tmp_path, fields):
    g = _amalgam_files(tmp_path, fields)
    code = main(["--max-degree", "4", "graph", "verify", g])
    captured = capsys.readouterr()
    assert code == 2 and "field mismatch" in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_cli_import_leaves_dataclasses_unloaded():
    # every CLI run pays its import chain; dataclasses would pull in
    # inspect, ast, dis and tokenize
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")])
    )
    code = "import sys, gradedlie.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out == "False\n"


def test_cli_run_leaves_argparse_gettext_and_locale_unloaded(tmp_path):
    # the command line costs no argparse set-up and no gettext lookups,
    # whose first one imports locale
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")])
    )
    code = (
        "import sys\n"
        "from gradedlie.cli import main\n"
        f"code = main(['--out', {str(tmp_path / 'report.json')!r}, 'hall', '--gens', 'x,y'])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out == "0 []\n"
    assert json.loads((tmp_path / "report.json").read_text())["ok"] is True

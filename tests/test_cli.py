import json
import os
import subprocess
import sys

import pytest

from gradedlie.cli import main


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


def test_raag_chordal_exit_codes(capsys, c4_file, tmp_path):
    code, out = run(capsys, "raag", "chordal", c4_file)
    assert code == 1  # C4 is not chordal: verification failure + certificate
    report = json.loads(out)
    assert len(report["data"]["induced_cycle"]) == 4

    tree = tmp_path / "tree.graph"
    tree.write_text("vertices a b c\nedge a b\nedge b c\n")
    code, out = run(capsys, "raag", "chordal", str(tree))
    assert code == 0
    assert json.loads(out)["data"]["chordal"] is True


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
    assert code == 1
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
    code = main(["dims", str(tmp_path / "missing.lie")])
    assert code == 2
    bad = tmp_path / "bad.lie"
    bad.write_text("field = Q\ngen a weight one\n")
    code = main(["dims", str(bad)])
    assert code == 2
    code = main(["--field", "R", "hall", "--gens", "x"])
    assert code == 2


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


def test_selftest(capsys):
    code, out = run(capsys, "--max-degree", "6", "selftest")
    assert code == 0
    report = json.loads(out)
    assert all(report["data"].values())


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-degree", "-1", "hall", "--gens", "x,y"],
        ["--max-degree", "-3", "hilbert", "{mn}"],
        ["--hom-bound", "-1", "homology", "{mn}"],
        ["hall", "--gens", "x:a"],
        ["dims", "{deep}"],
    ],
    ids=["negative-max-degree-hall", "negative-max-degree-hilbert",
         "negative-hom-bound", "bad-generator-weight", "deep-nesting"],
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
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects bad option values
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err and "Traceback" not in captured.err
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
        assert proc.returncode == 1, proc.stderr  # C5 is not chordal
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
    "generator-weight-0": "field = Q\ngen x weight 0\n",
    "duplicate-generator": "field = Q\ngen x weight 1\ngen y weight 1\ngen x weight 2\n",
    "field-line-unknown": "field = xQ\ngen x weight 1\n",
    "field-line-bad-modulus": "field = Fp:7.0\ngen x weight 1\n",
    "vertex-field-line": "vertex v badfield.lie\n",
}


@pytest.mark.parametrize("case", sorted(BAD_GRAPH_AND_PRESENTATION_INPUTS))
def test_bad_graph_and_presentation_input_exits_2(capsys, tmp_path, case):
    (tmp_path / "free2.lie").write_text("field = Q\ngen a weight 1\ngen b weight 1\n")
    (tmp_path / "kuv.lie").write_text("field = Q\ngen u weight 1\ngen v weight 1\n")
    (tmp_path / "zero.lie").write_text("field = Q\n")
    (tmp_path / "badfield.lie").write_text("gen a weight 1\nfield = Fp:x\n")
    text = BAD_GRAPH_AND_PRESENTATION_INPUTS[case]
    if text.startswith("field"):
        (tmp_path / "bad.lie").write_text(text)
        argv = ["--max-degree", "3", "dims", str(tmp_path / "bad.lie")]
    else:
        (tmp_path / "bad.graph").write_text(text)
        argv = ["--max-degree", "3", "graph", "verify", str(tmp_path / "bad.graph")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and "internal error" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["Fp:x", "Fp:", "Fp:7.0"])
def test_malformed_field_flag_exits_2(capsys, spec):
    code = main(["--field", spec, "--max-degree", "3", "hall", "--gens", "x,y"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and "internal error" not in captured.err
    assert captured.out == ""


def test_onerelator_base_checked_past_max_degree(capsys):
    # the relator has weight 3: a check of the base to weight 2 alone
    # would be inconclusive, not a proof that the base is not free
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "onerel3.lie")
    code, out = run(capsys, "--max-degree", "2", "onerelator", "decompose", path)
    assert code == 0
    assert json.loads(out)["data"]["base_free"] is True


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

import pytest

from gradedlie import graphalg
from gradedlie.envelope import InducedModule
from gradedlie.fields import GF, QQ
from gradedlie.graphalg import (
    Edge,
    GraphError,
    GraphOfLieAlgebras,
    LieDerivation,
    LieHomomorphism,
    hnn,
    parse_graph_file,
    verify_theorem_a,
)
from gradedlie.presented import PresentedLieAlgebra
from gradedlie.series import HilbertSeries


def k2_abelian(a="a", b="b"):
    return PresentedLieAlgebra(QQ, [a, b], [f"[{a},{b}]"], name="k2")


def k1(x="x"):
    return PresentedLieAlgebra(QQ, [x], name="k1")


def zero_algebra():
    return PresentedLieAlgebra(QQ, [], name="0")


def test_hom_validation():
    M = k2_abelian()
    F = PresentedLieAlgebra(QQ, ["u", "v"])
    # abelian -> free misses the relator
    with pytest.raises(GraphError):
        LieHomomorphism(M, F, {"a": "u", "b": "v"}).validate_relators()
    # weight mismatch
    with pytest.raises(GraphError):
        LieHomomorphism(k1(), F, {"x": "[u,v]"})
    # fine: abelian -> abelian
    M2 = k2_abelian("c", "d")
    hom = LieHomomorphism(M, M2, {"a": "c", "b": "d"})
    hom.validate_relators()
    assert hom.injectivity_failure(5) is None
    # non-injective map detected by rank
    degenerate = LieHomomorphism(M, M2, {"a": "c", "b": "c"})
    assert degenerate.injectivity_failure(5) == 1


def test_hom_image_subalgebra():
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    M = k2_abelian()
    hom = LieHomomorphism(M, L, {"a": "a", "b": "b"})
    sub = hom.image_subalgebra()
    assert sub.span_dims(4) == [2, 0, 0, 0]


def test_hnn_zero_derivation_abelian():
    # base k.a, A = base, d = 0: abelian k^2
    base = k1("a")
    d = LieDerivation(base, ["a"], [base.free.zero()], shift=1)
    d.validate_leibniz(4)
    W = hnn(d, "t")
    assert W.dim_sequence(4) == [2, 0, 0, 0]


def test_hnn_free_letter():
    # A = 0: free product with one free generator t
    base = k2_abelian()
    d = LieDerivation(base, [], [], shift=1)
    W = hnn(d, "t")
    expected = HilbertSeries.one(6).divide(HilbertSeries([1, -3, 1], 6))  # 1/((1-t)^2 + (1-t) - 1)
    assert W.enveloping_series(6) == expected


def test_hnn_heisenberg():
    # base abelian <a:1, b:2>, A = base, d(a) = b, d(b) = 0, t of weight 1:
    # result is the Heisenberg algebra
    base = PresentedLieAlgebra(QQ, [("a", 1), ("b", 2)], ["[a,b]"])
    d = LieDerivation(base, ["a", "b"], ["b", base.free.zero()], shift=1)
    d.validate_leibniz(5)
    W = hnn(d, "t")
    assert W.dim_sequence(4) == [2, 1, 0, 0]


def test_hnn_leibniz_violation():
    # free base <a, b>, A = base; values a -> [a,b], b -> 0 violate Leibniz
    # on [a,b]: d([a,b]) must be [a,d(b)] + [d(a),b] = [[a,b],b], but A's
    # span forces d([a,b]) from the declared values only
    base = PresentedLieAlgebra(QQ, ["a", "b"])
    d = LieDerivation(base, ["a", "b", "[a,b]"], ["[a,b]", "0*a", "0*[a,b]"], shift=1)
    with pytest.raises(GraphError):
        d.validate_leibniz(4)


def test_leibniz_violation_on_dependent_generators():
    # four weight-1 generators of A in the 3-dimensional span of a, b, c
    # over F_7; the values agree with d(a) = [a,b], d(b) = [a,c],
    # d(c) = [b,c] except that the first generator's [a,b] coefficient is
    # 5 instead of 4, so d is not well defined on A_1.  Reducing each new
    # generator at the first coordinate equal to 1 of a stored row, instead
    # of at that row's pivot, leaves the fourth generator nonzero and
    # misses the violation.
    base = PresentedLieAlgebra(GF(7), ["a", "b", "c"])
    gens = ["3*b+c+4*a", "3*b+5*a+2*c", "2*b+5*c", "5*c+3*b+a"]
    values = [
        "3*[a,c]+[b,c]+5*[a,b]",
        "3*[a,c]+5*[a,b]+2*[b,c]",
        "2*[a,c]+5*[b,c]",
        "5*[b,c]+3*[a,c]+[a,b]",
    ]
    with pytest.raises(GraphError, match="Leibniz violation at weight 1"):
        LieDerivation(base, gens, values, shift=1).validate_leibniz(1)
    values[0] = "3*[a,c]+[b,c]+4*[a,b]"
    LieDerivation(base, gens, values, shift=1).validate_leibniz(2)


def test_hnn_ascending_free():
    # ascending HNN over free_2 with d = ad-like values; [W,W] lands in A
    base = PresentedLieAlgebra(QQ, ["a", "b"])
    d = LieDerivation(base, ["a", "b"], ["[a,b]", base.free.zero()], shift=1)
    d.validate_leibniz(6)
    W = hnn(d, "t")
    expected = HilbertSeries.one(8).divide(HilbertSeries([1, -1], 8) * HilbertSeries([1, -2], 8))
    assert W.enveloping_series(8) == expected
    # base embeds
    eL = LieHomomorphism(base, W, {"a": "a", "b": "b"})
    assert eL.injectivity_failure(6) is None
    # [W,W] is contained in the span of the base image (ascending HNN)
    A = W.subalgebra(["a", "b"])
    eng = W.engine
    for n in range(2, 6):
        comm = []
        for m in range(1, n):
            pass
        # commutator component: brackets of all basis pairs
        from gradedlie.linalg import Echelon

        ech = Echelon(QQ)
        for a_w in range(1, n):
            b_w = n - a_w
            for i in range(W.dim(a_w)):
                for j in range(W.dim(b_w)):
                    ech.add(eng.pair((a_w, i), (b_w, j)))
        span = A.span(n)
        for row in ech.basis():
            assert not span.reduce(row)


def single_edge_graph_free_product():
    M = k2_abelian()
    N = k1()
    Z = zero_algebra()
    e = Edge("e1", "vM", "vN", Z, {}, in_forest=True, tau_images={})
    return GraphOfLieAlgebras(QQ, {"vM": M, "vN": N}, [e])


def test_fundamental_single_vertex():
    g = GraphOfLieAlgebras(QQ, {"v": k2_abelian()}, [])
    fund = g.fundamental()
    assert fund.algebra.dim_sequence(4) == [2, 0, 0, 0]


def test_fundamental_free_product_m_n():
    g = single_edge_graph_free_product()
    fund = g.fundamental()
    assert fund.algebra.generator_names == ["vM.a", "vM.b", "vN.x"]
    assert fund.algebra.dim_sequence(3) == [3, 2, 5]
    emb = fund.vertex_embedding("vM")
    assert emb.injectivity_failure(4) is None


def test_fundamental_identity_maps():
    # L1 = L2 = L0 glued by identity maps: the amalgam has L0's dimensions
    M = k2_abelian()
    g = one_edge_amalgam(
        k2_abelian("a1", "b1"), k2_abelian("a2", "b2"), M,
        {"a": "a1", "b": "b1"}, {"a": "a2", "b": "b2"},
    )
    assert g.sigma["e1"].injectivity_failure(4) is None
    assert g.tau["e1"].injectivity_failure(4) is None
    assert g.fundamental().algebra.dim_sequence(4) == M.dim_sequence(4)


def test_fundamental_path_raag():
    # k^2 *_k k^2 gluing b1 = b2: the path RAAG a1 - b - c2
    g = one_edge_amalgam(
        k2_abelian("a1", "b1"), k2_abelian("b2", "c2"), k1("z"), {"z": "b1"}, {"z": "b2"}
    )
    path = PresentedLieAlgebra(QQ, ["a", "b", "c"], ["[a,b]", "[b,c]"])
    assert g.fundamental().algebra.dim_sequence(8) == path.dim_sequence(8)


def test_fundamental_single_loop_is_hnn():
    # loop at a 1-dim vertex with zero derivation = abelian k^2
    K = k1("a")
    Ke = k1("z")
    e = Edge(
        "t", "v", "v", Ke, {"z": "a"}, in_forest=False,
        der_values={"z": "0*a"}, stable_weight=1,
    )
    g = GraphOfLieAlgebras(QQ, {"v": K}, [e])
    fund = g.fundamental()
    assert fund.algebra.dim_sequence(4) == [2, 0, 0, 0]


def test_forest_validation():
    M, N = k2_abelian(), k1()
    Z = zero_algebra()
    # loop marked as forest edge
    with pytest.raises(GraphError):
        GraphOfLieAlgebras(
            QQ, {"v": M}, [Edge("e", "v", "v", Z, {}, in_forest=True, tau_images={})]
        )
    # non-maximal forest: non-forest edge joins two components
    with pytest.raises(GraphError):
        GraphOfLieAlgebras(
            QQ,
            {"vM": M, "vN": N},
            [Edge("e", "vM", "vN", Z, {}, in_forest=False, stable_weight=1)],
        )
    # forest edge closing a cycle
    with pytest.raises(GraphError):
        GraphOfLieAlgebras(
            QQ,
            {"vM": M, "vN": N},
            [
                Edge("e1", "vM", "vN", Z, {}, in_forest=True, tau_images={}),
                Edge("e2", "vN", "vM", Z, {}, in_forest=True, tau_images={}),
            ],
        )


def test_theorem_a_free_product():
    g = single_edge_graph_free_product()
    report = verify_theorem_a(g, 8, explicit_to=5)
    assert report["euler_ok"]
    assert report["explicit_ok"]
    assert report["ok"]
    # Euler identity here is (1-t)^2 + (1-t) - 1 = 1 - 3t + t^2 after
    # multiplying through by the fundamental series
    fund = g.fundamental().algebra
    assert report["fundamental_dims"] == fund.dim_sequence(8)
    assert fund.enveloping_series(8) == HilbertSeries.one(8).divide(HilbertSeries([1, -3, 1], 8))


def test_theorem_a_amalgam_path():
    M1 = k2_abelian("a", "b")
    M2 = k2_abelian("c", "d")
    K = k1("z")
    e = Edge("e1", "v1", "v2", K, {"z": "b"}, in_forest=True, tau_images={"z": "c"})
    g = GraphOfLieAlgebras(QQ, {"v1": M1, "v2": M2}, [e])
    report = verify_theorem_a(g, 8, explicit_to=5)
    assert report["ok"]


def test_theorem_a_hnn_loop():
    # ascending-HNN-style loop over the free vertex <a, b>
    V = PresentedLieAlgebra(QQ, ["a", "b"])
    Ke = PresentedLieAlgebra(QQ, ["u", "v"])
    e = Edge(
        "t", "v", "v", Ke, {"u": "a", "v": "b"}, in_forest=False,
        der_values={"u": "[a,b]", "v": "0*a"}, stable_weight=1,
    )
    g = GraphOfLieAlgebras(QQ, {"v": V}, [e])
    report = verify_theorem_a(g, 8, explicit_to=5)
    assert report["ok"]


def test_theorem_a_weight0_sequence():
    # the sequence at weight 0 is 0 -> 0 -> k^V -> k -> 0 for trees
    g = single_edge_graph_free_product()
    report = verify_theorem_a(g, 4, explicit_to=3)
    assert report["explicit_checks"][0] == {"weight": 0, "injective": True, "exact_middle": True}
    src_dim, mid_dim, _ = report["explicit_ranks"][0]
    assert mid_dim == 2 and src_dim == 1


def test_theorem_a_exact_middle_needs_beta_alpha_zero(monkeypatch):
    # the first vertex module's class of 1 read at twice its value: a change
    # of basis of (+)_v Q_v that beta does not follow, so every rank stays
    # and only beta o alpha = 0 at weight 0 sees it
    made = []

    class Doubled(InducedModule):
        def __init__(self, env, sub):
            super().__init__(env, sub)
            made.append(self)

        def project(self, u, n):
            out = super().project(u, n)
            if n == 0 and self is made[0]:
                out = {i: self.field.mul(self.field.of(2), c) for i, c in out.items()}
            return out

    monkeypatch.setattr(graphalg, "InducedModule", Doubled)
    report = verify_theorem_a(single_edge_graph_free_product(), 4, explicit_to=3)
    assert report["euler_ok"] and report["explicit_ranks"][0] == [1, 2, 1]
    assert report["explicit_checks"][0] == {"weight": 0, "injective": True, "exact_middle": False}
    assert all(c["injective"] and c["exact_middle"] for c in report["explicit_checks"][1:])
    assert report["explicit_ok"] is False and report["ok"] is False


def test_theorem_a_loop_tree_mix():
    # two vertices joined by a tree edge, plus a loop: exercises both cases
    V1 = PresentedLieAlgebra(QQ, ["a", ("c", 2)], ["[a,c]"])
    V2 = k1("b")
    K = k1("z")
    Kc = PresentedLieAlgebra(QQ, [("w", 2)])
    edges = [
        Edge("e1", "v1", "v2", K, {"z": "a"}, in_forest=True, tau_images={"z": "b"}),
        Edge(
            "e2", "v1", "v1", Kc, {"w": "c"}, in_forest=False,
            der_values={"w": "0*c"}, stable_weight=1,
        ),
    ]
    g = GraphOfLieAlgebras(QQ, {"v1": V1, "v2": V2}, edges)
    report = verify_theorem_a(g, 8, explicit_to=5)
    assert report["ok"]



def test_theorem_a_non_loop_non_forest_edge():
    # a non-forest edge joining two distinct vertices: its column 1 (x) t.u
    # lands in Q_src = Q_v2, while d(z) lives in v1
    F7 = GF(7)
    V1 = PresentedLieAlgebra(F7, ["a", "c"], ["[a,c]"])
    V2 = PresentedLieAlgebra(F7, ["b", "d"])
    K = PresentedLieAlgebra(F7, ["z"])
    edges = [
        Edge("e1", "v1", "v2", K, {"z": "c"}, in_forest=True, tau_images={"z": "d"}),
        Edge(
            "t", "v2", "v1", K, {"z": "b"}, in_forest=False,
            der_values={"z": "[[a,c],a]"}, stable_weight=2,
        ),
    ]
    g = GraphOfLieAlgebras(F7, {"v1": V1, "v2": V2}, edges)
    report = verify_theorem_a(g, 6, explicit_to=6)
    assert report["ok"]
    assert report["explicit_ranks"] == [
        [1, 2, 1], [2, 2, 2], [7, 7, 7], [19, 19, 19], [55, 55, 55], [158, 158, 158],
        [455, 455, 455],
    ]

def one_edge_amalgam(L1, L2, L0, sigma, tau):
    e = Edge("e1", "v1", "v2", L0, sigma, in_forest=True, tau_images=tau)
    return GraphOfLieAlgebras(QQ, {"v1": L1, "v2": L2}, [e])


def one_edge_loop(V, K, sigma, der):
    e = Edge("t", "v", "v", K, sigma, in_forest=False, der_values=der, stable_weight=1)
    return GraphOfLieAlgebras(QQ, {"v": V}, [e])


ONE_EDGE_GRAPHS = {
    "m-n": lambda: one_edge_amalgam(k2_abelian(), k1(), zero_algebra(), {}, {}),
    "path": lambda: one_edge_amalgam(
        k2_abelian("a1", "b1"), k2_abelian("b2", "c2"), k1("z"), {"z": "b1"}, {"z": "b2"}
    ),
    "free2-amalgam-free2": lambda: one_edge_amalgam(
        PresentedLieAlgebra(QQ, ["u1", "v1"]),
        PresentedLieAlgebra(QQ, ["u2", "v2"]),
        k1("z"),
        {"z": "u1"},
        {"z": "u2"},
    ),
    "zero-derivation": lambda: one_edge_loop(k1("a"), k1("z"), {"z": "a"}, {"z": "0*a"}),
    "free2-loop": lambda: one_edge_loop(
        PresentedLieAlgebra(QQ, ["a", "b"]),
        PresentedLieAlgebra(QQ, ["u", "v"]),
        {"u": "a", "v": "b"},
        {"u": "[a,b]", "v": "0*a"},
    ),
    "heisenberg-loop": lambda: one_edge_loop(
        PresentedLieAlgebra(QQ, [("a", 1), ("b", 2)], ["[a,b]"]),
        PresentedLieAlgebra(QQ, [("u", 1), ("w", 2)], ["[u,w]"]),
        {"u": "a", "w": "b"},
        {"u": "b", "w": "0*b"},
    ),
}


@pytest.mark.parametrize("name", list(ONE_EDGE_GRAPHS))
def test_theorem_a_one_edge(name):
    # amalgams and HNN extensions are the one-edge graphs of Lie algebras
    report = verify_theorem_a(ONE_EDGE_GRAPHS[name](), 6, explicit_to=6)
    assert report["ok"]
    assert [c["weight"] for c in report["explicit_checks"]] == list(range(7))


def test_graph_file_parser(tmp_path):
    (tmp_path / "k2.lie").write_text("field = Q\ngen a weight 1\ngen b weight 1\nrel [a,b]\n")
    (tmp_path / "k1.lie").write_text("field = Q\ngen x weight 1\n")
    (tmp_path / "zero.lie").write_text("field = Q\n")
    text = """
vertex vM k2.lie
vertex vN k1.lie
edge e1 vM vN forest zero.lie
"""
    g = parse_graph_file(text, str(tmp_path))
    fund = g.fundamental()
    assert fund.algebra.dim_sequence(3) == [3, 2, 5]

    text2 = """
vertex v k1.lie
edge t v v k1.lie
map sigma t x -> x
der t x -> 0*x stable-weight 1
"""
    g2 = parse_graph_file(text2, str(tmp_path))
    assert g2.fundamental().algebra.dim_sequence(3) == [2, 0, 0]

    with pytest.raises(GraphError):
        parse_graph_file("vertex v\n", str(tmp_path))

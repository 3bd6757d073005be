from itertools import combinations

import pytest
from hypothesis import given, seed, settings, strategies as st

from gradedlie import raag
from gradedlie.fields import GF, QQ
from gradedlie.linalg import Echelon
from gradedlie.presented import PresentedLieAlgebra
from gradedlie.raag import (
    RaagResolution,
    SimpleGraph,
    coherence_verdict,
    is_chordal,
    parse_graph,
    raag_presentation,
    validate_peo,
    verify_resolution,
)
from gradedlie.series import HilbertSeries
from oracles import (
    PbwResolution,
    TraceNormalForm,
    all_labeled_graphs,
    brute_force_chordal,
    cell_boundary,
    resolution_d_squared_failure,
    resolution_ranks,
    traces,
)


def path(n):
    vs = [f"v{i}" for i in range(1, n + 1)]
    return SimpleGraph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def cycle(n):
    vs = [f"v{i}" for i in range(1, n + 1)]
    return SimpleGraph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def complete(n):
    vs = [f"v{i}" for i in range(1, n + 1)]
    return SimpleGraph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]])


def test_simple_graph_validation():
    with pytest.raises(ValueError):
        SimpleGraph(["a"], [("a", "a")])
    with pytest.raises(ValueError):
        SimpleGraph(["a"], [("a", "b")])


def test_raag_presentations():
    # edgeless: free Lie algebra
    g = SimpleGraph(["a", "b", "c"], [])
    L = raag_presentation(g)
    from gradedlie.freelie import witt_dims

    assert L.dim_sequence(6) == witt_dims([1, 1, 1], 6)
    # complete: abelian
    L3 = raag_presentation(complete(3))
    assert L3.dim_sequence(4) == [3, 0, 0, 0]
    # path a-b-c: Hilb(U) = 1/((1-t)(1-2t))
    Lp = raag_presentation(path(3))
    assert Lp.dim_sequence(4)[:2] == [3, 1]
    expected = HilbertSeries.one(8).divide(HilbertSeries([1, -1], 8) * HilbertSeries([1, -2], 8))
    assert Lp.enveloping_series(8) == expected
    assert Lp.enveloping_series(8).coeffs[:4] == [1, 3, 7, 15]


def test_chordality_verdicts():
    c4 = is_chordal(cycle(4))
    assert not c4["chordal"] and len(c4["induced_cycle"]) == 4 and "peo" not in c4
    c5 = is_chordal(cycle(5))
    assert not c5["chordal"] and len(c5["induced_cycle"]) == 5
    assert is_chordal(path(4))["chordal"]  # trees are chordal
    assert is_chordal(complete(4))["chordal"]
    # K4 minus one edge (diamond) is chordal
    g = complete(4)
    edges = [tuple(e) for e in g.edges if e != frozenset(("v1", "v2"))]
    diamond = SimpleGraph(g.vertices, edges)
    r = is_chordal(diamond)
    assert r["chordal"] and "induced_cycle" not in r
    assert validate_peo(diamond, r["peo"]) is None


def test_chordality_agrees_with_brute_force():
    # all labeled graphs on <= 5 vertices, 100% agreement with the
    # induced-cycle search oracle
    total = 0
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert is_chordal(g)["chordal"] == brute_force_chordal(g)
            total += 1
    assert total == 1 + 2 + 8 + 64 + 1024


def test_clique_polynomial():
    assert cycle(4).clique_polynomial(4).coeffs == [1, -4, 4, 0, 0]
    assert complete(3).clique_polynomial(3).coeffs == [1, -3, 3, -1]
    g = SimpleGraph(["a", "b"], [])
    assert g.clique_polynomial(3).coeffs == [1, -2, 0, 0]


def test_resolution_differential_formula():
    # d2(c_{a,b}) = c_b (x) a - c_a (x) b for a < b, traces as words of
    # vertex indices
    g = SimpleGraph(["a", "b"], [("a", "b")])
    res = RaagResolution(g)
    a, b = res.letters["a"], res.letters["b"]
    assert cell_boundary(res, ("a", "b"), ()) == {
        (("b",), (a,)): QQ.one,
        (("a",), (b,)): QQ.neg(QQ.one),
    }
    # d1(c_v) = v, and the augmentation kills it
    assert cell_boundary(res, ("a",), ()) == {((), (a,)): QQ.one}
    # b commutes with a, so b.ab = ab.b is the trace abb
    assert cell_boundary(res, ("b",), (a, b)) == {((), (a, b, b)): QQ.one}


def test_normal_form_is_the_least_equivalent_word():
    # a and c commute; b commutes with neither
    nf = TraceNormalForm(SimpleGraph(["a", "b", "c"], [("a", "c")]))
    a, b, c = range(3)
    assert nf((c, a)) == (a, c)
    assert nf((b, a)) == (b, a)
    # the first a commutes past c c but not past b
    assert nf((c, c, a, b)) == (a, c, c, b)
    assert nf((c, b, a, c)) == (c, b, a, c)
    # what is left once a letter is taken need not be a normal form: it is
    # normalised again (c a after the first a of c a a, b c a after c)
    assert nf((c, a, a)) == (a, a, c)
    assert nf((c, b, c, a)) == (c, b, a, c)


def test_resolution_exactness_k2():
    report = verify_resolution(SimpleGraph(["a", "b"], [("a", "b")]), 6)
    assert report["ok"] and report["exact"] and report["euler_ok"]


def test_resolution_exactness_c4():
    # exact despite non-chordality; identity Hilb . (1 - 2t)^2 = 1
    report = verify_resolution(cycle(4), 6)
    assert report["ok"]
    L = raag_presentation(cycle(4))
    H = L.enveloping_series(10)
    assert H * HilbertSeries([1, -4, 4], 10) == HilbertSeries.one(10)


def test_resolution_exactness_corpus_small():
    for g in [
        complete(1),
        complete(2),
        complete(3),
        path(3),
        SimpleGraph(["a", "b"], []),
        SimpleGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]),
    ]:
        report = verify_resolution(g, 5)
        assert report["ok"], (g, report["failures"])


def test_resolution_is_not_ok_when_the_euler_identity_fails(monkeypatch):
    # an exact resolution is not enough: the clique polynomial 1 in place of
    # 1 - 4t + 4t^2 breaks Hilb(U) . sum_w (-t)^|w| = 1 alone
    monkeypatch.setattr(SimpleGraph, "clique_polynomial", lambda self, N: HilbertSeries.one(N))
    report = verify_resolution(cycle(4), 4)
    assert report["exact"] and report["failures"] == []
    assert report["euler_ok"] is False and report["ok"] is False


def diamond():
    # K4 minus the edge v1-v4: two triangles sharing the edge v2-v3
    g = complete(4)
    return SimpleGraph(g.vertices, [tuple(e) for e in g.edges if e != frozenset(("v1", "v4"))])


signed_rows = RaagResolution.boundary_rows


def unsigned_rows(self, j, m):
    """RaagResolution.boundary_rows without the sign (-1)^r."""
    return (dict.fromkeys(row, self.field.one) for row in signed_rows(self, j, m))


@pytest.mark.parametrize(
    "graph,top",
    [(cycle(4), 2), (cycle(5), 2), (path(4), 2), (diamond(), 3), (complete(3), 3)],
    ids=["C4", "C5", "P4", "diamond", "K3"],
)
def test_resolution_d_squared_vanishes(graph, top):
    res = RaagResolution(graph)
    assert res.max_position() == top
    assert resolution_d_squared_failure(res, 5) is None


def test_exactness_check_detects_a_dropped_sign(monkeypatch):
    res = RaagResolution(complete(3))
    assert res.verify_exactness(4)[0] == []
    monkeypatch.setattr(RaagResolution, "boundary_rows", unsigned_rows)
    res = RaagResolution(complete(3))
    assert resolution_d_squared_failure(res, 4)[:2] == (2, 2)
    failures, _ = res.verify_exactness(4)
    # in weight 3, d_2 gains rank: r_1 + r_2 = 10 + 9 exceeds dim P_1 = 18
    assert failures[0] == (3, 1, 18, 10, 9)
    assert [f[:2] for f in failures] == [(3, 1), (3, 2), (4, 1), (4, 2)]


def rows_without_top(self, j, m):
    """RaagResolution.boundary_rows with d = 0 on the top position: still a
    complex (d o d = 0), but not exact."""
    rows = signed_rows(self, j, m)
    return ({} for _ in rows) if j == self.max_position() else rows


def test_exactness_check_detects_a_complex_that_is_not_exact(monkeypatch):
    # rank d_j + rank d_{j+1} <= dim P_j holds for any complex; exactness
    # needs the equality, which a zero top differential breaks
    monkeypatch.setattr(RaagResolution, "boundary_rows", rows_without_top)
    res = RaagResolution(complete(3))
    assert resolution_d_squared_failure(res, 4) is None
    failures, _ = res.verify_exactness(4)
    assert [f[:2] for f in failures] == [(3, 2), (3, 3), (4, 2), (4, 3)]


def rows_with_first_added(self, j, m):
    """RaagResolution.boundary_rows with the first row of d_j added to every
    other one on the top position: the same image, so the same exact
    complex, but fewer distinct lowest columns than the rank."""
    rows = list(signed_rows(self, j, m))
    if j == self.max_position():
        for row in rows[1:]:
            self.field.axpy(row, self.field.one, rows[0])
    return rows


def test_exactness_check_eliminates_where_lowest_columns_undercount(monkeypatch):
    # the certificate cannot close, so the weights are eliminated, and the
    # report is that of the unchanged resolution
    want = RaagResolution(complete(3)).verify_exactness(5)
    built = []
    monkeypatch.setattr(raag, "Echelon", lambda field: built.append(field) or Echelon(field))
    monkeypatch.setattr(RaagResolution, "boundary_rows", rows_with_first_added)
    res = RaagResolution(complete(3))
    assert resolution_d_squared_failure(res, 5) is None
    failures, ranks = res.verify_exactness(5)
    assert built
    assert (failures, ranks) == ([], want[1])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 6))
    vs = [f"v{i}" for i in range(1, n + 1)]
    pairs = list(combinations(vs, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(vs, [p for p, k in zip(pairs, keep) if k])


def assert_tables_match_normal_forms(graph, N):
    """T_k and left_k of the resolution's tables equal what the word-level
    normal form gives, for k <= N: T_k is the sorted set of NF(a t), t in
    T_{k-1}, and left_k[a][i] the position of NF(a t_i) in it."""
    res = RaagResolution(graph)
    nf = TraceNormalForm(graph)
    words = [()]
    for k in range(1, N + 1):
        images = [[nf((a,) + t) for t in words] for a in range(len(graph.vertices))]
        expected = sorted(set().union(*images))
        assert traces(res, k) == expected, k
        index = {t: i for i, t in enumerate(expected)}
        assert res.left(k) == [[index[t] for t in row] for row in images], k
        words = expected


@seed(20210105)
@given(graph=small_graphs())
@settings(max_examples=30, deadline=None)
def test_trace_tables_match_normal_forms(graph):
    assert_tables_match_normal_forms(graph, 6)


def p3_lone():
    return SimpleGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])


@pytest.mark.parametrize(
    "graph", [cycle(4), cycle(5), diamond(), p3_lone()], ids=["C4", "C5", "diamond", "p3-lone"]
)
def test_trace_tables_match_normal_forms_to_weight_7(graph):
    assert_tables_match_normal_forms(graph, 7)


@seed(20210119)
@given(graph=small_graphs(), field=st.sampled_from([QQ, GF(7)]))
@settings(max_examples=20, deadline=None)
def test_trace_basis_ranks_match_pbw_oracle(graph, field):
    # the same maps in two bases of U(L_Gamma): equal dims and ranks per
    # (weight, position), and as many traces as PBW monomials
    res = RaagResolution(graph, field)
    series = res.algebra.enveloping_series(5)
    assert [len(traces(res, k)) for k in range(6)] == series.coeffs
    assert resolution_ranks(res, 5) == resolution_ranks(PbwResolution(graph, field), 5)


def no_elimination(field):
    raise AssertionError("a weight of a valid resolution was eliminated")


@seed(20210123)
@given(graph=small_graphs(), field=st.sampled_from([QQ, GF(7)]))
@settings(max_examples=30, deadline=None)
def test_certified_ranks_match_elimination_oracle(graph, field):
    # on a valid resolution the lowest-column certificate closes at every
    # weight, so no Echelon is built, and its ranks are the eliminated ones
    res = RaagResolution(graph, field)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(raag, "Echelon", no_elimination)
        failures, ranks = res.verify_exactness(5)
    assert not failures
    reported = {(m, j): pair for m, row in enumerate(ranks) for j, pair in enumerate(row)}
    assert reported == resolution_ranks(res, 5)


def test_koszul_for_complete_graphs():
    # K_m gives the Koszul complex of a polynomial ring: P_j has rank
    # binomial(m, j)
    g = complete(3)
    res = RaagResolution(g)
    assert [len(res.by_size.get(j, [])) for j in range(4)] == [1, 3, 3, 1]
    assert res.verify_exactness(5)[0] == []


def test_coherence_verdicts():
    v = coherence_verdict(complete(3))
    assert v["coherent"] and v["criterion"] == "chordal"
    assert v["decomposition"] == {"complete": ["v1", "v2", "v3"]}
    v4 = coherence_verdict(cycle(4))
    assert not v4["coherent"] and v4["criterion"] == "induced cycle >= 4"
    assert len(v4["cycle"]) == 4 and "decomposition" not in v4
    vp = coherence_verdict(path(4))
    assert vp["coherent"] and len(vp["peo"]) == 4
    assert "separator" in vp["decomposition"]
    # decomposition tree witnesses a 2-level split for P4
    assert "rest" in vp["decomposition"]


def test_h2_counts_edges():
    # dim H_2(L_Gamma) = |E|, concentrated in weight 2
    for g in [path(3), cycle(4), complete(3)]:
        L = raag_presentation(g)
        h2 = L.h2_hopf(4)
        assert h2[1] == len(g.edges)
        assert sum(h2) == len(g.edges)


def test_hi_counts_cliques():
    # dim H_i(L_Gamma) in weight i equals the number of i-cliques
    from gradedlie.homology import homology_table

    for g in [path(3), complete(3), cycle(4)]:
        L = raag_presentation(g)
        table = homology_table(L, 3, 4)
        counts = {}
        for w in g.cliques():
            counts[len(w)] = counts.get(len(w), 0) + 1
        for i in range(4):
            assert table[i][i] == counts.get(i, 0), (g, i)


def test_derived_subalgebra_free_for_chordal():
    # [L,L] of a chordal RAAG is free: infer a presentation of the
    # commutator subalgebra up to weight 6 and witness H2 = 0
    from gradedlie.presented import infer_presentation

    for g in [path(3), complete(3), SimpleGraph(["a", "b"], [])]:
        L = raag_presentation(g)
        eng = L.engine
        gens = []
        for n in range(2, 5):
            for i in range(L.dim(n)):
                # commutator component equals everything in weight >= 2
                vec = {i: QQ.one}
                gens.append((n, vec))
        S = L.subalgebra(gens)
        pres, _ = infer_presentation(S, 6)
        assert pres.relators == [], g
        assert pres.is_free_up_to(6)["verdict"] == "free-witnessed"


def test_parse_graph():
    g = parse_graph("vertices a b c\nedge a b\nedge b c\n")
    assert g.vertices == ["a", "b", "c"]
    assert g.has_edge("a", "b") and not g.has_edge("a", "c")
    with pytest.raises(ValueError):
        parse_graph("edge a b\n")

from math import comb

import pytest

from gradedlie.fields import QQ, GF
from gradedlie.homology import ChainComplex, homology_table
from gradedlie.presented import PresentedLieAlgebra
from oracles import d_squared_vanishes, mv_rank_certificate


def test_complex_shape():
    L = PresentedLieAlgebra(QQ, ["x", "y"])
    cx = ChainComplex(L, 5)
    assert cx.dim(0, 0) == 1
    for n in range(1, 6):
        assert cx.dim(0, n) == 0
        assert cx.dim(1, n) == L.dim(n)


def test_abelian_differentials_vanish():
    L = PresentedLieAlgebra(QQ, ["x", "y", "z"], ["[x,y]", "[x,z]", "[y,z]"])
    cx = ChainComplex(L, 4)
    for i in range(1, 4):
        for n in range(5):
            assert not any(cx.differential(i, n).columns)


def test_d_squared_zero():
    for gens, rels in [
        (["x", "y"], []),
        (["a", "b", "x"], ["[a,b]"]),
        (["x", "y"], ["[x,[x,y]]"]),
        ([("a", 1), ("t", 2)], ["[a,[a,t]]"]),
    ]:
        L = PresentedLieAlgebra(QQ, gens, rels)
        cx = ChainComplex(L, 6)
        assert d_squared_vanishes(cx, 3)


def test_homology_free():
    L = PresentedLieAlgebra(QQ, ["x", "y"])
    table = homology_table(L, 3, 6)
    assert table[0][0] == 1 and sum(table[0][1:]) == 0
    assert table[1][1] == 2 and sum(table[1]) == 2
    assert sum(table[2]) == 0
    assert sum(table[3]) == 0


def test_homology_abelian_exterior():
    # H_i of abelian k^m has dim binomial(m, i), concentrated in weight i
    for m in (2, 3):
        gens = [f"x{j}" for j in range(m)]
        rels = [f"[x{i},{'x%d' % j}]" for i in range(m) for j in range(i + 1, m)]
        L = PresentedLieAlgebra(QQ, gens, rels)
        table = homology_table(L, m, m)
        for i in range(m + 1):
            assert sum(table[i]) == comb(m, i)
            if i:
                assert table[i][i] == comb(m, i)


def test_h1_h2_match_presentation_routes():
    cases = [
        (["x", "y"], []),
        (["x", "y"], ["[x,y]"]),
        (["a", "b", "x"], ["[a,b]"]),
        (["x", "y"], ["[x,[x,y]]"]),
        (["a", "b"], ["[a,[a,b]]", "[b,[a,b]]"]),
        ([("a", 1), ("t", 2)], ["[a,[a,t]]"]),
    ]
    for gens, rels in cases:
        L = PresentedLieAlgebra(QQ, gens, rels)
        table = homology_table(L, 2, 6)
        assert table[1][1:7] == L.h1(6), (gens, rels)
        assert table[2][1:7] == L.h2_hopf(6), (gens, rels)


def test_h1_h2_match_fp():
    L = PresentedLieAlgebra(GF(7), ["a", "b", "x"], ["[a,b]"])
    table = homology_table(L, 2, 5)
    assert table[1][1:6] == L.h1(5)
    assert table[2][1:6] == L.h2_hopf(5)


def test_euler_characteristic_per_weight():
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    I, N = 3, 5
    cx = ChainComplex(L, N)
    table = homology_table(L, I, N)
    for n in range(N + 1):
        # chains vanish above homological degree n (weights >= 1 each)
        if n > I:
            continue
        chain_sum = sum((-1) ** i * cx.dim(i, n) for i in range(n + 1))
        hom_sum = sum((-1) ** i * table[i][n] for i in range(n + 1))
        assert chain_sum == hom_sum


def test_free_hi_vanish():
    L = PresentedLieAlgebra(QQ, ["x", "y", "z"])
    table = homology_table(L, 4, 5)
    for i in range(2, 5):
        assert sum(table[i]) == 0


def test_mv_certificate_free_product():
    # L = M * N: H_2(L) = H_2(M) + H_2(N) per weight feeds the sequence
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    M = PresentedLieAlgebra(QQ, ["a", "b"], ["[a,b]"])
    Nn = PresentedLieAlgebra(QQ, ["x"])
    Z = PresentedLieAlgebra(QQ, [])
    I, N = 3, 6
    tL = homology_table(L, I, N)
    tM = homology_table(M, I, N)
    tN = homology_table(Nn, I, N)
    tZ = homology_table(Z, I, N)
    report = mv_rank_certificate([(tZ, 0)], [tM, tN], tL, I, N)
    assert report.ok
    # additivity of H_2 across the free product, weight by weight
    for n in range(N + 1):
        assert tL[2][n] == tM[2][n] + tN[2][n]


def test_mv_certificate_detects_garbage():
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    M = PresentedLieAlgebra(QQ, ["a", "b"], ["[a,b]"])
    Nn = PresentedLieAlgebra(QQ, ["x"])
    I, N = 2, 5
    tL = homology_table(L, I, N)
    tM = homology_table(M, I, N)
    tN = homology_table(Nn, I, N)
    # wrong edge data (pretend the edge algebra is 2-dimensional abelian)
    tBad = homology_table(M, I, N)
    report = mv_rank_certificate([(tBad, 0)], [tM, tN], tL, I, N)
    assert not report.ok

import hashlib
import os

import pytest

from gradedlie import presented
from gradedlie.fields import QQ, GF
from gradedlie.freelie import witt_dims
from gradedlie.linalg import Echelon
from gradedlie.presented import (
    GradedSubalgebra,
    PresentationError,
    PresentedLieAlgebra,
    infer_presentation,
    load_presentation,
    parse_presentation,
)
from gradedlie.series import HilbertSeries
from oracles import dim_via_ideal, ideal_component, pbw_graded_dims


def test_free_dims_match_witt():
    for gens in (["x", "y"], ["x", "y", "z"], [("a", 1), ("t", 2)]):
        P = PresentedLieAlgebra(QQ, gens)
        weights = [w for _, w in [(g.name, g.weight) for g in P.generators]]
        N = 8
        assert P.dim_sequence(N) == witt_dims(weights, N)
        # the engine route must agree with the Witt shortcut
        assert [P.engine.dim(n) for n in range(1, N + 1)] == witt_dims(weights, N)


def test_abelian():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]"])
    assert P.dim_sequence(5) == [2, 0, 0, 0, 0]


def test_heisenberg():
    P = PresentedLieAlgebra(QQ, ["a", "b"], ["[a,[a,b]]", "[b,[a,b]]"])
    assert P.dim_sequence(4) == [2, 1, 0, 0]


def test_m_star_n_dims():
    # free product of a 2-dim abelian algebra and a 1-dim algebra;
    # oracle: PBW inversion of 1/(1 - 3t + t^2)
    P = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    N = 8
    series = HilbertSeries.one(N).divide(HilbertSeries([1, -3, 1], N))
    assert series.coeffs[:5] == [1, 3, 8, 21, 55]
    expected = pbw_graded_dims(series)
    assert P.dim_sequence(N) == expected
    assert P.dim_sequence(3) == [3, 2, 5]


def test_engine_matches_ideal_route():
    cases = [
        (["x", "y"], ["[x,y]"]),
        (["x", "y"], ["[x,[x,y]]"]),
        (["a", "b", "x"], ["[a,b]"]),
        (["a", "b"], ["[a,[a,b]]", "[b,[a,b]]"]),
        ([("a", 1), ("t", 2)], ["[a,[a,t]]"]),
        (["x", "y"], ["x-y"]),  # weight-1 relator kills a generator
        (["x", "y", "z"], ["[x,y]", "[y,z]"]),
    ]
    for gens, rels in cases:
        P = PresentedLieAlgebra(QQ, gens, rels)
        for n in range(1, 7):
            assert P.dim(n) == dim_via_ideal(P, n), (gens, rels, n)


def test_engine_matches_ideal_route_fp():
    P = PresentedLieAlgebra(GF(5), ["x", "y"], ["[x,[x,y]]"])
    for n in range(1, 7):
        assert P.dim(n) == dim_via_ideal(P, n)


def test_weight_one_relator():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["x-y"])
    assert P.dim_sequence(4) == [1, 0, 0, 0]


def test_left_normed_spanning_oracle():
    # the span of all left-normed bracket images equals L_n
    from gradedlie.linalg import Echelon
    from itertools import product

    P = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    free = P.free
    for n in range(2, 6):
        ech = Echelon(QQ)
        for word in product("abx", repeat=n):
            e = free.gen_element(word[0])
            for gname in word[1:]:
                e = e.bracket(free.gen_element(gname))
            if e.is_zero():
                continue
            _, vec = P.evaluate(e)
            ech.add(vec)
        assert ech.rank == P.dim(n)


def test_ideal_component_examples():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]"])
    sub2 = ideal_component(P, 2)
    assert sub2.rank == 1 and len(P.free.hall_basis(2)) == 1
    sub3 = ideal_component(P, 3)
    assert sub3.rank == 2 and len(P.free.hall_basis(3)) == 2
    assert P.dim(3) == 0

    F = PresentedLieAlgebra(QQ, ["x", "y"])
    assert ideal_component(F, 4).rank == 0


def test_h1():
    F = PresentedLieAlgebra(QQ, ["x", "y"])
    assert F.h1(4) == [2, 0, 0, 0]
    A = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]"])
    assert A.h1(4) == [2, 0, 0, 0]
    W = PresentedLieAlgebra(QQ, [("a", 1), ("t", 2)])
    assert W.h1(4) == [1, 1, 0, 0]


def test_h2_hopf():
    F = PresentedLieAlgebra(QQ, ["x", "y", "z"])
    assert F.h2_hopf(5) == [0] * 5

    A = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]"])
    assert A.h2_hopf(5) == [0, 1, 0, 0, 0]

    one_rel = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,[x,y]]"])
    assert one_rel.h2_hopf(6) == [0, 0, 1, 0, 0, 0]

    heis = PresentedLieAlgebra(QQ, ["a", "b"], ["[a,[a,b]]", "[b,[a,b]]"])
    assert sum(heis.h2_hopf(6)) == 2


def test_h2_nonminimal_presentation():
    # relator kills a generator: H2 stays 0 even though the presentation is
    # not minimal
    P = PresentedLieAlgebra(QQ, [("y", 1), ("w", 2)], ["w"])
    assert P.h2_hopf(5) == [0] * 5
    assert P.dim_sequence(4) == [1, 0, 0, 0]


def test_is_free_up_to():
    F = PresentedLieAlgebra(QQ, ["x", "y", "z"])
    assert F.is_free_up_to(5) == {"verdict": "free-witnessed", "checked_to": 5,
                                  "witness_weight": None, "h2": [0] * 5}
    A = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]"])
    v = A.is_free_up_to(5)
    assert v["verdict"] == "not-free" and v["witness_weight"] == 2
    assert v["h2"] == A.h2_hopf(5) == [0, 1, 0, 0, 0]
    # the relator z kills a generator: free on x, y once its weight is reached
    K = PresentedLieAlgebra(QQ, ["x", "y", ("z", 2)], ["z"])
    assert K.is_free_up_to(2)["verdict"] == "free-witnessed"
    assert K.is_free_up_to(1)["verdict"] == "inconclusive"


def test_inhomogeneous_relator_rejected():
    with pytest.raises(PresentationError):
        PresentedLieAlgebra(QQ, ["x", "y"], ["x+[x,y]"])
    with pytest.raises(PresentationError):
        PresentedLieAlgebra(QQ, ["x", "y"], ["[x,x]"])  # zero relator


def test_subalgebra_span_and_membership():
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    S = L.subalgebra(["a", "b", "[x,a]", "[x,b]"])
    assert S.span(1).rank == 2

    def member(expr):
        w, vec = L.evaluate(L.parse(expr))
        return not S.span(w).reduce(vec)

    assert member("a")
    assert member("[x,a]")
    assert not member("x")
    assert member("[[x,a],b]")


def test_subalgebra_bracket_closed():
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    S = L.subalgebra(["a", "b", "[x,a]", "[x,b]"])
    eng = L.engine
    for i in range(1, 4):
        for j in range(1, 4):
            si, sj = S.span(i), S.span(j)
            target = S.span(i + j)
            for va in si.basis():
                for vb in sj.basis():
                    assert not target.reduce(eng.bracket_vec(i, va, j, vb))


def test_infer_presentation_free():
    L = PresentedLieAlgebra(QQ, ["x", "y"])
    S = L.subalgebra(["x", "y"])
    pres, conclusive = infer_presentation(S, 6)
    assert conclusive and pres.relators == []
    assert [g.weight for g in pres.generators] == [1, 1]


def test_infer_presentation_abelian_slice():
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    S = L.subalgebra(["a", "b"])
    assert S.span_dims(6) == [2, 0, 0, 0, 0, 0]  # spans read first leave [S,S] as it was
    pres, _ = infer_presentation(S, 6)
    assert len(pres.generators) == 2
    assert pres.relator_weights() == [2]
    assert pres.dim_sequence(6) == [2, 0, 0, 0, 0, 0]


def test_infer_presentation_section6():
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    S = L.subalgebra(["a", "b", "[x,a]", "[x,b]"])
    pres, _ = infer_presentation(S, 7, names=["a", "b", "z", "t"])
    assert [g.weight for g in pres.generators] == [1, 1, 2, 2]
    assert pres.relator_weights() == [2, 3]
    assert pres.dim_sequence(7) == S.span_dims(7)
    assert pres.h1(7) == [2, 2, 0, 0, 0, 0, 0]
    assert sum(pres.h2_hopf(7)) == 2


def test_infer_inconclusive_signal():
    # below the weight of a given generator, S/[S,S] may have a generator
    # beyond the truncation
    L = PresentedLieAlgebra(QQ, ["x", "y"])
    S = L.subalgebra(["y", "[x,[x,y]]"])
    assert not infer_presentation(S, 2)[1]
    # from the largest given weight on, the generator set is certified
    assert infer_presentation(S, 3)[1]
    pres, conclusive = infer_presentation(S, 6)
    assert conclusive
    assert pres.relators == []  # free subalgebra


def test_infer_at_weight_0_is_inconclusive():
    # no weight is checked at N = 0, so no generator set is certified
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    S = L.subalgebra(["a"])
    assert not infer_presentation(S, 0)[1]
    assert infer_presentation(S, 1)[1]
    assert infer_presentation(S, 2)[1]


def test_parse_presentation_roundtrip():
    text = """
# Heisenberg
field = Q
gen a weight 1
gen b weight 1
rel [a,[a,b]]
rel [b,[a,b]]
"""
    P = parse_presentation(text)
    assert P.field == QQ
    assert P.dim_sequence(4) == [2, 1, 0, 0]
    with pytest.raises(PresentationError):
        parse_presentation("gen a weight 1")  # no field
    with pytest.raises(PresentationError):
        parse_presentation("field = Q\ngen a weight one")


def test_zero_generator_presentation():
    Z = PresentedLieAlgebra(QQ, [], [])
    assert Z.dim_sequence(4) == [0, 0, 0, 0]



def _stored_pairs(path, field, N):
    """The engine for path over field, built to N with every pair of
    weight N asked for, and its stored vectors: candidate reductions and
    pair memo entries as (numerators, den)."""
    eng = load_presentation(path, field=field).engine
    eng.build_to(N)
    for a in range(1, N):
        for i in range(eng.dim(a)):
            for j in range(eng.dim(N - a)):
                eng.pair((a, i), (N - a, j))
    stored = []
    for n in range(1, N + 1):
        stored += [vd for col in eng._cand_red[n].values() for vd in col]
        stored += [vd for col in eng._pair_memo[n].values() for vd in col.values()]
    return eng, stored


def test_engine_stores_integer_numerators_and_both_orientations():
    # M*N after a change of generators whose reduction map has denominators
    # up to 64: the engine keeps int numerators over one den per vector, and
    # both orientations of a pair share one numerators dict
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "mn-denom.lie")
    eng, stored = _stored_pairs(path, QQ, 7)
    for vec, den in stored:
        assert type(den) is int and all(type(x) is int for x in vec.values())
    assert max(abs(den) for _, den in stored) == 64
    for n in range(1, 8):
        memo = eng._pair_memo[n]
        assert memo or n == 1
        for q, col in memo.items():
            for i, (vec, den) in col.items():
                vec_t, den_t = memo[n - q[0], i][q[1]]
                assert vec_t is vec and den_t == -den
    # over F_p every numerator is a residue in [1, p) and every den is +-1
    _, stored = _stored_pairs(path, GF(7), 7)
    for vec, den in stored:
        assert den in (1, -1) and all(type(x) is int and 0 < x < 7 for x in vec.values())


class _RecordingEchelon(Echelon):
    """An Echelon that records every vector added to it."""

    made: list = []

    def __init__(self, field):
        super().__init__(field)
        self.added = []
        _RecordingEchelon.made.append(self)

    def add(self, vec):
        self.added.append(dict(vec))
        return super().add(vec)


def _engine_digests(path, field, N, monkeypatch):
    """SHA-256 of the constraint rows each engine build hands to Echelon
    (per weight, in order, each row scaled to leading coefficient 1) and of
    the canonical pair(p, q) table up to weight N."""
    monkeypatch.setattr(_RecordingEchelon, "made", [])
    monkeypatch.setattr(presented, "Echelon", _RecordingEchelon)
    eng = load_presentation(path, field=field).engine
    eng.build_to(N)
    builds = _RecordingEchelon.made
    monkeypatch.undo()
    assert len(builds) == N  # one echelon per weight, none elsewhere
    rows = hashlib.sha256()
    for n, ech in enumerate(builds, start=1):
        for row in ech.added:
            lead = row[min(row)]
            items = sorted((c, field.div(x, lead)) for c, x in row.items())
            rows.update(f"{n}:{items}\n".encode())
    table = hashlib.sha256()
    for wp in range(1, N):
        for wq in range(1, N - wp + 1):
            for i in range(eng.dim(wp)):
                for j in range(eng.dim(wq)):
                    vec = eng.pair((wp, i), (wq, j))
                    table.update(f"{wp},{i},{wq},{j}:{sorted(vec.items())}\n".encode())
    return rows.hexdigest(), table.hexdigest()


ENGINE_DIGESTS = {
    ("mn.lie", "Q"): (
        "d91758f10a1770ebd71bdd6ae5a137d3faa12c8c1c46707fc116d269a32e38c3",
        "ab18445e03293a4efbdba8c0c21c94ad108ff00082d25478315c2944e2f52bf4",
    ),
    ("mn.lie", "Fp:7"): (
        "fa6afd907d72406dec34c230dd10335f99f08c973f1ddafe6002e35d7eda4936",
        "b06313525898f7a43b9011d88cfaaf6b48f90e78dab72f51d752eb574c6f4b72",
    ),
    ("mn-twisted.lie", "Q"): (
        "1b4d81b22da1b6326f0539df6b5d1a741feb77a9bcfa96e96bf2a7ee08dbd104",
        "f027791632ce13c40b3cf9e5da05d951bfa99e0eaceb0dd06ff2bfc3c28119e5",
    ),
    ("mn-twisted.lie", "Fp:7"): (
        "7dfdca126333dc55fdec5b1a58e51af2f4d185f41d7254a85c3cba0540ca6052",
        "f72a3162d6f3f3d77358265dd3d486e1d9c9635c978fca6b60da8fea30c7685b",
    ),
    ("mn-denom.lie", "Q"): (
        "7cdb4af23663ffc2741c995e2c0f854ed5048bc9b031040521138e78c1c5ecf5",
        "f469936ccb716b45f2e37ae11849c194653a07f367f4a01aa179d16201cfb05c",
    ),
    ("mn-denom.lie", "Fp:7"): (
        "0f6daed29face2b7f9a136dc4d07476a69a494f27e5ca4468dbd9975496606cf",
        "897fe16a9cb4b6f8299340a6bedc9fcf955bbe2133df11dd82e8b7d9e2794c4a",
    ),
}


@pytest.mark.parametrize("name,field", sorted(ENGINE_DIGESTS), ids=lambda v: str(v))
def test_engine_rows_and_table_pinned(name, field, monkeypatch):
    # the graded engine's output itself, not only the ranks the golden
    # reports print: the rows of every build up to scalar, and the bracket
    # table
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", name)
    fld = QQ if field == "Q" else GF(int(field[3:]))
    got = _engine_digests(path, fld, 7, monkeypatch)
    assert got == ENGINE_DIGESTS[name, field]

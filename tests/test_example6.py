import pytest

from gradedlie import example6
from gradedlie.example6 import (
    ambient_free_product,
    build_s,
    change_field,
    distinguish_quotients,
    fingerprint,
    four_vertex_two_edge_graphs,
    full_report,
    not_free_product_witness,
    not_raag_witness,
    quotient_algebras,
)
from gradedlie.fields import GF, QQ
from gradedlie.presented import PresentedLieAlgebra
from oracles import zero_pair_count_oracle


@pytest.fixture(scope="module")
def s_report():
    return build_s(QQ)


def test_build_s(s_report):
    report = s_report
    assert report["h1_total"] == 4
    assert report["h2_total"] == 2
    assert report["h1_ce_total"] == 4  # Chevalley-Eilenberg route agrees
    assert report["h2_ce_total"] == 2
    assert report["relator_weights"] == [2, 3]
    assert report["proper"] and report["not_in_free_factor"] and report["not_in_abelian_factor"]
    assert report["ok"]


def test_not_free_product_witness(s_report):
    report = not_free_product_witness(s_report, QQ)
    assert report["h2_M"] == 1
    assert report["h2_Q_candidate"] == 0
    assert report["h2_sum"] == 1
    assert report["h2_S"] == 2
    assert report["contradiction"]
    assert report["ok"]


def test_quotient_dims():
    # degree-2 component of each class-2 quotient: 6 brackets minus 2
    # relations
    for alg in quotient_algebras(QQ).values():
        assert alg.dim(1) == 4
        assert alg.dim(2) == 4


# golden fingerprints, frozen from the exhaustive enumeration oracle
FROZEN = {
    "E": (4, 4, (2, 52, ((0, 1), (2, 3), (3, 12))), (3, 369, ((0, 1), (2, 8), (3, 72)))),
    "E~": (4, 4, (2, 64, ((0, 1), (1, 1), (2, 6), (3, 8))), (3, 513, ((0, 1), (1, 2), (2, 24), (3, 54)))),
    "E^": (4, 4, (2, 58, ((0, 1), (2, 6), (3, 9))), (3, 417, ((0, 1), (2, 16), (3, 64)))),
}


def test_fingerprints_frozen():
    algs = quotient_algebras(QQ)
    for name, alg in algs.items():
        assert fingerprint(alg) == FROZEN[name], name


def test_fingerprint_matches_enumeration_oracle():
    algs = quotient_algebras(QQ)
    for name, alg in algs.items():
        fp = fingerprint(alg)
        for p in (2, 3):
            oracle = zero_pair_count_oracle(alg, p)
            module_val = next(t for t in fp if isinstance(t, tuple) and t[0] == p)[1]
            assert oracle == module_val, (name, p)


def test_zero_pairs_include_proportional_pairs():
    # lower bound: all (v, lambda v) pairs commute
    for name, alg in quotient_algebras(QQ).items():
        for p in (2, 3):
            count = zero_pair_count_oracle(alg, p)
            proportional = (p**4 - 1) * p + p**4
            assert count >= proportional, (name, p)


def test_e_commuting_structure():
    # in E the commuting pairs are exactly the proportional ones plus the
    # pairs inside the plane spanned by x1, x2
    count2 = zero_pair_count_oracle(quotient_algebras(QQ)["E"], 2)
    proportional = (2**4 - 1) * 2 + 2**4
    plane_extra = 2**4 - 10  # plane pairs not already proportional
    assert count2 == proportional + plane_extra == 52
    # E^ has two independent commuting planes
    count_hat = zero_pair_count_oracle(quotient_algebras(QQ)["E^"], 2)
    assert count_hat == proportional + 2 * plane_extra == 58


def test_distinguish_quotients():
    report = distinguish_quotients(QQ)
    assert report["ok"]
    assert report["separated"] == {("E", "E~"): True, ("E", "E^"): True, ("E~", "E^"): True}
    assert report["fingerprints"] == FROZEN


def test_four_vertex_two_edge_enumeration():
    classes = four_vertex_two_edge_graphs()
    assert set(classes) == {"shared", "disjoint"}


def test_not_raag_witness(s_report):
    dq = distinguish_quotients(QQ)
    assert not_raag_witness(s_report, dq) == {"ok": True}
    # E~ and E^ are the two candidate RAAGs: neither may match E
    for pair in (("E", "E~"), ("E", "E^")):
        unseparated = {**dq, "separated": {**dq["separated"], pair: False}}
        assert not_raag_witness(s_report, unseparated) == {"ok": False}, pair


# the paper's presentations of the two candidate quotients
PAPER_QUOTIENTS = {"E~": ["[x1,x2]", "[x1,x3]"], "E^": ["[x1,x2]", "[x4,x3]"]}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_graph_defined_quotients_are_the_papers(field):
    # E~ and E^ are defined as RAAG Lie algebras of graphs; the paper
    # presents them by relators.  Each paper relator vanishes in the
    # graph-defined algebra and the dimensions agree; both ideals are
    # generated in weight 2, so the two are the same quotient of the free
    # Lie algebra on x1..x4.
    algs = quotient_algebras(field)
    for name, rels in PAPER_QUOTIENTS.items():
        alg = algs[name]
        paper = PresentedLieAlgebra(field, ["x1", "x2", "x3", "x4"], rels)
        for rel in rels:
            assert alg.evaluate(alg.parse(rel)) == (2, {}), (name, rel)
        assert alg.dim_sequence(4) == paper.dim_sequence(4), name


def test_raag_quotients_match_tilde_and_hat():
    # the two candidate graphs give exactly the fingerprints of E~ and E^
    from gradedlie.raag import raag_presentation

    classes = four_vertex_two_edge_graphs()
    assert fingerprint(raag_presentation(classes["shared"], QQ)) == FROZEN["E~"]
    assert fingerprint(raag_presentation(classes["disjoint"], QQ)) == FROZEN["E^"]


def test_change_field():
    L = ambient_free_product(QQ)
    L5 = change_field(L, GF(5))
    assert L5.dim_sequence(5) == L.dim_sequence(5)


def test_full_report(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return fingerprint(*args, **kwargs)

    monkeypatch.setattr(example6, "fingerprint", counted)
    report = full_report(QQ)
    assert report["ok"]
    # one fingerprint per quotient, shared by both quotient witnesses
    assert sorted(calls) == ["E", "E^", "E~"]


def test_fingerprint_reduces_from_q():
    from gradedlie.fields import FieldError

    over_q = quotient_algebras(QQ)["E"]
    over_p = quotient_algebras(GF(2147483647))["E"]
    with pytest.raises(FieldError):
        fingerprint(over_p)
    assert fingerprint(over_p, rational=over_q) == fingerprint(over_q)

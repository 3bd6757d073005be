import json
import os

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from gradedlie import onerelator
from gradedlie.cli import main
from gradedlie.fields import GF, QQ
from gradedlie.graphalg import GraphError, LieDerivation
from gradedlie.onerelator import (
    DecompositionError,
    decompose,
    freiheitssatz_check,
    rebuild,
    verify_tower,
)
from gradedlie.presented import PresentedLieAlgebra
from gradedlie.series import HilbertSeries
from oracles import free_subalgebra_contains


def test_freiheitssatz_examples():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]"])
    r = P.parse("[x,y]")
    x = P.free.gen_monomial("x")
    y = P.free.gen_monomial("y")
    assert freiheitssatz_check(P, r, [x])
    assert not freiheitssatz_check(P, r, [x, y])
    # the spans are truncated at the relator weight; there is no bound to pass
    with pytest.raises(TypeError):
        freiheitssatz_check(P, r, [x], 8)


def _case(field, gens, family, r):
    """(P, family as Hall monomial ids, r) from bracket texts."""
    P = PresentedLieAlgebra(field, gens, [])
    elems = [P.free.parse(text) for text in family]
    assert all(len(e.terms) == 1 for e in elems)
    return P, [next(iter(e.terms)) for e in elems], P.free.parse(r)


@st.composite
def hall_families(draw):
    """Q or F_7, a family of 1-4 Hall monomials of weight <= 5 on 2-3
    generators, and r of weight <= 5: a left-normed bracket of members (in
    the subalgebra) plus a combination of Hall monomials of r's weight."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    P = PresentedLieAlgebra(field, ["x", "y", "z"][: draw(st.integers(2, 3))], [])
    free = P.free
    monos = [m for n in range(1, 6) for m in free.hall_basis(n)]
    family = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    inside = free.monomial_element(family[0])
    for m in draw(st.lists(st.sampled_from(family), max_size=3)):
        if inside.weight() + free.weight(m) <= 5:
            inside = inside.bracket(free.monomial_element(m))
        if inside.is_zero():
            break
    w = draw(st.integers(1, 5)) if inside.is_zero() else inside.weight()
    coeff = st.integers(0, 6).map(field.of)
    r = inside.scale(draw(coeff))
    for m in draw(st.lists(st.sampled_from(free.hall_basis(w)), max_size=2, unique=True)):
        r = r + free.monomial_element(m).scale(draw(coeff))
    return P, family, r


@seed(2101)
@settings(max_examples=60, deadline=None, database=None)
@given(case=hall_families())
# families that are not free: [x,y] and [x,[x,y]] are brackets of members
@example(case=_case(QQ, ["x", "y"], ["x", "y", "[x,y]"], "[x,[x,y]]"))
@example(case=_case(GF(7), ["x", "y"], ["x", "[x,y]", "[x,[x,y]]"], "[y,[x,y]]"))
# members heavier than r
@example(case=_case(QQ, ["x", "y", "z"], ["x", "y", "[z,[x,[x,y]]]"], "[x,z]"))
@example(case=_case(GF(7), ["x", "y", "z"], ["z", "[x,y]", "[x,[x,[x,y]]]"], "[z,[x,y]]"))
def test_freiheitssatz_check_matches_span_oracle(case):
    # one solve over the free algebra on the family decides membership,
    # free family or not; the oracle builds the subalgebra's spans
    P, family, r = case
    assume(not r.is_zero())
    assert freiheitssatz_check(P, r, family) == (not free_subalgebra_contains(P.free, family, r))


def test_layer_reports_state_associated_weight():
    P = PresentedLieAlgebra(QQ, ["x", "y", "z"], ["[x,[x,y]]+[z,[z,y]]"])
    tower = decompose(P)
    report = verify_tower(tower, 6)
    assert report["ok"]
    # layer reports run base outward, the reverse of extraction order
    for layer, lr in zip(reversed(tower.layers), report["layers"]):
        assert lr["stable_letter"] == P.free.monomial_str(layer.h)
        if layer.Z:
            max_w = max(P.free.weight(z) for z in layer.Z)
            assert lr["associated_checked_to"] == max(max_w + 2, 4)
        else:
            assert lr["associated_checked_to"] is None


def test_decompose_abelian_rank2():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]"])
    tower = decompose(P)
    assert tower.depth >= 1
    L = rebuild(tower)
    assert L.dim_sequence(8) == [2, 0, 0, 0, 0, 0, 0, 0]
    report = verify_tower(tower, 10)
    assert report["ok"], report


def test_decompose_one_relator_weight3():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,[x,y]]"])
    tower = decompose(P)
    L = rebuild(tower)
    assert (
        L.enveloping_series(10) == P.enveloping_series(10)
    )
    report = verify_tower(tower, 10)
    assert report["ok"], report
    # the minimal exponent at the first layer is 2: r = [x,x,y]
    assert tower.layers[0].j == 2


def test_decompose_solves_each_family_once(monkeypatch):
    # the j-search's successful solve is the next step's re-expression
    families = []
    solve = onerelator._express_over

    def counted(free, family, r):
        families.append(tuple(family))
        return solve(free, family, r)

    monkeypatch.setattr(onerelator, "_express_over", counted)
    P = PresentedLieAlgebra(QQ, ["x", "y", "z"], ["[x,[x,y]]+[z,[z,y]]"])
    assert decompose(P).depth == 3
    assert len(families) == len(set(families)) == 8


def test_decompose_degenerate_generator_relator():
    # relator of weight 1: a re-based free algebra loses one direction
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["x-y"])
    tower = decompose(P)
    assert tower.depth == 0
    report = verify_tower(tower, 8)
    assert report["ok"]


def test_decompose_weighted():
    P = PresentedLieAlgebra(QQ, [("a", 1), ("b", 2)], ["[a,[a,b]]"])
    tower = decompose(P)
    report = verify_tower(tower, 10)
    assert report["ok"], report


def test_decompose_weight5_relator():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[[x,y],[x,[x,y]]]"])
    tower = decompose(P)
    report = verify_tower(tower, 10)
    assert report["ok"], report


def test_one_relator_h2_is_one_dim():
    # H_2 of a one-relator graded algebra is 1-dimensional, concentrated in
    # the relator's weight
    for gens, rel, w in [
        (["x", "y"], "[x,y]", 2),
        (["x", "y"], "[x,[x,y]]", 3),
        ([("a", 1), ("b", 2)], "[a,[a,b]]", 4),
    ]:
        P = PresentedLieAlgebra(QQ, gens, [rel])
        h2 = P.h2_hopf(max(w + 2, 6))
        assert sum(h2) == 1
        assert h2[w - 1] == 1


def test_tower_base_and_associated_free():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,[x,y]]"])
    tower = decompose(P)
    report = verify_tower(tower, 10)
    assert report["base_free"]
    for lr in report["layers"]:
        assert lr["associated_free"]
        assert lr["freiheitssatz"]
        assert lr["j_minimal"]
        assert lr["leibniz"]


def test_hand_built_tower_with_wrong_j_fails():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,[x,y]]"])
    tower = decompose(P)
    # sabotage: shrink the first layer's family below the needed exponent
    layer = tower.layers[0]
    free = P.free
    bad_Y = [y for y in layer.Y if free.weight(y) < 3]
    tower.base_family = bad_Y
    from gradedlie.onerelator import DecompositionError

    report = verify_tower(tower, 8)
    assert not report["ok"]


def test_tower_is_not_ok_when_an_exponent_is_not_minimal(monkeypatch):
    # every member counted with exponent 0: the minimality retest keeps the
    # whole family, which still expresses r, while every other check holds
    monkeypatch.setattr(onerelator, "_h_exponent", lambda free, h, y: 0)
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,[x,y]]"])
    report = verify_tower(decompose(P), 8)
    assert report["dims_match"] and report["base_free"]
    assert [lr["j_minimal"] for lr in report["layers"]] == [False]
    assert all(lr["associated_free"] and lr["freiheitssatz"] and lr["leibniz"]
               for lr in report["layers"])
    assert report["ok"] is False


def _raise_graph_error(*args):
    raise GraphError("injected Leibniz violation")


FAULTS = {
    # the layer derivation breaks the Leibniz law
    "leibniz": lambda mp: mp.setattr(LieDerivation, "validate_leibniz", _raise_graph_error),
    # r lies in F(Z)
    "freiheitssatz": lambda mp: mp.setattr(onerelator, "freiheitssatz_check",
                                           lambda P, r, Z: False),
    # the associated subalgebra's inferred presentation has a relator
    "associated_free": lambda mp: mp.setattr(
        onerelator, "infer_presentation",
        lambda S, N: (PresentedLieAlgebra(QQ, ["a", "b"], ["[a,b]"]), True)),
}


@pytest.mark.parametrize("flag", sorted(FAULTS))
def test_tower_is_not_ok_when_a_layer_check_fails(monkeypatch, capsys, flag):
    # one layer check made to fail, every other check holding: the tower is
    # not ok, and `onerelator decompose` exits 1
    FAULTS[flag](monkeypatch)
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,[x,y]]"])
    report = verify_tower(decompose(P), 8)
    assert report["dims_match"] and report["base_free"]
    assert [lr[flag] for lr in report["layers"]] == [False]
    others = {"leibniz", "freiheitssatz", "associated_free", "j_minimal"} - {flag}
    assert all(lr[key] for lr in report["layers"] for key in others)
    assert report["ok"] is False
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "onerel3.lie")
    code = main(["--max-degree", "5", "onerelator", "decompose", path])
    assert code == 1 and json.loads(capsys.readouterr().out)["ok"] is False


def test_decompose_requires_single_relator():
    with pytest.raises(DecompositionError):
        decompose(PresentedLieAlgebra(QQ, ["x", "y"], []))
    with pytest.raises(DecompositionError):
        decompose(
            PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]", "[x,[x,y]]"])
        )


def test_tower_description():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]"])
    tower = decompose(P)
    desc = verify_tower(tower, 4)["tower"]
    assert desc["depth"] == tower.depth == len(desc["layers"])
    assert [l["stable_letter"] for l in desc["layers"]] == [
        P.free.monomial_str(layer.h) for layer in tower.layers]

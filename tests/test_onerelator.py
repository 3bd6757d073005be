import pytest

from gradedlie.fields import QQ
from gradedlie.onerelator import (
    DecompositionError,
    decompose,
    freiheitssatz_check,
    rebuild,
    verify_tower,
)
from gradedlie.presented import PresentedLieAlgebra
from gradedlie.series import HilbertSeries


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


def test_layer_reports_state_associated_weight():
    P = PresentedLieAlgebra(QQ, ["x", "y", "z"], ["[x,[x,y]]+[z,[z,y]]"])
    tower = decompose(P, N=6)
    report = verify_tower(tower, P, 6)
    assert report.ok
    # layer reports run base outward, the reverse of extraction order
    for layer, lr in zip(reversed(tower.layers), report.layer_reports):
        assert lr["stable_letter"] == P.free.monomial_str(layer.h)
        if layer.Z:
            max_w = max(P.free.weight(z) for z in layer.Z)
            assert lr["associated_checked_to"] == str(max(max_w + 2, 4))
        else:
            assert lr["associated_checked_to"] is None


def test_decompose_abelian_rank2():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]"])
    tower = decompose(P)
    assert tower.depth >= 1
    L = rebuild(tower)
    assert L.dim_sequence(8) == [2, 0, 0, 0, 0, 0, 0, 0]
    report = verify_tower(tower, P, 10)
    assert report.ok, report.__dict__


def test_decompose_one_relator_weight3():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,[x,y]]"])
    tower = decompose(P)
    L = rebuild(tower)
    assert (
        L.enveloping_series(10) == P.enveloping_series(10)
    )
    report = verify_tower(tower, P, 10)
    assert report.ok, report.__dict__
    # the minimal exponent at the first layer is 2: r = [x,x,y]
    assert tower.layers[0].j == 2


def test_decompose_degenerate_generator_relator():
    # relator of weight 1: a re-based free algebra loses one direction
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["x-y"])
    tower = decompose(P)
    assert tower.depth == 0
    report = verify_tower(tower, P, 8)
    assert report.ok


def test_decompose_weighted():
    P = PresentedLieAlgebra(QQ, [("a", 1), ("b", 2)], ["[a,[a,b]]"])
    tower = decompose(P)
    report = verify_tower(tower, P, 10)
    assert report.ok, report.__dict__


def test_decompose_weight5_relator():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[[x,y],[x,[x,y]]]"])
    tower = decompose(P)
    report = verify_tower(tower, P, 10)
    assert report.ok, report.__dict__


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
    report = verify_tower(tower, P, 10)
    assert report.base_free
    for lr in report.layer_reports:
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

    report = verify_tower(tower, P, 8)
    assert not report.ok


def test_decompose_requires_single_relator():
    with pytest.raises(DecompositionError):
        decompose(PresentedLieAlgebra(QQ, ["x", "y"], []))
    with pytest.raises(DecompositionError):
        decompose(
            PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]", "[x,[x,y]]"])
        )


def test_describe_roundtrip():
    P = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]"])
    tower = decompose(P)
    desc = tower.describe()
    assert desc["depth"] == tower.depth
    assert all("stable_letter" in l for l in desc["layers"])

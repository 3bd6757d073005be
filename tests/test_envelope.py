import os

import pytest
from hypothesis import given, seed, settings, strategies as st

from gradedlie.envelope import Envelope, InducedModule
from gradedlie.fields import GF, QQ, FieldError
from gradedlie.graphalg import load_graph, verify_theorem_a
from gradedlie.presented import PresentedLieAlgebra, load_presentation
from gradedlie.series import HilbertSeries
from oracles import (
    EmbeddingError,
    RightStraightener,
    as_monomials,
    induced_module_dims,
    mult_mono_by_keys,
    u_product,
)

GOLDEN_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def test_hilbert_abelian():
    L = PresentedLieAlgebra(QQ, ["x", "y"], ["[x,y]"])
    assert L.enveloping_series(6).coeffs == [1, 2, 3, 4, 5, 6, 7]


def test_hilbert_free2():
    L = PresentedLieAlgebra(QQ, ["x", "y"])
    assert L.enveloping_series(8).coeffs == [2**n for n in range(9)]


def test_hilbert_m_star_n():
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    expected = HilbertSeries.one(8).divide(HilbertSeries([1, -3, 1], 8))
    assert L.enveloping_series(8) == expected
    assert expected.coeffs[:5] == [1, 3, 8, 21, 55]


@pytest.mark.parametrize(
    "gens,rels",
    [
        (["x", "y"], []),
        (["x", "y"], ["[x,y]"]),
        (["a", "b", "x"], ["[a,b]"]),
        ([("a", 1), ("t", 2)], ["[a,[a,t]]"]),
        (["a", "b"], ["[a,[a,b]]", "[b,[a,b]]"]),
    ],
)
def test_pbw_count_matches_series(gens, rels):
    L = PresentedLieAlgebra(QQ, gens, rels)
    env = Envelope(L)
    series = L.enveloping_series(8)
    for n in range(9):
        assert len(env.pbw_basis(n)) == series.coeffs[n]


def test_straightening_associative():
    # the general product, built from left products, is associative
    import random

    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    env = Envelope(L)
    rng = random.Random(7)

    def rand_elt():
        n = rng.randint(1, 4)
        size = len(env.pbw_basis(n))
        return {rng.randrange(size): QQ.of(rng.randint(1, 3)) for _ in range(rng.randint(1, 2))}, n

    for _ in range(40):
        (a, i), (b, j), (c, k) = rand_elt(), rand_elt(), rand_elt()
        left = u_product(env, u_product(env, a, i, b, j), i + j, c, k)
        right = u_product(env, a, i, u_product(env, b, j, c, k), j + k)
        assert left == right


def test_straightening_lie_compatible():
    # xy - yx = [x,y] in U(L); in weight 1 the positions are the keys
    L = PresentedLieAlgebra(QQ, ["x", "y"])
    env = Envelope(L)
    xy = env.mult(1, {0: QQ.one}, 1, {1: QQ.one})
    yx = env.mult(1, {1: QQ.one}, 1, {0: QQ.one})
    diff = dict(xy)
    QQ.axpy(diff, QQ.of(-1), yx)
    _, vec = L.evaluate(L.parse("[x,y]"))
    assert as_monomials(env, diff, 2) == {((2, i),): c for i, c in vec.items()}
    assert diff == env.mult(2, vec, 0, {0: QQ.one})


def _pbw_algebra(name, field):
    path = os.path.join(GOLDEN_INPUTS, name)
    if name.endswith(".graph"):
        return load_graph(path, field).fundamental().algebra
    return load_presentation(path, field=field)


@pytest.mark.parametrize("name", ["mn.lie", "mix.graph"])
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
@seed(20210104)
@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_mult_mono_matches_key_by_key_products(name, field, data):
    # the general product, m2 multiplied on the left by m1's keys, equals
    # m1 multiplied on the right by m2's keys one at a time
    L = _pbw_algebra(name, field)
    env, right = Envelope(L), RightStraightener(L)
    for _ in range(20):
        (i, p), (j, q) = (_position(env, data) for _ in range(2))
        got = u_product(env, {p: field.one}, i, {q: field.one}, j)
        want = mult_mono_by_keys(right, env.pbw_basis(i)[p], env.pbw_basis(j)[q])
        assert as_monomials(env, got, i + j) == want


def _position(env, data):
    """(weight, position) of a drawn PBW monomial of weight 0..3."""
    n = data.draw(st.sampled_from([n for n in range(4) if env.pbw_basis(n)]))
    return n, data.draw(st.integers(0, len(env.pbw_basis(n)) - 1))


def _key(L, data):
    """A drawn basis key (weight, index) of L of weight 1..2."""
    w = data.draw(st.sampled_from([w for w in (1, 2) if L.dim(w)]))
    return w, data.draw(st.integers(0, L.dim(w) - 1))


@pytest.mark.parametrize("name", ["mn.lie", "mix.graph"])
@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
@seed(20210105)
@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_left_products_match_the_right_straightener(name, field, data):
    # k.u by left insertion on positions equals the right straightener's
    # product, and k1.(k2.v) - k2.(k1.v) = [k1,k2].v on positions
    L = _pbw_algebra(name, field)
    env, right = Envelope(L), RightStraightener(L)
    one = field.one

    def left(key, m, v):
        return env.mult(key[0], {key[1]: one}, m, v)

    for _ in range(10):
        key, (m, p) = _key(L, data), _position(env, data)
        want = right.mult_mono((key,), env.pbw_basis(m)[p])
        assert as_monomials(env, left(key, m, {p: one}), key[0] + m) == want
        k1, k2 = _key(L, data), _key(L, data)
        picks = data.draw(st.lists(st.integers(0, len(env.pbw_basis(m)) - 1), max_size=3))
        v = {q: field.of(data.draw(st.integers(1, 6))) for q in picks}
        lhs = left(k1, m + k2[0], left(k2, m, v))
        field.axpy(lhs, field.neg(one), left(k2, m + k1[0], left(k1, m, v)))
        assert lhs == env.mult(k1[0] + k2[0], L.engine.pair(k1, k2), m, v)


def test_induced_module_trivial_cases():
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    env = Envelope(L)
    # S = L: k (x)_{U(L)} U(L) = k
    S = L.subalgebra(["a", "b", "x"])
    dims, _ = induced_module_dims(env, L, S, 6)
    assert dims == [1, 0, 0, 0, 0, 0, 0]
    # S = 0: the module is U(L) itself
    dims0, _ = induced_module_dims(env, None, None, 6)
    assert dims0 == L.enveloping_series(6).coeffs


def test_induced_module_amalgam_generator():
    # edge algebra k.x inside L = M*N: dims of (1-t)/(1-3t+t^2)
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    env = Envelope(L)
    S_pres = PresentedLieAlgebra(QQ, [("z", 1)])
    S_img = L.subalgebra(["x"])
    dims, module = induced_module_dims(env, S_pres, S_img, 7)
    expected = (
        HilbertSeries([1, -1], 7) * HilbertSeries.one(7).divide(HilbertSeries([1, -3, 1], 7))
    )
    assert dims == expected.coeffs
    assert dims[:5] == [1, 2, 5, 13, 34]


def test_induced_module_m_factor():
    # vertex algebra M = <a,b> abelian inside L = M*N
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    env = Envelope(L)
    M = PresentedLieAlgebra(QQ, ["a", "b"], ["[a,b]"])
    img = L.subalgebra(["a", "b"])
    dims, _ = induced_module_dims(env, M, img, 7)
    expected = HilbertSeries.one(7).divide(HilbertSeries([1, -3, 1], 7))
    expected = expected * HilbertSeries([1, -2, 1], 7)
    assert dims == expected.coeffs


def test_embedding_injectivity_error():
    L = PresentedLieAlgebra(QQ, ["a", "b"], ["[a,b]"])
    env = Envelope(L)
    # claim the source is free on two generators: fails at weight 2
    S_pres = PresentedLieAlgebra(QQ, ["u", "v"])
    img = L.subalgebra(["a", "b"])
    with pytest.raises(EmbeddingError) as exc:
        induced_module_dims(env, S_pres, img, 4)
    assert "weight 2" in str(exc.value)
    assert not isinstance(exc.value, FieldError)


def test_right_action():
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    env = Envelope(L)
    S = L.subalgebra(["a", "b"])
    module = InducedModule(env, S)
    one = module.project({0: QQ.one}, 0)
    assert one == {0: QQ.one}
    # m . 1 = m
    for n in range(3):
        for i in range(module.dim(n)):
            m = {i: QQ.one}
            assert module.right_action(m, n, {0: QQ.one}, 0) == m
    # (1 (x) 1) . x = class of x (nonzero), . a = 0 (killed by S.U(L));
    # a Lie element times 1 is its position vector
    _, vx = L.evaluate(L.parse("x"))
    ux = env.mult(1, vx, 0, {0: QQ.one})
    assert module.right_action(one, 0, ux, 1)
    _, va = L.evaluate(L.parse("a"))
    ua = env.mult(1, va, 0, {0: QQ.one})
    assert module.right_action(one, 0, ua, 1) == {}
    # associativity of the action through the quotient
    got1 = module.right_action(module.right_action(one, 0, ux, 1), 1, ux, 1)
    got2 = module.right_action(one, 0, env.mult(1, vx, 1, ux), 2)
    assert got1 == got2


@pytest.mark.parametrize(
    "name, products, memoised, modules, states",
    [("mix.graph", 183, 414, 4, 3), ("hnn.graph", 247, 729, 2, 1)],
    ids=["mix.graph", "hnn.graph"],
)
def test_induced_modules_skip_dependent_generators(
    monkeypatch, name, products, memoised, modules, states
):
    # by PBW the module depends only on the subalgebra, so the vertex and
    # edge modules of equal subalgebras share one right ideal per weight:
    # on hnn.graph the edge t and the vertex v both generate <a,b>;
    # mix.graph's fundamental algebra identifies v2.b with v1.a, so the
    # vertex v2 and the edge e1 both generate <v1.a>.
    # A generator that is one basis key k times an ordered monomial u
    # (k <= u[0]) is the PBW monomial (k,) + u, a pivot that is never
    # built, so only the other rows count.  Only the sub-products the left
    # recursion reaches are memoised: deleting the memo store empties the
    # memo and repeats their straightening.  Building each module on its own from its
    # independent generators gave 2,259 products on mix.graph and 2,502 on
    # hnn.graph; sharing states and multiplying every row gave 919 and 1,004.
    graph = load_graph(os.path.join(GOLDEN_INPUTS, name), GF(2147483647))
    mult, build = Envelope.mult, InducedModule._build
    count = {"inside": False, "products": 0}
    built, users, envs = [], {}, {}  # users keeps each module alive, so ids stay distinct

    def counting_mult(env, *args):
        count["products"] += count["inside"]
        return mult(env, *args)

    def flagged_build(module, n):
        users[id(module)] = module
        envs[id(module.env)] = module.env
        if n not in module._state:
            built.append((module._gens, n))
        count["inside"] = True
        try:
            return build(module, n)
        finally:
            count["inside"] = False

    monkeypatch.setattr(Envelope, "mult", counting_mult)
    monkeypatch.setattr(InducedModule, "_build", flagged_build)
    assert verify_theorem_a(graph, 8, explicit_to=8)["ok"]
    assert count["products"] == products
    # the straightened sub-products the left recursion reached, each stored once
    (env,) = envs.values()
    assert len(env._memo) == memoised
    # each distinct subalgebra's right ideal is built once per weight
    assert len(built) == len(set(built))
    assert (len(users), len({key for key, _ in built})) == (modules, states)

import os

import pytest
from hypothesis import given, seed, settings, strategies as st

from gradedlie.envelope import Envelope, InducedModule
from gradedlie.fields import GF, QQ, FieldError
from gradedlie.graphalg import load_graph, verify_theorem_a
from gradedlie.presented import PresentedLieAlgebra, load_presentation
from gradedlie.series import HilbertSeries
from oracles import EmbeddingError, induced_module_dims, mult_mono_by_keys

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
    import random

    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    env = Envelope(L)
    rng = random.Random(7)
    monos = []
    for n in range(1, 5):
        monos.extend(env.pbw_basis(n))

    def rand_elt():
        out = {}
        for _ in range(rng.randint(1, 2)):
            out[rng.choice(monos)] = QQ.of(rng.randint(-3, 3))
        return out

    for _ in range(40):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        left = env.mult(env.mult(a, b), c)
        right = env.mult(a, env.mult(b, c))
        assert left == right


def test_straightening_lie_compatible():
    # xy - yx = [x,y] in U(L)
    L = PresentedLieAlgebra(QQ, ["x", "y"])
    env = Envelope(L)
    kx, ky = (1, 0), (1, 1)
    xy = env.mult_mono((kx,), (ky,))
    yx = env.mult_mono((ky,), (kx,))
    diff = dict(xy)
    for m, c in yx.items():
        v = QQ.of(diff.get(m, QQ.zero) - c)
        if QQ.is_zero(v):
            diff.pop(m, None)
        else:
            diff[m] = v
    _, vec = L.evaluate(L.parse("[x,y]"))
    expected = env.lie_vector_as_u(2, vec)
    assert diff == expected


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
    # an ordered product is a concatenation; every product equals m1 times
    # m2's keys one at a time
    env = Envelope(_pbw_algebra(name, field))
    for _ in range(20):
        m1, m2 = (data.draw(st.sampled_from(env.pbw_basis(data.draw(st.integers(0, 3)))))
                  for _ in range(2))
        assert env.mult_mono(m1, m2) == mult_mono_by_keys(env, m1, m2)


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
    one = module.project({(): QQ.one}, 0)
    assert one == {0: QQ.one}
    # m . 1 = m
    for n in range(3):
        for i in range(module.dim(n)):
            m = {i: QQ.one}
            assert module.right_action(m, n, {(): QQ.one}, 0) == m
    # (1 (x) 1) . x = class of x (nonzero), . a = 0 (killed by S.U(L))
    _, vx = L.evaluate(L.parse("x"))
    ux = env.lie_vector_as_u(1, vx)
    assert module.right_action(one, 0, ux, 1)
    _, va = L.evaluate(L.parse("a"))
    ua = env.lie_vector_as_u(1, va)
    assert module.right_action(one, 0, ua, 1) == {}
    # associativity of the action through the quotient
    got1 = module.right_action(module.right_action(one, 0, ux, 1), 1, ux, 1)
    got2 = module.right_action(one, 0, env.mult(ux, ux), 2)
    assert got1 == got2


def test_coords_reject_a_monomial_of_another_weight():
    L = PresentedLieAlgebra(QQ, ["a", "b", "x"], ["[a,b]"])
    env = Envelope(L)
    u = env.mult({env.pbw_basis(1)[0]: QQ.one}, {env.pbw_basis(1)[2]: QQ.one})
    assert env.coords(u, 2) == {env.pbw_index(2)[m]: c for m, c in u.items()}
    with pytest.raises(KeyError):
        env.coords({**u, env.pbw_basis(1)[0]: QQ.one}, 2)
    with pytest.raises(KeyError):
        env.coords(u, 3)


@pytest.mark.parametrize(
    "name, products, modules, states",
    [("mix.graph", 183, 4, 3), ("hnn.graph", 247, 2, 1)],
    ids=["mix.graph", "hnn.graph"],
)
def test_induced_modules_skip_dependent_generators(monkeypatch, name, products, modules, states):
    # by PBW the module depends only on the subalgebra, so the vertex and
    # edge modules of equal subalgebras share one right ideal per weight:
    # on hnn.graph the edge t and the vertex v both generate <a,b>;
    # mix.graph's fundamental algebra identifies v2.b with v1.a, so the
    # vertex v2 and the edge e1 both generate <v1.a>.
    # A generator that is one basis key k times an ordered monomial u
    # (k <= u[0]) is the PBW monomial (k,) + u and needs no product, so
    # only the other rows count.  Building each module on its own from its
    # independent generators gave 2,259 products on mix.graph and 2,502 on
    # hnn.graph; sharing states and multiplying every row gave 919 and 1,004.
    graph = load_graph(os.path.join(GOLDEN_INPUTS, name), GF(2147483647))
    mult, build = Envelope.mult, InducedModule._build
    count = {"inside": False, "products": 0}
    built, users = [], {}  # users keeps each module alive, so ids stay distinct

    def counting_mult(env, a, b):
        count["products"] += count["inside"]
        return mult(env, a, b)

    def flagged_build(module, n):
        users[id(module)] = module
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
    # each distinct subalgebra's right ideal is built once per weight
    assert len(built) == len(set(built))
    assert (len(users), len({key for key, _ in built})) == (modules, states)

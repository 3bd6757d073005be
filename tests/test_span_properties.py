"""Property tests of the bracket span step on random small presentations.

Random presentations over F_7 (2-3 generators of weight 1-2, 0-2
homogeneous relators) and random subalgebra generators; every span built
by one left-normed step per weight is compared with an all-pairs closure,
and the engine dimensions with the free-algebra ideal route.  The steps
built from generators are also compared with the basis-driven oracles
they replaced: [I,F] without its [[I,F],x] term, induced modules from the
subalgebra's generators, and the Leibniz check as a graph subalgebra.

The same presentations, over F_7 and over Q with small integer
coefficients, check the engine's structure constants (antisymmetry,
Jacobi, relators, canonical values, pair(p, q) = -pair(q, p) read in
either order) and its dimensions against the ideal route, the
Chevalley-Eilenberg differential against a bracket-by-bracket oracle, its
H_1 and H_2 against the presentation's h1 and the Hopf formula h2, and
the PBW monomial counts against the enveloping series.  The engine's
Hopf h2 (the rank its relator rows add, minus the generators they kill)
is checked against the relation ideal spanned inside the free algebra,
the independent route in ``oracles.py``, on presentations that add
redundant relators (c.r or [r, g] next to r) to those above.  Presentations
that `infer_presentation` gives for random subalgebras S, over F_7 and
Q, are minimal: their h1 and Hopf h2 count their generators and relators
weight by weight, and their dimensions are S's; over F_2, F_7 and Q, on
subalgebras that often have relators, they have the generators, relator
weights and relation ideal of the ideal route's presentation, and the
engine that inferred them equals one built from their relators.  A Q relator that
is not multihomogeneous can give rows with real fractions in the engine.  Over F_7 the explicit induced
module k (x)_{U(S)} U(L) of a random subalgebra S, presented by
`infer_presentation`, has the dimensions of the series quotient, and on
random small graphs (amalgams and HNN extensions along a rank-one edge
algebra, and amalgams with a non-forest edge between their two vertices)
the Theorem A Euler identity gives the explicit ranks.  Induced
modules of one subalgebra given by permuted, repeated or recombined
generators share one state on an Envelope and equal modules built on
fresh Envelopes, over F_7 and Q, and their projections of random
elements equal the residues modulo an Echelon of all products s.u.
"""

import re

import pytest
from hypothesis import given, seed, settings, strategies as st

from gradedlie.envelope import Envelope, InducedModule
from gradedlie.fields import GF, QQ
from gradedlie.freelie import FreeLieAlgebra, substitution
from gradedlie.graphalg import Edge, GraphError, GraphOfLieAlgebras, LieDerivation, verify_theorem_a
from gradedlie.homology import ChainComplex, homology_table
from gradedlie.presented import PresentedLieAlgebra, infer_presentation
from oracles import (
    all_pairs_commutator_rank,
    all_pairs_leibniz_failure,
    all_pairs_subalgebra_spans,
    basis_product_ideal,
    basis_product_quotient_basis,
    bracket_ideal_with_redundant_term,
    ce_differential_columns,
    dim_via_ideal,
    h2_via_ideal,
    ideal_spans,
    infer_via_ideal,
    induced_module_dims,
    structure_constant_failure,
)

F7 = GF(7)
N = 5


def homogeneous(draw, free: FreeLieAlgebra, weight: int):
    basis = free.hall_basis(weight)
    values = st.integers(0, 6) if free.field == F7 else st.integers(-3, 3)
    coeffs = draw(st.lists(values, min_size=len(basis), max_size=len(basis)))
    return free.from_terms({m: free.field.of(c) for m, c in zip(basis, coeffs) if c})


@st.composite
def presentations(draw, field=F7):
    weights = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    gens = [(f"g{i}", w) for i, w in enumerate(weights)]
    free = FreeLieAlgebra(field, gens)
    rels = [homogeneous(draw, free, draw(st.integers(1, 3))) for _ in range(draw(st.integers(0, 2)))]
    return PresentedLieAlgebra(field, gens, [r for r in rels if not r.is_zero()], free=free)


@st.composite
def presentations_with_subalgebra(draw, field=F7):
    L = draw(presentations(field))
    sub = [homogeneous(draw, L.free, draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))]
    return L, [e for e in sub if not e.is_zero()]


@seed(20210120)
@given(presentations_with_subalgebra())
@settings(max_examples=30, deadline=None)
def test_left_normed_spans_match_all_pairs(case):
    L, sub_gens = case
    for n in range(1, N + 1):
        assert L.engine.dim(n) == dim_via_ideal(L, n)
        assert L.engine.commutator_rank(n) == all_pairs_commutator_rank(L, n)
    S = L.subalgebra(sub_gens)
    oracle = all_pairs_subalgebra_spans(S, N)
    for n in range(1, N + 1):
        assert S.span(n).basis() == oracle[n].basis()


@seed(20210121)
@given(presentations_with_subalgebra())
@settings(max_examples=15, deadline=None)
def test_generator_steps_match_basis_oracles(case):
    L, sub_gens = case
    oracle = bracket_ideal_with_redundant_term(L, N)
    for n in range(1, N + 1):
        assert ideal_spans(L).derived(n).basis() == oracle[n].basis()
    S = L.subalgebra(sub_gens)
    module = InducedModule(Envelope(L), S)
    for n in range(4):
        assert module.quotient_basis(n) == basis_product_quotient_basis(module.env, S, n)


@seed(20210122)
@given(presentations_with_subalgebra())
@settings(max_examples=20, deadline=None)
def test_induced_module_dims_match_series_quotient(case):
    L, sub_gens = case
    S = L.subalgebra(sub_gens)
    source, _ = infer_presentation(S, 4)
    explicit, _ = induced_module_dims(Envelope(L), source, S, 4)
    quotient = L.enveloping_series(4).divide(source.enveloping_series(4))
    assert explicit == quotient.coeffs


def leibniz_failure(d: LieDerivation, n: int):
    """The weight named by validate_leibniz's error, or None if it passes."""
    try:
        d.validate_leibniz(n)
    except GraphError as exc:
        return int(re.match(r"Leibniz violation at weight (\d+):", str(exc)).group(1))
    return None


@pytest.mark.parametrize("inner", [False, True], ids=["random-values", "restricted-ad"])
@seed(20210123)
@given(case=presentations_with_subalgebra(), data=st.data())
@settings(max_examples=15, deadline=None)
def test_graph_leibniz_check_matches_all_pairs(inner, case, data):
    L, domain = case
    if data.draw(st.booleans()):  # A = L: the relators constrain the values
        domain = [L.free.gen_element(g.name) for g in L.generators] + domain
    shift = data.draw(st.integers(1, 2))
    if inner:  # d = ad(y) restricted to A is always a derivation
        y = homogeneous(data.draw, L.free, shift)
        values = [y.bracket(g) for g in domain]
    else:
        values = [homogeneous(data.draw, L.free, g.weight() + shift) for g in domain]
    d = LieDerivation(L, domain, values, shift)
    expected = all_pairs_leibniz_failure(d, 4)
    assert leibniz_failure(d, 4) == expected
    if inner:
        assert expected is None


FIELDS = {"F7": F7, "Q": QQ}


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(20210124)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_structure_constants_are_a_lie_algebra(name, data):
    L = data.draw(presentations(FIELDS[name]))
    assert structure_constant_failure(L, N) is None
    for n in range(1, N + 1):
        assert L.engine.dim(n) == dim_via_ideal(L, n)
        assert L.engine.commutator_rank(n) == all_pairs_commutator_rank(L, n)


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(20210125)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_engine_pairs_are_antisymmetric(name, data):
    # both orientations of a pair are stored from the first one computed
    L = data.draw(presentations(FIELDS[name]))
    field, eng = L.field, L.engine
    for wp in range(1, 6):
        for wq in range(1, 7 - wp):
            for i in range(eng.dim(wp)):
                for j in range(eng.dim(wq)):
                    p, q = (wp, i), (wq, j)
                    assert eng.pair(p, q) == {k: field.neg(c) for k, c in eng.pair(q, p).items()}


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(20210126)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_ce_differential_matches_oracle(name, data):
    L = data.draw(presentations(FIELDS[name]))
    cx = ChainComplex(L, N)
    for i in range(1, 5):
        for n in range(N + 1):
            assert cx.differential(i, n).columns == ce_differential_columns(cx, i, n)


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(20210127)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ce_h1_matches_presentation_h1(name, data):
    L = data.draw(presentations(FIELDS[name]))
    assert homology_table(L, 1, N)[1][1:] == L.h1(N)


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(20210128)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_ce_h2_matches_hopf_h2(name, data):
    L = data.draw(presentations(FIELDS[name]))
    assert homology_table(L, 2, N)[2][1:] == L.h2_hopf(N)


@st.composite
def presentations_with_redundant_relators(draw, field=F7):
    """presentations(field) with a redundant c.r or [r, g] drawn next to
    some relators r, all in a drawn order."""
    L = draw(presentations(field))
    rels = list(L.relators)
    for r in L.relators:
        kind = draw(st.sampled_from(["none", "multiple", "bracket"]))
        if kind == "multiple":
            rels.append(r.scale(field.of(draw(st.sampled_from([2, 3, -1])))))
        elif kind == "bracket":
            g = draw(st.sampled_from(L.generators))
            rels.append(r.bracket(L.free.gen_element(g.name)))
    rels = draw(st.permutations([r for r in rels if not r.is_zero()]))
    return PresentedLieAlgebra(field, L.generators, rels, free=L.free)


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(20210133)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_engine_h2_matches_ideal_route(name, data):
    # weight-1 relators kill generators; a redundant relator adds a relator
    # row but no rank, so nothing to H_2
    L = data.draw(presentations_with_redundant_relators(FIELDS[name]))
    assert L.h2_hopf(N) == h2_via_ideal(L, N)


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(20210109)
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_inferred_presentations_are_minimal(name, data):
    # minimal: one generator per basis vector of H_1 and one relator per
    # basis vector of H_2, weight by weight, presenting S itself.  Only
    # about 2 draws in 100 give S a relator below weight N, which a
    # redundant relator needs, so the draws are many (and cheap).
    L, sub_gens = data.draw(presentations_with_subalgebra(FIELDS[name]))
    S = L.subalgebra(sub_gens)
    P, _ = infer_presentation(S, N)

    def per_weight(weights):
        return [weights.count(n) for n in range(1, N + 1)]

    assert P.h1(N) == per_weight(P.generator_weights())
    assert P.h2_hopf(N) == per_weight(P.relator_weights())
    assert P.dim_sequence(N) == S.span_dims(N)


@st.composite
def subalgebras_needing_relators(draw, field=F7):
    """L with 1-2 relators of weight 2-3 inside [F,F], none killing a
    generator, and the generators of a subalgebra S of L: L's generators,
    sometimes minus one, plus up to two left-normed brackets of two or
    three of them.  S is then often L itself, or meets L's relators, so S
    often has relators."""
    weights = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    free = FreeLieAlgebra(field, [(f"g{i}", w) for i, w in enumerate(weights)])
    rels = []
    for _ in range(draw(st.integers(1, 2))):
        r = homogeneous(draw, free, draw(st.integers(2, 3)))
        rels.append(free.from_terms({m: c for m, c in r.terms.items() if not free.is_generator(m)}))
    L = PresentedLieAlgebra(field, free.gens, [r for r in rels if not r.is_zero()], free=free)
    gens = [free.gen_element(g.name) for g in free.gens]
    sub = list(gens)
    if draw(st.booleans()):
        del sub[draw(st.integers(0, len(sub) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        factors = draw(st.lists(st.sampled_from(gens), min_size=2, max_size=3))
        e = factors[0]
        for f in factors[1:]:
            e = e.bracket(f)
        sub.append(e)
    return L, [e for e in sub if not e.is_zero()]


def pair_tables(P: PresentedLieAlgebra, N: int) -> dict:
    """dims and every structure constant [b_p, b_q] of weight <= N."""
    eng = P.engine
    return {"dims": P.dim_sequence(N), "pairs": {
        (a, i, b, j): eng.pair((a, i), (b, j))
        for a in range(1, N) for b in range(1, N - a + 1)
        for i in range(P.dim(a)) for j in range(P.dim(b))}}


@pytest.mark.parametrize("name", ["F2", "F7", "Q"])
@seed(20210134)
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_inferred_presentation_matches_ideal_route(name, data):
    # the engine's kernel complement and the ideal route's reduced kernel
    # may print different relators, but they present S with the same
    # generators, relator weights and relation ideal; the inferring engine
    # is the presentation's own, so it equals one built from the relators
    L, sub_gens = data.draw(subalgebras_needing_relators({"F2": GF(2), "F7": F7, "Q": QQ}[name]))
    S = L.subalgebra(sub_gens)
    P, conclusive = infer_presentation(S, N)
    O, oracle_conclusive = infer_via_ideal(S, N)
    assert conclusive == oracle_conclusive
    assert [(g.name, g.weight) for g in P.generators] == [(g.name, g.weight) for g in O.generators]
    assert P.relator_weights() == O.relator_weights()
    assert all(r.terms[min(r.terms, key=P.free.key)] == 1 for r in P.relators)
    for n in range(1, N + 1):
        assert ideal_spans(P).span(n).rows == ideal_spans(O).span(n).rows
    rebuilt = PresentedLieAlgebra(P.field, P.generators, P.relators, free=P.free)
    assert pair_tables(P, N) == pair_tables(rebuilt, N)


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(20210129)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pbw_counts_match_enveloping_series(name, data):
    L = data.draw(presentations(FIELDS[name]))
    series = L.enveloping_series(N)
    env = Envelope(L)
    assert [len(env.pbw_basis(n)) for n in range(N + 1)] == series.coeffs


def same_span_variants(draw, field, gens: list) -> list:
    """Generator lists, free-algebra elements, whose images span the same
    space as gens in every weight: permuted, with a repeat, and with one
    generator g_j replaced by a*g_i + b*g_j (b != 0) for a g_i of its
    weight, or left out when that is 0 in the free algebra."""
    variants = [draw(st.permutations(gens))]
    if gens:
        variants.append(gens + [draw(st.sampled_from(gens))])
    pairs = [(i, j) for i, g in enumerate(gens) for j, h in enumerate(gens)
             if i != j and g.weight() == h.weight()]
    if pairs:
        i, j = draw(st.sampled_from(pairs))
        a, b = field.of(draw(st.integers(-3, 3))), field.of(draw(st.integers(1, 3)))
        combo = gens[j].scale(b) + gens[i].scale(a)
        variants.append(gens[:j] + ([combo] if combo.terms else []) + gens[j + 1:])
    return variants


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(20210130)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_shared_induced_modules_match_fresh_envelopes(name, data):
    # modules of equal subalgebras share one state on an Envelope; each must
    # still equal a module built alone on a fresh Envelope
    field = FIELDS[name]
    L = data.draw(presentations(field))
    weights = [data.draw(st.integers(1, 2))] * 2 + data.draw(st.lists(st.integers(1, 3), max_size=1))
    gens = []  # free-algebra elements; a relator of L, with image 0, is a valid generator
    for w in weights[: data.draw(st.integers(0, len(weights)))]:
        e = homogeneous(data.draw, L.free, w)
        gens += [e] if e.terms else L.relators[:1]
    env = Envelope(L)
    # a module of a possibly smaller subalgebra builds its state first
    smaller = InducedModule(env, L.subalgebra(gens[:-1]))
    other = InducedModule(Envelope(L), L.subalgebra(gens[:-1]))
    assert [smaller.dim(n) for n in range(5)] == [other.dim(n) for n in range(5)]
    subs = [L.subalgebra(v) for v in [gens] + same_span_variants(data.draw, field, gens)]
    if not gens:
        subs.append(None)
    shared = [InducedModule(env, sub) for sub in subs]
    assert len({id(m._state) for m in shared}) == 1
    for sub, module in reversed(list(zip(subs, shared))):
        fresh = InducedModule(Envelope(L), sub)
        assert [module.dim(n) for n in range(5)] == [fresh.dim(n) for n in range(5)]
        for n in range(4):
            assert module.quotient_basis(n) == fresh.quotient_basis(n)
            pbw = env.pbw_basis(n)
            picks = data.draw(st.lists(st.integers(0, len(pbw) - 1), max_size=3)) if pbw else []
            u = {pbw[i]: field.of(data.draw(st.integers(1, 6))) for i in picks}
            assert module.project(u, n) == fresh.project(u, n)


@pytest.mark.parametrize("name", sorted(FIELDS))
@seed(20210131)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_projections_match_product_span_oracle(name, data):
    # the residue tables give the residue modulo (S.U(L))_n; compare it
    # with one reduction by an Echelon of all products s.u
    field = FIELDS[name]
    L, sub_gens = data.draw(presentations_with_subalgebra(field))
    S = L.subalgebra(sub_gens)
    env = Envelope(L)
    module = InducedModule(env, S)
    values = st.integers(1, 6) if field == F7 else st.sampled_from([-3, -2, -1, 1, 2, 3])
    for n in range(5):
        pbw = env.pbw_basis(n)
        if not pbw:
            continue
        ideal = basis_product_ideal(env, S, n)
        nonpivot = [i for i in range(len(pbw)) if i not in ideal.rows]
        qindex = {i: j for j, i in enumerate(nonpivot)}
        picks = data.draw(st.lists(st.integers(0, len(pbw) - 1), min_size=1, max_size=4, unique=True))
        u = {pbw[i]: field.of(data.draw(values)) for i in picks}
        want = {qindex[i]: c for i, c in ideal.reduce(env.coords(u, n)).items()}
        assert module.project(u, n) == want


def with_rank_one_images(draw, weights: list):
    """A presentation from `presentations` and, per weight w in weights, a
    Hall monomial of weight w that is nonzero in it, so the free algebra on
    one generator of weight w embeds through it.  A weight with no such
    monomial gets a new free generator of that weight, so no draw is
    rejected."""
    L = draw(presentations())

    def nonzero(w):
        return [m for m in L.free.hall_basis(w) if L.evaluate(L.free.monomial_element(m))[1]]

    missing = sorted({w for w in weights if not nonzero(w)})
    if missing:
        gens = [(g.name, g.weight) for g in L.generators] + [(f"e{w}", w) for w in missing]
        free = FreeLieAlgebra(F7, gens)
        into = substitution(L.free, free, {g.name: free.gen_element(g.name) for g in L.generators})
        L = PresentedLieAlgebra(F7, gens, [into(r) for r in L.relators], free=free)
    return L, [L.free.monomial_element(draw(st.sampled_from(nonzero(w)))) for w in weights]


@st.composite
def small_graphs(draw):
    """An amalgam of two random presentations along a rank-one edge
    algebra; an HNN extension of one along a rank-one edge algebra with an
    arbitrary derivation value (every linear map on it is one); or that
    amalgam with a second, non-forest rank-one edge from v2 to v1, whose
    derivation takes values in v1."""
    shape = draw(st.sampled_from(["amalgam", "loop", "amalgam-and-edge"]))
    w = draw(st.integers(1, 3))
    L1, [sigma] = with_rank_one_images(draw, [w])
    K = PresentedLieAlgebra(F7, [("z", w)])
    if shape == "loop":
        shift = draw(st.integers(1, 2))
        value = homogeneous(draw, L1.free, w + shift)
        edge = Edge("t", "v", "v", K, {"z": sigma}, in_forest=False,
                    der_values={"z": value}, stable_weight=shift)
        return GraphOfLieAlgebras(F7, {"v": L1}, [edge])
    # tau has the weight of sigma; the second edge's image lies in L2 too
    weights = [w] if shape == "amalgam" else [w, draw(st.integers(1, 3))]
    L2, images = with_rank_one_images(draw, weights)
    edges = [Edge("e", "v1", "v2", K, {"z": sigma}, in_forest=True, tau_images={"z": images[0]})]
    if shape == "amalgam-and-edge":
        image = images[1]
        shift = draw(st.integers(1, 2))
        value = homogeneous(draw, L1.free, image.weight() + shift)
        Kt = PresentedLieAlgebra(F7, [("y", image.weight())])
        edges.append(Edge("t", "v2", "v1", Kt, {"y": image}, in_forest=False,
                          der_values={"y": value}, stable_weight=shift))
    return GraphOfLieAlgebras(F7, {"v1": L1, "v2": L2}, edges)


@seed(20210132)
@given(small_graphs())
@settings(max_examples=20, deadline=None)
def test_euler_identity_gives_explicit_theorem_a_ranks(graph):
    report = verify_theorem_a(graph, 4, explicit_to=4)
    assert not report["embedding_failures"] and report["explicit_ok"]
    for n, (src_dim, mid_dim, rank_alpha) in enumerate(report["explicit_ranks"]):
        # sum_e t^shift H_L/H_{L_e} + 1 and sum_v H_L/H_{L_v} at weight n
        assert report["euler_lhs"][n] == src_dim + (n == 0)
        assert report["euler_rhs"][n] == mid_dim
        # alpha injective, and exact with beta, of rank 1 at weight 0 only
        assert rank_alpha == src_dim
        assert rank_alpha + (n == 0) == mid_dim

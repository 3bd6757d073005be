"""Property tests of the bracket span step on random small presentations.

Random presentations over F_7 (2-3 generators of weight 1-2, 0-2
homogeneous relators) and random subalgebra generators; every span built
by one left-normed step per weight is compared with an all-pairs closure,
and the engine dimensions with the free-algebra ideal route.  The steps
built from generators are also compared with the basis-driven oracles
they replaced: [I,F] without its [[I,F],x] term, induced modules from the
subalgebra's generators, and the Leibniz check as a graph subalgebra.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from gradedlie.envelope import Envelope, InducedModule
from gradedlie.fields import GF
from gradedlie.freelie import FreeLieAlgebra
from gradedlie.graphalg import GraphError, LieDerivation
from gradedlie.linalg import Subspace
from gradedlie.presented import PresentedLieAlgebra
from oracles import (
    all_pairs_commutator_rank,
    all_pairs_leibniz_failure,
    all_pairs_subalgebra_spans,
    basis_product_quotient_basis,
    bracket_ideal_with_redundant_term,
)

F7 = GF(7)
N = 5


def homogeneous(draw, free: FreeLieAlgebra, weight: int):
    basis = free.hall_basis(weight)
    coeffs = draw(st.lists(st.integers(0, 6), min_size=len(basis), max_size=len(basis)))
    return free.from_terms({m: F7.of(c) for m, c in zip(basis, coeffs) if c})


@st.composite
def presentations_with_subalgebra(draw):
    weights = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    gens = [(f"g{i}", w) for i, w in enumerate(weights)]
    free = FreeLieAlgebra(F7, gens)
    rels = [homogeneous(draw, free, draw(st.integers(1, 3))) for _ in range(draw(st.integers(0, 2)))]
    L = PresentedLieAlgebra(F7, gens, [r for r in rels if not r.is_zero()], free=free)
    sub = [homogeneous(draw, free, draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))]
    return L, [e for e in sub if not e.is_zero()]


@given(presentations_with_subalgebra())
@settings(max_examples=30, deadline=None)
def test_left_normed_spans_match_all_pairs(case):
    L, sub_gens = case
    for n in range(1, N + 1):
        assert L.engine.dim(n) == L.dim_via_ideal(n)
        assert L.engine.commutator_rank(n) == all_pairs_commutator_rank(L, n)
    S = L.subalgebra(sub_gens)
    oracle = all_pairs_subalgebra_spans(S, N)
    for n in range(1, N + 1):
        assert S.span(n) == Subspace(F7, L.dim(n), oracle[n])


@given(presentations_with_subalgebra())
@settings(max_examples=15, deadline=None)
def test_generator_steps_match_basis_oracles(case):
    L, sub_gens = case
    oracle = bracket_ideal_with_redundant_term(L, N)
    for n in range(1, N + 1):
        assert L._ideal_spans.bracket_ideal(n).basis() == oracle[n].basis()
    S = L.subalgebra(sub_gens)
    module = InducedModule(Envelope(L), S)
    for n in range(4):
        assert module.quotient_basis(n) == basis_product_quotient_basis(module.env, S, n)


def leibniz_failure(d: LieDerivation, n: int):
    """The weight named by validate_leibniz's error, or None if it passes."""
    try:
        d.validate_leibniz(n)
    except GraphError as exc:
        return int(re.match(r"Leibniz violation at weight (\d+):", str(exc)).group(1))
    return None


@pytest.mark.parametrize("inner", [False, True], ids=["random-values", "restricted-ad"])
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

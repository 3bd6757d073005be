"""Property tests of the bracket span step on random small presentations.

Random presentations over F_7 (2-3 generators of weight 1-2, 0-2
homogeneous relators) and random subalgebra generators; every span built
by one left-normed step per weight is compared with an all-pairs closure,
and the engine dimensions with the free-algebra ideal route.
"""

from hypothesis import given, settings, strategies as st

from gradedlie.fields import GF
from gradedlie.freelie import FreeLieAlgebra
from gradedlie.linalg import Subspace
from gradedlie.presented import PresentedLieAlgebra
from oracles import all_pairs_commutator_rank, all_pairs_subalgebra_spans

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

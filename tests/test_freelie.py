import random
from fractions import Fraction

import pytest

from gradedlie.fields import QQ, GF, InputError
from gradedlie.freelie import (
    ExprSyntaxError,
    FreeLieAlgebra,
    parse_expression,
    substitution,
    witt_dims,
)
from oracles import canonical_decomposition, pbw_graded_dims


def necklace_rank2(n):
    """Independent oracle: (1/n) sum_{d|n} mu(d) 2^(n/d)."""
    from gradedlie.freelie import _mobius

    total = sum(_mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def brute_force_lyndon_counts(k, n):
    """Count Lyndon words over a k-letter alphabet, lengths 1..n."""
    counts = []
    for m in range(1, n + 1):
        cnt = 0
        for idx in range(k**m):
            word = []
            x = idx
            for _ in range(m):
                word.append(x % k)
                x //= k
            word = tuple(word)
            if all(word < word[i:] + word[:i] for i in range(1, m)):
                cnt += 1
        counts.append(cnt)
    return counts


def test_hall_counts_rank2():
    alg = FreeLieAlgebra(QQ, ["x", "y"])
    counts = alg.hall_counts(8)
    assert counts == [2, 1, 2, 3, 6, 9, 18, 30]
    assert counts == [necklace_rank2(n) for n in range(1, 9)]
    assert counts == brute_force_lyndon_counts(2, 8)
    assert counts == witt_dims([1, 1], 8)


def test_hall_counts_rank1():
    alg = FreeLieAlgebra(QQ, ["x"])
    assert alg.hall_counts(3) == [1, 0, 0]


def test_hall_counts_weighted():
    # generators of weight 1 and 2; oracle = generalized Witt formula,
    # cross-checked against the PBW factorization of 1/(1 - t - t^2)
    alg = FreeLieAlgebra(QQ, [("a", 1), ("t", 2)])
    w = witt_dims([1, 2], 8)
    assert alg.hall_counts(8) == w
    assert w[:3] == [1, 1, 1]
    from gradedlie.series import HilbertSeries

    h = HilbertSeries.one(8).divide(HilbertSeries([1, -1, -1], 8))
    assert pbw_graded_dims(h) == w


def test_witt_matches_enumeration_rank3():
    alg = FreeLieAlgebra(QQ, ["x", "y", "z"])
    assert alg.hall_counts(7) == witt_dims([1, 1, 1], 7)


def test_normal_form_basics():
    alg = FreeLieAlgebra(QQ, ["x", "y"])
    x, y = alg.gen_element("x"), alg.gen_element("y")
    assert x.bracket(x).is_zero()
    xy = x.bracket(y)
    assert y.bracket(x) == -xy
    assert (xy.bracket(x) + (y.bracket(x)).bracket(x)).is_zero()
    a = xy + x.scale(QQ.of(3))
    assert a.bracket(a).is_zero()


def test_grading():
    alg = FreeLieAlgebra(QQ, [("a", 1), ("t", 2)])
    a, t = alg.gen_element("a"), alg.gen_element("t")
    at = a.bracket(t)
    assert at.weight() == 3
    assert at.is_homogeneous()
    s = a + t
    assert not s.is_homogeneous()
    assert s.weight() is None


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2)])
def test_jacobi_antisymmetry_random(field):
    rng = random.Random(4242)
    alg = FreeLieAlgebra(field, ["x", "y"])
    monomials = []
    for n in range(1, 6):
        monomials.extend(alg.hall_basis(n))

    def random_element():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            m = rng.choice(monomials)
            terms[m] = field.of(rng.randint(-4, 4))
        return alg.from_terms(terms)

    for _ in range(500 if field is QQ else 150):
        a, b, c = random_element(), random_element(), random_element()
        jac = (
            a.bracket(b).bracket(c)
            + b.bracket(c).bracket(a)
            + c.bracket(a).bracket(b)
        )
        assert jac.is_zero()
        assert (a.bracket(b) + b.bracket(a)).is_zero()


def test_left_normed_brackets_span():
    # normal forms of all left-normed weight-n brackets span the full
    # weight-n component
    from gradedlie.linalg import Echelon

    alg = FreeLieAlgebra(QQ, ["x", "y"])
    for n in range(2, 7):
        ech = Echelon(QQ)
        words = [[]]
        for _ in range(n):
            words = [w + [g] for w in words for g in ("x", "y")]
        for w in words:
            e = alg.gen_element(w[0])
            for g in w[1:]:
                e = e.bracket(alg.gen_element(g))
            ech.add(alg.coordinates(e, n))
        assert ech.rank == len(alg.hall_basis(n))


def test_coordinates_read_a_homogeneous_element():
    # a term of another weight is an error, not dropped
    alg = FreeLieAlgebra(QQ, ["x", "y"])
    assert alg.coordinates(alg.parse("[x,y]"), 2) == {0: 1}
    with pytest.raises(KeyError):
        alg.coordinates(alg.parse("x + [x,y]"), 2)


def test_canonical_decomposition():
    alg = FreeLieAlgebra(QQ, ["x", "y"])
    z = alg.gen_monomial("x")
    us, tail = canonical_decomposition(alg, z)
    assert us == [] and tail == z

    x, y = alg.gen_monomial("x"), alg.gen_monomial("y")
    xy = alg.hall_pair(x, y)
    us, tail = canonical_decomposition(alg, xy)
    assert us == [x] and tail == y

    xxy = alg.hall_pair(x, xy)
    us, tail = canonical_decomposition(alg, xxy)
    assert us == [x, x] and tail == y

    # exhaustive over weight-3 monomials: conditions validated inside
    for mid in alg.hall_basis(3):
        us, tail = canonical_decomposition(alg, mid)
        assert alg.is_generator(tail)
        rebuilt = alg.monomial_element(tail)
        for u in reversed(us):
            rebuilt = alg.monomial_element(u).bracket(rebuilt)
        # right-normed re-bracketing reproduces the monomial's normal form
        assert rebuilt == alg.monomial_element(mid) or not (
            rebuilt - alg.monomial_element(mid)
        ).is_zero() is False


def test_parser():
    alg = FreeLieAlgebra(QQ, ["x", "y"])
    e = alg.parse("[x,y] + 2*x - 1/2*y")
    x, y = alg.gen_element("x"), alg.gen_element("y")
    assert e == x.bracket(y) + x.scale(QQ.of(2)) - y.scale(QQ.parse("1/2"))
    assert alg.parse("[y,x]") == -x.bracket(y)
    assert alg.parse("-x") == -x
    assert alg.parse("2*([x,y] - (x))") == (x.bracket(y) - x).scale(QQ.of(2))
    with pytest.raises(ExprSyntaxError):
        parse_expression(alg, "[x,y")
    with pytest.raises(ExprSyntaxError):
        alg.parse("x )")
    with pytest.raises(InputError, match="unknown generator"):
        alg.parse("[x,zz]")
    # one pass: the first error from the left is the one raised
    with pytest.raises(InputError, match="unknown generator"):
        alg.parse("[zz,")
    with pytest.raises(ExprSyntaxError):
        alg.parse("[x, ) + zz")


def test_repr():
    # the inferred relators of `infer` print this way: Hall order, unit
    # coefficients bare, a minus sign folded into the joint
    alg = FreeLieAlgebra(QQ, ["x", "y"])
    assert repr(alg.zero()) == "0"
    assert repr(alg.parse("2*[x,y]")) == "2*[x,y]"
    assert repr(alg.parse("[x,y] - x - 1/2*[x,[x,y]]")) == "-x + [x,y] - 1/2*[x,[x,y]]"


def test_parser_depth_limits():
    alg = FreeLieAlgebra(QQ, ["x", "y"])
    for nested in ("[x," * 101 + "y" + "]" * 101, "(" * 150 + "x" + ")" * 150, "-" * 200 + "x"):
        with pytest.raises(ExprSyntaxError, match="nested deeper"):
            parse_expression(alg, nested)
    # long sums are flat, not nested, and evaluate without deep recursion
    x, y = alg.gen_element("x"), alg.gen_element("y")
    assert alg.parse(" + ".join(["[x,y]"] * 3000)) == x.bracket(y).scale(QQ.of(3000))
    assert alg.parse("x" + " - x" * 3000) == x.scale(QQ.of(-2999))


def test_parser_qualified_names():
    alg = FreeLieAlgebra(QQ, ["v.a", "w.b"])
    e = alg.parse("[v.a, w.b]")
    assert not e.is_zero()


def test_hall_monomial_interning_stable():
    alg = FreeLieAlgebra(QQ, ["x", "y"])
    b3a = alg.hall_basis(3)
    b3b = alg.hall_basis(3)
    assert b3a == b3b
    alg2 = FreeLieAlgebra(QQ, ["x", "y"])
    assert alg2.hall_basis(3) == b3a  # deterministic across instances


def test_substitution_composes_and_coerces():
    # x -> [a,b], y -> a over Q, then everything reduced mod 5
    src = FreeLieAlgebra(QQ, [("x", 2), ("y", 1)])
    tgt = FreeLieAlgebra(QQ, ["a", "b"])
    phi = substitution(src, tgt, {"x": tgt.parse("[a,b]"), "y": tgt.parse("a")})
    assert phi(src.parse("1/2*[y,x] - x")) == tgt.parse("1/2*[a,[a,b]] - [a,b]")
    f5 = FreeLieAlgebra(GF(5), ["a", "b"])
    reduce = substitution(tgt, f5, {"a": f5.parse("a"), "b": f5.parse("b")})
    assert reduce(tgt.parse("1/2*[a,[a,b]]")) == f5.parse("3*[a,[a,b]]")


@pytest.mark.parametrize("p", [2, 3])
def test_bracket_drops_rewriting_coefficients_that_vanish_mod_p(p):
    # Hall rewriting of [x,[y,[y,[x,[x,y]]]]] has an integer coefficient 2,
    # which is zero in F_2: no stored zeros, and the F_p result is the Q
    # result reduced mod p
    def nested(field):
        A = FreeLieAlgebra(field, ["x", "y"])
        x, y = A.gen_element("x"), A.gen_element("y")
        return x.bracket(y.bracket(y.bracket(x.bracket(x.bracket(y)))))

    over_q = nested(QQ)
    over_p = nested(GF(p))
    assert 2 in over_q.terms.values()
    assert all(over_p.terms.values())
    assert over_p.terms == {m: c % p for m, c in over_q.terms.items() if c % p}


def test_generator_weight_below_one_rejected():
    with pytest.raises(ValueError, match="weight 0 < 1"):
        FreeLieAlgebra(QQ, [("x", 0)])

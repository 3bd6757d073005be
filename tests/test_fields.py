from fractions import Fraction

import pytest
from hypothesis import given, seed, strategies as st

from gradedlie.fields import QQ, GF, FieldError, parse_field, is_prime


def test_rational_basics():
    half = QQ.parse("1/2")
    third = QQ.parse("1/3")
    assert QQ.add(half, third) == QQ.parse("5/6")
    assert QQ.format(QQ.add(half, third)) == "5/6"
    x = QQ.parse("-7/3")
    assert QQ.add(x, QQ.zero) == x
    assert QQ.mul(x, QQ.one) == x
    assert QQ.inv(QQ.of(2)) == half


def test_rational_normalization():
    v = QQ.parse("4/6")
    assert v.numerator == 2 and v.denominator == 3
    v = QQ.parse("-4/6")
    assert v.numerator == -2 and v.denominator == 3


def test_prime_field_basics():
    F5 = GF(5)
    assert F5.add(3, 4) == 2
    assert F5.inv(2) == 3
    assert F5.mul(2, F5.inv(2)) == 1
    assert F5.of(-1) == 4
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_prime_check():
    with pytest.raises(FieldError):
        GF(6)
    with pytest.raises(FieldError):
        GF(1)
    GF(2)
    GF(1000003)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 - 1)


def test_parse_field():
    assert parse_field("Q") == QQ
    assert parse_field("Fp:7") == GF(7)
    with pytest.raises(FieldError):
        parse_field("R")


def test_float_rejected():
    with pytest.raises(FieldError):
        QQ.of(0.5)
    with pytest.raises(FieldError):
        GF(5).of(0.5)


rationals = st.builds(
    lambda n, d: QQ.div(QQ.of(n), QQ.of(d)),
    st.integers(-(10**6), 10**6),
    st.integers(1, 10**4),
)


@seed(20210110)
@given(rationals, rationals, rationals)
def test_field_axioms_q(a, b, c):
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(QQ.mul(a, b), c) == QQ.mul(a, QQ.mul(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.add(a, QQ.neg(a)) == QQ.zero
    if not QQ.is_zero(a):
        assert QQ.mul(a, QQ.inv(a)) == QQ.one


@seed(20210111)
@given(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**9))
def test_field_axioms_fp(x, y, z):
    F = GF(97)
    a, b, c = F.of(x), F.of(y), F.of(z)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    if not F.is_zero(a):
        assert F.mul(a, F.inv(a)) == F.one


def test_rationals_are_int_when_integral():
    half = QQ.parse("1/2")
    assert QQ.zero == 0 and type(QQ.zero) is int and type(QQ.one) is int
    for value in (QQ.add(half, half), QQ.mul(half, QQ.of(4)), QQ.sub(half, half),
                  QQ.inv(QQ.of(-1)), QQ.div(QQ.of(6), QQ.of(3)), QQ.parse("4/2"),
                  QQ.of(Fraction(3, 1)), QQ.inv(half)):
        assert type(value) is int
    for value in (QQ.inv(QQ.of(3)), QQ.div(QQ.of(1), QQ.of(2)), QQ.mul(half, QQ.of(3))):
        assert type(value) is Fraction
    out = {0: half, 1: QQ.of(2)}
    QQ.axpy(out, half, {0: QQ.one, 1: QQ.of(-4), 2: QQ.of(4)})
    assert out == {0: 1, 2: 2} and all(type(v) is int for v in out.values())


def test_prime_field_axpy():
    F5 = GF(5)
    out = {0: 1, 1: 2}
    F5.axpy(out, 3, {0: 3, 1: 1, 2: 4})
    assert out == {2: 2}
    F5.axpy(out, 0, {2: 1})
    assert out == {2: 2}

import pytest

from gradedlie.series import HilbertSeries
from oracles import pbw_graded_dims


def test_from_graded_dims_abelian2():
    # two commuting weight-1 elements: polynomial algebra, dims n+1
    s = HilbertSeries.from_graded_dims([2], 6)
    assert s.coeffs == [1, 2, 3, 4, 5, 6, 7]


def test_from_graded_dims_free2():
    # free Lie algebra on 2 generators: enveloping algebra is free associative
    from gradedlie.freelie import witt_dims

    dims = witt_dims([1, 1], 8)
    s = HilbertSeries.from_graded_dims(dims, 8)
    assert s.coeffs == [2**n for n in range(9)]


def test_mul_inverse_divide():
    one = HilbertSeries.one(10)
    p = HilbertSeries([1, -3, 1], 10)
    inv = one.divide(p)
    assert (p * inv) == one
    assert inv.coeffs[:6] == [1, 3, 8, 21, 55, 144]
    q = inv.divide(inv)
    assert q == one
    with pytest.raises(ValueError):
        HilbertSeries([1, 1], 4).divide(HilbertSeries([2, 1], 4))  # inexact


def test_pbw_inversion_roundtrip():
    dims = [3, 2, 5, 1, 0, 7]
    s = HilbertSeries.from_graded_dims(dims, 6)
    assert pbw_graded_dims(s) == dims


def test_shift_and_arith():
    a = HilbertSeries([1, 1], 4)
    assert a.shift(2).coeffs == [0, 0, 1, 1, 0]


def test_truncation_mismatch():
    with pytest.raises(ValueError):
        HilbertSeries.one(3) + HilbertSeries.one(4)

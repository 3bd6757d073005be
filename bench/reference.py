"""Reference answers computed without importing gradedlie.

Graded dimensions come from the Hilbert series of the universal enveloping
algebra.  By Poincare-Birkhoff-Witt, U(L) has series
prod_n (1 - t^n)^(-dim L_n), so dim L_n can be peeled off one weight at a
time once the series of U(L) is known.  The series themselves are the
classical ones: for a free product A * B, 1/U(A*B) = 1/U(A) + 1/U(B) - 1;
for a one-relator algebra with generators of weight 1 and a relator of
weight r, 1/U = 1 - g t + t^r; for a graph of Lie algebras, the Euler
characteristic of the Theorem A sequence gives
1/U(pi) = sum_v 1/U(L_v) - sum_e t^(s_e) / U(L_e), with s_e the stable
letter weight of a non-forest edge and 0 for a forest edge.
"""

from __future__ import annotations

from math import comb


def series_inverse(poly: list[int], n: int) -> list[int]:
    """Coefficients 0..n of 1/poly(t); poly[0] must be 1."""
    out = [1] + [0] * n
    for k in range(1, n + 1):
        out[k] = -sum(poly[j] * out[k - j] for j in range(1, min(k, len(poly) - 1) + 1))
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def lie_dims(inverse_series: list[int], n: int) -> list[int]:
    """dim L_1..L_n of a graded Lie algebra with 1/U(L) = inverse_series."""
    u = series_inverse(inverse_series, n)
    dims: list[int] = []
    prod = [1] + [0] * n  # prod_{k < m} (1 - t^k)^(-dim L_k), truncated
    for m in range(1, n + 1):
        d = u[m] - prod[m]
        dims.append(d)
        # multiply by (1 - t^m)^(-d) = sum_j C(d + j - 1, j) t^(m j)
        factor = [0] * (n + 1)
        for j in range(0, n // m + 1):
            factor[m * j] = comb(d + j - 1, j) if j else 1
        prod = poly_mul(prod, factor)[: n + 1]
    return dims


# 1/U(L) for every algebra the workloads run on
MN = [1, -3, 1]              # <a,b,x | [a,b]> = k^2 * k
MN4 = [1, -4, 2]             # <a,b,c,d | [a,b],[c,d]> = k^2 * k^2
ONE_RELATOR_3 = [1, -3, 0, 1]  # three generators, one relator of weight 3
HNN_LOOP = poly_mul([1, -2], [1, -1])          # (1-2t) - t(1-2t)
LOOP_TREE = poly_mul([1, 0, -1], [1, -2])      # (1-t)(1-t^2) + (1-t) - (1-t) - t(1-t^2)


def hopf(h1: int, h2: int, n: int) -> dict:
    """Expected `hopf` data for a presentation minimal in weights 1 and 2."""
    return {
        "h1": [str(h1)] + ["0"] * (n - 1),
        "h2": ["0", str(h2)] + ["0"] * (n - 2),
        "h1_total": str(h1),
        "h2_total": str(h2),
        "freeness": "not-free",
    }


def homology(h1: int, h2: int, bound: int) -> dict:
    """Expected CE table of a free product of abelian algebras, degrees 0..bound.

    Such a product has global dimension 2: H_0 = k in weight 0, H_1 is the
    generators in weight 1, H_2 the commutator relators in weight 2, and
    every higher group vanishes.
    """
    table = {"0": {"0": "1"}, "1": {"1": str(h1)}, "2": {"2": str(h2)}}
    for i in range(3, bound + 1):
        table[str(i)] = {}
    return {"table": table}

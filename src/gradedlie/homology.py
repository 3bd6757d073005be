"""Bigraded Lie algebra homology via the Chevalley-Eilenberg complex.

C_{i,n} is the weight-n part of the i-th exterior power of the graded
algebra; chains are strictly increasing tuples of graded basis keys, signs
follow sorted-position parity.  The differential is the standard
alternating bracket sum, stored by columns; the test suite checks
d o d = 0 exactly.

H_1 and H_2 computed here must agree with the presentation-side h1 and
Hopf-formula h2 (two independent algorithms); the test suite enforces the
pair on every corpus algebra.  Degrees are bounded separately in
homological degree I and weight N.
"""

from __future__ import annotations

from bisect import bisect_left

from .linalg import SparseMatrix
from .presented import PresentedLieAlgebra


class ChainComplex:
    """Per-weight CE chains and differentials of a presented Lie algebra."""

    def __init__(self, algebra: PresentedLieAlgebra, N: int):
        self.algebra = algebra
        self.field = algebra.field
        self.N = N
        self._chains: dict[tuple[int, int], list] = {}
        self._index: dict[tuple[int, int], dict] = {}
        self._pairs: dict[tuple, list] = {}  # (k_s, k_t) -> [(target key, coefficient)]
        algebra.engine.build_to(N)

    def chains(self, i: int, n: int) -> list:
        """Basis of the weight-n part of Lambda^i L: increasing key tuples."""
        if i < 0 or n < 0 or n > self.N:
            return []
        got = self._chains.get((i, n))
        if got is not None:
            return got
        if i == 0:
            out = [()] if n == 0 else []
        elif n == 0:
            out = []
        else:
            out = []
            keys = []
            for w in range(1, n + 1):
                keys.extend((w, j) for j in range(self.algebra.dim(w)))

            def extend(prefix, remaining, start):
                if len(prefix) == i:
                    if remaining == 0:
                        out.append(tuple(prefix))
                    return
                slots_left = i - len(prefix)
                for idx in range(start, len(keys)):
                    k = keys[idx]
                    if k[0] > remaining - (slots_left - 1):
                        break
                    prefix.append(k)
                    extend(prefix, remaining - k[0], idx + 1)
                    prefix.pop()

            extend([], n, 0)
        self._chains[(i, n)] = out
        return out

    def chain_index(self, i: int, n: int) -> dict:
        got = self._index.get((i, n))
        if got is None:
            got = {c: p for p, c in enumerate(self.chains(i, n))}
            self._index[(i, n)] = got
        return got

    def dim(self, i: int, n: int) -> int:
        return len(self.chains(i, n))

    def differential(self, i: int, n: int) -> SparseMatrix:
        """d_{i,n}: C_{i,n} -> C_{i-1,n}, one column per source chain.

        The column of k_1 ^ ... ^ k_i is the sum over s < t of
        (-1)^{s+t} [k_s, k_t] ^ (the chain without k_s and k_t), each
        bracket key placed into the rest by its sorted position, with the
        sign of the transpositions that move it there.  Each bracket
        [k_s, k_t] is read from the engine once per complex, as a list of
        (target key, coefficient) in ``_pairs``.  Each d_{i,n} is built
        afresh; :func:`homology_table` asks for it once."""
        field = self.field
        eng = self.algebra.engine
        pairs = self._pairs
        signs = (field.one, field.neg(field.one))
        tgt_index = self.chain_index(i - 1, n)
        columns = []
        for chain in self.chains(i, n):
            col: dict = {}
            for s in range(len(chain)):
                for t in range(s + 1, len(chain)):
                    ks, kt = chain[s], chain[t]
                    bracket = pairs.get((ks, kt))
                    if bracket is None:
                        w = ks[0] + kt[0]
                        bracket = [((w, bi), c) for bi, c in eng.pair(ks, kt).items()]
                        pairs[ks, kt] = bracket
                    rest = chain[:s] + chain[s + 1 : t] + chain[t + 1 :]
                    term = {}  # each key d gives its own target chain
                    for d, c in bracket:
                        pos = bisect_left(rest, d)
                        if pos < len(rest) and rest[pos] == d:
                            continue
                        new_chain = rest[:pos] + (d,) + rest[pos:]
                        term[tgt_index[new_chain]] = field.neg(c) if pos % 2 else c
                    field.axpy(col, signs[(s + t) % 2], term)  # (-1)^{s+t}, 0-indexed
            columns.append(col)
        return SparseMatrix(field, columns)


def homology_table(P: PresentedLieAlgebra, I: int, N: int) -> list[list[int]]:
    """H_i(L, k) dims per weight via the CE complex: the rows dims[i][n] =
    dim H_i(L, k) in weight n, 0 <= i <= I, 0 <= n <= N.

    dims[i][n] = dim C_{i,n} - rank d_{i,n} - rank d_{i+1,n}.
    """
    cx = ChainComplex(P, N)
    ranks: dict[tuple[int, int], int] = {}

    def rank(i, n):
        got = ranks.get((i, n))
        if got is None:
            got = cx.differential(i, n).rank() if cx.dim(i, n) else 0
            ranks[(i, n)] = got
        return got

    dims = []
    for i in range(I + 1):
        row = []
        for n in range(N + 1):
            c = cx.dim(i, n)
            if c == 0:
                row.append(0)
                continue
            row.append(c - rank(i, n) - rank(i + 1, n))
        dims.append(row)
    return dims

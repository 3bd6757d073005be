"""Bigraded Lie algebra homology via the Chevalley-Eilenberg complex.

C_{i,n} is the weight-n part of the i-th exterior power of the graded
algebra; chains are strictly increasing tuples of graded basis keys, signs
follow sorted-position parity.  The differential is the standard
alternating bracket sum; d o d = 0 is checked exactly on request.

H_1 and H_2 computed here must agree with the presentation-side h1 and
Hopf-formula h2 (two independent algorithms); the test suite enforces the
pair on every corpus algebra.  Degrees are bounded separately in
homological degree I and weight N.
"""

from __future__ import annotations

from .linalg import SparseMatrix
from .presented import PresentedLieAlgebra


class ChainComplex:
    """Per-weight CE chains and differentials of a presented Lie algebra."""

    def __init__(self, algebra: PresentedLieAlgebra, I: int, N: int):
        self.algebra = algebra
        self.field = algebra.field
        self.I = I
        self.N = N
        self._chains: dict[tuple[int, int], list] = {}
        self._index: dict[tuple[int, int], dict] = {}
        self._diff: dict[tuple[int, int], SparseMatrix] = {}
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
        """d_{i,n}: C_{i,n} -> C_{i-1,n} as a sparse matrix (rows = target)."""
        got = self._diff.get((i, n))
        if got is not None:
            return got
        field = self.field
        eng = self.algebra.engine
        src = self.chains(i, n)
        tgt_index = self.chain_index(i - 1, n)
        entries = {}
        for col, chain in enumerate(src):
            vec: dict = {}
            for s in range(len(chain)):
                for t in range(s + 1, len(chain)):
                    ks, kt = chain[s], chain[t]
                    sign = -1 if (s + t) % 2 else 1  # (-1)^{s+t}, 0-indexed
                    rest = chain[:s] + chain[s + 1 : t] + chain[t + 1 :]
                    bracket = eng.pair(ks, kt)
                    w = ks[0] + kt[0]
                    for bi, c in bracket.items():
                        d = (w, bi)
                        if d in rest:
                            continue
                        pos = 0
                        while pos < len(rest) and rest[pos] < d:
                            pos += 1
                        new_chain = rest[:pos] + (d,) + rest[pos:]
                        total = field.mul(field.of(sign * (-1) ** pos), c)
                        row = tgt_index[new_chain]
                        v = field.add(vec.get(row, field.zero), total)
                        if field.is_zero(v):
                            vec.pop(row, None)
                        else:
                            vec[row] = v
            for row, v in vec.items():
                entries[(row, col)] = v
        m = SparseMatrix(field, len(tgt_index), len(src), entries)
        self._diff[(i, n)] = m
        return m

    def verify_d_squared(self) -> bool:
        """d o d = 0 exactly at every computed bidegree."""
        field = self.field
        for i in range(2, self.I + 2):
            for n in range(0, self.N + 1):
                d_i = self.differential(i, n)
                d_im1 = self.differential(i - 1, n)
                low = d_im1.col_vectors()
                for col_vec in d_i.col_vectors():
                    out: dict = {}
                    for r, c in col_vec.items():
                        field.axpy(out, c, low[r])
                    if out:
                        return False
        return True


class HomologyTable:
    """dims[i][n] = dim H_i(L, k) in weight n, 0 <= i <= I, 0 <= n <= N."""

    def __init__(self, dims: list[list[int]], I: int, N: int):
        self.dims = dims
        self.I = I
        self.N = N

    def __getitem__(self, i: int) -> list[int]:
        return self.dims[i]

    def total(self, i: int) -> int:
        return sum(self.dims[i])

    def as_dict(self) -> dict:
        return {
            i: {n: d for n, d in enumerate(row) if d}
            for i, row in enumerate(self.dims)
        }

    def __repr__(self):
        return f"HomologyTable({self.as_dict()})"


def homology_table(P: PresentedLieAlgebra, I: int, N: int) -> HomologyTable:
    """H_i(L, k) dims per weight via the CE complex.

    dims[i][n] = dim C_{i,n} - rank d_{i,n} - rank d_{i+1,n}.
    """
    cx = ChainComplex(P, I, N)
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
    return HomologyTable(dims, I, N)

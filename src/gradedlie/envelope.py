"""Graded universal enveloping algebras: PBW bases, Hilbert series,
straightening products, and induced modules k (x)_{U(S)} U(L).

PBW monomials are nondecreasing tuples of graded basis keys (weight, index)
of the underlying presented Lie algebra, ordered by key.  Products are
straightened by swapping adjacent out-of-order factors, emitting bracket
lower-order terms from the structure-constant tables; the (monomial,
factor) table is memoized per algebra.  Only truncated degrees are ever
materialized, so simplicity wins over asymptotic cleverness here.

An induced module is realized as the quotient U(L)/(S.U(L)) by the right
ideal generated by a graded subalgebra S; its graded dimension must equal
the coefficient of Hilb(U(L))/Hilb(U(S)) (freeness of U(L) over U(S) via
PBW), and `induced_module_dims` checks the two routes against each other.
"""

from __future__ import annotations

from typing import Optional

from .linalg import Echelon
from .presented import GradedSubalgebra, PresentedLieAlgebra
from .series import HilbertSeries


class EmbeddingError(ValueError):
    """A claimed embedding of graded Lie algebras is not injective."""


class Envelope:
    """PBW machinery for U(L) of a presented graded Lie algebra."""

    def __init__(self, algebra: PresentedLieAlgebra):
        self.algebra = algebra
        self.field = algebra.field
        self._pbw: dict[tuple[int, tuple], list] = {}  # (n, min_key) -> monomials
        self._index: dict[int, dict] = {}              # n -> {monomial: position}
        self._mult_memo: dict = {}                     # (mono, key) -> dict

    # -- PBW bases ---------------------------------------------------------

    def pbw_basis(self, n: int) -> list[tuple]:
        """Ordered multisets (nondecreasing key tuples) of total weight n."""
        if n == 0:
            return [()]
        return self._pbw_from(n, (1, 0))

    def _pbw_from(self, n: int, min_key: tuple) -> list:
        got = self._pbw.get((n, min_key))
        if got is not None:
            return got
        out = []
        w0, i0 = min_key
        for w in range(w0, n + 1):
            start = i0 if w == w0 else 0
            for i in range(start, self.algebra.dim(w)):
                head = (w, i)
                if w == n:
                    out.append((head,))
                else:
                    for tail in self._pbw_from(n - w, head):
                        out.append((head,) + tail)
        self._pbw[(n, min_key)] = out
        return out

    def pbw_index(self, n: int) -> dict:
        got = self._index.get(n)
        if got is None:
            got = {m: i for i, m in enumerate(self.pbw_basis(n))}
            self._index[n] = got
        return got

    def pbw_dim(self, n: int) -> int:
        return len(self.pbw_basis(n))

    @staticmethod
    def mono_weight(mono: tuple) -> int:
        return sum(k[0] for k in mono)

    # -- straightening -----------------------------------------------------

    def mult_by_key(self, mono: tuple, key: tuple) -> dict:
        """Right multiplication: (PBW monomial) . (basis element key).

        Returns a combination of PBW monomials of weight w(mono) + w(key).
        """
        got = self._mult_memo.get((mono, key))
        if got is not None:
            return got
        field = self.field
        if not mono or mono[-1] <= key:
            out = {mono + (key,): field.one}
        else:
            prefix, last = mono[:-1], mono[-1]
            # (p.last).z = (p.z).last + p.[last,z]
            out = {}
            for m, c in self.mult_by_key(prefix, key).items():
                field.axpy(out, c, self.mult_by_key(m, last))
            bracket = self.algebra.engine.pair(last, key)
            for i, c in bracket.items():
                field.axpy(out, c, self.mult_by_key(prefix, (last[0] + key[0], i)))
        self._mult_memo[(mono, key)] = out
        return out

    def mult_mono(self, m1: tuple, m2: tuple) -> dict:
        """Product of two PBW monomials as a combination of PBW monomials."""
        field = self.field
        acc = {m1: field.one}
        for key in m2:
            nxt: dict = {}
            for m, c in acc.items():
                field.axpy(nxt, c, self.mult_by_key(m, key))
            acc = nxt
        return acc

    def mult(self, a: dict, b: dict) -> dict:
        """Product of two U(L) elements given as {monomial: coefficient}."""
        field = self.field
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                field.axpy(out, field.mul(c1, c2), self.mult_mono(m1, m2))
        return out

    def lie_vector_as_u(self, w: int, vec: dict) -> dict:
        """A weight-w element of L, given in basis coordinates, as a U element."""
        return {((w, i),): c for i, c in vec.items()}

    def coords(self, u: dict, n: int) -> dict:
        """Weight-n coordinates of a U element over pbw_basis(n) positions."""
        index = self.pbw_index(n)
        out = {}
        for m, c in u.items():
            if self.mono_weight(m) == n:
                out[index[m]] = c
        return out


def hilbert_series(P: PresentedLieAlgebra, N: int) -> HilbertSeries:
    """Hilbert series of U(P) via the PBW product formula."""
    return HilbertSeries.from_graded_dims(P.dim_sequence(N), N)


class InducedModule:
    """k (x)_{U(S)} U(L) realized as U(L)/(S.U(L)) for a graded subalgebra S.

    The right ideal S.U(L) is generated by any generating set of S, since
    [x,g] = xg - gx; so per weight, (S.U(L))_n is spanned by the products
    g.u with g running over the given generators of S (not a basis of S)
    and u over PBW monomials of complementary weight.  The quotient basis
    is the canonical complement (non-pivot PBW monomials).
    """

    def __init__(self, env: Envelope, sub: Optional[GradedSubalgebra], name: str = ""):
        self.env = env
        self.field = env.field
        self.sub = sub
        self.name = name
        self._ideal: dict[int, Echelon] = {}
        self._qbasis: dict[int, list] = {}   # n -> list of PBW monomials
        self._qindex: dict[int, dict] = {}

    def _build(self, n: int):
        if n in self._qbasis:
            return
        env = self.env
        field = self.field
        ech = Echelon(field)
        if self.sub is not None:
            for w, g in self.sub.weighted_generators():
                if w <= n:
                    g_u = env.lie_vector_as_u(w, g)
                    for u_mono in env.pbw_basis(n - w):
                        ech.add(env.coords(env.mult(g_u, {u_mono: field.one}), n))
        self._ideal[n] = ech
        pivots = set(ech.rows)
        basis = [
            m for i, m in enumerate(env.pbw_basis(n)) if i not in pivots
        ]
        self._qbasis[n] = basis
        self._qindex[n] = {m: i for i, m in enumerate(basis)}

    def dim(self, n: int) -> int:
        if n < 0:
            return 0
        self._build(n)
        return len(self._qbasis[n])

    def dims(self, N: int) -> list[int]:
        return [self.dim(n) for n in range(N + 1)]

    def quotient_basis(self, n: int) -> list[tuple]:
        self._build(n)
        return self._qbasis[n]

    def project(self, u: dict, n: int) -> dict:
        """Class of a weight-n U(L) element, in quotient coordinates."""
        self._build(n)
        env = self.env
        res = self._ideal[n].reduce(env.coords(u, n))
        # residues live on non-pivot columns; re-index to the quotient basis
        pbw = env.pbw_basis(n)
        qindex = self._qindex[n]
        return {qindex[pbw[i]]: c for i, c in res.items()}

    def right_action(self, coords: dict, n: int, u: dict, j: int) -> dict:
        """Act on a weight-n class by a weight-j element of U(L)."""
        self._build(n)
        lift = {self._qbasis[n][i]: c for i, c in coords.items()}
        return self.project(self.env.mult(lift, u), n + j)


def induced_module_dims(
    env: Envelope,
    source: PresentedLieAlgebra,
    image: Optional[GradedSubalgebra],
    N: int,
) -> tuple[list[int], InducedModule]:
    """Graded dims of k (x)_{U(S)} U(L), computed two independent ways.

    `source` is the abstract presentation of S, `image` its embedded copy
    inside L (None for S = 0).  The embedding is verified injective per
    weight (span dims match the abstract dims); the explicit quotient dims
    must then equal the series quotient Hilb(U(L))/Hilb(U(S)).
    """
    src_dims = source.dim_sequence(N) if source is not None else [0] * N
    if image is not None:
        span_dims = image.span_dims(N)
        for n in range(1, N + 1):
            if span_dims[n - 1] != src_dims[n - 1]:
                raise EmbeddingError(
                    f"embedding not injective at weight {n}: "
                    f"span dim {span_dims[n - 1]} != source dim {src_dims[n - 1]}"
                )
    else:
        if any(src_dims):
            raise ValueError("nonzero source with no image subalgebra")
    module = InducedModule(env, image)
    explicit = module.dims(N)
    hl = hilbert_series(env.algebra, N)
    hs = HilbertSeries.from_graded_dims(src_dims, N)
    series = hl.divide(hs)
    if series.coeffs != explicit:
        raise AssertionError(
            f"induced module dims disagree: series {series.coeffs} vs "
            f"explicit {explicit}"
        )
    return explicit, module

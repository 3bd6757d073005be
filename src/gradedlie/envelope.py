"""Graded universal enveloping algebras: PBW bases, straightening
products, and induced modules k (x)_{U(S)} U(L).

PBW monomials are nondecreasing tuples of graded basis keys (weight, index)
of the underlying presented Lie algebra, ordered by key.  An ordered
product, whose first factor ends at or below where the second starts, is
the concatenation of the two monomials, already a PBW monomial.  Other
products are straightened by swapping adjacent out-of-order factors,
emitting bracket lower-order terms from the structure-constant tables; the
straightened (monomial, factor) products are memoized per algebra.  Only truncated
degrees are ever materialized, so simplicity wins over asymptotic
cleverness here.  The Hilbert series of U(L) is
`PresentedLieAlgebra.enveloping_series`.

An induced module is realized as the quotient U(L)/(S.U(L)) by the right
ideal generated by a graded subalgebra S; its graded dimension equals the
coefficient of Hilb(U(L))/Hilb(U(S)) (freeness of U(L) over U(S) via PBW).
Per weight it keeps a residue table from the ideal's canonical rows, exact
since a residue modulo a span is unique, so projecting is a sum of lookups.
"""

from __future__ import annotations

from typing import Optional

from .linalg import Echelon
from .presented import GradedSubalgebra, PresentedLieAlgebra


class Envelope:
    """PBW machinery for U(L) of a presented graded Lie algebra.

    It also holds the per-weight state of the induced modules built on it,
    one state per subalgebra span (see :class:`InducedModule`), so modules
    of equal subalgebras share their right ideals.
    """

    def __init__(self, algebra: PresentedLieAlgebra):
        self.algebra = algebra
        self.field = algebra.field
        self._pbw: dict[tuple[int, tuple], list] = {}  # (n, min_key) -> monomials
        self._index: dict[int, dict] = {}              # n -> {monomial: position}
        self._mult_memo: dict = {}                     # (mono, key) -> dict
        self._induced: dict[tuple, dict] = {}          # InducedModule state by span key

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

    # -- straightening -----------------------------------------------------

    def mult_by_key(self, mono: tuple, key: tuple) -> dict:
        """Right multiplication: (PBW monomial) . (basis element key).

        Returns a combination of PBW monomials of weight w(mono) + w(key).
        A product already in PBW order is built fresh; only straightened
        products are memoised.
        """
        field = self.field
        if not mono or mono[-1] <= key:
            return {mono + (key,): field.one}
        got = self._mult_memo.get((mono, key))
        if got is not None:
            return got
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

    @staticmethod
    def ordered(m1: tuple, m2: tuple) -> bool:
        """Whether m1.m2 is in PBW order, that is the PBW monomial m1 + m2."""
        return not m1 or not m2 or m1[-1] <= m2[0]

    def mult_mono(self, m1: tuple, m2: tuple) -> dict:
        """Product of two PBW monomials as a combination of PBW monomials."""
        field = self.field
        if self.ordered(m1, m2):
            return {m1 + m2: field.one}
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
        """Coordinates of a weight-n U element over pbw_basis(n) positions;
        a monomial of another weight raises KeyError."""
        index = self.pbw_index(n)
        return {index[m]: c for m, c in u.items()}


class InducedModule:
    """k (x)_{U(S)} U(L) realized as U(L)/(S.U(L)) for a graded subalgebra S.

    The right ideal S.U(L) is generated by any generating set of S, since
    [x,g] = xg - gx; so per weight, (S.U(L))_n is spanned by the products
    g.u with g over a basis of the span of S's given generators of each
    weight w (not a basis of S) and u over the PBW monomials of weight
    n - w; for g one basis key k and k <= u[0], g.u is the PBW monomial
    (k,) + u, a unit row built without a product.  The quotient basis is
    the canonical complement (non-pivot PBW monomials).  The residue table
    holds minus each canonical row without its pivot entry: canonical rows
    vanish on the other pivots, so that is the pivot monomial's residue,
    which depends only on the span; :meth:`project` sums the classes of
    u's monomials.

    Modules on one Envelope share their per-weight state (the quotient
    basis and the residue table) when the given generators span the
    same space in every weight.  The key is the canonical basis of those
    spans, so the order of the generators, repeats and changes of basis
    within a weight give the same key, and the state is built from the key
    alone.  Equal spans generate the same S, and by PBW, U(L) is free over
    U(S) and k (x)_{U(S)} U(L) = U(L)/(S.U(L)) depends only on S; the
    pivots, the quotient basis and the residue :meth:`project` returns
    depend only on the span of S.U(L).
    """

    def __init__(self, env: Envelope, sub: Optional[GradedSubalgebra]):
        self.env = env
        self.field = env.field
        self._gens = _span_key(sub)
        # n -> (quotient basis, {non-pivot PBW position: quotient position}, residue table)
        self._state: dict[int, tuple] = env._induced.setdefault(self._gens, {})

    def _build(self, n: int) -> tuple:
        got = self._state.get(n)
        if got is None:
            env, field = self.env, self.field
            one, index = field.one, env.pbw_index(n)
            rows = []
            for w, g in self._gens:
                if w <= n:
                    g_u = env.lie_vector_as_u(w, dict(g))
                    # a one-term canonical row is a basis key with coefficient 1
                    g_mono = next(iter(g_u)) if len(g_u) == 1 else None
                    for u_mono in env.pbw_basis(n - w):
                        if g_mono and env.ordered(g_mono, u_mono):
                            rows.append({index[g_mono + u_mono]: one})
                        else:
                            rows.append(env.coords(env.mult(g_u, {u_mono: one}), n))
            canon = Echelon.of(field, rows).rows
            pbw = env.pbw_basis(n)
            qindex = {i: j for j, i in enumerate(i for i in range(len(pbw)) if i not in canon)}
            residues = {p: {qindex[c]: field.neg(x) for c, x in row.items() if c != p}
                        for p, row in canon.items()}  # pivot position -> residue
            got = ([pbw[i] for i in qindex], qindex, residues)
            self._state[n] = got
        return got

    def dim(self, n: int) -> int:
        return len(self._build(n)[0])

    def quotient_basis(self, n: int) -> list[tuple]:
        return self._build(n)[0]

    def project(self, u: dict, n: int) -> dict:
        """Class of a weight-n U(L) element, in quotient coordinates."""
        _, qindex, residues = self._build(n)
        field, index = self.field, self.env.pbw_index(n)
        out: dict = {}
        for m, c in u.items():
            i = index[m]
            field.axpy(out, c, residues[i] if i in residues else {qindex[i]: field.one})
        return out

    def right_action(self, coords: dict, n: int, u: dict, j: int) -> dict:
        """Act on a weight-n class by a weight-j element of U(L)."""
        basis = self._build(n)[0]
        lift = {basis[i]: c for i, c in coords.items()}
        return self.project(self.env.mult(lift, u), n + j)


def _span_key(sub: Optional[GradedSubalgebra]) -> tuple:
    """((weight, canonical row as sorted items), ...): the canonical basis
    of the span of sub's given generators in each weight, weights
    ascending; () for S = 0."""
    spans: dict[int, Echelon] = {}
    for w, g in sub.gens if sub is not None else ():
        spans.setdefault(w, Echelon(sub.field)).add(g)
    return tuple(
        (w, tuple(sorted(row.items()))) for w in sorted(spans) for row in spans[w].basis()
    )

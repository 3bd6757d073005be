"""Graded universal enveloping algebras: PBW positions, the left product,
and induced modules k (x)_{U(S)} U(L).

PBW monomials are nondecreasing tuples of graded basis keys (weight, index)
of the underlying presented Lie algebra; the keys are numbered by rank in
(weight, index) order.  An element of U(L)_n is {position: coefficient}
over the weight-n monomials in lexicographic order, which lie in blocks by
head key; the monomials whose keys are all >= k close each weight.  So
prepending a key h to a monomial t whose keys are all >= h is one fixed
shift of position per (n, h): the block of h in weight n lists exactly
those h.t, in t's order.  Per weight the tables hold each position's head
and tail (its position in the lower weight) and each key's shift; the
empty monomial, position 0 of weight 0, has head +inf.

The one product is the left product of a basis key k with a monomial
t = h.t' (h its head), straightened by the recursion

    k.(h.t') = h.(k.t') + [k,h].t'   (k > h),

in which every key of k.t' is >= h (t' >= h, k > h, and a bracket has
higher weight), so h.(k.t') is k.t' shifted; for k <= h the product is the
monomial k.t, a unit vector at t's position plus k's shift.  Only the
sub-products the recursion reaches are memoised, not the products asked
for.  PBW straightening by left insertion is the standard argument (de
Graaf, "Lie Algebras: Theory and Algorithms", 2000, ch. 1).  The Hilbert
series of U(L) is `PresentedLieAlgebra.enveloping_series`.

An induced module is realized as the quotient U(L)/(S.U(L)) by the right
ideal generated by a graded subalgebra S; its graded dimension equals the
coefficient of Hilb(U(L))/Hilb(U(S)) (freeness of U(L) over U(S) via PBW).
Per weight it keeps a residue table from the ideal's canonical rows, exact
since a residue modulo a span is unique, so projecting is a sum of lookups.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from .linalg import Echelon
from .presented import GradedSubalgebra, PresentedLieAlgebra


class Envelope:
    """PBW position tables and the left product for U(L) of a presented
    graded Lie algebra (see the module docstring).

    It also holds the per-weight state of the induced modules built on it,
    one state per subalgebra span (see :class:`InducedModule`), so modules
    of equal subalgebras share their right ideals.
    """

    def __init__(self, algebra: PresentedLieAlgebra):
        self.algebra = algebra
        self.field = algebra.field
        self._keys: list[tuple] = []                   # rank -> (weight, index)
        self._first: list[int] = [0]                   # weight -> rank of (weight, 0)
        self._heads: list[list] = [[float("inf")]]     # weight -> head rank per position
        self._tails: list[list] = [[None]]             # weight -> tail position per position
        self._shifts: list[list] = [[]]                # weight -> shift per key rank
        self._memo: dict = {}                          # (rank, weight, position) -> product
        self._induced: dict[tuple, dict] = {}          # InducedModule state by span key

    # -- PBW positions -----------------------------------------------------

    def heads(self, n: int) -> list:
        """The head key rank of each weight-n position, nondecreasing."""
        keys = self._keys
        while len(self._heads) <= n:
            w = len(self._heads)
            self._first.append(len(keys))
            keys += [(w, i) for i in range(self.algebra.dim(w))]
            heads, tails, shifts = [], [], []
            for k, (wk, _) in enumerate(keys):
                below = self._heads[w - wk]
                start = bisect_left(below, k)  # the tails whose keys are all >= k
                shifts.append(len(heads) - start)
                heads += [k] * (len(below) - start)
                tails += range(start, len(below))
            self._heads.append(heads)
            self._tails.append(tails)
            self._shifts.append(shifts)
        return self._heads[n]

    def pbw_basis(self, n: int) -> list[tuple]:
        """The weight-n PBW monomials as key tuples, by position."""
        self.heads(n)
        monos = [[()]]
        for w in range(1, n + 1):
            monos.append([(self._keys[h],) + monos[w - self._keys[h][0]][t]
                          for h, t in zip(self._heads[w], self._tails[w])])
        return monos[n]

    # -- the left product --------------------------------------------------

    def mult(self, w: int, g: dict, m: int, u: dict) -> dict:
        """g.u for g in L_w, in basis coordinates, and u in U(L)_m, in
        positions; the product in weight-(w + m) positions."""
        self.heads(w + m)
        field, first = self.field, self._first[w]
        out: dict = {}
        for i, c in g.items():
            for p, x in u.items():
                field.axpy(out, field.mul(c, x), self._left(first + i, p, m))
        return out

    def _left(self, k: int, p: int, m: int, store: bool = False) -> dict:
        """The key of rank k times the weight-m monomial at position p;
        `store` memoises a straightened product (a sub-product)."""
        head = self._heads[m][p]
        keys, n = self._keys, m + self._keys[k][0]
        if k <= head:
            return {p + self._shifts[n][k]: self.field.one}
        if store:
            got = self._memo.get((k, m, p))
            if got is not None:
                return got
        # k.(h.t) = h.(k.t) + [k,h].t, and prepending h to k.t is a shift
        t, mt = self._tails[m][p], m - keys[head][0]
        shift = self._shifts[n][head]
        out = {q + shift: c for q, c in self._left(k, t, mt, True).items()}
        first = self._first[n - mt]
        for i, c in self.algebra.engine.pair(keys[k], keys[head]).items():
            self.field.axpy(out, c, self._left(first + i, t, mt, True))
        if store:
            self._memo[k, m, p] = out
        return out


class InducedModule:
    """k (x)_{U(S)} U(L) realized as U(L)/(S.U(L)) for a graded subalgebra S.

    The right ideal S.U(L) is generated by any generating set of S, since
    [x,g] = xg - gx; so per weight, (S.U(L))_n is spanned by the products
    g.u with g over a basis of the span of S's given generators of each
    weight w (not a basis of S) and u over the PBW monomials of weight
    n - w.  For g one basis key k and u with head >= k, g.u is the PBW
    monomial k.u: these ordered rows are the unit vectors of k's block of
    weight n.  A unit vector e_P in the span is the canonical row at P (a
    canonical row vanishes on the other pivots), so each P is a pivot with
    residue 0 and no ordered row is built.  Only the other rows are
    multiplied; stripped of the unit columns, they are eliminated, and
    their canonical rows are the rest of the span's canonical rows.  The
    quotient basis is the canonical complement (non-pivot positions).  The
    residue table holds minus each of those canonical rows without its
    pivot entry, the pivot position's residue, which depends only on the
    span; :meth:`project` sums the classes of u's positions.

    Modules on one Envelope share their per-weight state (the quotient
    positions and the residue table) when the given generators span the
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
        # n -> ({non-pivot position: quotient position}, residue table)
        self._state: dict[int, tuple] = env._induced.setdefault(self._gens, {})

    def _build(self, n: int) -> tuple:
        got = self._state.get(n)
        if got is None:
            env, field = self.env, self.field
            one, size = field.one, len(env.heads(n))
            units, rows = set(), []
            for w, g in self._gens:
                if w <= n:
                    heads = env.heads(n - w)
                    us = range(len(heads))
                    if len(g) == 1:  # a basis key k: k.u is a unit row for u's head >= k
                        k = env._first[w] + g[0][0]
                        start, shift = bisect_left(heads, k), env._shifts[n][k]
                        units.update(range(start + shift, len(heads) + shift))
                        us = range(start)
                    g = dict(g)
                    rows += [env.mult(w, g, n - w, {p: one}) for p in us]
            rows = [{c: x for c, x in row.items() if c not in units} for row in rows]
            canon = Echelon.of(field, [row for row in rows if row]).rows
            qindex = {p: j for j, p in enumerate(
                p for p in range(size) if p not in units and p not in canon)}
            residues = {p: {qindex[c]: field.neg(x) for c, x in row.items() if c != p}
                        for p, row in canon.items()}  # pivot position -> residue
            got = (qindex, residues)
            self._state[n] = got
        return got

    def dim(self, n: int) -> int:
        return len(self._build(n)[0])

    def quotient_basis(self, n: int) -> list[int]:
        """The quotient basis as weight-n positions."""
        return list(self._build(n)[0])

    def project(self, u: dict, n: int) -> dict:
        """Class of a weight-n U(L) element, in quotient coordinates."""
        qindex, residues = self._build(n)
        field, one = self.field, self.field.one
        out: dict = {}
        for p, c in u.items():
            if p in qindex:
                field.axpy(out, c, {qindex[p]: one})
            elif p in residues:  # any other position is a unit pivot: residue 0
                field.axpy(out, c, residues[p])
        return out

    def right_action(self, coords: dict, n: int, u: dict, j: int) -> dict:
        """Act on a weight-n class by a weight-j element of U(L): the lift
        times u, key by key from the lift's last key."""
        env, one = self.env, self.field.one
        basis, monos = self.quotient_basis(n), env.pbw_basis(n)
        out: dict = {}
        for i, c in coords.items():
            v, m = u, j
            for w, k in reversed(monos[basis[i]]):
                v, m = env.mult(w, {k: one}, m, v), m + w
            self.field.axpy(out, c, v)
        return self.project(out, n + j)


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

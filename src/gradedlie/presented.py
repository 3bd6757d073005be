"""Finitely presented N-graded Lie algebras with homogeneous relators.

A graded structure-constants engine (:class:`GradedEngine`) builds each
weight component L_n as a quotient of the candidate space spanned by
``[basis element of L_{n-w(x)}, generator x]`` (plus generators of weight
n), cut by antisymmetry and Jacobi consistency constraints and by the
relators of weight n.  This scales with dim L rather than dim F and
carries explicit bracket tables, which homology, enveloping-algebra and
graph constructions consume.  The same builds give H_1, Hopf's H_2
(:meth:`PresentedLieAlgebra.h2_hopf`) and minimal presentations of
subalgebras (:func:`infer_presentation`).  The relation ideal spanned in
the free Lie algebra, the independent route to dims, H_2 and those
presentations, is a test oracle in ``tests/oracles.py``.

Every subalgebra and the graph of a derivation are each one
:class:`GeneratedSpans`, the one type of span generated from below.

The package is single-threaded.  Per-weight data is built on first use,
and reading a built weight can still fill memos (the engine's pair memo,
the free algebra's rewriting memo and interned monomials).

Presentation file format, where # starts a comment and blank lines are
allowed::

    field = Q            # or Fp:<prime>
    gen x weight 1
    gen t weight 2
    rel [t,[x,t]]
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations_with_replacement
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .fields import (Field, FieldError, InputError, PrimeField, check_same_field, integer, integral,
                     lines, load, parse_field)
from .freelie import FreeLieAlgebra, LieElement, witt_dims
from .linalg import Echelon, SparseMatrix
from .series import HilbertSeries


class PresentationError(InputError):
    pass


class PresentedLieAlgebra:
    """L = F(X)/<R> with weighted generators X and homogeneous relators R,
    each an expression (str) or an element of the free algebra."""

    def __init__(
        self,
        field: Field,
        generators: Iterable,
        relators=(),
        name: str = "",
        free: Optional[FreeLieAlgebra] = None,
    ):
        self.field = field
        self.name = name
        if free is not None:
            check_same_field(field, free.field, "presentation and free algebra")
            self.free = free
        else:
            self.free = FreeLieAlgebra(field, generators)
        self.generators = self.free.gens
        rels = []
        for r in relators:
            if isinstance(r, str):
                r = self.free.parse(r)
            if r.is_zero():
                raise PresentationError("zero relator")
            if not r.is_homogeneous():
                raise PresentationError(f"inhomogeneous relator {r!r}")
            rels.append(r)
        self.relators: list[LieElement] = rels
        self._engine: Optional[GradedEngine] = None

    # -- presentation data ------------------------------------------------

    @property
    def generator_names(self) -> list[str]:
        return [g.name for g in self.generators]

    def generator_weights(self) -> list[int]:
        return [g.weight for g in self.generators]

    def parse(self, text: str) -> LieElement:
        return self.free.parse(text)

    def relator_weights(self) -> list[int]:
        return sorted(r.weight() for r in self.relators)

    def __repr__(self):
        gens = ", ".join(f"{g.name}:{g.weight}" for g in self.generators)
        return f"<{self.name or 'L'} = ({gens} | {len(self.relators)} relators)>"

    # -- graded engine ----------------------------------------------------

    @property
    def engine(self) -> "GradedEngine":
        if self._engine is None:
            self._engine = GradedEngine(self)
        return self._engine

    def dim(self, n: int) -> int:
        """dim L_n, n >= 1."""
        if not self.relators:
            if not self.generators:
                return 0
            return witt_dims(self.generator_weights(), n)[n - 1]
        return self.engine.dim(n)

    def dim_sequence(self, N: int) -> list[int]:
        """dim L_n for n = 1..N."""
        return [self.dim(n) for n in range(1, N + 1)]

    def enveloping_series(self, N: int) -> HilbertSeries:
        return HilbertSeries.from_graded_dims(self.dim_sequence(N), N)

    def evaluate(self, elem: LieElement) -> tuple[int, dict]:
        """Image of a homogeneous free-algebra element; (weight, coords)."""
        return self.engine.evaluate(elem)

    def subalgebra(self, generators) -> "GradedSubalgebra":
        return GradedSubalgebra(self, generators)

    # -- homological invariants -------------------------------------------

    def h1(self, N: int) -> list[int]:
        """Graded dims of L/[L,L] for weights 1..N."""
        out = []
        for n in range(1, N + 1):
            out.append(self.dim(n) - self.engine.commutator_rank(n))
        return out

    def h2_hopf(self, N: int) -> list[int]:
        """Graded dims of H_2 = (I cap [F,F])/[I,F], I = <R>, for weights
        1..N, by Hopf's identity: with L' = F/<R of weight < n>,

            h2(n) = (dim L'_n - dim L_n) - (#gens_n - h1_n),

        as [I,F]_n depends only on I below n, so dim I_n/[I,F]_n is
        dim L'_n - dim L_n, and I_n/(I_n cap [F,F]_n) is the image of R_n
        among the weight-n generators (:class:`GradedEngine`).  Above the
        top relator weight L' = L and no generator dies, so h2 is 0."""
        top = min(N, max(self.relator_weights(), default=0))
        self.engine.build_to(top)
        return [self.engine.h2[n] for n in range(1, top + 1)] + [0] * (N - top)

    def is_free_up_to(self, N: int) -> dict:
        """{"verdict", "checked_to", "witness_weight", "h2"}: "not-free" at
        the first weight where h2 is nonzero (witness_weight), else
        "free-witnessed" once every relator has weight <= N, else
        "inconclusive"; the last two hold to checked_to = N.  h2 is
        h2_hopf(N)."""
        h2 = self.h2_hopf(N)
        witness = next((n for n, d in enumerate(h2, start=1) if d), None)
        max_rel = max((r.weight() for r in self.relators), default=0)
        verdict = ("not-free" if witness is not None else
                   "free-witnessed" if max_rel <= N else "inconclusive")
        return {"verdict": verdict, "checked_to": N if witness is None else None,
                "witness_weight": witness, "h2": h2}


class GradedEngine:
    """Structure constants of a presented graded Lie algebra, per weight.

    Weight-n basis elements are surviving candidates, each carrying a
    definition: either a generator or a pair (lower basis element, right
    generator).  Constraint rows are antisymmetry instances on generator
    pairs, Jacobi instances [[p,q],x] + [[q,x],p] + [[x,p],q] for lower
    basis elements p <= q and surviving generators x, and the relators of
    weight n.  Deterministic echelon (lowest candidate index pivots) makes
    bases and tables reproducible.

    The consistency rows use only lower weights, so they are the rows of
    L'_n, L' = F/<R of weight < n>.  Their rank is read before the relator
    rows, the only rows on generator columns, extend the same echelon:
    ``h2[n]`` is the rank those add minus the generators they kill
    (:meth:`PresentedLieAlgebra.h2_hopf`).  Canonical rows, so bases and
    tables, do not depend on the order rows are added in.  An engine given
    ``kernel`` (:func:`infer_presentation`) adds as relator rows what
    ``kernel(n, spanning)`` returns, for ``spanning`` the (index, candidate)
    pairs off the consistency pivots, which span L'_n.

    The weight-n candidates are the generators of weight n, then one block
    [b_(n-w(z), i), z] (all i) per surviving generator z.
    ``_cand_red[n][z]`` lists the reductions of z's block over the weight-n
    basis, and ``_gen_red`` those of the generators.  While weight n is
    being built every candidate reduces to its own unit vector instead
    (candidate coordinates), so [[p,b'],z] is [p,b'] re-indexed into z's
    block, whose positions are ``_cand_blocks[z]``, and the one bracket recursion
    (:meth:`_pair`, :meth:`_bracket`, :meth:`_eval_monomial`) writes the
    constraint rows of weight n in candidate coordinates.  Once the rows
    are written the weight-n memos are reset, and after elimination the
    real reductions replace the unit vectors.  :meth:`_add_bracket`
    (out += c*[v, b_q]) is the one inner bracket loop; Jacobi rows are
    written through it, and it adds a one-term bracket, such as a
    candidate's, in place rather than through ``Field.axpy``.

    Every internal vector is a pair ``(numerators, den)`` worth
    numerators/den, with int numerators over Q (:func:`_addto` adds two at
    a common denominator, so brackets need no ``Fraction``), and residues
    in [1, p) over den = +-1 over F_p.  Constraint rows go to the echelon
    as numerators, which are fixed only up to a nonzero scalar (in practice
    the sign of the den).  Public queries return canonical dicts.
    ``_pair_memo[n][q]`` maps i to [b_p, b_q], p = (n - w(q), i), so the
    inner loop reads a bracket with one int-keyed lookup.  A miss stores
    both orientations, whose two entries share one numerators dict under
    opposite dens.  In candidate coordinates the two orientations may
    differ.  A miss computes the one asked for and stores both, but when
    the recursion below it stores the pair first, the outer call's value
    overwrites the inner one: the last call to finish defines both.
    """

    def __init__(self, algebra: PresentedLieAlgebra, kernel=None):
        self.algebra = algebra
        self._kernel = kernel  # infer_presentation's relator rows, see _build
        self.field = algebra.field
        self._mod = algebra.field.p if isinstance(algebra.field, PrimeField) else 0
        self.gens = algebra.generators
        self._built = 0
        self._defs: dict[int, list] = {}        # n -> list of candidate keys
        self._cand_red: dict[int, dict] = {}    # n -> {z: [(numerators, den) per candidate of z]}
        self._cand_blocks: dict[int, range] = {}  # z -> positions of its candidates, while building
        self._gen_red: list = [None] * len(self.gens)
        self._gen_alive: list = [False] * len(self.gens)
        self._pair_memo: dict[int, dict] = {}   # n -> {q: {i: (numerators, den)}}
        self._eval_memo: dict[int, dict] = {}   # n -> {monomial id: (numerators, den)}
        self.h2: dict[int, int] = {}            # n -> dim H_2(L)_n, once built
        self._relators_by_weight: dict[int, list] = {}  # n -> terms of each relator
        for r in algebra.relators:
            self._relators_by_weight.setdefault(r.weight(), []).append(r.terms)

    # -- public queries ----------------------------------------------------

    def build_to(self, n: int):
        while self._built < n:
            self._build(self._built + 1)

    def dim(self, n: int) -> int:
        self.build_to(n)
        return len(self._defs[n])

    def pair(self, p: tuple, q: tuple) -> dict:
        """Structure constants [b_p, b_q] as a vector over basis[wp+wq]."""
        self.build_to(p[0] + q[0])
        return self.field.div_vec(*self._pair(p, q))

    def bracket_vec(self, wa: int, va: dict, wb: int, vb: dict) -> dict:
        """Bracket of two coordinate vectors; result over basis[wa+wb]."""
        self.build_to(wa + wb)
        return self.field.div_vec(*self._bracket(wa, integral(va), wb, integral(vb)))

    def evaluate(self, elem: LieElement) -> tuple[int, dict]:
        """Image of a homogeneous free-algebra element in engine coordinates."""
        if elem.is_zero():
            raise PresentationError("cannot evaluate 0 (weight undetermined)")
        w = elem.weight()
        if w is None:
            raise PresentationError("inhomogeneous element")
        self.build_to(w)
        return w, self.field.div_vec(*self._eval_terms(elem.terms))

    def commutator_rank(self, n: int) -> int:
        """dim of ([L,L])_n: dim L_n minus the surviving generators of weight n.

        The blocks [b, z] over the surviving generators z span [L,L]_n
        (left-normed brackets of generators span the algebra they generate,
        and the surviving generators generate L).  The weight-n generators
        are the lowest candidate columns, so with lowest-column pivots
        every constraint row either pivots on a generator column or is zero
        on all of them: L_n/[L,L]_n has the surviving generators as a basis.
        """
        dim = self.dim(n)  # builds weight n, which settles its survivors
        alive = zip(self.gens, self._gen_alive)
        return dim - sum(1 for g, a in alive if a and g.weight == n)

    # -- internals ----------------------------------------------------------

    def _eval_terms(self, terms: dict) -> tuple:
        """(numerators, den) of a homogeneous combination of monomials."""
        field = self.field
        out, den = {}, 1
        for mid, coef in terms.items():
            vec, dv = self._eval_monomial(mid)
            den = _addto(field, out, den, coef.numerator, vec, dv * coef.denominator)
        return out, den

    def _eval_monomial(self, mid: int) -> tuple:
        free = self.algebra.free
        memo = self._eval_memo[free.weight(mid)]
        got = memo.get(mid)
        if got is not None:
            return got
        if free.is_generator(mid):
            vec = self._gen_red[free.gen_index[free.generator_of(mid).name]]
        else:
            l, r = free.factors(mid)
            vec = _reduced(*self._bracket(
                free.weight(l), self._eval_monomial(l), free.weight(r), self._eval_monomial(r)
            ))
        memo[mid] = vec
        return vec

    def _bracket(self, wa: int, a: tuple, wb: int, b: tuple) -> tuple:
        """[a, b] of two (numerators, den) vectors, b's keys outermost."""
        out, den = {}, 1
        for ib, cb in b[0].items():
            den = self._add_bracket(out, den, cb, wa, a, (wb, ib))
        return out, den * b[1]

    def _add_bracket(self, out: dict, den: int, c, wv: int, v: tuple, q: tuple) -> int:
        """In place out/den += c*[v, b_q] for a (numerators, den) vector v
        of weight wv and one basis key q; return the new den.  This is the
        engine's one inner bracket loop."""
        field, mod = self.field, self._mod
        col = self._pair_memo[wv + q[0]][q]  # memo hits skip the _pair call
        vv, dv = v
        for i, ci in vv.items():
            got = col.get(i)
            vec, d = self._pair((wv, i), q) if got is None else got
            d *= dv
            if den % d:
                den = _addto(field, out, den, c * ci, vec, d)
                continue
            a = c * ci * (den // d)  # no rescale, as for every pair read flipped (d = -1)
            if len(vec) == 1:  # one term, as every candidate's bracket is
                [k] = vec
                s = out.get(k, 0) + a * vec[k]
                if mod:
                    s %= mod
                if s:
                    out[k] = s
                else:
                    del out[k]
            else:
                field.axpy(out, a, vec)
        return den

    def _pair(self, p: tuple, q: tuple) -> tuple:
        if p == q:
            return {}, 1
        n = p[0] + q[0]
        memo = self._pair_memo[n]
        got = memo[q].get(p[1])
        if got is not None:
            return got
        field = self.field
        building = n > self._built  # candidate coordinates
        defs_q = self._defs[q[0]][q[1]]
        if defs_q[0] == "gen":
            gq = defs_q[1]
            if building:
                res, den = {self._cand_blocks[gq][p[1]]: 1}, 1
            else:
                res, den = self._cand_red[n][gq][p[1]]
        else:
            # q = [b', x_z]: [p,q] = [[p,b'],z] - [[p,z],b']
            bprime, gz = defs_q
            wz = self.gens[gz].weight
            u, du = self._pair(p, bprime)  # over basis[n - wz]
            res, den = {}, 1
            if u and building:  # z's candidates are unit vectors
                block = self._cand_blocks[gz]
                res = {block[i]: c for i, c in u.items()}
            elif u:
                red = self._cand_red[n][gz]
                for i, c in u.items():
                    vec, dv = red[i]
                    if den % dv:
                        den = _addto(field, res, den, c, vec, dv)
                    else:
                        field.axpy(res, c * (den // dv), vec)
            w2 = self._cand_red[p[0] + wz][gz][p[1]]
            den = self._add_bracket(res, den * du, -1, p[0] + wz, w2, bprime)
            res, den = _reduced(res, den)
        memo[q][p[1]] = res, den
        memo[p][q[1]] = res, -den
        return res, den

    def _candidates(self, n: int) -> tuple[list, dict]:
        # bracket candidates only pair with surviving generators; a dead
        # generator's image is a combination of basis elements, and brackets
        # against it reduce through the pair tables
        cands = [("gen", gi) for gi, g in enumerate(self.gens) if g.weight == n]
        blocks = {}
        for gi, g in enumerate(self.gens):
            m = n - g.weight
            if m >= 1 and self._gen_alive[gi]:
                blocks[gi] = range(len(cands), len(cands) + len(self._defs[m]))
                cands.extend(((m, i), gi) for i in range(len(self._defs[m])))
        return cands, blocks

    def _build(self, n: int):
        field = self.field
        cands, blocks = self._candidates(n)
        # candidate coordinates for weight n until the rows are written
        self._cand_blocks = blocks
        for i, c in enumerate(cands):
            if c[0] == "gen":
                self._gen_red[c[1]] = {i: 1}, 1
        self._pair_memo[n] = defaultdict(dict)
        self._eval_memo[n] = {}

        rows = []
        # antisymmetry on pairs of surviving generators of total weight n
        # (pairs with a reduced generator are automatic: _pair evaluates the
        # reduced image antisymmetrically)
        live = [
            (gi, g) for gi, g in enumerate(self.gens)
            if g.weight < n and self._gen_alive[gi]
        ]
        for (gi, g), (gj, h) in combinations_with_replacement(live, 2):
            if g.weight + h.weight == n:
                # [x_i, x_j] + [x_j, x_i], one entry when i == j
                idx_i, idx_j = (next(iter(self._gen_red[k][0])) for k in (gi, gj))
                rows.append({blocks[gi][idx_j]: 1, blocks[gj][idx_i]: 1})
        # Jacobi consistency [[p,q],x] + [[q,x],p] + [[x,p],q] over all basis
        # pairs p, q and surviving generators x (triples with a composite or
        # reduced third slot follow from these through the definition
        # recursion and linearity).  [q,x] and [x,p] lie in final weights
        # below n, so they are taken once per (x, q) and per (x, p).  The
        # weight-n pairs keep their order (terms in turn, each in the order
        # of its left vector): in candidate coordinates the first orientation
        # asked for defines the memo entry.
        for gi, g in live:
            wx = g.weight
            x = (wx, next(iter(self._gen_red[gi][0])))
            for dp in range(1, n - wx):
                dq = n - wx - dp
                if dq < dp:
                    break
                qx = [self._pair((dq, iq), x) for iq in range(len(self._defs[dq]))]
                for ip in range(len(self._defs[dp])):
                    p = (dp, ip)
                    xp = self._pair(x, p)
                    for iq in range(ip + 1 if dq == dp else 0, len(self._defs[dq])):
                        q = (dq, iq)
                        row = {}
                        den = self._add_bracket(row, 1, 1, dp + dq, self._pair(p, q), x)
                        if qx[iq][0]:
                            den = self._add_bracket(row, den, 1, dq + wx, qx[iq], p)
                        if xp[0]:  # the row's den is not needed
                            self._add_bracket(row, den, 1, wx + dp, xp, q)
                        if row:
                            rows.append(row)
        rels = self._relators_by_weight.get(n, [])
        relator_rows = [row for row, _ in map(self._eval_terms, rels) if row]

        # the rows are written: drop the candidate-coordinate state
        self._pair_memo[n] = defaultdict(dict)
        self._eval_memo[n] = {}
        # candidate i reduces to (-r_j, r_i) over the basis, r its primitive row
        ech = Echelon.of(field, rows)
        consistency_rank = ech.rank
        if self._kernel is not None:
            pivots = set(ech.pivots())
            relator_rows += self._kernel(n, [(i, c) for i, c in enumerate(cands) if i not in pivots])
        prim = ech.extend(relator_rows).primitive_rows
        basis_pos = {}
        defs = []
        for i, c in enumerate(cands):
            if i not in prim:
                basis_pos[i] = len(defs)
                defs.append(c)
        red = []
        for i in range(len(cands)):
            if i in prim:
                row = prim[i]
                red.append(({basis_pos[j]: field.neg(x) for j, x in row.items() if j != i}, row[i]))
            else:
                red.append(({basis_pos[i]: 1}, 1))
        self._defs[n] = defs
        self._cand_red[n] = {gz: red[b.start : b.stop] for gz, b in blocks.items()}
        for i, c in enumerate(cands):
            if c[0] == "gen":
                self._gen_red[c[1]] = red[i]
                self._gen_alive[c[1]] = i not in prim
        killed = sum(1 for i, c in enumerate(cands) if c[0] == "gen" and i in prim)
        self.h2[n] = ech.rank - consistency_rank - killed
        self._built = n


def _addto(field: Field, out: dict, den: int, a, v: dict, dv: int) -> int:
    """In place out/den += a*v/dv for numerators (ints over Q); return the
    new den.  out is rescaled to lcm(den, dv) only when dv does not divide
    den, which never happens over F_p (every den there is 1 or -1)."""
    if den % dv:
        s = lcm(den, dv) // den
        for c in out:
            out[c] *= s
        den *= s
    field.axpy(out, a * (den // dv), v)
    return den


def _reduced(vec: dict, den: int) -> tuple:
    """(vec, den) divided by gcd(den, content), to be stored."""
    g = 1 if den in (1, -1) else gcd(den, *vec.values())
    return (vec, den) if g == 1 else ({c: x // g for c, x in vec.items()}, den // g)


def add_brackets(ech: Echelon, rows, gens, n: int, bracket) -> Echelon:
    """Add sum over (w, g) in gens of [V_{n-w}, g] to ech, as one batch
    (:meth:`Echelon.extend`), and return ech: the bracket term of
    :meth:`GeneratedSpans.derived`, where rows(m) spans V_m."""
    return ech.extend(
        [bracket(n - w, v, w, g) for w, g in gens if w < n for v in rows(n - w)]
    )


class GeneratedSpans:
    """The graded span V generated from below by seeds and brackets with
    gens: V_n = seeds(n) + sum over (w, g) in gens of [V_{n-w}, g].

    gens lists (weight, g) pairs, bracket(m, v, w, g) is the weight-(m+w)
    bracket of a weight-m vector v with g, and seeds(n) lists the seed
    vectors of weight n.  Left-normed brackets of generators span the Lie
    algebra, or the ideal, they generate (Reutenauer, Free Lie Algebras,
    1993), so no pair of lower components needs bracketing.  Each weight is
    built once, from below: span(n) is a copy of the kept derived(n)
    extended by the seeds, which must be known before V_n is first read.
    """

    def __init__(self, field: Field, gens: list, bracket, seeds):
        self.field = field
        self.gens = gens
        self.bracket = bracket
        self.seeds = seeds
        self._derived: dict[int, Echelon] = {}
        self._spans: dict[int, Echelon] = {}

    def derived(self, n: int) -> Echelon:
        """The bracket term sum_g [V_{n-w(g)}, g] of V_n."""
        got = self._derived.get(n)
        if got is None:
            got = self._derived[n] = add_brackets(
                Echelon(self.field), lambda m: self.span(m).primitive_basis(), self.gens, n,
                self.bracket,
            )
        return got

    def span(self, n: int) -> Echelon:
        """V_n: derived(n) extended by the seeds of weight n."""
        got = self._spans.get(n)
        if got is None:
            got = self._spans[n] = self.derived(n).copy().extend(self.seeds(n))
        return got


class _IdealSpansForList(GeneratedSpans):
    """No library code builds this class or :class:`_IdealSpans`; they keep
    the names bench/tracer.py wraps.  The relation ideal inside the free
    algebra is a test oracle (tests/oracles.py)."""

    ideal = GeneratedSpans.span


class _IdealSpans(_IdealSpansForList):
    ideal = GeneratedSpans.span
    bracket_ideal = GeneratedSpans.derived


class GradedSubalgebra(GeneratedSpans):
    """Finitely generated graded subalgebra S of a presented Lie algebra,
    the :class:`GeneratedSpans` with its generators as both gens and seeds:
    span(n) is S_n and derived(n) is [S,S]_n, in L_n coordinates.

    Generators are homogeneous elements, given as expressions or elements
    of the ambient free algebra; gens holds them as (weight, vector) pairs.
    """

    def __init__(self, ambient: PresentedLieAlgebra, generators):
        self.ambient = ambient
        gens = []
        for g in generators:
            try:
                gens.append(ambient.evaluate(ambient.parse(g) if isinstance(g, str) else g))
            except PresentationError as exc:
                raise PresentationError(f"generator {g!r}: {exc}") from None
        super().__init__(
            ambient.field, gens, ambient.engine.bracket_vec,
            lambda n: [vec for w, vec in gens if w == n],
        )

    def _build_to(self, n: int):
        # a loop only because bench/tracer.py wraps it by name
        for m in range(1, n + 1):
            self.span(m)

    def span_dims(self, N: int) -> list[int]:
        self._build_to(N)
        return [self.span(n).rank for n in range(1, N + 1)]


def infer_presentation(
    S: GradedSubalgebra,
    N: int,
    names: Optional[Sequence[str]] = None,
) -> tuple[PresentedLieAlgebra, bool]:
    """(presentation, conclusive): a minimal graded presentation of S,
    computed degree by degree to weight N.

    Generators are lifts of a graded basis of S/[S,S]: the canonical rows
    of S_n outside a copy of the derived span [S,S]_n.  S/[S,S] is spanned
    by the given generators, so the generator set is complete exactly when
    N >= 1 and N reaches the largest weight of a given generator with a
    nonzero image; below that the truncated presentation comes with
    conclusive False.  `names`, if given, names the generators in that
    order, one name each; else they are s1, s2, ...

    The relators are the kernel rows of one :class:`GradedEngine` of F-hat,
    the free algebra on the generators, which becomes the presentation's
    own.  At weight n the candidates off the pivots of its consistency rows
    span L'_n = F-hat_n/[I,F]_n (I the ideal of the lower relators), and a
    candidate [b, z] maps to [image(b), image(z)] in S.  The kernel of
    L'_n -> S_n is I_n/[I,F]_n, so its canonical basis is a complement of
    [I,F]_n in I_n: the presentation is minimal.  Each kernel row is lifted
    to F-hat through the candidates' definitions (left-normed brackets)
    and scaled so that its least Hall monomial has coefficient 1.
    """
    field = S.field
    ambient = S.ambient.engine

    # graded generator lifts: S_n modulo [S,S]_n
    gen_specs = []  # (weight, vector)
    for n in range(1, N + 1):
        comm = S.derived(n).copy()
        for row in S.span(n).basis():
            if comm.add(row) is not None:
                gen_specs.append((n, row))
    need = max([1] + [w for w, vec in S.gens if vec])
    conclusive = N >= need

    if names is None:
        names = [f"s{i + 1}" for i in range(len(gen_specs))]
    gens = [(names[i], w) for i, (w, _) in enumerate(gen_specs)]
    fhat = FreeLieAlgebra(field, gens)
    pres = PresentedLieAlgebra(field, gens, name="inferred", free=fhat)
    images: dict = {}  # candidate of the engine -> its image in S
    lifts: dict = {}   # candidate of the engine -> its lift to F-hat

    def lift(c):
        got = lifts.get(c)
        if got is None:
            if c[0] == "gen":
                got = fhat.gen_element(gens[c[1]][0])
            else:
                (m, i), gz = c
                got = lift(eng._defs[m][i]).bracket(fhat.gen_element(gens[gz][0]))
            lifts[c] = got
        return got

    def kernel(n: int, spanning: list) -> list:
        # spanning: the (index, candidate) pairs that span L'_n
        for _, c in spanning:
            if c[0] == "gen":
                images[c] = gen_specs[c[1]][1]
            else:
                (m, i), gz = c
                images[c] = ambient.bracket_vec(m, images[eng._defs[m][i]], *gen_specs[gz])
        rows = SparseMatrix(field, [images[c] for _, c in spanning]).kernel()
        for row in rows:
            r = fhat.zero()
            for j, x in row.items():
                r = r + lift(spanning[j][1]).scale(x)
            pres.relators.append(r.scale(field.inv(r.terms[min(r.terms, key=fhat.key)])))
        return [{spanning[j][0]: x for j, x in row.items()} for row in rows]

    eng = pres._engine = GradedEngine(pres, kernel)
    for n in range(1, N + 1):
        # sanity: presentation dims must match span dims at this degree
        if eng.dim(n) != S.span(n).rank:
            raise AssertionError(f"inferred presentation inconsistent at weight {n}")
    eng._kernel = None  # above N the engine is the presentation's own
    return pres, conclusive


# ----------------------------------------------------------------------
# presentation files


def parse_presentation(
    text: str, field: Optional[Field] = None, name: str = ""
) -> PresentedLieAlgebra:
    """Parse the presentation file format (see module docstring)."""
    gens = []
    rel_texts = []
    file_field = None
    for lineno, line in lines(text):
        if line.startswith("field"):
            _, _, rhs = line.partition("=")
            if not rhs.strip():
                raise PresentationError(f"line {lineno}: malformed field line")
            try:
                file_field = parse_field(rhs)
            except FieldError as exc:
                raise PresentationError(f"line {lineno}: {exc}") from None
        elif line.startswith("gen "):
            parts = line.split()
            if len(parts) != 4 or parts[2] != "weight":
                raise PresentationError(
                    f"line {lineno}: expected 'gen <name> weight <w>', got {line!r}"
                )
            w = integer(parts[3], f"line {lineno}: weight of {parts[1]!r}", 1, PresentationError)
            if any(parts[1] == name for name, _ in gens):
                raise PresentationError(f"line {lineno}: duplicate generator {parts[1]!r}")
            gens.append((parts[1], w))
        elif line.startswith("rel "):
            rel_texts.append((lineno, line[4:].strip()))
        else:
            raise PresentationError(f"line {lineno}: unrecognized line {line!r}")
    use_field = field or file_field
    if use_field is None:
        raise PresentationError("no field given (add a 'field = ...' line)")
    free = FreeLieAlgebra(use_field, gens)
    rels = []
    for lineno, t in rel_texts:
        try:
            rels.append(free.parse(t))
        except InputError as exc:
            raise PresentationError(f"line {lineno}: {exc}") from exc
    return PresentedLieAlgebra(use_field, gens, rels, name=name, free=free)


def load_presentation(path, field: Optional[Field] = None) -> PresentedLieAlgebra:
    """The presentation in file `path`, over `field` if given."""
    return load(path, parse_presentation, field, str(path))

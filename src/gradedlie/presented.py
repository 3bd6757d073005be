"""Finitely presented N-graded Lie algebras with homogeneous relators.

Two computation routes coexist:

* a graded structure-constants engine (:class:`GradedEngine`) that builds
  each weight component L_n as a quotient of the candidate space spanned by
  ``[basis element of L_{n-w(x)}, generator x]`` (plus generators of weight
  n), cut by antisymmetry and Jacobi consistency constraints and by the
  relators of weight n.  This scales with dim L rather than dim F and
  carries explicit bracket tables, which homology, enveloping-algebra and
  graph constructions consume;

* a free-algebra ideal route (:meth:`PresentedLieAlgebra.ideal_component`)
  that spans the relation ideal degree by degree inside the ambient free
  Lie algebra, used for the Hopf-formula H_2 and as an independent oracle
  for the engine (the two routes must agree on dim L_n = dim F_n - dim I_n;
  the test suite enforces this on every corpus algebra).

Per-weight data is computed under a single-writer discipline: once a weight
is built it is immutable and may be read concurrently.

Presentation file format::

    field = Q            # or Fp:<prime>
    gen x weight 1
    gen t weight 2
    rel [t,[x,t]]
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .fields import Field, check_same_field, parse_field
from .freelie import FreeLieAlgebra, LieElement, witt_dims
from .linalg import Echelon, SparseMatrix, Subspace
from .series import HilbertSeries


class PresentationError(ValueError):
    pass


class InconclusiveAtDegree(Exception):
    """Raised when a truncated computation cannot certify its answer."""

    def __init__(self, degree: int, message: str, partial=None):
        super().__init__(f"inconclusive at degree {degree}: {message}")
        self.degree = degree
        self.partial = partial


class PresentedLieAlgebra:
    """L = F(X)/<R> with weighted generators X and homogeneous relators R."""

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
            if not isinstance(r, LieElement):
                r = self.free.element(r)
            if r.algebra is not self.free:
                raise PresentationError("relator built over a different algebra")
            if r.is_zero():
                raise PresentationError("zero relator")
            if not r.is_homogeneous():
                raise PresentationError(f"inhomogeneous relator {r!r}")
            rels.append(r)
        self.relators: list[LieElement] = rels
        self._engine: Optional[GradedEngine] = None
        self._ideal: Optional[_IdealSpans] = None

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
        if n < 1:
            return 0
        if not self.relators:
            if not self.generators:
                return 0
            return witt_dims(self.generator_weights(), n)[n - 1]
        return self.engine.dim(n)

    def dim_sequence(self, N: int) -> list[int]:
        """dim L_n for n = 1..N."""
        if not self.relators:
            if not self.generators:
                return [0] * N
            return witt_dims(self.generator_weights(), N)
        return [self.engine.dim(n) for n in range(1, N + 1)]

    def enveloping_series(self, N: int) -> HilbertSeries:
        return HilbertSeries.from_graded_dims(self.dim_sequence(N), N)

    def evaluate(self, elem: LieElement) -> tuple[int, dict]:
        """Image of a homogeneous free-algebra element; (weight, coords)."""
        return self.engine.evaluate(elem)

    def subalgebra(self, generators) -> "GradedSubalgebra":
        return GradedSubalgebra(self, generators)

    # -- ideal route (free-algebra side) ----------------------------------

    @property
    def _ideal_spans(self) -> "_IdealSpans":
        if self._ideal is None:
            self._ideal = _IdealSpans(self.field, self.free, self.relators)
        return self._ideal

    def ideal_component(self, n: int) -> Subspace:
        """The weight-n component of the relation ideal inside F_n."""
        ech = self._ideal_spans.ideal(n)
        dim_f = len(self.free.hall_basis(n))
        sub = Subspace(self.field, dim_f, ech)
        return sub

    def dim_via_ideal(self, n: int) -> int:
        """Oracle route: dim F_n - dim I_n."""
        return len(self.free.hall_basis(n)) - self._ideal_spans.ideal(n).rank

    # -- homological invariants -------------------------------------------

    def h1(self, N: int) -> list[int]:
        """Graded dims of L/[L,L] for weights 1..N."""
        out = []
        for n in range(1, N + 1):
            out.append(self.dim(n) - self.engine.commutator_rank(n))
        return out

    def h2_hopf(self, N: int) -> list[int]:
        """Graded dims of (R cap [F,F])/[R,F] for weights 1..N."""
        spans = self._ideal_spans
        free = self.free
        out = []
        for n in range(1, N + 1):
            ideal = spans.ideal(n)
            n_gens = sum(1 for g in self.generators if g.weight == n)
            # generators come first in the weight-n Hall order, so rows with
            # pivot >= n_gens form the canonical basis of I_n cap [F,F]_n
            inter = sum(1 for p in ideal.rows if p >= n_gens)
            out.append(inter - spans.bracket_ideal(n).rank)
        return out

    def is_free_up_to(self, N: int) -> "FreenessVerdict":
        h2 = self.h2_hopf(N)
        for n, d in enumerate(h2, start=1):
            if d:
                return FreenessVerdict("not-free", witness_weight=n)
        max_rel = max((r.weight() for r in self.relators), default=0)
        if max_rel <= N:
            return FreenessVerdict("free-witnessed", checked_to=N)
        return FreenessVerdict("inconclusive", checked_to=N)


class FreenessVerdict:
    def __init__(self, verdict: str, witness_weight: int = None, checked_to: int = None):
        self.verdict = verdict
        self.witness_weight = witness_weight
        self.checked_to = checked_to

    def __eq__(self, other):
        if isinstance(other, str):
            return self.verdict == other
        return NotImplemented

    def __repr__(self):
        return f"FreenessVerdict({self.verdict!r})"


class GradedEngine:
    """Structure constants of a presented graded Lie algebra, per weight.

    Weight-n basis elements are surviving candidates, each carrying a
    definition: either a generator or a pair (lower basis element, right
    generator).  Constraint rows are antisymmetry instances on generator
    pairs, Jacobi instances [[x,y],b] + [[y,b],x] + [[b,x],y] for generator
    pairs x < y and lower basis elements b, and the relators of weight n.
    Deterministic echelon (lowest candidate index pivots) makes bases and
    tables reproducible.

    ``_cand_red[n]`` maps each weight-n candidate to its reduction over the
    weight-n basis.  While weight n is being built it maps each candidate to
    its own unit vector instead (candidate coordinates), so the one bracket
    recursion (:meth:`_pair`, :meth:`_bracket`, :meth:`_eval_monomial`)
    writes the constraint rows of weight n in candidate coordinates.  Once
    the rows are written the weight-n memos, which hold candidate
    coordinates, are reset, and after elimination the real reduction
    replaces the identity map.
    """

    def __init__(self, algebra: PresentedLieAlgebra):
        self.algebra = algebra
        self.field = algebra.field
        self.gens = algebra.generators
        self._built = 0
        self._defs: dict[int, list] = {}        # n -> list of candidate keys
        self._mdeg: dict[int, list] = {}        # n -> list of content tuples
        self._cand_red: dict[int, dict] = {}    # n -> {cand key: vector}
        self._gen_red: list = [None] * len(self.gens)
        self._gen_alive: list = [False] * len(self.gens)
        self._pair_memo: dict[int, dict] = {}   # n -> {(p, q): vector}
        self._eval_memo: dict[int, dict] = {}   # n -> {monomial id: vector}
        self._commutator_rank: dict[int, int] = {}
        self._relators_by_weight: dict[int, list] = {}
        for r in algebra.relators:
            self._relators_by_weight.setdefault(r.weight(), []).append(r)
        self.multigraded = self._check_multigraded()

    def _check_multigraded(self) -> bool:
        free = self.algebra.free
        for r in self.algebra.relators:
            contents = {self._monomial_content(free, m) for m in r.terms}
            if len(contents) > 1:
                return False
        return True

    def _monomial_content(self, free, mid) -> tuple:
        counts = [0] * len(self.gens)
        stack = [mid]
        while stack:
            m = stack.pop()
            if free.is_generator(m):
                counts[free.gen_index[free.generator_of(m).name]] += 1
            else:
                stack.extend(free.factors(m))
        return tuple(counts)

    # -- public queries ----------------------------------------------------

    def build_to(self, n: int):
        while self._built < n:
            self._build(self._built + 1)

    def dim(self, n: int) -> int:
        if n < 1:
            return 0
        self.build_to(n)
        return len(self._defs[n])

    def basis_mdeg(self, n: int) -> list:
        if not self.multigraded:
            raise PresentationError("algebra is not multigraded")
        self.build_to(n)
        return self._mdeg[n]

    def gen_reduction(self, gi: int) -> dict:
        self.build_to(self.gens[gi].weight)
        return self._gen_red[gi]

    def pair(self, p: tuple, q: tuple) -> dict:
        """Structure constants [b_p, b_q] as a vector over basis[wp+wq]."""
        self.build_to(p[0] + q[0])
        return self._pair(p, q)

    def bracket_vec(self, wa: int, va: dict, wb: int, vb: dict) -> dict:
        """Bracket of two coordinate vectors; result over basis[wa+wb]."""
        self.build_to(wa + wb)
        return self._bracket(wa, va, wb, vb)

    def evaluate(self, elem: LieElement) -> tuple[int, dict]:
        """Image of a homogeneous free-algebra element in engine coordinates."""
        if elem.algebra is not self.algebra.free:
            raise PresentationError("element from a different presentation")
        if elem.is_zero():
            raise PresentationError("cannot evaluate 0 (weight undetermined)")
        w = elem.weight()
        if w is None:
            raise PresentationError("inhomogeneous element")
        self.build_to(w)
        field = self.field
        out: dict = {}
        for mid, coef in elem.terms.items():
            field.axpy(out, coef, self._eval_monomial(mid))
        return w, out

    def commutator_rank(self, n: int) -> int:
        """dim of ([L,L])_n = sum over generators x of [L_{n-w(x)}, x]."""
        got = self._commutator_rank.get(n)
        if got is not None:
            return got
        self.build_to(n)
        one = self.field.one

        def units(m):
            return [{i: one} for i in range(len(self._defs[m]))]

        gens = [(g.weight, red) for g, red in zip(self.gens, self._gen_red) if red]
        rank = add_brackets(Echelon(self.field), units, gens, n, self._bracket).rank
        self._commutator_rank[n] = rank
        return rank

    # -- internals ----------------------------------------------------------

    def _eval_monomial(self, mid: int) -> dict:
        free = self.algebra.free
        memo = self._eval_memo[free.weight(mid)]
        got = memo.get(mid)
        if got is not None:
            return got
        if free.is_generator(mid):
            g = free.generator_of(mid)
            vec = self._cand_red[g.weight][("gen", free.gen_index[g.name])]
        else:
            l, r = free.factors(mid)
            vl = self._eval_monomial(l)
            vr = self._eval_monomial(r)
            vec = self._bracket(free.weight(l), vl, free.weight(r), vr)
        memo[mid] = vec
        return vec

    def _bracket(self, wa: int, va: dict, wb: int, vb: dict) -> dict:
        field = self.field
        memo = self._pair_memo[wa + wb]  # memo hits skip the _pair call
        out: dict = {}
        for ia, ca in va.items():
            for ib, cb in vb.items():
                c = field.mul(ca, cb)
                if field.is_zero(c):
                    continue
                pq = ((wa, ia), (wb, ib))
                vec = memo.get(pq)
                field.axpy(out, c, self._pair(*pq) if vec is None else vec)
        return out

    def _pair(self, p: tuple, q: tuple) -> dict:
        if p == q:
            return {}
        n = p[0] + q[0]
        memo = self._pair_memo[n]
        got = memo.get((p, q))
        if got is not None:
            return got
        field = self.field
        red = self._cand_red[n]
        defs_q = self._defs[q[0]][q[1]]
        if defs_q[0] == "gen":
            res = dict(red[(p, defs_q[1])])
        else:
            # q = [b', x_z]: [p,q] = [[p,b'],z] - [[p,z],b']
            bprime, gz = defs_q
            wz = self.gens[gz].weight
            u = self._pair(p, bprime)  # over basis[n - wz]
            res: dict = {}
            for i, c in u.items():
                field.axpy(res, c, red[((n - wz, i), gz)])
            w2 = self._cand_red[p[0] + wz][(p, gz)]
            for j, c in w2.items():
                sub = self._pair((p[0] + wz, j), bprime)
                field.axpy(res, field.neg(c), sub)
        memo[(p, q)] = res
        memo[(q, p)] = {k: field.neg(v) for k, v in res.items()}
        return res

    def _candidates(self, n: int) -> list:
        # bracket candidates only pair with surviving generators; a dead
        # generator's image is a combination of basis elements, and brackets
        # against it reduce through the pair tables
        cands = []
        for gi, g in enumerate(self.gens):
            if g.weight == n:
                cands.append(("gen", gi))
        for gi, g in enumerate(self.gens):
            m = n - g.weight
            if m >= 1 and self._gen_alive[gi]:
                for i in range(len(self._defs[m])):
                    cands.append(((m, i), gi))
        return cands

    def _build(self, n: int):
        field = self.field
        one = field.one
        cands = self._candidates(n)
        pos = {c: i for i, c in enumerate(cands)}
        # candidate coordinates for weight n until the rows are written
        self._cand_red[n] = {c: {i: one} for i, c in enumerate(cands)}
        self._pair_memo[n] = {}
        self._eval_memo[n] = {}

        rows = []
        # antisymmetry on pairs of surviving generators of total weight n
        # (pairs with a reduced generator are automatic: _pair evaluates the
        # reduced image antisymmetrically)
        live = [
            (gi, g) for gi, g in enumerate(self.gens)
            if g.weight < n and self._gen_alive[gi]
        ]
        for a in range(len(live)):
            gi, g = live[a]
            idx_i = next(iter(self._gen_red[gi]))
            for b in range(a, len(live)):
                gj, h = live[b]
                if g.weight + h.weight != n:
                    continue
                idx_j = next(iter(self._gen_red[gj]))
                if gi == gj:
                    row = {pos[((g.weight, idx_i), gi)]: one}
                else:
                    row = {
                        pos[((h.weight, idx_j), gi)]: one,
                        pos[((g.weight, idx_i), gj)]: one,
                    }
                rows.append(row)
        # Jacobi consistency [[p,q],x] + [[q,x],p] + [[x,p],q] over all basis
        # pairs p, q and surviving generators x (triples with a composite or
        # reduced third slot follow from these through the definition
        # recursion and linearity)
        for gi, g in live:
            wx = g.weight
            red_x = self._gen_red[gi]
            for dp in range(1, n - wx):
                dq = n - wx - dp
                if dq < dp:
                    break
                for ip in range(len(self._defs[dp])):
                    p = (dp, ip)
                    jq_start = ip + 1 if dq == dp else 0
                    for iq in range(jq_start, len(self._defs[dq])):
                        q = (dq, iq)
                        row = self._bracket(dp + dq, self._pair(p, q), wx, red_x)
                        u = self._bracket(dq, {iq: one}, wx, red_x)
                        if u:
                            field.axpy(row, one, self._bracket(dq + wx, u, dp, {ip: one}))
                        v = self._bracket(wx, red_x, dp, {ip: one})
                        if v:
                            field.axpy(row, one, self._bracket(wx + dp, v, dq, {iq: one}))
                        if row:
                            rows.append(row)
        # relators of weight n
        for r in self._relators_by_weight.get(n, []):
            row: dict = {}
            for mid, coef in r.terms.items():
                field.axpy(row, coef, self._eval_monomial(mid))
            if row:
                rows.append(row)

        # the rows are written: drop the candidate-coordinate state
        del self._cand_red[n]
        self._pair_memo[n] = {}
        self._eval_memo[n] = {}
        ech = Echelon.of(field, rows)
        pivots = set(ech.rows)
        basis_pos = {}
        defs = []
        mdeg = []
        for i, c in enumerate(cands):
            if i not in pivots:
                basis_pos[i] = len(defs)
                defs.append(c)
                if self.multigraded:
                    if c[0] == "gen":
                        t = [0] * len(self.gens)
                        t[c[1]] = 1
                        mdeg.append(tuple(t))
                    else:
                        (m, bi), gi = c
                        t = list(self._mdeg[m][bi])
                        t[gi] += 1
                        mdeg.append(tuple(t))
        red = {}
        for i, c in enumerate(cands):
            if i in pivots:
                row = ech.rows[i]
                vec = {}
                for j, coef in row.items():
                    if j == i:
                        continue
                    vec[basis_pos[j]] = field.neg(coef)
                red[c] = vec
            else:
                red[c] = {basis_pos[i]: one}
        self._defs[n] = defs
        self._mdeg[n] = mdeg
        self._cand_red[n] = red
        for gi, g in enumerate(self.gens):
            if g.weight == n:
                self._gen_red[gi] = red[("gen", gi)]
                self._gen_alive[gi] = pos[("gen", gi)] not in pivots
        self._built = n


def add_brackets(ech: Echelon, rows, gens, n: int, bracket) -> Echelon:
    """Add sum over (w, g) in gens of [V_{n-w}, g] to ech and return ech.

    rows(m) spans V_m and bracket(m, v, w, g) is the weight-(m+w) bracket
    of a weight-m vector v with g.  Subalgebra spans, the relation ideal I
    and the graph of a derivation are each V_n = seeds_n + sum_g
    [V_{n-w(g)}, g], and [L,L] and [I,F] are the bracket term alone:
    left-normed brackets of generators span the Lie algebra (or ideal)
    they generate (Reutenauer, Free Lie Algebras, 1993), so no pair of
    lower components needs bracketing.
    """
    for w, g in gens:
        m = n - w
        if m >= 1:
            for v in rows(m):
                ech.add(bracket(m, v, w, g))
    return ech


class _IdealSpansForList:
    """Relation-ideal components inside the free algebra, degree by degree.

    The ideal I generated by the relators R is I = R + [I,F], so each
    weight is built once, from below: [I,F]_n = sum_x [I_{n-w(x)}, x] is
    bracketed once and I_n = [I,F]_n + span(relators of weight n) reuses
    it.  The relator list may grow (infer_presentation appends to it and
    calls invalidate_from).
    """

    def __init__(self, field, free, relators: list):
        self.field = field
        self.free = free
        self.relators = relators
        self._gens = [(g.weight, free.gen_element(g.name)) for g in free.gens]
        self._ideal: dict[int, Echelon] = {}
        self._bracket: dict[int, Echelon] = {}

    def invalidate_from(self, n: int):
        """Forget I at weights >= n; [I,F]_n depends on lower weights only."""
        self._ideal = {k: v for k, v in self._ideal.items() if k < n}
        self._bracket = {k: v for k, v in self._bracket.items() if k <= n}

    def bracket_ideal(self, n: int) -> Echelon:
        got = self._bracket.get(n)
        if got is None:
            got = self._bracket[n] = add_brackets(
                Echelon(self.field), lambda m: self.ideal(m).basis(), self._gens, n,
                self.free.bracket_coordinates,
            )
        return got

    def ideal(self, n: int) -> Echelon:
        got = self._ideal.get(n)
        if got is None:
            rels = [self.free.coordinates(r, n) for r in self.relators if r.weight() == n]
            got = self._ideal[n] = Echelon.of(self.field, self.bracket_ideal(n).basis() + rels)
        return got


class _IdealSpans(_IdealSpansForList):
    """The ideal components of a presentation."""

    # bound here too only because bench/tracer.py wraps both classes by name
    ideal = _IdealSpansForList.ideal
    bracket_ideal = _IdealSpansForList.bracket_ideal


class GradedSubalgebra:
    """Finitely generated graded subalgebra of a presented Lie algebra.

    Generators are homogeneous elements, given as expressions in the
    ambient free algebra (or precomputed (weight, vector) pairs); per-weight
    spans are bracket-closed by construction.
    """

    def __init__(self, ambient: PresentedLieAlgebra, generators):
        self.ambient = ambient
        self.field = ambient.field
        self.generators = []  # (expr or None, weight, vector)
        for g in generators:
            if isinstance(g, str):
                g = ambient.parse(g)
            if isinstance(g, LieElement):
                w, vec = ambient.evaluate(g)
                self.generators.append((g, w, vec))
            else:
                w, vec = g
                self.generators.append((None, w, vec))
        self._spans: dict[int, Echelon] = {}
        self._built = 0

    def weighted_generators(self) -> list[tuple]:
        """The generators as (weight, vector) pairs."""
        return [(w, vec) for _, w, vec in self.generators]

    def rows(self, n: int) -> list[dict]:
        """Canonical basis of the weight-n component (built to n already)."""
        return self._spans[n].basis()

    def _build_to(self, n: int):
        gens = self.weighted_generators()
        bracket = self.ambient.engine.bracket_vec
        while self._built < n:
            m = self._built + 1
            seeds = Echelon.of(self.field, [vec for w, vec in gens if w == m])
            self._spans[m] = add_brackets(seeds, self.rows, gens, m, bracket)
            self._built = m

    def span(self, n: int) -> Subspace:
        """The weight-n component of the subalgebra, inside L_n coordinates."""
        self._build_to(n)
        return Subspace(self.field, self.ambient.dim(n), self._spans[n])

    def span_dims(self, N: int) -> list[int]:
        self._build_to(N)
        return [self._spans[n].rank for n in range(1, N + 1)]

    def contains_vector(self, n: int, vec: dict) -> bool:
        self._build_to(n)
        return self._spans[n].contains(vec)

    def membership(self, elem: LieElement) -> bool:
        """Exact per-degree membership of a homogeneous element."""
        if not elem.is_homogeneous():
            raise PresentationError("membership requires a homogeneous element")
        if elem.is_zero():
            return True
        w, vec = self.ambient.evaluate(elem)
        if not vec:
            return True
        return self.contains_vector(w, vec)


class InferredPresentation:
    """Result of infer_presentation: a minimal graded presentation plus the
    generator lifts that realize it inside the ambient algebra."""

    def __init__(self, presentation, generator_vectors, conclusive, checked_to):
        self.presentation = presentation
        self.generator_vectors = generator_vectors  # list of (weight, vector)
        self.conclusive = conclusive
        self.checked_to = checked_to


def infer_presentation(
    S: GradedSubalgebra,
    N: int,
    names: Optional[Sequence[str]] = None,
    strict_boundary: bool = True,
) -> InferredPresentation:
    """Minimal graded presentation of S, computed degree by degree.

    Generators are lifts of a graded basis of S/[S,S]; relators in weight n
    are a canonical complement of the ideal of lower relators inside the
    kernel of F(gens) -> S.  Raises InconclusiveAtDegree if new generators
    still appear at weight N (S might not be finitely generated within the
    truncation); pass strict_boundary=False to get the truncated
    presentation anyway, flagged inconclusive.
    """
    field = S.field
    ambient = S.ambient
    eng = ambient.engine
    S._build_to(N)

    # graded generator lifts: S_n modulo [S,S]_n
    gen_specs = []  # (weight, vector)
    s_gens = S.weighted_generators()
    for n in range(1, N + 1):
        comm = add_brackets(Echelon(field), S.rows, s_gens, n, eng.bracket_vec)
        for row in S.rows(n):
            if not comm.contains(row):
                gen_specs.append((n, row))
                comm.add(row)
    conclusive = not (gen_specs and max(w for w, _ in gen_specs) == N)
    if not conclusive and strict_boundary:
        raise InconclusiveAtDegree(
            N,
            "new subalgebra generators appear at the truncation boundary",
            partial=gen_specs,
        )

    if names is None:
        names = [f"s{i + 1}" for i in range(len(gen_specs))]
    if len(names) != len(gen_specs):
        raise PresentationError(
            f"{len(names)} names supplied for {len(gen_specs)} generators"
        )
    gens = [(names[i], w) for i, (w, _) in enumerate(gen_specs)]

    # kernel of F(gens) -> S, degree by degree
    partial = PresentedLieAlgebra(field, gens, [], name="inferred")
    fhat = partial.free
    relators: list[LieElement] = []
    ideal = _IdealSpansForList(field, fhat, relators)
    gen_vecs = [(w, vec) for (w, vec) in gen_specs]

    mono_eval: dict[int, dict] = {}

    def eval_monomial(mid: int) -> tuple[int, dict]:
        got = mono_eval.get(mid)
        if got is not None:
            return got
        if fhat.is_generator(mid):
            gi = fhat.gen_index[fhat.generator_of(mid).name]
            res = gen_vecs[gi]
        else:
            l, r = fhat.factors(mid)
            wl, vl = eval_monomial(l)
            wr, vr = eval_monomial(r)
            res = (wl + wr, eng.bracket_vec(wl, vl, wr, vr))
        mono_eval[mid] = res
        return res

    for n in range(1, N + 1):
        basis = fhat.hall_basis(n)
        if not basis:
            continue
        rows = []
        for mid in basis:
            _, vec = eval_monomial(mid)
            rows.append(vec)
        ambient_dim = ambient.dim(n)
        m = SparseMatrix.from_row_vectors(field, ambient_dim, rows).transpose()
        ker = m.kernel()  # right null space over F-hat basis positions
        ech = Echelon.of(field, ideal.ideal(n).basis())
        for kv in ker.basis:
            p = ech.add(kv)
            if p is not None:
                relators.append(fhat.element_from_coordinates(ech.rows[p], n))
                ideal.invalidate_from(n)
        # sanity: presentation dims must match span dims at this degree
        if len(basis) - ideal.ideal(n).rank != S._spans[n].rank:
            raise AssertionError(
                f"inferred presentation inconsistent at weight {n}"
            )

    pres = PresentedLieAlgebra(field, gens, relators, name="inferred", free=fhat)
    return InferredPresentation(pres, gen_vecs, conclusive, N)


# ----------------------------------------------------------------------
# presentation files


def parse_presentation(
    text: str, field: Optional[Field] = None, name: str = ""
) -> PresentedLieAlgebra:
    """Parse the presentation file format (see module docstring)."""
    gens = []
    rel_texts = []
    file_field = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("field"):
            _, _, rhs = line.partition("=")
            if not rhs.strip():
                raise PresentationError(f"line {lineno}: malformed field line")
            file_field = parse_field(rhs.strip())
        elif line.startswith("gen "):
            parts = line.split()
            if len(parts) != 4 or parts[2] != "weight":
                raise PresentationError(
                    f"line {lineno}: expected 'gen <name> weight <w>', got {raw!r}"
                )
            try:
                w = int(parts[3])
            except ValueError:
                raise PresentationError(f"line {lineno}: bad weight {parts[3]!r}")
            if w < 1:
                raise PresentationError(f"line {lineno}: generator weight {w} < 1")
            if any(parts[1] == name for name, _ in gens):
                raise PresentationError(f"line {lineno}: duplicate generator {parts[1]!r}")
            gens.append((parts[1], w))
        elif line.startswith("rel "):
            rel_texts.append((lineno, line[4:].strip()))
        else:
            raise PresentationError(f"line {lineno}: unrecognized line {raw!r}")
    use_field = field or file_field
    if use_field is None:
        raise PresentationError("no field given (add a 'field = ...' line)")
    free = FreeLieAlgebra(use_field, gens)
    rels = []
    for lineno, t in rel_texts:
        try:
            rels.append(free.parse(t))
        except (ValueError, KeyError) as exc:
            raise PresentationError(f"line {lineno}: {exc}") from exc
    return PresentedLieAlgebra(use_field, gens, rels, name=name, free=free)


def load_presentation(path, field: Optional[Field] = None) -> PresentedLieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read(), field=field, name=str(path))

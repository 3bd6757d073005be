"""Brute-force and reference routines used only as test oracles.

Each one recomputes something the library computes another way (commuting
pairs by exhaustive enumeration, chordality by induced-cycle search over
every labeled graph, normal forms of traces one word at a time, d o d = 0
on the RAAG resolution, the resolution's ranks with chains indexed by PBW
monomials and a straightened boundary, Mayer-Vietoris exactness from
dimensions alone, Hall monomial chains, subspace sums and intersections,
d o d = 0 on the CE complex, the CE differential with every bracket read
afresh, PBW products one right factor at a time, graded dims by PBW
inversion of a Hilbert series, graded dims, Hopf's H_2 and minimal
presentations of subalgebras by the relation ideal spanned inside the
free algebra, bracket
closures over all pairs of lower components, membership in a subalgebra
of a free algebra from its spans, the Leibniz check over all pairs,
induced modules and their right ideals from a basis of the subalgebra,
induced module dims against the series quotient, [I,F] with its redundant
[[I,F],x] term, the Lie algebra laws on the engine's structure
constants, the command line by the argparse parser the CLI once
built), so a test can compare the two.  A few readers expose what only
tests look at: the RAAG trace tables as sorted words and the cell bases
of the resolution.
"""

from __future__ import annotations

import argparse
import functools
import weakref
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Optional

from gradedlie.cli import (
    cmd_dims,
    cmd_example_sec6,
    cmd_graph_verify,
    cmd_hall,
    cmd_hilbert,
    cmd_homology,
    cmd_hopf,
    cmd_infer,
    cmd_onerelator_decompose,
    cmd_raag_chordal,
    cmd_raag_resolve,
    cmd_raag_verdict,
)
from gradedlie.envelope import Envelope, InducedModule
from gradedlie.example6 import change_field
from gradedlie.fields import GF, RationalField, check_same_field
from gradedlie.freelie import FreeLieAlgebra
from gradedlie.linalg import Echelon, SparseMatrix
from gradedlie.presented import GeneratedSpans, GradedSubalgebra, PresentedLieAlgebra
from gradedlie.raag import RaagResolution, SimpleGraph, find_induced_cycle
from gradedlie.series import HilbertSeries


# ----------------------------------------------------------------------
# section 6: commuting pairs


def zero_pair_count_oracle(source: PresentedLieAlgebra, p: int) -> int:
    """Exhaustive enumeration of commuting pairs over F_p (test oracle),
    each bracket [e_i, e_j] of weight-1 basis vectors read from the engine."""
    fp = GF(p)
    quo = change_field(source, fp)
    d1 = quo.dim(1)
    pair = quo.engine.pair
    count = 0
    for v1 in product(range(p), repeat=d1):
        for v2 in product(range(p), repeat=d1):
            acc: dict = {}
            for i in range(d1):
                if v1[i] == 0:
                    continue
                for j in range(d1):
                    if v2[j] == 0 or i == j:
                        continue
                    coeff = fp.mul(v1[i], v2[j])
                    for k, c in pair((1, i), (1, j)).items():
                        s = fp.of(acc.get(k, fp.zero) + fp.mul(coeff, c))
                        if fp.is_zero(s):
                            acc.pop(k, None)
                        else:
                            acc[k] = s
            if not acc:
                count += 1
    return count

# ----------------------------------------------------------------------
# RAAG graphs


def all_labeled_graphs(n: int) -> list[SimpleGraph]:
    """Every labeled simple graph on vertices v1..vn."""
    names = [f"v{i + 1}" for i in range(n)]
    pairs = list(combinations(names, 2))
    out = []
    for mask in range(2 ** len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        out.append(SimpleGraph(names, edges))
    return out


def brute_force_chordal(graph: SimpleGraph) -> bool:
    return find_induced_cycle(graph) is None


class TraceNormalForm:
    """The lexicographically least word equivalent to a word of vertex
    indices in the trace monoid of a graph, one word at a time: take the
    least letter whose first occurrence commutes with every letter before
    it, then normalise the word with that occurrence removed (which need not
    be a normal form itself)."""

    def __init__(self, graph: SimpleGraph):
        vs = graph.vertices
        # blocks[a]: a and its non-neighbours, which no a moves left past
        self.blocks = [
            sum(1 << b for b, u in enumerate(vs) if u == v or not graph.has_edge(u, v))
            for v in vs
        ]
        self.memo: dict = {(): ()}

    def __call__(self, word: tuple) -> tuple:
        got = self.memo.get(word)
        if got is None:
            seen, first, at = 0, None, 0
            for i, a in enumerate(word):
                if not self.blocks[a] & seen and (first is None or a < first):
                    first, at = a, i
                seen |= 1 << a
            got = self.memo[word] = (first,) + self(word[:at] + word[at + 1:])
        return got


def traces(res: RaagResolution, k: int) -> list:
    """The traces of weight k as words of vertex indices, sorted: the
    trace tables of `res` read back."""
    res.trace_count(k)  # builds the tables to weight k
    out = [()]
    for w in range(1, k + 1):
        out = [(a,) + out[j] for a, j in zip(res._heads[w], res._tails[w])]
    return out


def module_basis(res, j: int, m: int) -> list:
    """Basis of P_j in weight m: (clique of size j, u), u over the traces of
    weight m - j (the PBW monomials for a :class:`PbwResolution`), in the
    order that indexes the rows and columns of the d_j."""
    if j < 0 or m - j < 0:
        return []
    if isinstance(res, PbwResolution):
        fibre = res.env.pbw_basis(m - j)
    else:
        fibre = traces(res, m - j)
    return [(w, u) for w in res.by_size.get(j, []) for u in fibre]


def cell_boundary(res, w: tuple, t: tuple) -> dict:
    """d(c_w (x) t) as {(clique, trace): coefficient}, read off the row of
    (w, t) in ``res.boundary_rows``."""
    j, m = len(w), len(w) + len(t)
    low = module_basis(res, j - 1, m)
    row = list(res.boundary_rows(j, m))[module_basis(res, j, m).index((w, t))]
    return {low[c]: x for c, x in row.items()}


def resolution_d_squared_failure(res, N: int):
    """First (weight, position, cell) with d(d(cell)) != 0 in the RAAG
    resolution `res`, over every cell of weight <= N; None if d o d = 0."""
    field = res.field
    for m in range(N + 1):
        for j in range(2, min(res.max_position(), m) + 1):
            lower = list(res.boundary_rows(j - 1, m))
            for i, row in enumerate(res.boundary_rows(j, m)):
                out: dict = {}
                for c, x in row.items():
                    field.axpy(out, x, lower[c])
                if out:
                    return m, j, module_basis(res, j, m)[i]
    return None


class PbwResolution(RaagResolution):
    """The RAAG resolution with chains indexed (clique, PBW monomial) and
    d(c_w (x) u) = sum_r (-1)^(r-1) c_{w minus v_r} (x) v_r . u straightened
    by :class:`RightStraightener`: the same maps as `RaagResolution`, in the
    PBW basis."""

    def __init__(self, graph, field):
        super().__init__(graph, field)
        self.env = Envelope(self.algebra)
        self.right = RightStraightener(self.algebra)
        self.gen_keys = {}
        for i, v in enumerate(graph.vertices):
            (idx, _), = gen_reduction(self.algebra, i).items()
            self.gen_keys[v] = (1, idx)

    def boundary_rows(self, j: int, m: int) -> list:
        field = self.field
        index = {c: i for i, c in enumerate(module_basis(self, j - 1, m))}
        rows = []
        for w, mono in module_basis(self, j, m):
            out: dict = {}
            for r, v in enumerate(w, start=1):
                sign = field.one if r % 2 == 1 else field.neg(field.one)
                rest = tuple(x for x in w if x != v)
                prod = self.right.mult_mono((self.gen_keys[v],), mono)
                field.axpy(out, sign, {index[rest, m2]: c for m2, c in prod.items()})
            rows.append(out)
        return rows


def resolution_ranks(res, N: int) -> dict:
    """{(weight, position): (dim P_j, rank d_j)} of a RAAG resolution, for
    weights <= N, with d_j eliminated over the whole weight."""
    out = {}
    for m in range(N + 1):
        for j in range(min(res.max_position(), m) + 1):
            rank = Echelon.of(res.field, res.boundary_rows(j, m)).rank if j else 0
            out[m, j] = (len(module_basis(res, j, m)), rank)
    return out

# ----------------------------------------------------------------------
# Mayer-Vietoris


class MayerVietorisReport:
    def __init__(self, ok: bool, failures: list, inconclusive_tail: bool, I: int, N: int):
        self.ok = ok
        self.failures = failures  # list of (weight, position, detail)
        self.inconclusive_tail = inconclusive_tail
        self.I = I
        self.N = N

    def __repr__(self):
        status = "ok" if self.ok else f"failures={self.failures}"
        tail = " (tail inconclusive)" if self.inconclusive_tail else ""
        return f"<MayerVietoris {status}{tail}>"


def mv_rank_certificate(
    edge_tables: list[tuple[list, int]],
    vertex_tables: list[list],
    total_table: list,
    I: int,
    N: int,
) -> MayerVietorisReport:
    """Degreewise exactness certificate for the long homology sequence

        ... -> (+)_e H_i(L_e) -> (+)_v H_i(L_v) -> H_i(L) -> (+)_e H_{i-1}(L_e) -> ...

    using only dimensions: starting from surjectivity onto H_0(L), the
    ranks forced by exactness must stay nonnegative at every position.
    Tables are rows of dims as :func:`homology_table` returns them.
    Edge entries carry a weight shift (the stable-letter weight for
    non-forest edges, 0 for forest edges).  The topmost homological degree
    cannot be certified without H_{I+1} data and is flagged inconclusive.
    """
    failures = []
    for n in range(N + 1):
        seq = []  # dims from the left: E_I, V_I, H_I, E_{I-1}, ..., V_0, H_0
        for i in range(I, -1, -1):
            e_dim = sum(
                t[i][n - shift] if 0 <= n - shift < len(t[i]) else 0
                for t, shift in edge_tables
            )
            v_dim = sum(t[i][n] for t in vertex_tables)
            seq.extend([e_dim, v_dim, total_table[i][n]])
        # walk from the right: the map into the last module is surjective,
        # rank f_{k-1} = dim A_k - rank f_k must stay nonnegative; at the
        # top boundary the slack is absorbed by H_{I+1} (left unchecked)
        r = seq[-1]
        for pos in range(len(seq) - 2, -1, -1):
            r = seq[pos] - r
            if r < 0:
                failures.append((n, pos, f"rank deficit {r}"))
                break
    return MayerVietorisReport(not failures, failures, True, I, N)

# ----------------------------------------------------------------------
# free Lie algebras


def canonical_decomposition(alg: FreeLieAlgebra, mid: int) -> tuple[list[int], int]:
    """Write the Hall monomial as a right-normed chain [u_1,...,u_m,z].

    Returns (list of u_i ids, generator id z) with u_1 >= ... >= u_m < z and
    each u_i in the Hall set; z is a generator.  The decomposition exists
    and is unique for every Hall monomial.
    """
    us = []
    cur = mid
    while not alg.is_generator(cur):
        l, r = alg.factors(cur)
        us.append(l)
        cur = r
    for i in range(len(us) - 1):
        if alg.key(us[i]) < alg.key(us[i + 1]):
            raise AssertionError("canonical decomposition order violated")
    if us and not alg.key(us[-1]) < alg.key(cur):
        raise AssertionError("canonical decomposition tail violated")
    return us, cur

# ----------------------------------------------------------------------
# subspaces (spans are Echelons) and the CE complex


def quotient_basis(sub: Echelon, ambient_dim: int) -> list[int]:
    """Indices of standard basis vectors complementing sub (non-pivot cols)."""
    pivots = set(sub.pivots())
    return [c for c in range(ambient_dim) if c not in pivots]


def sum_spaces(a: Echelon, b: Echelon) -> Echelon:
    check_same_field(a.field, b.field, "subspaces")
    return Echelon.of(a.field, a.basis() + b.basis())


def intersect(a: Echelon, b: Echelon) -> Echelon:
    """Canonical basis of the intersection (Zassenhaus-style)."""
    check_same_field(a.field, b.field, "subspaces")
    field = a.field
    # Solve sum x_i a_i + sum y_j b_j = 0; each kernel element yields the
    # intersection vector sum x_i a_i.
    abasis = a.basis()
    columns = abasis + [{c: field.neg(x) for c, x in v.items()} for v in b.basis()]
    vectors = []
    for kv in SparseMatrix(field, columns).kernel():
        vec: dict = {}
        for idx, coef in kv.items():
            if idx < len(abasis):
                field.axpy(vec, coef, abasis[idx])
        vectors.append(vec)
    return Echelon.of(field, vectors)


def d_squared_vanishes(cx, I: int) -> bool:
    """d o d = 0 exactly at every bidegree (i, n) of the chain complex cx
    with i <= I + 1."""
    field = cx.field
    for i in range(2, I + 2):
        for n in range(0, cx.N + 1):
            low = cx.differential(i - 1, n).columns
            for col in cx.differential(i, n).columns:
                out: dict = {}
                for r, c in col.items():
                    field.axpy(out, c, low[r])
                if out:
                    return False
    return True


def ce_differential_columns(cx, i: int, n: int) -> list[dict]:
    """The columns of d_{i,n} on cx's chains, each bracket read from the
    engine for every chain that needs it and each key placed by a linear
    scan."""
    field = cx.field
    eng = cx.algebra.engine
    signs = (field.one, field.neg(field.one))
    tgt_index = cx.chain_index(i - 1, n)
    columns = []
    for chain in cx.chains(i, n):
        col: dict = {}
        for s in range(len(chain)):
            for t in range(s + 1, len(chain)):
                ks, kt = chain[s], chain[t]
                rest = chain[:s] + chain[s + 1 : t] + chain[t + 1 :]
                w = ks[0] + kt[0]
                term = {}
                for bi, c in eng.pair(ks, kt).items():
                    d = (w, bi)
                    if d in rest:
                        continue
                    pos = 0
                    while pos < len(rest) and rest[pos] < d:
                        pos += 1
                    new_chain = rest[:pos] + (d,) + rest[pos:]
                    term[tgt_index[new_chain]] = field.neg(c) if pos % 2 else c
                field.axpy(col, signs[(s + t) % 2], term)
        columns.append(col)
    return columns


# ----------------------------------------------------------------------
# PBW products


class RightStraightener:
    """PBW products on monomials as nondecreasing key tuples, by right
    multiplication: a monomial times one basis key straightens the
    out-of-order last factor, (p.l).z = (p.z).l + p.[l,z], and the
    straightened (monomial, key) products are memoised.  An ordered
    product, whose first factor ends at or below where the second starts,
    is the concatenation.  The library's left product on PBW positions
    (:meth:`gradedlie.envelope.Envelope.mult`) is checked against it."""

    def __init__(self, algebra: PresentedLieAlgebra):
        self.algebra = algebra
        self.field = algebra.field
        self._memo: dict = {}  # (mono, key) -> dict

    def mult_by_key(self, mono: tuple, key: tuple) -> dict:
        """(PBW monomial) . (basis element key), a combination of PBW
        monomials of weight w(mono) + w(key)."""
        field = self.field
        if not mono or mono[-1] <= key:
            return {mono + (key,): field.one}
        got = self._memo.get((mono, key))
        if got is not None:
            return got
        prefix, last = mono[:-1], mono[-1]
        out: dict = {}
        for m, c in self.mult_by_key(prefix, key).items():
            field.axpy(out, c, self.mult_by_key(m, last))
        for i, c in self.algebra.engine.pair(last, key).items():
            field.axpy(out, c, self.mult_by_key(prefix, (last[0] + key[0], i)))
        self._memo[(mono, key)] = out
        return out

    def mult_mono(self, m1: tuple, m2: tuple) -> dict:
        """m1 . m2: the concatenation when ordered, else m1 times m2's keys
        one at a time."""
        if not m1 or not m2 or m1[-1] <= m2[0]:
            return {m1 + m2: self.field.one}
        return mult_mono_by_keys(self, m1, m2)

    def mult(self, a: dict, b: dict) -> dict:
        """Product of two U(L) elements given as {monomial: coefficient}."""
        field = self.field
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                field.axpy(out, field.mul(c1, c2), self.mult_mono(m1, m2))
        return out


def mult_mono_by_keys(straightener: RightStraightener, m1: tuple, m2: tuple) -> dict:
    """m1 . m2 in U(L), multiplying m1 on the right by m2's keys in turn."""
    field = straightener.field
    acc = {m1: field.one}
    for key in m2:
        nxt: dict = {}
        for m, c in acc.items():
            field.axpy(nxt, c, straightener.mult_by_key(m, key))
        acc = nxt
    return acc


def u_product(env: Envelope, a: dict, i: int, b: dict, j: int) -> dict:
    """a . b in U(L) for a of weight i and b of weight j, both in PBW
    positions: b multiplied on the left by each monomial of a key by key,
    a's last key first, with the library's left product."""
    field, monos = env.field, env.pbw_basis(i)
    out: dict = {}
    for p, c in a.items():
        v, m = b, j
        for w, k in reversed(monos[p]):
            v, m = env.mult(w, {k: field.one}, m, v), m + w
        field.axpy(out, c, v)
    return out


def as_monomials(env: Envelope, u: dict, n: int) -> dict:
    """A weight-n U(L) element in positions as {key tuple: coefficient}."""
    monos = env.pbw_basis(n)
    return {monos[p]: c for p, c in u.items()}


# ----------------------------------------------------------------------
# graded dimensions by a second route


def pbw_graded_dims(series: HilbertSeries) -> list[int]:
    """Invert the PBW product formula: the dims with
    prod (1-t^i)^(-dims[i-1]) == series.  Requires constant term 1."""
    if series.coeffs[0] != 1:
        raise ValueError("PBW inversion requires constant term 1")
    n = series.truncation
    dims = []
    partial = HilbertSeries.one(n)
    for i in range(1, n + 1):
        d = series.coeffs[i] - partial.coeffs[i]
        if d < 0:
            raise ValueError(f"series is not a PBW series at degree {i}")
        dims.append(d)
        if d:
            c = [0] * (n + 1)
            for k in range(0, n // i + 1):
                c[i * k] = comb(k + d - 1, d - 1)
            partial = partial * HilbertSeries(c, n)
    return dims


def bracket_coordinates(free: FreeLieAlgebra, m: int, row: dict, w: int, elem) -> dict:
    """Coordinates of [row, elem] for weight-m coordinates row and a
    weight-w element of free."""
    return free.coordinates(free.element_from_coordinates(row, m).bracket(elem), m + w)


class IdealSpans(GeneratedSpans):
    """The ideal I = R + [I,F] of a relator list R inside the free
    algebra: I_n is span(n) and [I,F]_n is derived(n).  The list may grow
    (:func:`infer_via_ideal` appends each weight's relators before it
    reads that weight's I_n)."""

    def __init__(self, field, free: FreeLieAlgebra, relators: list):
        super().__init__(
            field, [(g.weight, free.gen_element(g.name)) for g in free.gens],
            functools.partial(bracket_coordinates, free),
            lambda n: [free.coordinates(r, n) for r in relators if r.weight() == n],
        )


_IDEALS = weakref.WeakKeyDictionary()  # presentation -> its relation ideal


def ideal_spans(P: PresentedLieAlgebra) -> IdealSpans:
    """P's relation ideal I inside the free algebra, built once per
    presentation: span(n) is I_n and derived(n) is [I,F]_n."""
    got = _IDEALS.get(P)
    if got is None:
        got = _IDEALS[P] = IdealSpans(P.field, P.free, P.relators)
    return got


def ideal_component(P: PresentedLieAlgebra, n: int) -> Echelon:
    """The weight-n component of P's relation ideal inside F_n."""
    return ideal_spans(P).span(n)


def dim_via_ideal(P: PresentedLieAlgebra, n: int) -> int:
    """dim L_n by the relation-ideal route: dim F_n - dim I_n."""
    return len(P.free.hall_basis(n)) - ideal_component(P, n).rank


def h2_via_ideal(P: PresentedLieAlgebra, N: int) -> list[int]:
    """Graded dims of (I cap [F,F])/[I,F] for weights 1..N by the
    relation-ideal route, with I_n and [I,F]_n spanned inside F_n."""
    spans = ideal_spans(P)
    out = []
    for n in range(1, N + 1):
        n_gens = sum(1 for g in P.generators if g.weight == n)
        # generators come first in the weight-n Hall order, so rows with
        # pivot >= n_gens form the canonical basis of I_n cap [F,F]_n
        inter = sum(1 for p in spans.span(n).pivots() if p >= n_gens)
        out.append(inter - spans.derived(n).rank)
    return out


def infer_via_ideal(S: GradedSubalgebra, N: int, names=None) -> tuple:
    """(presentation, conclusive) of S to weight N by the relation-ideal
    route: the generators as :func:`gradedlie.presented.infer_presentation`
    chooses them, and in weight n the kernel of F(gens)_n -> S_n (the
    images of the Hall monomials, each bracketed from its factors' images)
    reduced modulo I_n, the ideal of the lower relators, one relator per
    new pivot, as its canonical row over the Hall basis."""
    field = S.field
    eng = S.ambient.engine
    gen_specs = []  # (weight, vector)
    for n in range(1, N + 1):
        comm = S.derived(n).copy()
        for row in S.span(n).basis():
            if comm.add(row) is not None:
                gen_specs.append((n, row))
    conclusive = N >= max([1] + [w for w, vec in S.gens if vec])
    if names is None:
        names = [f"s{i + 1}" for i in range(len(gen_specs))]
    gens = [(names[i], w) for i, (w, _) in enumerate(gen_specs)]
    fhat = FreeLieAlgebra(field, gens)
    relators: list = []
    ideal = IdealSpans(field, fhat, relators)
    images: dict = {}  # Hall monomial of F-hat -> its image in S
    for n in range(1, N + 1):
        basis = fhat.hall_basis(n)
        for mid in basis:
            if fhat.is_generator(mid):
                images[mid] = gen_specs[fhat.gen_index[fhat.generator_of(mid).name]][1]
            else:
                l, r = fhat.factors(mid)
                images[mid] = eng.bracket_vec(fhat.weight(l), images[l], fhat.weight(r), images[r])
        # no relator of weight n exists yet, so this is I_n so far
        ech = ideal.derived(n).copy()
        for kv in SparseMatrix(field, [images[mid] for mid in basis]).kernel():
            p = ech.add(kv)
            if p is not None:
                relators.append(fhat.element_from_coordinates(ech.rows[p], n))
        assert len(basis) - ech.rank == S.span(n).rank
    return PresentedLieAlgebra(field, gens, relators, name="inferred", free=fhat), conclusive


# ----------------------------------------------------------------------
# all-pairs bracket closures


def all_pairs_subalgebra_spans(S, N: int) -> dict:
    """S_n = span(generators of weight n) + sum_{a+b=n} [S_a, S_b]."""
    eng = S.ambient.engine
    spans = {}
    for n in range(1, N + 1):
        ech = Echelon(S.field)
        for w, vec in S.gens:
            if w == n:
                ech.add(vec)
        for a in range(1, n):
            for va in spans[a].basis():
                for vb in spans[n - a].basis():
                    ech.add(eng.bracket_vec(a, va, n - a, vb))
        spans[n] = ech
    return spans


def free_subalgebra_contains(free: FreeLieAlgebra, family: list[int], r) -> bool:
    """r in the subalgebra of F generated by the Hall monomials `family`,
    from spans S_m = span(members of weight m) + sum_g [S_{m-w(g)}, g]."""
    w = r.weight()
    gens = [(free.weight(m), free.monomial_element(m)) for m in family]
    spans = GeneratedSpans(
        free.field, gens, functools.partial(bracket_coordinates, free),
        lambda m: [free.coordinates(e, m) for wg, e in gens if wg == m],
    )
    return not spans.span(w).reduce(free.coordinates(r, w))


def all_pairs_commutator_rank(L: PresentedLieAlgebra, n: int) -> int:
    """dim [L,L]_n from the brackets of every pair of basis elements."""
    eng = L.engine
    ech = Echelon(L.field)
    for a in range(1, n):
        for i in range(L.dim(a)):
            for j in range(L.dim(n - a)):
                ech.add(eng.pair((a, i), (n - a, j)))
    return ech.rank


def all_pairs_leibniz_failure(d, N: int):
    """First weight <= N where the Leibniz law fails, else None.

    Per weight m, a pair (a, d(a)) is one vector: a in the L_m columns and
    d(a) in the L_{m+shift} columns, offset by dim L_m.  The candidates are
    the generators of weight m and the brackets of every pair of lower
    rows, with d([a,b]) = [a,d(b)] + [d(a),b].  A candidate whose pivot
    lies in the offset columns is a pair (0, v) with v != 0: a violation.
    """
    base, field, eng, shift = d.base, d.field, d.base.engine, d.shift

    gens = []
    for g, v in zip(d.domain_gens, d.values):
        w, gvec = base.evaluate(g)
        gens.append((w, gvec, {} if v.is_zero() else base.evaluate(v)[1]))
    graphs: dict[int, list] = {}
    for m in range(1, N + 1):
        pairs = [(gvec, dvec) for w, gvec, dvec in gens if w == m]
        for a in range(1, m):
            for a1, d1 in graphs[a]:
                for a2, d2 in graphs[m - a]:
                    dv = eng.bracket_vec(a, a1, m - a + shift, d2)
                    field.axpy(dv, field.one, eng.bracket_vec(a + shift, d1, m - a, a2))
                    pairs.append((eng.bracket_vec(a, a1, m - a, a2), dv))
        off = base.dim(m)
        ech = Echelon(field)
        for avec, dvec in pairs:
            pivot = ech.add({**avec, **{off + c: x for c, x in dvec.items()}})
            if pivot is not None and pivot >= off:
                return m
        graphs[m] = [
            ({c: x for c, x in row.items() if c < off}, {c - off: x for c, x in row.items() if c >= off})
            for row in ech.basis()
        ]
    return None


# ----------------------------------------------------------------------
# induced modules and the relation ideal


class EmbeddingError(ValueError):
    """A claimed embedding of graded Lie algebras is not injective."""


def induced_module_dims(
    env: Envelope,
    source: Optional[PresentedLieAlgebra],
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
    explicit = [module.dim(n) for n in range(N + 1)]
    hl = env.algebra.enveloping_series(N)
    hs = HilbertSeries.from_graded_dims(src_dims, N)
    series = hl.divide(hs)
    if series.coeffs != explicit:
        raise AssertionError(
            f"induced module dims disagree: series {series.coeffs} vs "
            f"explicit {explicit}"
        )
    return explicit, module

def basis_product_ideal(env, sub, n: int) -> Echelon:
    """(S.U(L))_n over pbw_basis(n) positions: the span of the products
    s.u, with s over a basis of each S_w and u over the PBW monomials of
    weight n - w, straightened by :class:`RightStraightener` and added one
    at a time."""
    one = env.field.one
    right = RightStraightener(env.algebra)
    index = {m: i for i, m in enumerate(env.pbw_basis(n))}
    ech = Echelon(env.field)
    for w in range(1, n + 1):
        for s in sub.span(w).basis():
            s_u = {((w, i),): c for i, c in s.items()}
            for u_mono in env.pbw_basis(n - w):
                ech.add({index[m]: c for m, c in right.mult(s_u, {u_mono: one}).items()})
    return ech


def basis_product_quotient_basis(env, sub, n: int) -> list:
    """Non-pivot positions of weight n modulo :func:`basis_product_ideal`."""
    pivots = set(basis_product_ideal(env, sub, n).pivots())
    return [i for i in range(len(env.pbw_basis(n))) if i not in pivots]


def bracket_ideal_with_redundant_term(P: PresentedLieAlgebra, N: int) -> dict:
    """[I,F]_n = sum_x ([I_{n-w(x)}, x] + [[I,F]_{n-w(x)}, x]) for n <= N."""
    free = P.free
    gens = [(g.weight, free.gen_element(g.name)) for g in free.gens]
    out: dict[int, Echelon] = {}
    for n in range(1, N + 1):
        ech = out[n] = Echelon(P.field)
        for w, x in gens:
            m = n - w
            if m >= 1:
                for v in ideal_component(P, m).basis() + out[m].basis():
                    ech.add(bracket_coordinates(free, m, v, w, x))
    return out


# ----------------------------------------------------------------------
# structure constants of the graded engine


def gen_reduction(P: PresentedLieAlgebra, gi: int) -> dict:
    """The engine's image of generator gi, in engine coordinates."""
    return P.evaluate(P.free.gen_element(P.generators[gi].name))[1]


def structure_constant_failure(P: PresentedLieAlgebra, N: int):
    """First violated law of P's structure constants up to weight N, or None.

    Checks [b_p, b_q] = -[b_q, b_p] on every basis pair, the Jacobi identity
    on every triple of distinct basis elements (a repeated one makes it an
    antisymmetry instance), that every relator evaluates to 0, and that
    every value the engine returns is canonical: over Q an ``int`` or a
    non-integral ``Fraction``, over F_p a residue in (0, p).
    """
    field, eng = P.field, P.engine
    if isinstance(field, RationalField):
        def canonical(x):
            return type(x) is int or (type(x) is Fraction and x.denominator != 1)
    else:
        def canonical(x):
            return type(x) is int and 0 < x < field.p

    def bad(vec):
        return not all(canonical(x) for x in vec.values())

    for r in P.relators:
        if r.weight() <= N and eng.evaluate(r)[1]:
            return "relator", r
    basis = [(w, i) for w in range(1, N + 1) for i in range(P.dim(w))]
    for gi in range(len(P.generators)):
        if P.generators[gi].weight <= N and bad(gen_reduction(P, gi)):
            return "value", gi
    for p in basis:
        for q in basis:
            if p[0] + q[0] > N:
                continue
            pq = eng.pair(p, q)
            if bad(pq):
                return "value", p, q
            if pq != {c: field.neg(x) for c, x in eng.pair(q, p).items()}:
                return "antisymmetry", p, q
    for p, q, r in combinations(basis, 3):
        if p[0] + q[0] + r[0] > N:
            continue
        total: dict = {}
        for a, b, c in ((p, q, r), (q, r, p), (r, p, q)):
            ab = eng.bracket_vec(a[0] + b[0], eng.pair(a, b), c[0], {c[1]: field.one})
            if bad(ab):
                return "value", a, b, c
            field.axpy(total, field.one, ab)
        if total:
            return "jacobi", p, q, r
    return None


# ----------------------------------------------------------------------
# the command line as argparse parsed it


def _count(text: str) -> int:
    """A nonnegative integer option; argparse turns a bad one into exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedlie",
        description="computations with finitely presented graded Lie algebras",
    )
    parser.add_argument(
        "--field", default=None,
        help="ground field: Q or Fp:<prime> (default: a file's field line, Q elsewhere)",
    )
    parser.add_argument("--max-degree", type=_count, default=8, dest="max_degree")
    parser.add_argument("--hom-bound", type=_count, default=4, dest="hom_bound")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--out", default=None, help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hall", help="Hall basis counts for a free Lie algebra")
    p.add_argument("--gens", required=True, help="comma list, e.g. x,y or a:1,t:2")
    p.add_argument("--list", action="store_true", help="include the monomials")
    p.set_defaults(func=cmd_hall)

    for name, func in (
        ("dims", cmd_dims),
        ("hilbert", cmd_hilbert),
        ("homology", cmd_homology),
        ("hopf", cmd_hopf),
    ):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.set_defaults(func=func)

    p = sub.add_parser("infer", help="presentation of a graded subalgebra")
    p.add_argument("file")
    p.add_argument("--gen", action="append", default=[], help="subalgebra generator expression")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("graph", help="graph-of-Lie-algebras commands")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    gv = gsub.add_parser("verify", help="verify the fundamental-algebra sequence")
    gv.add_argument("file")
    gv.add_argument("--explicit-to", type=_count, default=None, dest="explicit_to")
    gv.set_defaults(func=cmd_graph_verify)

    p = sub.add_parser("onerelator")
    osub = p.add_subparsers(dest="onerelator_command", required=True)
    od = osub.add_parser("decompose", help="iterated HNN decomposition")
    od.add_argument("file")
    od.set_defaults(func=cmd_onerelator_decompose)

    p = sub.add_parser("raag")
    rsub = p.add_subparsers(dest="raag_command", required=True)
    rc = rsub.add_parser("chordal")
    rc.add_argument("file")
    rc.set_defaults(func=cmd_raag_chordal)
    rr = rsub.add_parser("resolve")
    rr.add_argument("file")
    rr.set_defaults(func=cmd_raag_resolve)
    rv = rsub.add_parser("verdict")
    rv.add_argument("file")
    rv.set_defaults(func=cmd_raag_verdict)

    p = sub.add_parser("example")
    esub = p.add_subparsers(dest="example_command", required=True)
    es = esub.add_parser("sec6", help="reproduce the worked example")
    es.set_defaults(func=cmd_example_sec6)

    return parser

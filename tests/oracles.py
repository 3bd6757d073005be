"""Brute-force and reference routines used only as test oracles.

Each one recomputes something the library computes another way (commuting
pairs by exhaustive enumeration, chordality by induced-cycle search over
every labeled graph, Mayer-Vietoris exactness from dimensions alone, Hall
monomial chains, subspace sums and intersections, bracket closures over
all pairs of lower components, the Leibniz check over all pairs, induced
modules from a basis of the subalgebra, [I,F] with its redundant
[[I,F],x] term), so a test can compare the two.
"""

from __future__ import annotations

from itertools import combinations, product

from gradedlie.example6 import NilpotentQuotient, change_field
from gradedlie.fields import GF, check_same_field
from gradedlie.freelie import FreeLieAlgebra
from gradedlie.homology import HomologyTable
from gradedlie.linalg import Echelon, SparseMatrix, Subspace
from gradedlie.presented import PresentedLieAlgebra
from gradedlie.raag import SimpleGraph, find_induced_cycle


# ----------------------------------------------------------------------
# section 6: commuting pairs


def zero_pair_count_oracle(source: PresentedLieAlgebra, p: int) -> int:
    """Exhaustive enumeration of commuting pairs over F_p (test oracle)."""
    fp = GF(p)
    quo = NilpotentQuotient(change_field(source, fp), 2)
    d1 = quo.dims[0]
    tensor = quo.bracket_tensor()
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
                    for k, c in tensor.get((i, j), {}).items():
                        s = fp.add(acc.get(k, fp.zero), fp.mul(coeff, c))
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
    edge_tables: list[tuple[HomologyTable, int]],
    vertex_tables: list[HomologyTable],
    total_table: HomologyTable,
    I: int,
    N: int,
) -> MayerVietorisReport:
    """Degreewise exactness certificate for the long homology sequence

        ... -> (+)_e H_i(L_e) -> (+)_v H_i(L_v) -> H_i(L) -> (+)_e H_{i-1}(L_e) -> ...

    using only dimensions: starting from surjectivity onto H_0(L), the
    ranks forced by exactness must stay nonnegative at every position.
    Edge entries carry a weight shift (the stable-letter weight for
    non-forest edges, 0 for forest edges).  The topmost homological degree
    cannot be certified without H_{I+1} data and is flagged inconclusive.
    """
    failures = []
    for n in range(N + 1):
        seq = []  # dims from the left: E_I, V_I, H_I, E_{I-1}, ..., V_0, H_0
        for i in range(I, -1, -1):
            e_dim = sum(
                t[i][n - shift] if 0 <= n - shift <= t.N else 0
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
# subspaces


def quotient_basis(sub: Subspace) -> list[int]:
    """Indices of standard basis vectors complementing sub (non-pivot cols)."""
    pivots = set(sub.pivots())
    return [c for c in range(sub.ambient_dim) if c not in pivots]


def sum_spaces(a: Subspace, b: Subspace) -> Subspace:
    check_same_field(a.field, b.field, "subspaces")
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.from_vectors(a.field, a.ambient_dim, a.basis + b.basis)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Canonical basis of the intersection (Zassenhaus-style)."""
    check_same_field(a.field, b.field, "subspaces")
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    field = a.field
    # Solve sum x_i a_i + sum y_j b_j = 0; each kernel element yields the
    # intersection vector sum x_i a_i.
    abasis = a.basis
    bbasis = b.basis
    n = a.ambient_dim
    rows = []
    for i, v in enumerate(abasis):
        rows.append(dict(v))
    for j, v in enumerate(bbasis):
        rows.append({c: field.neg(x) for c, x in v.items()})
    m = SparseMatrix.from_row_vectors(field, n, rows).transpose()
    ker = m.kernel()
    vectors = []
    for kv in ker.basis:
        vec: dict = {}
        for idx, coef in kv.items():
            if idx < len(abasis):
                field.axpy(vec, coef, abasis[idx])
        vectors.append(vec)
    return Subspace.from_vectors(field, n, vectors)


# ----------------------------------------------------------------------
# all-pairs bracket closures


def all_pairs_subalgebra_spans(S, N: int) -> dict:
    """S_n = span(generators of weight n) + sum_{a+b=n} [S_a, S_b]."""
    eng = S.ambient.engine
    spans = {}
    for n in range(1, N + 1):
        ech = Echelon(S.field)
        for _, w, vec in S.generators:
            if w == n:
                ech.add(vec)
        for a in range(1, n):
            for va in spans[a].basis():
                for vb in spans[n - a].basis():
                    ech.add(eng.bracket_vec(a, va, n - a, vb))
        spans[n] = ech
    return spans


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

    Per weight m, the rows of A_m (L_m coordinates) carry their values in
    L_{m+shift} as companions through the elimination; the candidates are
    the generators of weight m and the brackets of every pair of lower
    rows, with d([a,b]) = [a,d(b)] + [d(a),b].  A candidate that reduces to
    0 in L_m with a nonzero companion residue is a violation.
    """
    base, field, eng, shift = d.base, d.field, d.base.engine, d.shift
    gens = []
    for g, v in zip(d.domain_gens, d.values):
        w, gvec = base.evaluate(g)
        gens.append((w, gvec, {} if v.is_zero() else base.evaluate(v)[1]))
    graphs: dict[int, Echelon] = {}
    for m in range(1, N + 1):
        pairs = [(gvec, dvec) for w, gvec, dvec in gens if w == m]
        for a in range(1, m):
            lo, hi = graphs[a], graphs[m - a]
            for p1, a1 in lo.rows.items():
                d1 = lo.companions[p1]
                for p2, a2 in hi.rows.items():
                    dv = eng.bracket_vec(a, a1, m - a + shift, hi.companions[p2])
                    field.axpy(dv, field.one, eng.bracket_vec(a + shift, d1, m - a, a2))
                    pairs.append((eng.bracket_vec(a, a1, m - a, a2), dv))
        ech = graphs[m] = Echelon(field)
        for avec, dvec in pairs:
            pivot, rest = ech.insert(avec, dvec)
            if pivot is None and rest:
                return m
    return None


# ----------------------------------------------------------------------
# induced modules and the relation ideal


def basis_product_quotient_basis(env, sub, n: int) -> list:
    """Non-pivot PBW monomials of weight n modulo the products s.u, with s
    over a basis of each S_w and u over the PBW monomials of weight n - w."""
    one = env.field.one
    ech = Echelon(env.field)
    for w in range(1, n + 1):
        for s in sub.span(w).basis:
            s_u = env.lie_vector_as_u(w, s)
            for u_mono in env.pbw_basis(n - w):
                ech.add(env.coords(env.mult(s_u, {u_mono: one}), n))
    return [m for i, m in enumerate(env.pbw_basis(n)) if i not in ech.rows]


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
                for v in P.ideal_component(m).basis + out[m].basis():
                    ech.add(free.bracket_coordinates(m, v, w, x))
    return out

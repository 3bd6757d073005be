"""Reproduction of the worked example: the subalgebra S of M * N.

M = k^2 abelian on a, b; N = k.x; L = M * N = <a, b, x | [a,b]>.  The
graded subalgebra S = <a, b, z = [x,a], t = [x,b]> has minimal presentation
<a, b, z, t | [a,b], [z,b] - [t,a]> with H_1 of total dimension 4 and H_2
of total dimension 2, which drives three witnesses:

* S is not M * Q for any Q: a free product would force
  dim H_2 = dim H_2(M) + dim H_2(free on z,t) = 1 + 0, contradicting 2;
* the three class-2 nilpotent quotients E (from S), E~ (from
  <.. | [x1,x2],[x1,x3]>) and E^ (from <.. | [x1,x2],[x4,x3]>) are pairwise
  non-isomorphic, certified by isomorphism-invariant fingerprints
  (zero-bracket pair counts and ad-rank profiles over small prime fields,
  plus the bracket-pairing rank) -- never by a failed isomorphism search;
* S is not a right-angled Artin Lie algebra: H_1 and H_2 force a graph
  with 4 vertices and 2 edges, the two isomorphism classes of which give
  exactly E~ and E^.

Fingerprint values are implementer-derived; the test suite freezes them
from an exhaustive pair-enumeration oracle (tests/oracles.py).
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Optional

from .fields import GF, QQ, Field, FieldError
from .freelie import FreeLieAlgebra, substitution
from .homology import homology_table
from .linalg import Echelon
from .presented import PresentedLieAlgebra, infer_presentation
from .raag import SimpleGraph, raag_presentation


def ambient_free_product(field: Field = QQ) -> PresentedLieAlgebra:
    """L = M * N = <a, b, x | [a,b]>, all generators of weight 1."""
    return PresentedLieAlgebra(field, ["a", "b", "x"], ["[a,b]"], name="M*N")


def build_s(field: Field = QQ, N: int = 8):
    """Construct S <= M*N and infer its minimal presentation.

    Returns a report dict with the presentation, graded H_1/H_2 data (both
    Hopf and Chevalley-Eilenberg routes) and the properness checks used by
    the ends remark (S is proper and lies in no free factor).
    """
    L = ambient_free_product(field)
    S = L.subalgebra(["a", "b", "[x,a]", "[x,b]"])
    inferred = infer_presentation(S, N, names=["a", "b", "z", "t"])
    pres = inferred.presentation
    h1 = pres.h1(N)
    h2 = pres.h2_hopf(N)
    table = homology_table(pres, 2, min(N, 6))
    report = {
        "ambient": L,
        "subalgebra": S,
        "presentation": pres,
        "generator_weights": [g.weight for g in pres.generators],
        "relator_weights": pres.relator_weights(),
        "h1_graded": h1,
        "h1_total": sum(h1),
        "h2_graded": h2,
        "h2_total": sum(h2),
        "h1_ce_total": table.total(1),
        "h2_ce_total": table.total(2),
        "proper": S.span(1).dim < L.dim(1),
        "not_in_abelian_factor": S.span(2).dim > 0,
        "not_in_free_factor": S.span(1).dim > 1,
    }
    report["ok"] = (
        report["h1_total"] == 4
        and report["h2_total"] == 2
        and report["h1_ce_total"] == 4
        and report["h2_ce_total"] == 2
        and report["relator_weights"] == [2, 3]
        and report["proper"]
    )
    return report


def not_free_product_witness(s_report: dict, N: int = 6):
    """The dimension contradiction against S = M * Q.

    If S = M * Q then Q would be free on the images of z, t, and H_2 would
    add up to dim H_2(M) + dim H_2(free_2) = 1 + 0 = 1, not 2.  `s_report`
    is the report of `build_s`.
    """
    field = s_report["presentation"].field
    M = PresentedLieAlgebra(field, ["a", "b"], ["[a,b]"], name="M")
    Q = PresentedLieAlgebra(field, [("z", 2), ("t", 2)], name="free on z,t")
    h2_m = sum(M.h2_hopf(N))
    h2_q = sum(Q.h2_hopf(N))
    report = {
        "h2_M": h2_m,
        "h2_Q_candidate": h2_q,
        "h2_sum": h2_m + h2_q,
        "h2_S": s_report["h2_total"],
        "contradiction": h2_m + h2_q != s_report["h2_total"],
    }
    report["ok"] = report["contradiction"] and report["h2_sum"] == 1 and report["h2_S"] == 2
    return report


# ----------------------------------------------------------------------
# class-2 nilpotent quotients and their fingerprints


class NilpotentQuotient:
    """L/gamma_{c+1}(L) with structure constants on the engine's graded
    basis; components of weight > c vanish."""

    def __init__(self, source: PresentedLieAlgebra, c: int = 2):
        self.source = source
        self.c = c
        self.field = source.field
        self.dims = [source.dim(n) for n in range(1, c + 1)]

    def bracket_tensor(self):
        """[e_i, e_j] in degree-1 coordinates: dict (i, j) -> vector."""
        eng = self.source.engine
        d1 = self.dims[0]
        out = {}
        for i in range(d1):
            for j in range(d1):
                if i != j:
                    out[(i, j)] = eng.pair((1, i), (1, j))
        return out


def pairing_rank(q: NilpotentQuotient) -> int:
    """Rank of the bracket pairing Lambda^2 V -> L_2."""
    tensor = q.bracket_tensor()
    ech = Echelon(q.field)
    d1 = q.dims[0]
    for i in range(d1):
        for j in range(i + 1, d1):
            vec = tensor.get((i, j))
            if vec:
                ech.add(vec)
    return ech.rank


FINGERPRINT_PRIMES = (2, 3)


def fingerprint(
    source: PresentedLieAlgebra, rational: Optional[PresentedLieAlgebra] = None
) -> tuple:
    """Isomorphism-invariant fingerprint of the class-2 quotient.

    Components: dim L_2; the bracket-pairing rank; per prime p in
    FINGERPRINT_PRIMES, the number of pairs (v1, v2) in V x V over F_p with
    [v1, v2] = 0 and the multiset of ad-ranks over all v in V(F_p).
    Zero-pair counts are evaluated as sum_v p^(dim ker ad_v), which agrees
    with exhaustive enumeration (the test oracle).  The mod-p algebras are
    reductions of `rational`, the same presentation over Q (by default
    source itself, which must then be over Q): residues mod another prime
    do not reduce mod p.
    """
    rational = source if rational is None else rational
    if rational.field != QQ:
        raise FieldError("mod-p reductions need the presentation over Q")
    parts = [source.dim(2), pairing_rank(NilpotentQuotient(source, 2))]
    for p in FINGERPRINT_PRIMES:
        quo = NilpotentQuotient(change_field(rational, GF(p)), 2)
        fp = quo.field
        d1, d2 = quo.dims[0], quo.dims[1]
        tensor = quo.bracket_tensor()
        zero_pairs = 0
        ad_rank_profile = {}
        for coeffs in product(range(p), repeat=d1):
            # ad_v as a d1 x d2 matrix; kernel size counts zero pairs
            ech = Echelon(fp)
            for j in range(d1):
                row = {}
                for i in range(d1):
                    if i != j:
                        fp.axpy(row, coeffs[i], tensor.get((i, j), {}))
                if row:
                    ech.add(row)
            rank = ech.rank
            zero_pairs += p ** (d1 - rank)
            ad_rank_profile[rank] = ad_rank_profile.get(rank, 0) + 1
        parts.append((p, zero_pairs, tuple(sorted(ad_rank_profile.items()))))
    return tuple(parts)


def change_field(source: PresentedLieAlgebra, field: Field) -> PresentedLieAlgebra:
    """The same presentation with coefficients coerced into another field."""
    gens = [(g.name, g.weight) for g in source.generators]
    free = FreeLieAlgebra(field, gens)
    coerce = substitution(source.free, free, {name: free.gen_element(name) for name, _ in gens})
    rels = [coerce(r) for r in source.relators]
    return PresentedLieAlgebra(field, gens, rels, name=source.name, free=free)


QUOTIENT_PRESENTATIONS = {
    "E": ["[x1,x2]", "[x3,x2]+[x1,x4]"],
    "E~": ["[x1,x2]", "[x1,x3]"],
    "E^": ["[x1,x2]", "[x4,x3]"],
}


def quotient_algebras(field: Field = QQ) -> dict:
    gens = ["x1", "x2", "x3", "x4"]
    return {
        name: PresentedLieAlgebra(field, gens, rels, name=name)
        for name, rels in QUOTIENT_PRESENTATIONS.items()
    }


def distinguish_quotients(field: Field = QQ):
    """Pairwise-distinct fingerprints for E, E~, E^.

    A failed separation is reported as inconclusive (never as a false
    non-isomorphism claim).
    """
    algs = quotient_algebras(field)
    over_q = algs if field == QQ else quotient_algebras(QQ)
    prints = {name: fingerprint(alg, rational=over_q[name]) for name, alg in algs.items()}
    names = list(algs)
    separated = {}
    for a, b in combinations(names, 2):
        separated[(a, b)] = prints[a] != prints[b]
    report = {
        "fingerprints": prints,
        "separated": separated,
        "dims_degree2": {name: alg.dim(2) for name, alg in algs.items()},
        "ok": all(separated.values()),
        "inconclusive_pairs": [k for k, v in separated.items() if not v],
    }
    return report


def four_vertex_two_edge_graphs() -> dict:
    """The two isomorphism classes of graphs with 4 vertices and 2 edges:
    edges sharing a vertex, and two disjoint edges."""
    names = ["x1", "x2", "x3", "x4"]
    shared = SimpleGraph(names, [("x1", "x2"), ("x1", "x3")])
    disjoint = SimpleGraph(names, [("x1", "x2"), ("x3", "x4")])
    # sanity: every labeled 2-edge graph on 4 vertices matches one class
    classes = {"shared": shared, "disjoint": disjoint}
    for e1, e2 in combinations(combinations(names, 2), 2):
        share = bool(set(e1) & set(e2))
        assert share or len(set(e1) | set(e2)) == 4
    return classes


def not_raag_witness(s_report: dict):
    """S is not a right-angled Artin Lie algebra.

    H_1 = 4 and H_2 = 2 (from `s_report`, the report of `build_s`) force a
    4-vertex, 2-edge graph; both isomorphism classes yield class-2
    quotients whose fingerprints differ from E's.
    """
    field = s_report["presentation"].field
    classes = four_vertex_two_edge_graphs()
    E = quotient_algebras(field)["E"]
    fp_e = fingerprint(E, rational=E if field == QQ else quotient_algebras(QQ)["E"])
    comparisons = {}
    for label, graph in classes.items():
        raag = raag_presentation(graph, field)
        raag_q = raag if field == QQ else raag_presentation(graph, QQ)
        fp_raag = fingerprint(raag, rational=raag_q)
        comparisons[label] = {"fingerprint": fp_raag, "differs_from_E": fp_raag != fp_e}
    report = {
        "h1_total": s_report["h1_total"],
        "h2_total": s_report["h2_total"],
        "graph_classes": list(classes),
        "fingerprint_E": fp_e,
        "comparisons": comparisons,
        "ok": (
            s_report["h1_total"] == 4
            and s_report["h2_total"] == 2
            and all(c["differs_from_E"] for c in comparisons.values())
        ),
    }
    return report


def full_report(field: Field = QQ) -> dict:
    """Every claim of the worked example with computed values."""
    s = build_s(field)
    nf = not_free_product_witness(s)
    dq = distinguish_quotients(field)
    nr = not_raag_witness(s)
    return {
        "build_s": s,
        "not_free_product": nf,
        "distinguish_quotients": dq,
        "not_raag": nr,
        "ok": s["ok"] and nf["ok"] and dq["ok"] and nr["ok"],
    }

"""Reproduction of the worked example: the subalgebra S of M * N.

M = k^2 abelian on a, b; N = k.x; L = M * N = <a, b, x | [a,b]>.  The
graded subalgebra S = <a, b, z = [x,a], t = [x,b]> has minimal presentation
<a, b, z, t | [a,b], [z,b] - [t,a]> with H_1 of total dimension 4 and H_2
of total dimension 2, which drives three witnesses:

* S is not M * Q for any Q: a free product would force
  dim H_2 = dim H_2(M) + dim H_2(free on z,t) = 1 + 0, contradicting 2;
* the three class-2 nilpotent quotients E (from S: <x1..x4 | [x1,x2],
  [x3,x2]+[x1,x4]>), E~ and E^ are pairwise non-isomorphic, certified by
  isomorphism-invariant fingerprints (zero-bracket pair counts and ad-rank
  profiles over small prime fields, plus the bracket-pairing rank) --
  never by a failed isomorphism search;
* S is not a right-angled Artin Lie algebra: H_1 and H_2 force a graph
  with 4 vertices and 2 edges, and E~ and E^ are the RAAG Lie algebras of
  its two isomorphism classes (two edges sharing a vertex, two disjoint
  edges), so E differs from both.

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


INFER_DEGREE = 8  # weights to which S's presentation is inferred
WITNESS_DEGREE = 6  # weights of H_2(M) and H_2(Q) in the free-product witness

# the paper's values for S; `proper` and the two factor checks are the ends
# remark (S is proper and lies in no free factor)
S_CLAIMS = {
    "relator_weights": [2, 3],
    "h1_total": 4,
    "h2_total": 2,
    "h1_ce_total": 4,
    "h2_ce_total": 2,
    "proper": True,
    "not_in_abelian_factor": True,
    "not_in_free_factor": True,
}


def build_s(field: Field) -> dict:
    """Construct S <= M*N, infer its minimal presentation and report the
    keys of S_CLAIMS: H_1/H_2 totals by the Hopf and Chevalley-Eilenberg
    routes, the relator weights and the ends-remark checks."""
    L = ambient_free_product(field)
    S = L.subalgebra(["a", "b", "[x,a]", "[x,b]"])
    N = INFER_DEGREE
    pres, conclusive = infer_presentation(S, N, names=["a", "b", "z", "t"])
    table = homology_table(pres, 2, min(N, 6))
    report = {
        "relator_weights": pres.relator_weights(),
        "h1_total": sum(pres.h1(N)),
        "h2_total": sum(pres.h2_hopf(N)),
        "h1_ce_total": sum(table[1]),
        "h2_ce_total": sum(table[2]),
        "proper": S.span(1).rank < L.dim(1),
        "not_in_abelian_factor": S.span(2).rank > 0,
        "not_in_free_factor": S.span(1).rank > 1,
    }
    report["ok"] = conclusive and report == S_CLAIMS
    return report


def not_free_product_witness(s_report: dict, field: Field) -> dict:
    """The dimension contradiction against S = M * Q.

    If S = M * Q then Q would be free on the images of z, t, and H_2 would
    add up to dim H_2(M) + dim H_2(free_2) = 1 + 0 = 1, not 2.  `s_report`
    is the report of `build_s` over `field`.
    """
    M = PresentedLieAlgebra(field, ["a", "b"], ["[a,b]"], name="M")
    Q = PresentedLieAlgebra(field, [("z", 2), ("t", 2)], name="free on z,t")
    h2_m = sum(M.h2_hopf(WITNESS_DEGREE))
    h2_q = sum(Q.h2_hopf(WITNESS_DEGREE))
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


def bracket_tensor(alg: PresentedLieAlgebra) -> dict:
    """[e_i, e_j] for i != j on the weight-1 basis of the engine: (i, j) ->
    vector over the weight-2 basis.  These are the structure constants of
    the class-2 quotient alg / gamma_3(alg)."""
    d1 = alg.dim(1)
    pair = alg.engine.pair
    return {(i, j): pair((1, i), (1, j)) for i in range(d1) for j in range(d1) if i != j}


FINGERPRINT_PRIMES = (2, 3)


def fingerprint(
    source: PresentedLieAlgebra, rational: Optional[PresentedLieAlgebra] = None
) -> tuple:
    """Isomorphism-invariant fingerprint of the class-2 quotient.

    Components: dim L_2; the rank of the bracket pairing Lambda^2 V -> L_2;
    per prime p in FINGERPRINT_PRIMES, the number of pairs (v1, v2) in
    V x V over F_p with [v1, v2] = 0 and the multiset of ad-ranks over all
    v in V(F_p).  Zero-pair counts are evaluated as
    sum_v p^(dim ker ad_v), which agrees with exhaustive enumeration (the
    test oracle).  The mod-p algebras are reductions of `rational`, the
    same presentation over Q (by default source itself, which must then be
    over Q): residues mod another prime do not reduce mod p.
    """
    rational = source if rational is None else rational
    if rational.field != QQ:
        raise FieldError("mod-p reductions need the presentation over Q")
    pairing = [v for (i, j), v in bracket_tensor(source).items() if i < j and v]
    parts = [source.dim(2), Echelon.of(source.field, pairing).rank]
    for p in FINGERPRINT_PRIMES:
        quo = change_field(rational, GF(p))
        fp = quo.field
        d1 = quo.dim(1)
        tensor = bracket_tensor(quo)
        zero_pairs = 0
        ad_rank_profile = {}
        for coeffs in product(range(p), repeat=d1):
            # ad_v as a d1 x d2 matrix; kernel size counts zero pairs
            rows = []
            for j in range(d1):
                row = {}
                for i in range(d1):
                    if i != j:
                        fp.axpy(row, coeffs[i], tensor[(i, j)])
                if row:
                    rows.append(row)
            rank = Echelon.of(fp, rows).rank
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


def four_vertex_two_edge_graphs() -> dict:
    """The two isomorphism classes of graphs with 4 vertices and 2 edges:
    edges sharing a vertex, and two disjoint edges."""
    names = ["x1", "x2", "x3", "x4"]
    shared = SimpleGraph(names, [("x1", "x2"), ("x1", "x3")])
    disjoint = SimpleGraph(names, [("x1", "x2"), ("x3", "x4")])
    return {"shared": shared, "disjoint": disjoint}


def quotient_algebras(field: Field = QQ) -> dict:
    """E, presented by the class-2 relators of S in x1..x4, and E~ and E^,
    the RAAG Lie algebras of the shared-vertex and disjoint-edge graphs."""
    gens, rels = ["x1", "x2", "x3", "x4"], ["[x1,x2]", "[x3,x2]+[x1,x4]"]
    algs = {"E": PresentedLieAlgebra(field, gens, rels, name="E")}
    graphs = four_vertex_two_edge_graphs()
    for name, label in (("E~", "shared"), ("E^", "disjoint")):
        algs[name] = raag_presentation(graphs[label], field)
        algs[name].name = name
    return algs


def distinguish_quotients(field: Field = QQ) -> dict:
    """Pairwise-distinct fingerprints for E, E~, E^.

    `separated` maps each pair of names to whether their fingerprints
    differ; a pair they do not tell apart is reported as not separated,
    never as isomorphic.
    """
    algs = quotient_algebras(field)
    over_q = algs if field == QQ else quotient_algebras(QQ)
    prints = {name: fingerprint(alg, rational=over_q[name]) for name, alg in algs.items()}
    separated = {(a, b): prints[a] != prints[b] for a, b in combinations(prints, 2)}
    return {"fingerprints": prints, "separated": separated, "ok": all(separated.values())}


def not_raag_witness(s_report: dict, dq_report: dict) -> dict:
    """S is not a right-angled Artin Lie algebra.

    H_1 = 4 and H_2 = 2 (from `s_report`, the report of `build_s`) force a
    4-vertex, 2-edge graph; the RAAG Lie algebras of both isomorphism
    classes are E~ and E^, whose fingerprints differ from E's
    (`dq_report`, the report of `distinguish_quotients`).
    """
    separated = dq_report["separated"]
    forced = s_report["h1_total"] == 4 and s_report["h2_total"] == 2
    return {"ok": forced and separated[("E", "E~")] and separated[("E", "E^")]}


def full_report(field: Field = QQ) -> dict:
    """Every claim of the worked example with computed values."""
    s = build_s(field)
    nf = not_free_product_witness(s, field)
    dq = distinguish_quotients(field)
    nr = not_raag_witness(s, dq)
    return {
        "build_s": s,
        "not_free_product": nf,
        "distinguish_quotients": dq,
        "not_raag": nr,
        "ok": s["ok"] and nf["ok"] and dq["ok"] and nr["ok"],
    }

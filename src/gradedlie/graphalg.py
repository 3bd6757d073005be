"""Graphs of Lie algebras and their fundamental Lie algebras.

A graph of Lie algebras carries vertex and edge algebras, edge
monomorphisms, a fixed spanning tree of forest edges (so the graph is
connected), and a derivation plus stable-letter weight for every
non-forest edge (loops are always non-forest).  The fundamental algebra is
presented by the vertex generators and one stable letter t per non-forest
edge, with the vertex relators, sigma(g) = tau(g) along forest edges and
[t, sigma(g)] = d(g) along the others.

`verify_theorem_a` runs two independent checks on the Mayer-Vietoris
sequence

    0 -> (+)_e k (x)_{U(L_e)} U(L) -> (+)_v k (x)_{U(L_v)} U(L) -> k -> 0:

an Euler/Hilbert-series identity on graded dimensions, and an explicit
degree-wise exactness check by ranks.  The edge-to-vertex map alpha is
given by a formula per edge, as for graphs of groups (Chiswell, "Exact
sequences associated with a graph of groups", J. Pure Appl. Algebra 8,
1976): writing Q_x for k (x)_{U(L_x)} U(L), for 1 (x) u in Q_e,

    forest edge:      1 (x) u  |->  1 (x) u in Q_dst  -  1 (x) u in Q_src,
    non-forest edge:  1 (x) u  |->  1 (x) t.u in Q_src, w(t) higher.

Amalgams and HNN extensions are the one-edge graphs: an amalgam is built
and verified as the fundamental algebra of a one-edge graph, and `hnn`
builds a single HNN extension directly for the one-relator towers.

Graph file format, where # starts a comment and blank lines are allowed;
each vertex and edge id is declared once::

    vertex v1 path/to/presentation.lie
    edge e1 v1 v2 forest path/to/edge.lie
    map sigma e1 z -> a
    map tau e1 z -> c
    edge e2 v2 v2 path/to/loop_edge.lie
    map sigma e2 y -> b
    der e2 y -> [b,c] stable-weight 1
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Optional

from .envelope import Envelope, InducedModule
from .fields import Field, InputError, check_same_field, integer, lines, load
from .freelie import FreeLieAlgebra, LieElement, substitution
from .linalg import Echelon
from .presented import GeneratedSpans, GradedSubalgebra, PresentedLieAlgebra, load_presentation
from .series import HilbertSeries


class GraphError(InputError):
    pass


def _parse(alg: PresentedLieAlgebra, expr, what: str) -> LieElement:
    """expr parsed in alg when it is text; a bad expression is a GraphError."""
    if not isinstance(expr, str):
        return expr
    try:
        return alg.parse(expr)
    except InputError as exc:
        raise GraphError(f"{what}: {exc}") from exc


class LieHomomorphism:
    """A graded Lie algebra map given by generator images.

    Weight preservation is checked at construction; every source relator
    must map to zero in the target (checked exactly at the relator's
    weight).  The map sends L_source,n onto the weight-n component of the
    image subalgebra, so injectivity is a per-weight comparison of that
    span's dimension with dim L_source,n, truncated: a failure is
    definitive, a pass certifies weights up to the bound only.
    """

    def __init__(self, source: PresentedLieAlgebra, target: PresentedLieAlgebra, images: dict):
        check_same_field(source.field, target.field, "hom source/target")
        self.source = source
        self.target = target
        self.images: dict[str, LieElement] = {}
        for g in source.generators:
            if g.name not in images:
                raise GraphError(f"no image for generator {g.name!r}")
            img = _parse(target, images[g.name], f"image of {g.name!r}")
            if img.weight() != g.weight:  # None for 0 and for a mixed weight
                raise GraphError(f"image of {g.name!r} is {img!r}, not of weight {g.weight}")
            self.images[g.name] = img
        extra = set(images) - {g.name for g in source.generators}
        if extra:
            raise GraphError(f"images given for unknown generators {sorted(extra)}")
        # substitutes the generator images into source free-algebra elements
        self.map_element = substitution(source.free, target.free, self.images)
        self._validated = False

    def validate_relators(self):
        """Each source relator maps to 0 in the target (exact check)."""
        if self._validated:
            return
        for r in self.source.relators:
            img = self.map_element(r)
            if img.is_zero():
                continue
            _, vec = self.target.evaluate(img)
            if vec:
                raise GraphError(
                    f"relator {r!r} does not map to zero in {self.target.name or 'target'}"
                )
        self._validated = True

    def injectivity_failure(self, N: int) -> Optional[int]:
        """First weight <= N where the induced map drops rank, else None."""
        self.validate_relators()
        spans = self.image_subalgebra().span_dims(N)
        return next((n for n in range(1, N + 1) if spans[n - 1] != self.source.dim(n)), None)

    def image_subalgebra(self) -> GradedSubalgebra:
        return self.target.subalgebra(list(self.images.values()))


class LieDerivation:
    """A derivation d: A -> L with a uniform weight shift.

    A is the subalgebra of L generated by `domain_gens`, nonzero homogeneous
    elements; d is given by its values on those generators, each 0 or of
    the generator's weight plus the shift, and must satisfy the Leibniz law
    d([a,b]) = [a, d(b)] + [d(a), b] on spanning brackets, verified per
    weight up to a truncation bound.  The shift equals the stable-letter
    weight, which keeps the HNN relators [t,a] - d(a) homogeneous.
    """

    def __init__(self, base: PresentedLieAlgebra, domain_gens, values, shift: int):
        self.base = base
        self.field = base.field
        self.shift = shift
        self.domain_gens = [_parse(base, g, "domain generator") for g in domain_gens]
        self.values = [_parse(base, v, "derivation value") for v in values]
        self.domain = base.subalgebra(self.domain_gens)

    def validate_leibniz(self, N: int):
        """Check that d extends to a derivation of A, in weights <= N.

        With eps^2 = 0, the pairs a + eps.d(a) form the graph of d, and d
        extends to a derivation exactly when the subalgebra of L + eps.L
        generated by the pairs g + eps.d(g) meets eps.L only in 0.  A
        weight-m element a + eps.b (a in L_m, b in L_{m+shift}) is stored as
        one vector: a in columns [0, dim L_m), b shifted by dim L_m.  The
        subalgebra is the :class:`GeneratedSpans` with the pairs as gens and
        seeds, and the bracket
        [a + eps.b, g + eps.d_g] = [a,g] + eps.([a,d_g] + [b,g]); a pivot
        >= dim L_m is a nonzero element of eps.L.  Raises GraphError at the
        first weight with one.
        """
        base, field, shift = self.base, self.field, self.shift
        bracket_vec = base.engine.bracket_vec

        def join(m, a, b):
            off = base.dim(m)
            return {**a, **{off + i: c for i, c in b.items()}}

        def bracket(m, v, w, g_dg):
            g, dg = g_dg
            off = base.dim(m)
            a = {i: c for i, c in v.items() if i < off}
            b = {i - off: c for i, c in v.items() if i >= off}
            eps = bracket_vec(m, a, w + shift, dg)
            field.axpy(eps, field.one, bracket_vec(m + shift, b, w, g))
            return join(m + w, bracket_vec(m, a, w, g), eps)

        gens = []
        for g, v in zip(self.domain_gens, self.values):
            w, gvec = base.evaluate(g)
            gens.append((w, (gvec, {} if v.is_zero() else base.evaluate(v)[1])))
        graph = GeneratedSpans(
            field, gens, bracket, lambda m: [join(m, g, dg) for w, (g, dg) in gens if w == m]
        )
        for m in range(1, N + 1):
            if max(graph.span(m).pivots(), default=-1) >= base.dim(m):
                raise GraphError(
                    f"Leibniz violation at weight {m}: the pairs (g, d(g)) generate"
                    " a pair (0, v) with v != 0, so d is not well defined on A"
                )


# ----------------------------------------------------------------------
# HNN extensions


def hnn(derivation: LieDerivation, t_name: str, name: str = "hnn") -> PresentedLieAlgebra:
    """HNN extension <L, t | [t, a] = d(a) for a in A> of L = derivation.base.

    The stable letter t has the derivation's shift as its weight; the
    derivation's domain generators (elements of L) index the new relators.
    The Leibniz law is not checked here (see LieDerivation.validate_leibniz).
    """
    L = derivation.base
    gens = [(g.name, g.weight) for g in L.generators] + [(t_name, derivation.shift)]
    free = FreeLieAlgebra(L.field, gens)
    into = substitution(L.free, free, {g.name: free.gen_element(g.name) for g in L.generators})
    rels = [into(r) for r in L.relators]
    pairs = ((into(g), into(v)) for g, v in zip(derivation.domain_gens, derivation.values))
    rels += _hnn_relators(free.gen_element(t_name), pairs)
    return PresentedLieAlgebra(L.field, gens, rels, name=name, free=free)


def _hnn_relators(t: LieElement, pairs) -> list:
    """The nonzero [t, a] - d(a) for the pairs (a, d(a)): the relators an
    HNN extension with stable letter t adds."""
    return [rel for rel in (t.bracket(a) - da for a, da in pairs) if not rel.is_zero()]


# ----------------------------------------------------------------------
# graphs of Lie algebras


class Edge:
    def __init__(
        self,
        eid: str,
        src: str,
        dst: str,
        algebra: PresentedLieAlgebra,
        sigma_images: dict,
        in_forest: bool,
        tau_images: Optional[dict] = None,
        der_values: Optional[dict] = None,
        stable_weight: Optional[int] = None,
    ):
        self.id = eid
        self.src = src
        self.dst = dst
        self.algebra = algebra
        self.sigma_images = sigma_images
        self.in_forest = in_forest
        self.tau_images = tau_images
        self.der_values = der_values
        self.stable_weight = stable_weight

    @property
    def shift(self) -> int:
        return 0 if self.in_forest else self.stable_weight


class GraphOfLieAlgebras:
    """Vertex/edge algebras with structure maps over a fixed spanning tree.

    The forest edges must join every vertex without a cycle, so the graph is
    connected; each stable letter is named by its edge id, which must
    differ from every qualified generator name '<vertex>.<name>'.
    """

    def __init__(self, field: Field, vertices: dict, edges: list[Edge]):
        self.field = field
        self.vertices = dict(vertices)
        self.edges = list(edges)
        self.sigma: dict[str, LieHomomorphism] = {}
        self.tau: dict[str, LieHomomorphism] = {}
        self._validate()

    def _validate(self):
        qualified = set()
        for vid, alg in self.vertices.items():
            check_same_field(self.field, alg.field, f"vertex {vid}")
            qualified.update(f"{vid}.{g.name}" for g in alg.generators)
        for e in self.edges:
            if e.src not in self.vertices or e.dst not in self.vertices:
                raise GraphError(f"edge {e.id} references unknown vertices")
            check_same_field(self.field, e.algebra.field, f"edge {e.id}")
            self.sigma[e.id] = LieHomomorphism(
                e.algebra, self.vertices[e.src], e.sigma_images or {}
            )
            if e.in_forest:
                if e.der_values or e.stable_weight is not None:
                    raise GraphError(f"forest edge {e.id} takes no derivation or stable weight")
                if e.tau_images is None and e.algebra.generators:
                    raise GraphError(f"forest edge {e.id} needs a tau map")
                self.tau[e.id] = LieHomomorphism(
                    e.algebra, self.vertices[e.dst], e.tau_images or {}
                )
            else:
                if e.tau_images:
                    raise GraphError(f"non-forest edge {e.id} takes no tau map")
                if e.stable_weight is None:
                    raise GraphError(f"non-forest edge {e.id} needs a stable-letter weight")
                if e.id in qualified:
                    raise GraphError(f"stable letter {e.id} collides with a generator")
                e.der_values = {
                    g: _parse(self.vertices[e.dst], v, f"edge {e.id}: derivation value of {g!r}")
                    for g, v in (e.der_values or {}).items()
                }
                names = {g.name for g in e.algebra.generators}
                if set(e.der_values) != names:
                    raise GraphError(f"non-forest edge {e.id} needs derivation values for exactly"
                                     f" {sorted(names)}, not {sorted(e.der_values)}")
                for g in e.algebra.generators:
                    value, weight = e.der_values[g.name], g.weight + e.stable_weight
                    if not value.is_zero() and value.weight() != weight:
                        raise GraphError(f"edge {e.id}: derivation value of {g.name!r} is"
                                         f" {value!r}, not of weight {weight}")
        # the forest edges form a spanning tree: no cycle, one component
        parent = {v: v for v in self.vertices}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in self.edges:
            if e.in_forest:
                a, b = find(e.src), find(e.dst)
                if a == b:
                    raise GraphError(f"forest edge {e.id} closes a cycle")
                parent[a] = b
        if len({find(v) for v in self.vertices}) != 1:
            raise GraphError("the forest edges do not join every vertex")

    def fundamental(self) -> "FundamentalAlgebra":
        return FundamentalAlgebra(self)


class FundamentalAlgebra:
    """The fundamental Lie algebra of a graph of Lie algebras.

    Generators of the presentation are vertex generators, qualified as
    '<vertex>.<name>', plus one stable letter per non-forest edge (named by
    the edge id).  Relators: vertex relators, sigma(g) - tau(g) per forest
    edge, and [e, sigma(g)] - d(g) per non-forest edge.  It is the iterated
    amalgam of the vertex algebras along the forest edges, followed by one
    HNN extension per non-forest edge, in any order.
    """

    def __init__(self, graph: GraphOfLieAlgebras):
        self.graph = graph
        field = graph.field
        self.vertex_gen_map: dict[str, dict] = {}
        gens = []
        for vid, alg in graph.vertices.items():
            m = {}
            for g in alg.generators:
                qual = f"{vid}.{g.name}"
                m[g.name] = qual
                gens.append((qual, g.weight))
            self.vertex_gen_map[vid] = m
        for e in graph.edges:
            if not e.in_forest:
                gens.append((e.id, e.stable_weight))

        free = FreeLieAlgebra(field, gens)
        rels = []
        self._into = {}  # vertex id -> substitution into the fundamental algebra
        for vid, alg in graph.vertices.items():
            images = {g: free.gen_element(q) for g, q in self.vertex_gen_map[vid].items()}
            self._into[vid] = substitution(alg.free, free, images)
            rels.extend(self._into[vid](r) for r in alg.relators)
        for e in graph.edges:
            into_src, into_dst = self._into[e.src], self._into[e.dst]
            if e.in_forest:
                for g in e.algebra.generators:
                    diff = into_src(graph.sigma[e.id].images[g.name]) - into_dst(
                        graph.tau[e.id].images[g.name]
                    )
                    if not diff.is_zero():
                        rels.append(diff)
            else:
                sigma = graph.sigma[e.id].images
                pairs = ((into_src(sigma[g.name]), into_dst(e.der_values[g.name]))
                         for g in e.algebra.generators)
                rels += _hnn_relators(free.gen_element(e.id), pairs)
        self.algebra = PresentedLieAlgebra(field, gens, rels, name="fundamental", free=free)

    def vertex_embedding(self, vid: str) -> LieHomomorphism:
        alg = self.graph.vertices[vid]
        images = {
            g.name: self.algebra.free.gen_element(self.vertex_gen_map[vid][g.name])
            for g in alg.generators
        }
        return LieHomomorphism(alg, self.algebra, images)

    def edge_embedding(self, eid: str) -> LieHomomorphism:
        e = next(e for e in self.graph.edges if e.id == eid)
        sigma = self.graph.sigma[eid]
        images = {g.name: self._into[e.src](sigma.images[g.name]) for g in e.algebra.generators}
        return LieHomomorphism(e.algebra, self.algebra, images)


# ----------------------------------------------------------------------
# Theorem A verification


def verify_theorem_a(
    graph: GraphOfLieAlgebras, N: int, explicit_to: Optional[int] = None
) -> dict:
    """Verify the fundamental-algebra short exact sequence; the report is
    the `graph verify` data with its verdict "ok".

    (1) Euler identity on Hilbert series to degree N:
        sum_e t^shift(e) H_L/H_{L_e} + 1 = sum_v H_L/H_{L_v};
    (2) if explicit_to is given, build alpha's columns from the per-edge
        formula (see the module docstring), with u over the quotient basis
        of Q_e, and check injectivity and exactness by ranks one weight
        n <= explicit_to at a time, from the columns with w(u) + shift(e) = n
        alone, so only one weight's columns are alive at once.

    The formula gives the ranks of the sequence by the gluing lemma: if
    0 -> A -> B -> Y -> 0 and 0 -> X -> Y -> Z -> 0 are exact and s: X -> B
    is any linear lift of X -> Y, then 0 -> A (+) X -> B -> Z -> 0 is
    exact.  Build L from one vertex by amalgams along the forest edges,
    then one HNN step per other edge; let P be the algebra built so far,
    A the edge modules used and B the sum of the Q_w of the vertices
    placed, so that 0 -> A -> B -> Q_P -> 0 is exact.  Each step is exact,

        amalgam adding v:  0 -> Q_e -> Q_P (+) Q_v -> Q_{P*v} -> 0,
        HNN step:          0 -> Q_e -> Q_P -> Q_{P'} -> 0,  u |-> t.u,

    so the lemma applies with X = Q_e and Y its middle term (for an
    amalgam, Q_v is added to B and Y alike).  Every placed vertex algebra
    L_w lies in P, so 1 (x) u in Q_w maps to 1 (x) u in Q_P: the per-edge
    formula, read at the edge's endpoints, is a lift s, and the columns of
    all steps together are alpha.

    The report holds "fundamental_dims", the fundamental algebra's dims to
    N, "embedding_failures", "euler_ok", "euler_lhs" and "euler_rhs", and,
    if explicit_to is given, "explicit_checks" and "explicit_ranks" (see
    :func:`_sequence_checks`) with "explicit_ok" for them all.  "ok" is
    euler_ok and, if explicit_to is given, explicit_ok.

    All vertex and edge algebras must embed injectively (rank-checked up to
    max(N, explicit_to), as the explicit checks rely on it).  An embedding
    failure leaves the Euler values None and the explicit lists empty, and
    makes "ok" and "explicit_ok" False.  The vertex and edge modules live
    on one Envelope: they share its PBW position tables and its memo of
    straightened sub-products, alpha's columns read positions (1 (x) u
    for u a quotient position of Q_e, and t.u by the left product), and
    modules of equal subalgebras (an edge whose image is a vertex's) share
    one module state, so each right ideal is built once per weight.
    """
    fund = graph.fundamental()
    L = fund.algebra
    report = {"fundamental_dims": L.dim_sequence(N), "embedding_failures": [],
              "euler_ok": None, "euler_lhs": None, "euler_rhs": None}
    failures = report["embedding_failures"]

    # embeddings, checked first
    embed_to = N if explicit_to is None else max(N, explicit_to)
    embeddings = {}
    for vid in graph.vertices:
        hom = fund.vertex_embedding(vid)
        bad = hom.injectivity_failure(embed_to)
        if bad is not None:
            failures.append(["vertex", vid, bad])
        embeddings["v", vid] = hom
    for e in graph.edges:
        hom = fund.edge_embedding(e.id)
        bad = hom.injectivity_failure(embed_to)
        if bad is not None:
            failures.append(["edge", e.id, bad])
        embeddings["e", e.id] = hom

    if not failures:
        # Euler / Hilbert identity
        HL = L.enveloping_series(N)
        lhs = HilbertSeries.one(N)
        for e in graph.edges:
            q = HL.divide(e.algebra.enveloping_series(N))
            lhs = lhs + q.shift(e.shift)
        rhs = HilbertSeries.zero(N)
        for vid, alg in graph.vertices.items():
            rhs = rhs + HL.divide(alg.enveloping_series(N))
        report.update(euler_ok=lhs == rhs, euler_lhs=lhs.coeffs, euler_rhs=rhs.coeffs)
    if explicit_to is not None:
        checks, ranks = ([], []) if failures else _sequence_checks(fund, embeddings, explicit_to)
        report.update(explicit_checks=checks, explicit_ranks=ranks, explicit_ok=not failures
                      and all(c["injective"] and c["exact_middle"] for c in checks))
    report["ok"] = report["euler_ok"] is True and report.get("explicit_ok", True)
    return report


def _sequence_checks(fund: FundamentalAlgebra, embeddings: dict, M: int) -> tuple[list, list]:
    """The explicit checks of :func:`verify_theorem_a` for weights 0..M:
    per weight n, {"weight", "injective", "exact_middle"} and [dim (+)Q_e,
    dim (+)Q_v, rank alpha].  `embeddings` maps ("v", vertex id) and
    ("e", edge id) to the (injective) embeddings in the fundamental
    algebra."""
    graph, L = fund.graph, fund.algebra
    env = Envelope(L)
    modules = {x: InducedModule(env, hom.image_subalgebra()) for x, hom in embeddings.items()}
    field, one = L.field, L.field.one
    ts = {e.id: L.evaluate(L.free.gen_element(e.id))[1] for e in graph.edges if not e.in_forest}
    checks, ranks = [], []
    for n in range(M + 1):
        offsets, mid_dim = {}, 0  # vertex id -> its first coordinate in (+)_v Q_v
        for vid in graph.vertices:
            offsets[vid] = mid_dim
            mid_dim += modules["v", vid].dim(n)

        def at(vid: str, u: dict) -> dict:
            """The class of the weight-n element u in Q_vid, in (+)_v Q_v."""
            return {offsets[vid] + i: c for i, c in modules["v", vid].project(u, n).items()}

        # alpha's columns of weight n: the edge modules' classes of weight n - shift
        columns = []
        for e in graph.edges:
            if e.shift <= n:
                for p in modules["e", e.id].quotient_basis(n - e.shift):
                    u = {p: one}
                    if e.in_forest:
                        col = at(e.dst, u)
                        field.axpy(col, field.neg(one), at(e.src, u))
                    else:
                        col = at(e.src, env.mult(e.shift, ts[e.id], n - e.shift, u))
                    columns.append(col)
        src_dim = sum(modules["e", e.id].dim(n - e.shift) for e in graph.edges if n >= e.shift)
        rank_alpha = Echelon.of(field, columns).rank
        # beta: sum of augmentation coordinates; nonzero only at weight 0,
        # where each quotient basis is the class of 1 and beta sums them
        rank_beta = 1 if n == 0 else 0
        composite_zero = n > 0 or all(
            field.is_zero(field.of(sum(col.values()))) for col in columns
        )
        checks.append({"weight": n, "injective": rank_alpha == src_dim,
                       "exact_middle": composite_zero and rank_alpha + rank_beta == mid_dim})
        ranks.append([src_dim, mid_dim, rank_alpha])
    return checks, ranks


# ----------------------------------------------------------------------
# graph files


def parse_graph_file(text: str, base_dir: str, field: Optional[Field] = None) -> GraphOfLieAlgebras:
    """Parse the graph file format (see module docstring)."""
    vertices, specs = {}, {}
    # edge id -> its map, der and stable-weight lines, in any order
    tables = defaultdict(lambda: {"sigma": {}, "tau": {}, "der": {}, "weights": set()})
    for lineno, line in lines(text):
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 3:
                raise GraphError(f"line {lineno}: expected 'vertex <id> <file>'")
            if parts[1] in vertices:
                raise GraphError(f"line {lineno}: vertex {parts[1]!r} declared twice")
            vertices[parts[1]] = load_presentation(
                os.path.join(base_dir, parts[2]), field=field
            )
        elif parts[0] == "edge":
            body = parts[1:]
            if len(body) >= 2 and body[-2] == "stable-weight":
                weight = integer(body[-1], f"line {lineno}: stable weight", 1, GraphError)
                tables[body[0]]["weights"].add(weight)
                body = body[:-2]
            if len(body) not in (4, 5) or len(body) == 5 and body[3] != "forest":
                raise GraphError(
                    f"line {lineno}: expected 'edge <id> <src> <dst> [forest] <file>'"
                )
            if body[0] in specs:
                raise GraphError(f"line {lineno}: edge {body[0]!r} declared twice")
            specs[body[0]] = (body[1], body[2], len(body) == 5, body[-1])
        elif parts[0] == "map":
            if len(parts) < 4 or parts[1] not in ("sigma", "tau"):
                raise GraphError(f"line {lineno}: malformed map line")
            gen, arrow, expr = " ".join(parts[3:]).partition("->")
            if not arrow:
                raise GraphError(f"line {lineno}: map needs '<gen> -> <expr>'")
            tables[parts[2]][parts[1]][gen.strip()] = expr.strip()
        elif parts[0] == "der":
            gen, arrow, tail = " ".join(parts[2:]).partition("->")
            expr, keyword, sw = tail.rpartition("stable-weight")
            if not arrow or not keyword:
                raise GraphError(
                    f"line {lineno}: der needs '<gen> -> <expr> stable-weight <w>'"
                )
            weight = integer(sw.strip(), f"line {lineno}: stable weight", 1, GraphError)
            tables[parts[1]]["der"][gen.strip()] = expr.strip()
            tables[parts[1]]["weights"].add(weight)
        else:
            raise GraphError(f"line {lineno}: unrecognized line {line!r}")
    if not vertices:
        raise GraphError("no vertices declared")
    undeclared = sorted(tables.keys() - specs.keys())
    if undeclared:
        raise GraphError(f"map or der line for undeclared edge {', '.join(undeclared)}")
    fld = field or next(iter(vertices.values())).field
    edges = []
    for eid, (src, dst, in_forest, fname) in specs.items():
        alg = load_presentation(os.path.join(base_dir, fname), field=field)
        table = tables[eid]
        weights = table["weights"]
        stable_weight = weights.pop() if weights else None
        if weights:
            raise GraphError(f"edge {eid}: conflicting stable weights")
        edges.append(
            Edge(
                eid,
                src,
                dst,
                alg,
                table["sigma"],
                in_forest,
                tau_images=table["tau"] or None,
                der_values=table["der"] or None,
                stable_weight=stable_weight,
            )
        )
    return GraphOfLieAlgebras(fld, vertices, edges)


def load_graph(path, field: Optional[Field] = None) -> GraphOfLieAlgebras:
    return load(path, parse_graph_file, os.path.dirname(os.path.abspath(path)), field)

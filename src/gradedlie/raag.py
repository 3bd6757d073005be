"""Right-angled Artin Lie algebras from finite simple graphs.

The presentation has one weight-1 generator per vertex and one relator
[u,v] per edge.  Chordality decides coherence of the enveloping algebra:
the decision procedure runs lexicographic BFS and validates the resulting
perfect elimination ordering, or produces an induced cycle of length >= 4
as a counter-certificate (re-validated independently; graphs here are tiny
so the cycle search is brute force).

The minimal free resolution has one free summand c_w U(L) per clique w of
the graph (including the empty clique), with differential

    d(c_w) = sum_r (-1)^(r-1) c_{w \\ {v_r}} . v_r      (w sorted, r 1-based)

and augmentation in degree 0.  Because the defining relators are
multihomogeneous, exactness is verified block-by-block per multidegree,
which keeps every elimination small.

Graph file format::

    vertices a b c d
    edge a b
    edge b c
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .envelope import Envelope
from .fields import QQ, Field
from .linalg import Echelon
from .presented import PresentedLieAlgebra
from .series import HilbertSeries


class SimpleGraph:
    """Finite simple graph: ordered vertices, unordered edges, no loops."""

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertices")
        vset = set(self.vertices)
        self.edges = set()
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at {u!r} not allowed")
            if u not in vset or v not in vset:
                raise ValueError(f"edge {e} references unknown vertex")
            self.edges.add(frozenset((u, v)))

    def has_edge(self, u, v) -> bool:
        return frozenset((u, v)) in self.edges

    def neighbors(self, v) -> list:
        """The neighbours of v, in vertex order."""
        return [u for u in self.vertices if u != v and frozenset((u, v)) in self.edges]

    def subgraph(self, vertices) -> "SimpleGraph":
        keep = [v for v in self.vertices if v in set(vertices)]
        kset = set(keep)
        return SimpleGraph(
            keep, [tuple(e) for e in self.edges if set(e) <= kset]
        )

    def is_complete(self) -> bool:
        n = len(self.vertices)
        return len(self.edges) == n * (n - 1) // 2

    def cliques(self) -> list[tuple]:
        """All complete vertex subsets (cells of the cone over the flag
        complex), sorted by size then vertex order; includes the empty set."""
        order = {v: i for i, v in enumerate(self.vertices)}
        out = [()]
        for size in range(1, len(self.vertices) + 1):
            found = []
            for combo in combinations(self.vertices, size):
                if all(self.has_edge(a, b) for a, b in combinations(combo, 2)):
                    found.append(tuple(sorted(combo, key=order.get)))
            if not found:
                break
            out.extend(found)
        return out

    def clique_polynomial(self, N: int) -> HilbertSeries:
        """sum over cliques w of (-t)^{|w|}, truncated at N."""
        coeffs = [0] * (N + 1)
        for w in self.cliques():
            k = len(w)
            if k <= N:
                coeffs[k] += (-1) ** k
        return HilbertSeries(coeffs, N)

    def __repr__(self):
        es = sorted(tuple(sorted(e)) for e in self.edges)
        return f"SimpleGraph({self.vertices}, {es})"


def parse_graph(text: str) -> SimpleGraph:
    """Parse the `vertices ...` / `edge a b` file format."""
    vertices = []
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            vertices.extend(parts[1:])
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'edge <u> <v>'")
            edges.append((parts[1], parts[2]))
        else:
            raise ValueError(f"line {lineno}: unrecognized line {raw!r}")
    if not vertices:
        raise ValueError("no vertices declared")
    return SimpleGraph(vertices, edges)


def load_graph(path) -> SimpleGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def raag_presentation(graph: SimpleGraph, field: Field = QQ) -> PresentedLieAlgebra:
    """L_Gamma = <V | [u,v] = 0 for {u,v} an edge>, all generators weight 1."""
    gens = [(v, 1) for v in graph.vertices]
    rels = []
    order = {v: i for i, v in enumerate(graph.vertices)}
    for e in sorted(graph.edges, key=lambda e: sorted(order[v] for v in e)):
        u, v = sorted(e, key=order.get)
        rels.append(f"[{u},{v}]")
    return PresentedLieAlgebra(field, gens, rels, name=f"L({graph.vertices})")


# ----------------------------------------------------------------------
# chordality


class ChordalityResult:
    def __init__(self, chordal: bool, peo=None, cycle=None):
        self.chordal = chordal
        self.peo = peo        # perfect elimination ordering (certificate)
        self.cycle = cycle    # induced cycle of length >= 4 (counter-cert.)

    def __bool__(self):
        return self.chordal

    def __repr__(self):
        if self.chordal:
            return f"ChordalityResult(chordal, peo={self.peo})"
        return f"ChordalityResult(not chordal, cycle={self.cycle})"


def lex_bfs(graph: SimpleGraph) -> list:
    """Lexicographic BFS order (partition refinement)."""
    sequence = []
    partitions = [list(graph.vertices)]
    while partitions:
        block = partitions[0]
        v = block.pop(0)
        if not block:
            partitions.pop(0)
        sequence.append(v)
        nb = graph.neighbors(v)
        new_partitions = []
        for blk in partitions:
            inside = [u for u in blk if u in nb]
            outside = [u for u in blk if u not in nb]
            if inside:
                new_partitions.append(inside)
            if outside:
                new_partitions.append(outside)
        partitions = new_partitions
    return sequence


def validate_peo(graph: SimpleGraph, order: list) -> Optional[tuple]:
    """None if the order is a perfect elimination ordering, else the first
    vertex whose later neighborhood misses an edge."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in graph.neighbors(v) if pos[u] > pos[v]]
        for a, b in combinations(later, 2):
            if not graph.has_edge(a, b):
                return (v, a, b)
    return None


def find_induced_cycle(graph: SimpleGraph, min_len: int = 4) -> Optional[list]:
    """A chordless cycle with >= min_len vertices, by subset search."""
    n = len(graph.vertices)
    for size in range(min_len, n + 1):
        for combo in combinations(graph.vertices, size):
            sub = graph.subgraph(combo)
            if len(sub.edges) != size:
                continue
            if any(len(sub.neighbors(v)) != 2 for v in combo):
                continue
            # connected 2-regular graph on `size` vertices = one cycle
            cycle = [combo[0]]
            prev = None
            while len(cycle) < size:
                nxt = [u for u in sub.neighbors(cycle[-1]) if u != prev]
                prev = cycle[-1]
                cycle.append(nxt[0])
            if sub.has_edge(cycle[-1], cycle[0]) and len(set(cycle)) == size:
                return cycle
    return None


def is_chordal(graph: SimpleGraph) -> ChordalityResult:
    """Chordality with a validated certificate either way.

    True comes with a perfect elimination ordering (lex-BFS order reversed,
    re-validated directly); False with an induced cycle of length >= 4
    (re-validated to be chordless).
    """
    order = list(reversed(lex_bfs(graph)))
    if validate_peo(graph, order) is None:
        return ChordalityResult(True, peo=order)
    cycle = find_induced_cycle(graph)
    if cycle is None:
        raise AssertionError("lex-BFS says not chordal but no induced cycle found")
    # re-validate the counter-certificate
    sub = graph.subgraph(cycle)
    assert len(sub.edges) == len(cycle) and all(
        len(sub.neighbors(v)) == 2 for v in cycle
    )
    return ChordalityResult(False, cycle=cycle)


# ----------------------------------------------------------------------
# the minimal free resolution


class RaagResolution:
    """The complex P_j = (+)_{|w| = j} c_w U(L_Gamma), per weight.

    Multihomogeneity of the relators lets every rank computation split by
    multidegree; chains are indexed (clique, PBW monomial).
    """

    def __init__(self, graph: SimpleGraph, field: Field = QQ):
        self.graph = graph
        self.field = field
        self.algebra = raag_presentation(graph, field)
        self.env = Envelope(self.algebra)
        self.cliques = graph.cliques()
        self.by_size: dict[int, list] = {}
        for w in self.cliques:
            self.by_size.setdefault(len(w), []).append(w)
        self.vertex_index = {v: i for i, v in enumerate(graph.vertices)}
        self._gen_keys = {}
        eng = self.algebra.engine
        eng.build_to(1)
        for i, v in enumerate(graph.vertices):
            red = eng.gen_reduction(i)
            (idx, one), = red.items()
            self._gen_keys[v] = (1, idx)

    def max_position(self) -> int:
        return max(self.by_size)

    def module_basis(self, j: int, m: int) -> list:
        """Basis of P_j in weight m: pairs (clique of size j, PBW monomial
        of weight m - j)."""
        if j < 0 or m - j < 0:
            return []
        out = []
        for w in self.by_size.get(j, []):
            for mono in self.env.pbw_basis(m - j):
                out.append((w, mono))
        return out

    def mdeg_mono(self, mono: tuple) -> tuple:
        eng = self.algebra.engine
        total = [0] * len(self.graph.vertices)
        for (wt, i) in mono:
            for k, c in enumerate(eng.basis_mdeg(wt)[i]):
                total[k] += c
        return tuple(total)

    def mdeg_cell(self, w: tuple, mono: tuple) -> tuple:
        base = list(self.mdeg_mono(mono))
        for v in w:
            base[self.vertex_index[v]] += 1
        return tuple(base)

    def boundary(self, w: tuple, mono: tuple) -> dict:
        """d(c_w (x) u) = sum_r (-1)^(r-1) c_{w minus v_r} (x) v_r . u."""
        field = self.field
        env = self.env
        out: dict = {}
        for r, v in enumerate(w, start=1):
            sign = field.one if r % 2 == 1 else field.neg(field.one)
            rest = tuple(x for x in w if x != v)
            prod = env.mult_mono((self._gen_keys[v],), mono)
            field.axpy(out, sign, {(rest, m2): c for m2, c in prod.items()})
        return out

    def verify_exactness(self, N: int) -> "ResolutionReport":
        """Rank-check exactness at every position, weights <= N, splitting
        by multidegree."""
        report = ResolutionReport(self.graph, N)
        field = self.field
        top = self.max_position()
        for m in range(N + 1):
            # collect per-multidegree blocks for all positions at weight m
            blocks: dict[tuple, dict[int, list]] = {}
            for j in range(0, min(top, m) + 1):
                for cell in self.module_basis(j, m):
                    mu = self.mdeg_cell(*cell)
                    blocks.setdefault(mu, {}).setdefault(j, []).append(cell)
            for mu, posmap in sorted(blocks.items()):
                dims = {j: len(cells) for j, cells in posmap.items()}
                ranks = {}
                for j in sorted(posmap):
                    if j == 0:
                        continue
                    tgt_index = {
                        cell: i for i, cell in enumerate(posmap.get(j - 1, []))
                    }
                    rows = (
                        {tgt_index[c]: x for c, x in self.boundary(*cell).items()}
                        for cell in posmap[j]
                    )
                    ranks[j] = Echelon.of(field, rows).rank
                max_j = max(posmap)
                for j in sorted(posmap):
                    d_j = dims.get(j, 0)
                    r_j = ranks.get(j, 0)
                    r_j1 = ranks.get(j + 1, 0)
                    if j == 0:
                        if m == 0:
                            ok = d_j == 1 and r_j1 == 0
                        else:
                            ok = r_j1 == d_j  # augmentation kernel is everything
                    else:
                        ok = r_j + r_j1 == d_j
                    if not ok:
                        report.failures.append((m, j, mu, dims, ranks))
        return report

    def euler_identity(self, N: int) -> bool:
        """Hilb(U(L_Gamma)) . sum_w (-t)^{|w|} = 1, exactly to degree N."""
        H = self.algebra.enveloping_series(N)
        product = H * self.graph.clique_polynomial(N)
        return product == HilbertSeries.one(N)


class ResolutionReport:
    def __init__(self, graph, N):
        self.graph = graph
        self.N = N
        self.failures: list = []
        self.euler_ok: Optional[bool] = None

    @property
    def ok(self) -> bool:
        return not self.failures and self.euler_ok is not False

    def __repr__(self):
        state = "exact" if not self.failures else f"failures={self.failures[:3]}"
        return f"<ResolutionReport {state} to weight {self.N}>"


def minimal_resolution(graph: SimpleGraph, field: Field = QQ) -> RaagResolution:
    return RaagResolution(graph, field)


def verify_resolution(graph: SimpleGraph, N: int, field: Field = QQ) -> ResolutionReport:
    """Exactness at every position and weight <= N, plus the
    clique-polynomial/Hilbert identity to weight N."""
    res = RaagResolution(graph, field)
    report = res.verify_exactness(N)
    report.euler_ok = res.euler_identity(N)
    return report


# ----------------------------------------------------------------------
# coherence verdict (Theorem D application)


class CoherenceVerdict:
    def __init__(self, graph, coherent: bool, certificate, witness):
        self.graph = graph
        self.coherent = coherent
        self.certificate = certificate  # peo or induced cycle
        self.witness = witness          # decomposition tree or None

    def as_dict(self) -> dict:
        out = {
            "coherent": self.coherent,
            "criterion": "chordal" if self.coherent else "induced cycle >= 4",
        }
        if self.coherent:
            out["peo"] = list(self.certificate)
            out["decomposition"] = self.witness
        else:
            out["cycle"] = list(self.certificate)
        return out

    def __repr__(self):
        kind = "coherent" if self.coherent else "not coherent"
        return f"<CoherenceVerdict {kind}>"


def _decomposition_tree(graph: SimpleGraph, peo: list) -> dict:
    """Recursive split Gamma = Gamma1 union Gamma2 over a complete
    Gamma1 cap Gamma2, following simplicial vertices of the PEO."""
    if graph.is_complete():
        return {"complete": list(graph.vertices)}
    v = next(u for u in peo if u in graph.vertices)
    closed = [v] + graph.neighbors(v)
    g1 = graph.subgraph(closed)
    if not g1.is_complete():
        raise AssertionError("simplicial neighborhood is not complete")
    rest = [u for u in graph.vertices if u != v]
    g2 = graph.subgraph(rest)
    sub_peo = [u for u in peo if u in set(rest)]
    return {
        "separator": closed[1:],
        "side": list(g1.vertices),
        "rest": _decomposition_tree(g2, sub_peo),
    }


def coherence_verdict(graph: SimpleGraph) -> CoherenceVerdict:
    """Chordal graphs get 'coherent' with a recursive decomposition over
    complete separators as witness; non-chordal graphs get 'not coherent'
    with the induced cycle.  This applies the graph criterion; ring
    coherence itself is not decided computationally."""
    res = is_chordal(graph)
    if res.chordal:
        tree = _decomposition_tree(graph, res.peo)
        return CoherenceVerdict(graph, True, res.peo, tree)
    return CoherenceVerdict(graph, False, res.cycle, None)

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

and augmentation in degree 0.  U(L) = T(V)/(uv - vu : {u,v} an edge) is
the monoid algebra of the trace monoid M(Gamma), whose traces are a basis
(Cartier & Foata, LNM 85, 1969; Duchamp & Krob, Adv. Math. 95, 1992).  So
chains are indexed by (clique, trace), and d(c_w (x) t) = sum_r (-1)^(r-1)
c_{w \\ {v_r}} (x) v_r t has entries +-1 and no bracket to straighten; its
ranks are those of the same maps written in a PBW basis.  A trace is
its lexicographically least word of vertex indices (Anisimov & Knuth, Int.
J. Comput. Inform. Sci. 8, 1979), which starts with the least letter of
Min(t), the letters of t that can be moved to the front; so normal forms
are decided one letter at a time (Cartier & Foata 1969), and the traces
are integer tables, with no word ever normalised.  With C(a) the
neighbours of a and T_k the sorted traces of weight k:

- (a,) + t, t in T_{k-1}, is a normal form iff Min(t) & C(a) has no letter
  below a, and then Min((a,) + t) = {a} | (Min(t) & C(a)).  Running over
  a, then over T_{k-1} in order, lists T_k already sorted.
- left_k[a][i], the position of NF(a t_i) in T_k, is that of (a,) + t_i
  when it is a normal form.  Otherwise NF(a t) = (m,) + NF(a (t minus m)),
  m the least letter of Min(t) & C(a) below a, where t minus m is t with
  its first m removed.
- drop_k[m][i], the position of t_i minus m in T_{k-1} for m in Min(t_i),
  is j when t_i = (m,) + s_j, and left_{k-1}[w_1][drop_{k-1}[m][j]] when
  t_i = (w_1,) + s_j with w_1 != m.

The chains of P_j in weight m are (clique w, trace t) in that order, so
the row of d_j at (w, t_i) has entry (-1)^r (r 0-based) at column
pos(w minus v_r) |T_{m-j+1}| + left[v_r][i].  Entry for entry and in the
same order, these are the rows that normalising each word v_r t gives
(the word-level normal form is the test oracle), so the ranks do not
depend on how the normal forms are found.

Exactness is certified weight by weight from the rows themselves, with no
elimination.  Write r_j for the rank of d_j in weight m and L_j for the
number of distinct lowest columns (least column of the support) among the
rows of d_j.  One row per distinct lowest column is already in echelon
form, so r_j >= L_j.  Composing each row of d_j with d_{j-1} (j >= 2)
checks d o d = 0, and im d_j in ker d_{j-1} gives r_{j-1} + r_j <=
dim P_{j-1}.  Suppose L_1 = dim P_0 (weight m > 0) and L_j + L_{j+1} =
dim P_j at every position j >= 1, with L_j = 0 past the top position.
Then r_1 = L_1, as r_1 <= dim P_0; and r_j = L_j gives
r_{j+1} <= dim P_j - L_j = L_{j+1} <= r_{j+1}, so by induction every
r_j = L_j and the weight is exact.  This is the leading-term idea of
algebraic Morse theory (Sköldberg, Trans. AMS 358, 2006; Jöllenbeck &
Welker, Mem. AMS 197, 2009), read off the +-1 rows of the resolution.
Only a weight where d o d = 0 fails or the equalities do not close is
eliminated, one d_j at a time, so the reported ranks and failures are the
ranks of the d_j either way.  That elimination is not split by
multidegree: the relators are multihomogeneous, d preserves the
multidegree (content in each vertex), and rows of different multidegree
have disjoint supports, so sparse elimination never mixes the blocks and
splitting them would not make it cheaper.

Graph file format, where # starts a comment and blank lines are allowed::

    vertices a b c d
    edge a b
    edge b c
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .fields import QQ, Field, InputError, lines, load
from .linalg import Echelon
from .presented import PresentedLieAlgebra
from .series import HilbertSeries


class SimpleGraph:
    """Finite simple graph: ordered vertices, unordered edges, no loops."""

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertices")
        vset = set(self.vertices)
        self.edges = set()
        for e in edges:
            u, v = e
            if u == v:
                raise InputError(f"loop at {u!r} not allowed")
            if u not in vset or v not in vset:
                raise InputError(f"edge {e} references unknown vertex")
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


def parse_graph(text: str) -> SimpleGraph:
    """Parse the `vertices ...` / `edge a b` file format."""
    vertices = []
    edges = []
    for lineno, line in lines(text):
        parts = line.split()
        if parts[0] == "vertices":
            vertices.extend(parts[1:])
        elif parts[0] == "edge":
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected 'edge <u> <v>'")
            edges.append((parts[1], parts[2]))
        else:
            raise InputError(f"line {lineno}: unrecognized line {line!r}")
    if not vertices:
        raise InputError("no vertices declared")
    return SimpleGraph(vertices, edges)


def load_graph(path) -> SimpleGraph:
    return load(path, parse_graph)


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


def find_induced_cycle(graph: SimpleGraph) -> Optional[list]:
    """A chordless cycle with >= 4 vertices, by subset search."""
    n = len(graph.vertices)
    for size in range(4, n + 1):
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


def is_chordal(graph: SimpleGraph) -> dict:
    """Chordality with a validated certificate either way.

    {"chordal": True, "peo": a perfect elimination ordering} (lex-BFS
    order reversed, re-validated directly), or {"chordal": False,
    "induced_cycle": an induced cycle of length >= 4} (re-validated to be
    chordless).
    """
    order = list(reversed(lex_bfs(graph)))
    if validate_peo(graph, order) is None:
        return {"chordal": True, "peo": order}
    cycle = find_induced_cycle(graph)
    if cycle is None:
        raise AssertionError("lex-BFS says not chordal but no induced cycle found")
    # re-validate the counter-certificate
    sub = graph.subgraph(cycle)
    assert len(sub.edges) == len(cycle) and all(
        len(sub.neighbors(v)) == 2 for v in cycle
    )
    return {"chordal": False, "induced_cycle": cycle}


# ----------------------------------------------------------------------
# the minimal free resolution


class RaagResolution:
    """The complex P_j = (+)_{|w| = j} c_w U(L_Gamma), per weight, with
    chains indexed (clique, trace) and the traces of each weight held as
    integer tables (see the module docstring).  Exactness is certified by
    lowest columns and d o d = 0 per weight, and eliminated only where that
    certificate does not close."""

    def __init__(self, graph: SimpleGraph, field: Field = QQ):
        self.graph = graph
        self.field = field
        self.algebra = raag_presentation(graph, field)
        self.cliques = graph.cliques()
        self.by_size: dict[int, list] = {}
        for w in self.cliques:
            self.by_size.setdefault(len(w), []).append(w)
        vs = graph.vertices
        self.letters = {v: a for a, v in enumerate(vs)}
        # C(a), the neighbours of a, and the part of C(a) below a, as bitmasks
        self._commute = [sum(1 << b for b, u in enumerate(vs) if graph.has_edge(u, v)) for v in vs]
        self._before = [c & ((1 << a) - 1) for a, c in enumerate(self._commute)]
        # per weight k, from T_0 = [()]: T_k as its first letters, the
        # positions of its tails in T_{k-1} and its Min masks; _left[k][a]
        # maps T_{k-1} into T_k, _drop[k][m] maps T_k into T_{k-1} (built
        # with weight k + 1)
        self._heads: list = [[None]]
        self._tails: list = [[None]]
        self._mins: list = [[0]]
        self._left: list = [None]
        self._drop: list = [None]

    def max_position(self) -> int:
        return max(self.by_size)

    def _drops(self, k: int) -> list:
        """drop_k[m][i]: the position in T_{k-1} of t_i with its first m
        removed, for each m in Min(t_i).  With t_i = (a,) + s_j that is j
        for m = a, and the position of NF(a . (s_j minus m)) otherwise."""
        up, down = self._left[k - 1], self._drop[k - 1]
        drop = [[None] * len(self._mins[k]) for _ in self._commute]
        for i, (a, j, mask) in enumerate(zip(self._heads[k], self._tails[k], self._mins[k])):
            while mask:
                low = mask & -mask
                mask ^= low
                m = low.bit_length() - 1
                drop[m][i] = j if m == a else up[a][down[m][j]]
        return drop

    def _extend_to(self, k: int):
        """Build the tables of every weight up to k."""
        commute, before = self._commute, self._before
        while len(self._mins) <= k:
            w = len(self._mins)
            if w >= 2:
                self._drop.append(self._drops(w - 1))
            prev, up, drop = self._mins[w - 1], self._left[w - 1], self._drop[w - 1]
            heads, tails, mins, left = [], [], [], []
            for a, (c, b) in enumerate(zip(commute, before)):
                row = []
                for i, mask in enumerate(prev):
                    low = mask & b
                    if low:  # NF(a t_i) = (m,) + NF(a (t_i minus m)), m the least of low
                        m = (low & -low).bit_length() - 1
                        row.append(left[m][up[a][drop[m][i]]])
                    else:  # (a,) + t_i is a normal form
                        row.append(len(heads))
                        heads.append(a)
                        tails.append(i)
                        mins.append(1 << a | mask & c)
                left.append(row)
            self._heads.append(heads)
            self._tails.append(tails)
            self._mins.append(mins)
            self._left.append(left)

    def trace_count(self, k: int) -> int:
        """|T_k|, the number of traces of weight k."""
        self._extend_to(k)
        return len(self._mins[k])

    def left(self, k: int) -> list:
        """left_k: left[a][i] is the position in T_k of NF(a . t_i), t_i in T_{k-1}."""
        self._extend_to(k)
        return self._left[k]

    def boundary_rows(self, j: int, m: int):
        """The rows of d_j from the weight-m part of P_j (an iterator), one
        per cell (w, t) with w in by_size[j] order, then t in T_{m-j} order.

        d(c_w (x) t_i) = sum_r (-1)^r c_{w minus v_r} (x) NF(v_r t_i), r
        0-based: the row of cell (w, t_i) has entry (-1)^r at column
        pos(w minus v_r) |T_{k+1}| + left_{k+1}[v_r][i], k = m - j.
        """
        k = m - j
        left, width = self.left(k + 1), self.trace_count(k + 1)
        pos = {w: p for p, w in enumerate(self.by_size[j - 1])}
        one = self.field.one
        signs = (one, self.field.neg(one))
        for w in self.by_size[j]:
            terms = [
                (pos[w[:r] + w[r + 1:]] * width, left[self.letters[v]], signs[r % 2])
                for r, v in enumerate(w)
            ]
            for i in range(len(terms[0][1])):
                yield {off + to[i]: s for off, to, s in terms}

    def _certified_ranks(self, m: int, dims: list) -> Optional[list]:
        """[r_1, ..., r_top] of weight m, dims[j] = dim P_j, when the
        lowest-column certificate closes (see :meth:`verify_exactness`),
        else None.  Each d_j is read once, as it streams; the rows of d_{j-1}
        are kept, as item tuples, only to compose d_{j-1} d_j."""
        of = self.field.of
        top = len(dims) - 1
        counts, lower = [], None
        for j in range(1, top + 1):
            lows, rows = bytearray(dims[j - 1]), []
            for row in self.boundary_rows(j, m):
                if lower is not None:  # d_{j-1} d_j = 0 on this row
                    out = {}
                    for c, x in row.items():
                        for e, y in lower[c]:
                            out[e] = out.get(e, 0) + x * y
                    # exact sums of representatives, mapped into the field
                    if any(map(of, out.values())):
                        return None
                if row:
                    lows[min(row)] = 1
                if j < top:
                    rows.append(tuple(row.items()))
            counts.append(lows.count(1))
            lower = rows
        # in weight 0 there is no d_j, and bounds[0] = 0 < dim P_0 = 1
        bounds = [0] + counts + [0]
        if all(bounds[j] + bounds[j + 1] == d for j, d in enumerate(dims)):
            return counts
        return None

    def verify_exactness(self, N: int) -> tuple[list, list]:
        """Check exactness at every position, weights <= N.

        For each weight m and position j >= 1, r_j is the rank of d_j from
        the weight-m part of P_j to that of P_{j-1}.  Exactness at j >= 1 is
        r_j + r_{j+1} = dim P_j; at j = 0 the augmentation kernel is all of
        P_0 in weight m > 0 (so r_1 = dim P_0) and is 0 in weight 0.

        The ranks of weight m come from the certificate of the module
        docstring when it closes: L_j, the number of distinct lowest columns
        among the rows of d_j, is a lower bound for r_j; d_{j-1} d_j = 0 on
        every row of d_j bounds r_{j-1} + r_j <= dim P_{j-1}; and L_1 =
        dim P_0 with L_j + L_{j+1} = dim P_j at every position forces r_j =
        L_j by induction on j.  Where d o d = 0 fails or an equality does
        not hold, each d_j of that weight is eliminated as its rows stream
        in, so the result is the same either way.  It is (failures, ranks):
        a failure is (weight, position, dim P_j, r_j, r_{j+1}), and ranks
        holds every weight's (dim P_j, r_j) pairs, j = 0, ... (d_0 = 0: the
        augmentation is not one of the d_j).
        """
        failures, weights = [], []
        field = self.field
        top = self.max_position()

        def rank(rows) -> int:
            # rows added as they stream in, not as one shortest-first batch
            # (Echelon.extend): a sort would hold all of d_j in memory at
            # once, and on these +-1 rows it saves no row operation
            ech = Echelon(field)
            for row in rows:
                ech.add(row)
            return ech.rank

        for m in range(N + 1):
            top_m = min(top, m)
            dims = [len(self.by_size[j]) * self.trace_count(m - j) for j in range(top_m + 1)]
            ranks = self._certified_ranks(m, dims)
            if ranks is None:
                ranks = [rank(self.boundary_rows(j, m)) for j in range(1, top_m + 1)]
            ranks = [0] + ranks + [0]
            weights.append([(dims[j], ranks[j]) for j in range(top_m + 1)])
            for j in range(top_m + 1):
                d_j, r_j, r_j1 = dims[j], ranks[j], ranks[j + 1]
                if j == 0 and m == 0:
                    ok = d_j == 1 and r_j1 == 0
                elif j == 0:
                    ok = r_j1 == d_j  # augmentation kernel is everything
                else:
                    ok = r_j + r_j1 == d_j
                if not ok:
                    failures.append((m, j, d_j, r_j, r_j1))
        return failures, weights

    def euler_identity(self, N: int) -> bool:
        """Hilb(U(L_Gamma)) . sum_w (-t)^{|w|} = 1, exactly to degree N."""
        H = self.algebra.enveloping_series(N)
        product = H * self.graph.clique_polynomial(N)
        return product == HilbertSeries.one(N)


def verify_resolution(graph: SimpleGraph, N: int, field: Field = QQ) -> dict:
    """The `raag resolve` data: exactness at every position and weight <= N
    ("exact", with the first ten "failures" as (weight, position, dim P_j)
    and every weight's "ranks"), the clique-polynomial/Hilbert identity to
    weight N ("euler_ok"), and "ok" for both."""
    res = RaagResolution(graph, field)
    failures, ranks = res.verify_exactness(N)
    euler_ok = res.euler_identity(N)
    return {"ok": not failures and euler_ok, "exact": not failures, "euler_ok": euler_ok,
            "failures": [f[:3] for f in failures[:10]], "ranks": ranks}


# ----------------------------------------------------------------------
# coherence verdict (Theorem D application)


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


def coherence_verdict(graph: SimpleGraph) -> dict:
    """Chordal graphs get 'coherent' with the perfect elimination ordering
    and a recursive decomposition over complete separators as witness;
    non-chordal graphs get 'not coherent' with the induced cycle.  This
    applies the graph criterion; ring coherence itself is not decided
    computationally."""
    res = is_chordal(graph)
    if res["chordal"]:
        return {"coherent": True, "criterion": "chordal", "peo": res["peo"],
                "decomposition": _decomposition_tree(graph, res["peo"])}
    return {"coherent": False, "criterion": "induced cycle >= 4", "cycle": res["induced_cycle"]}

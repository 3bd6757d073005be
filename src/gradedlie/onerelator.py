"""One-relator graded Lie algebras as iterated HNN extensions.

`decompose` peels stable letters off a one-relator presentation
L = <X | r>: at each step the smallest Hall element h of the current
finite generating family Y becomes the stable letter, the family is
rebased to Y' = {[h,...,h,z] : z in Y \\ {h}, 0 <= j <= j} with the
exponent j chosen minimal so that r still lies in the free subalgebra
generated by Y', and the associated family Z keeps the exponents below j.
The process stops when r, re-expressed over the current family, has a
generator symbol as its leading Hall monomial; the resulting base and all
associated subalgebras are free, certified a posteriori by H_2 = 0
witnesses and by r not lying in F(Z) at any layer.

`rebuild` reconstructs the algebra layer by layer through HNN extensions.
`verify_tower` takes the base, the layer derivations and the rebuilt
algebra from that same walk and recomputes, independently: the dimension
sequence match with the original presentation, the freeness witnesses, the
Leibniz law of every layer derivation, and the minimality of each exponent.
"""

from __future__ import annotations

from typing import Optional

from .freelie import FreeLieAlgebra, LieElement, substitution
from .graphalg import GraphError, LieDerivation, hnn
from .linalg import ColumnSolver, Echelon
from .presented import (
    PresentationError,
    PresentedLieAlgebra,
    add_brackets,
    infer_presentation,
)


class DecompositionError(ValueError):
    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class TowerLayer:
    """One HNN layer: stable letter h, family Y, associated family Z ⊂ Y,
    and the minimal exponent j used to rebase the relator."""

    def __init__(self, h: int, weight: int, Y: list[int], Z: list[int], j: int):
        self.h = h
        self.weight = weight
        self.Y = Y
        self.Z = Z
        self.j = j


class HNNTower:
    """Iterated HNN decomposition of a one-relator presented algebra.

    Layers are ordered as extracted (layers[0] carries the first, smallest
    stable letter); rebuilding applies them base-outward.
    """

    def __init__(self, original: PresentedLieAlgebra, layers: list[TowerLayer],
                 base_family: list[int], relator: LieElement):
        self.original = original
        self.layers = layers
        self.base_family = base_family
        self.relator = relator

    @property
    def depth(self) -> int:
        return len(self.layers)

    def monomial_str(self, mid: int) -> str:
        return self.original.free.monomial_str(mid)

    def describe(self) -> dict:
        free = self.original.free
        return {
            "depth": self.depth,
            "layers": [
                {
                    "stable_letter": free.monomial_str(l.h),
                    "weight": l.weight,
                    "j": l.j,
                    "family": [free.monomial_str(m) for m in l.Y],
                    "associated": [free.monomial_str(m) for m in l.Z],
                }
                for l in self.layers
            ],
            "base_family": [free.monomial_str(m) for m in self.base_family],
        }


# ----------------------------------------------------------------------
# spans of free subalgebras generated by Hall monomials


def _free_subalgebra_spans(free: FreeLieAlgebra, elements: list[LieElement], N: int) -> dict:
    """Per-weight echelons of the subalgebra of F generated by elements."""
    gens = [(e.weight(), e) for e in elements if e.weight() is not None]
    spans: dict[int, Echelon] = {}
    for m in range(1, N + 1):
        seeds = Echelon.of(free.field, [free.coordinates(e, m) for w, e in gens if w == m])
        spans[m] = add_brackets(
            seeds, lambda k: spans[k].basis(), gens, m, free.bracket_coordinates
        )
    return spans


def freiheitssatz_check(P: PresentedLieAlgebra, r: LieElement, Z: list) -> bool:
    """True iff r is outside the subalgebra of F generated by Z (truncated
    at r's weight).  Z entries are monomial ids or free-algebra elements."""
    free = P.free
    w = r.weight()
    if w is None:
        raise PresentationError("relator must be homogeneous")
    elems = [
        free.monomial_element(z) if isinstance(z, int) else z for z in Z
    ]
    spans = _free_subalgebra_spans(free, elems, w)
    return not spans[w].contains(free.coordinates(r, w))


def _express_over(free: FreeLieAlgebra, family: list[int], r: LieElement):
    """Re-express r over the free subalgebra generated by the Hall monomials
    in `family`; returns (abstract algebra, abstract element) or None.

    The abstract free algebra has one symbol w<id> per family monomial,
    with the monomial's weight.
    """
    w = r.weight()
    gens = [(f"w{m}", free.weight(m)) for m in family]
    abstract = FreeLieAlgebra(free.field, gens)
    basis = abstract.hall_basis(w)
    if not basis:
        return None
    image = substitution(abstract, free, {f"w{m}": free.monomial_element(m) for m in family})
    columns = [free.coordinates(image(abstract.monomial_element(mid)), w) for mid in basis]
    solver = ColumnSolver(free.field, columns)
    sol = solver.solve(free.coordinates(r, w))
    if sol is None:
        return None
    terms = {basis[i]: c for i, c in sol.items()}
    return abstract, abstract.from_terms(terms)


def _iterate_bracket(free: FreeLieAlgebra, h: int, z: int, j: int) -> int:
    """The Hall monomial [h, ..., h, z] with j copies of h (right-normed)."""
    out = z
    for _ in range(j):
        out = free.hall_pair(h, out)
    return out


def decompose(P: PresentedLieAlgebra, N: int = 10, cap: int = 200) -> HNNTower:
    """Theorem-B decomposition of a one-relator graded presentation.

    Peels stable letters until the re-expressed relator's leading Hall
    monomial is a generator symbol of the current family; each exponent
    j is chosen minimal.  `cap` bounds the number of layers (exceeded caps
    abort with the last state attached).
    """
    if len(P.relators) != 1:
        raise DecompositionError("decompose requires exactly one relator")
    free = P.free
    r = P.relators[0]
    w = r.weight()
    family = [free.gen_monomial(g.name) for g in P.generators]
    family.sort(key=free.key)
    layers: list[TowerLayer] = []

    for _step in range(cap):
        expressed = _express_over(free, family, r)
        if expressed is None:
            raise DecompositionError(
                "relator left the current family (internal error)",
                state=(family, layers),
            )
        abstract, r_hat = expressed
        lead = max(r_hat.terms, key=abstract.key)
        if abstract.is_generator(lead):
            return HNNTower(P, layers, family, r)
        h = min(family, key=free.key)
        rest = [z for z in family if z != h]
        j = None
        jmax = w // free.weight(h) + 1
        for try_j in range(jmax + 1):
            new_family = []
            for z in rest:
                for jj in range(try_j + 1):
                    new_family.append(_iterate_bracket(free, h, z, jj))
            spans = _free_subalgebra_spans(
                free,
                [free.monomial_element(m) for m in new_family if free.weight(m) <= w],
                w,
            )
            if spans[w].contains(free.coordinates(r, w)):
                j = try_j
                family = sorted(new_family, key=free.key)
                break
        if j is None:
            raise DecompositionError(
                f"relator not expressible over the rebased family "
                f"(weight cap {jmax})",
                state=(family, layers),
            )
        Z = []
        for z in rest:
            for jj in range(j):
                Z.append(_iterate_bracket(free, h, z, jj))
        layers.append(TowerLayer(h, free.weight(h), list(family), sorted(Z, key=free.key), j))
    raise DecompositionError(f"cap {cap} exceeded before stabilization", state=(family, layers))


class TowerReport:
    def __init__(self):
        self.rebuilt_dims: Optional[list[int]] = None
        self.original_dims: Optional[list[int]] = None
        self.dims_match: Optional[bool] = None
        self.base_free: Optional[bool] = None
        self.layer_reports: list[dict] = []
        self.errors: list[str] = []

    @property
    def ok(self) -> bool:
        if self.errors or not self.dims_match or not self.base_free:
            return False
        return all(
            lr["associated_free"] and lr["freiheitssatz"] and lr["leibniz"]
            and lr["j_minimal"]
            for lr in self.layer_reports
        )


def _walk(tower: HNNTower) -> tuple[PresentedLieAlgebra, list, PresentedLieAlgebra]:
    """Reassemble the algebra from the tower, innermost base outward.

    Layer i contributes an HNN extension with stable letter h_i and the
    derivation z |-> [h_i, z] on the associated family.  Returns the base
    presentation, one (layer, derivation) pair per layer in that order (the
    derivation lives on the algebra the layer extends), and the last
    extension.
    """
    free = tower.original.free
    expressed = _express_over(free, tower.base_family, tower.relator)
    if expressed is None:
        raise DecompositionError("base family does not express the relator")
    abstract, r_hat = expressed
    base = PresentedLieAlgebra(
        tower.original.field,
        [(g.name, g.weight) for g in abstract.gens],
        [r_hat],
        name="tower base",
        free=abstract,
    )
    steps = []
    current = base
    for layer in reversed(tower.layers):
        # the derivation sends [h,^j,z] to [h,^{j+1},z]; all of these are
        # generator symbols of the current presentation
        domain = [current.free.gen_element(f"w{z}") for z in layer.Z]
        values = [
            current.free.gen_element(f"w{free.hall_pair(layer.h, z)}") for z in layer.Z
        ]
        der = LieDerivation(current, domain, values, shift=layer.weight)
        steps.append((layer, der))
        current = hnn(current, der, f"w{layer.h}", layer.weight, name="tower layer")
    return base, steps, current


def rebuild(tower: HNNTower) -> PresentedLieAlgebra:
    """The algebra reassembled from the tower (the last HNN extension)."""
    return _walk(tower)[2]


def verify_tower(tower: HNNTower, P: PresentedLieAlgebra, N: int) -> TowerReport:
    """Independent recomputation of the tower's claims.

    (a) rebuild through graph-algebra HNN extensions; (b) dimension
    sequence equality with P up to N; (c) freeness witnesses (H_2 = 0) for
    the base and all associated subalgebras, plus the Freiheitssatz
    condition r not in F(Z); (d) Leibniz validity of every layer
    derivation; and minimality of every exponent.  Each layer report gives
    in `associated_checked_to` the weight to which the associated
    subalgebra's presentation was inferred (None for an empty family, whose
    subalgebra is 0).
    """
    report = TowerReport()
    free = tower.original.free
    r = tower.relator
    w = r.weight()

    try:
        base, steps, rebuilt = _walk(tower)
    except (GraphError, DecompositionError) as exc:
        report.errors.append(str(exc))
        return report
    report.rebuilt_dims = rebuilt.dim_sequence(N)
    report.original_dims = P.dim_sequence(N)
    report.dims_match = report.rebuilt_dims == report.original_dims
    report.base_free = base.is_free_up_to(N) == "free-witnessed"

    for layer, der in steps:
        leibniz_ok = True
        try:
            der.validate_leibniz(min(N, 2 * w))
        except GraphError:
            leibniz_ok = False
        # associated subalgebra: free witness via its inferred presentation,
        # certified up to checked_to (the zero subalgebra is free outright)
        checked_to = None
        associated_free = True
        if layer.Z:
            checked_to = max(max(free.weight(z) for z in layer.Z) + 2, 4)
            inf = infer_presentation(der.domain, checked_to, strict_boundary=False)
            associated_free = not inf.presentation.relators
        frei = freiheitssatz_check(tower.original, r, layer.Z)
        j_minimal = True
        if layer.j > 0:
            h = layer.h
            # shrink the family by one exponent and retest expressibility
            shrunk = [
                y for y in layer.Y if _h_exponent(free, h, y) <= layer.j - 1
            ]
            spans = _free_subalgebra_spans(
                free,
                [free.monomial_element(m) for m in shrunk if free.weight(m) <= w],
                w,
            )
            j_minimal = not spans[w].contains(free.coordinates(r, w))
        report.layer_reports.append(
            {
                "stable_letter": free.monomial_str(layer.h),
                "leibniz": leibniz_ok,
                "associated_free": associated_free,
                "associated_checked_to": None if checked_to is None else str(checked_to),
                "freiheitssatz": frei,
                "j_minimal": j_minimal,
            }
        )
    return report


def _h_exponent(free: FreeLieAlgebra, h: int, y: int) -> int:
    """Number of leading h-factors in the right-normed chain of y."""
    count = 0
    cur = y
    while not free.is_generator(cur):
        l, r = free.factors(cur)
        if l != h:
            break
        count += 1
        cur = r
    return count

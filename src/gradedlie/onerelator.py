"""One-relator graded Lie algebras as iterated HNN extensions.

`decompose` peels stable letters off a one-relator presentation
L = <X | r>: at each step the smallest Hall element h of the current
finite generating family Y becomes the stable letter, the family is
rebased to Y' = {[h,...,h,z] : z in Y \\ {h}, 0 <= j <= j} with the
exponent j chosen minimal so that r still lies in the subalgebra of F
generated by Y', and the associated family Z keeps the exponents below j.
The process stops when r, re-expressed over the current family, has a
generator symbol as its leading Hall monomial; the resulting base and all
associated subalgebras are free, certified a posteriori by H_2 = 0
witnesses and by r not lying in F(Z) at any layer.

Every membership question (the search for j, its minimality, and the
Freiheitssatz r not in F(Z)) is one call of `_express_over`: one solve of
r against the images in F of the weight-w(r) Hall basis of the free Lie
algebra on the family.  The subalgebra a family generates is the image of
the free Lie algebra on it (Reutenauer, Free Lie Algebras, 1993), so those
images span its weight-w(r) part and the solve decides membership whether
or not the family is free.

`rebuild` reconstructs the algebra layer by layer through HNN extensions.
`verify_tower` returns the report of `onerelator decompose`: the tower
itself, and from the base, the layer derivations and the rebuilt algebra
of that same walk an independent recomputation of the dimension sequence
match with the original presentation, the freeness witnesses, the Leibniz
law of every layer derivation and the minimality of each exponent, with
the verdict "ok" for them all.
"""

from __future__ import annotations

from .fields import InputError
from .freelie import FreeLieAlgebra, LieElement, substitution
from .graphalg import GraphError, LieDerivation, hnn
from .linalg import ColumnSolver
from .presented import PresentedLieAlgebra, infer_presentation


class DecompositionError(InputError):
    pass


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


# ----------------------------------------------------------------------
# membership in subalgebras generated by Hall monomials


def freiheitssatz_check(P: PresentedLieAlgebra, r: LieElement, Z: list[int]) -> bool:
    """True iff r is outside the subalgebra of F generated by the Hall
    monomials Z (checked in r's weight, so r must be homogeneous)."""
    return _express_over(P.free, Z, r) is None


def _express_over(free: FreeLieAlgebra, family: list[int], r: LieElement):
    """Re-express r over the subalgebra of F generated by the Hall monomials
    in `family`; returns (abstract algebra, abstract element) or None.

    The abstract free algebra has one symbol w<id> per family monomial,
    with the monomial's weight.  The solver's columns, the images of its
    weight-w Hall basis, span the weight-w part of that subalgebra whether
    or not the family is free, so None means r is not in it.
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


LAYER_CAP = 200


def decompose(P: PresentedLieAlgebra) -> HNNTower:
    """Theorem-B decomposition of a one-relator graded presentation.

    Peels stable letters until the re-expressed relator's leading Hall
    monomial is a generator symbol of the current family; each exponent
    j is chosen minimal.  LAYER_CAP bounds the number of steps.
    """
    if len(P.relators) != 1:
        raise DecompositionError("decompose requires exactly one relator")
    free = P.free
    r = P.relators[0]
    w = r.weight()
    family = [free.gen_monomial(g.name) for g in P.generators]
    family.sort(key=free.key)
    layers: list[TowerLayer] = []
    expressed = _express_over(free, family, r)
    if expressed is None:
        raise DecompositionError("relator not expressible over the generators (internal error)")

    for _step in range(LAYER_CAP):
        # r over the current family: solved above, or by the last j-search
        abstract, r_hat = expressed
        lead = max(r_hat.terms, key=abstract.key)
        if abstract.is_generator(lead):
            return HNNTower(P, layers, family, r)
        h = min(family, key=free.key)
        rest = [z for z in family if z != h]
        jmax = w // free.weight(h) + 1
        for j in range(jmax + 1):
            new_family = sorted(
                (_iterate_bracket(free, h, z, jj) for z in rest for jj in range(j + 1)),
                key=free.key,
            )
            expressed = _express_over(free, new_family, r)
            if expressed is not None:
                break
        else:
            raise DecompositionError(
                f"relator not expressible over the rebased family "
                f"(weight cap {jmax})"
            )
        family = new_family
        Z = sorted((_iterate_bracket(free, h, z, jj) for z in rest for jj in range(j)), key=free.key)
        layers.append(TowerLayer(h, free.weight(h), list(family), Z, j))
    raise DecompositionError(f"cap {LAYER_CAP} exceeded before stabilization")


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
        current = hnn(der, f"w{layer.h}", name="tower layer")
    return base, steps, current


def rebuild(tower: HNNTower) -> PresentedLieAlgebra:
    """The algebra reassembled from the tower (the last HNN extension)."""
    return _walk(tower)[2]


def verify_tower(tower: HNNTower, N: int) -> dict:
    """The `onerelator decompose` data: the tower and an independent
    recomputation of its claims.

    (a) rebuild through graph-algebra HNN extensions; (b) dimension
    sequence equality with the original presentation up to N
    ("rebuilt_dims", "original_dims", "dims_match"); (c) freeness
    witnesses (H_2 = 0) for the base ("base_free") and, per layer, the
    associated subalgebra, plus the Freiheitssatz condition r not in F(Z);
    (d) Leibniz validity of every layer derivation; and minimality of
    every exponent.  "layers" holds one dict of (c), (d) and minimality per
    layer, base outward, whose "associated_checked_to" is the weight to
    which the associated subalgebra's presentation was inferred (None for
    an empty family, whose subalgebra is 0).  "ok" holds when every check
    holds.  If the rebuild fails, every value it would give is None,
    "layers" is empty and "ok" is False.
    """
    P, r = tower.original, tower.relator
    free, w = P.free, r.weight()
    report = {
        "tower": {
            "depth": tower.depth,
            "layers": [{"stable_letter": free.monomial_str(l.h), "weight": l.weight, "j": l.j,
                        "family": [free.monomial_str(m) for m in l.Y],
                        "associated": [free.monomial_str(m) for m in l.Z]}
                       for l in tower.layers],
            "base_family": [free.monomial_str(m) for m in tower.base_family],
        },
        "rebuilt_dims": None, "original_dims": None, "dims_match": None, "base_free": None,
        "layers": [], "ok": False,
    }
    try:
        base, steps, rebuilt = _walk(tower)
    except (GraphError, DecompositionError):
        return report
    report["rebuilt_dims"] = rebuilt.dim_sequence(N)
    report["original_dims"] = P.dim_sequence(N)
    report["dims_match"] = report["rebuilt_dims"] == report["original_dims"]
    # checked past the relator weight, so the verdict is never inconclusive
    report["base_free"] = base.is_free_up_to(max(N, w))["verdict"] == "free-witnessed"

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
            associated_free = not infer_presentation(der.domain, checked_to)[0].relators
        frei = freiheitssatz_check(P, r, layer.Z)
        # one exponent less must lose r: shrink the family and retest
        shrunk = [y for y in layer.Y if _h_exponent(free, layer.h, y) < layer.j]
        j_minimal = layer.j == 0 or _express_over(free, shrunk, r) is None
        report["layers"].append(
            {
                "stable_letter": free.monomial_str(layer.h),
                "leibniz": leibniz_ok,
                "associated_free": associated_free,
                "associated_checked_to": checked_to,
                "freiheitssatz": frei,
                "j_minimal": j_minimal,
            }
        )
    report["ok"] = report["dims_match"] and report["base_free"] and all(
        lr["associated_free"] and lr["freiheitssatz"] and lr["leibniz"] and lr["j_minimal"]
        for lr in report["layers"]
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

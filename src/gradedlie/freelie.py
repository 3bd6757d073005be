"""Free Lie algebras on weighted generators with Hall monomial bases.

The basis is a weighted Hall set: a totally ordered family of bracket
monomials where the order refines weight (lighter monomials first),
generators precede composite monomials of the same weight (in declaration
order), and equal-weight composites compare by right factor, then left
factor.  ``[a,b]`` is a basis monomial iff ``a < b`` and the right factor is
either a generator or ``[c,d]`` with ``c <= a``.

Normal forms are computed by the classical Hall rewriting: swap by
antisymmetry when the left factor is not smaller, apply the derivation rule
``[a,[c,d]] = [[a,c],d] + [c,[a,d]]`` when the Hall condition fails.  The
rewriting table is memoized with integer coefficients (field-independent);
elements carry coefficients in the algebra's field.

Monomials are interned per algebra with stable integer ids.  The package
is single-threaded: queries fill the algebra's memos as they read (Hall
enumeration, the rewriting memo, newly interned monomials), so no query is
read-only.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .fields import Field, InputError


class Generator:
    """A named free generator of weight >= 1."""

    __slots__ = ("name", "weight")

    def __init__(self, name: str, weight: int):
        if weight < 1:
            raise InputError(f"generator {name!r} has weight {weight} < 1")
        self.name = name
        self.weight = weight


class FreeLieAlgebra:
    """Free Lie algebra on an ordered list of weighted generators."""

    def __init__(self, field: Field, generators: Iterable):
        self.field = field
        gens = []
        for g in generators:
            if isinstance(g, str):
                gens.append(Generator(g, 1))
            else:
                name, weight = g
                gens.append(Generator(name, int(weight)))
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate generator names in {names}")
        self.gens: list[Generator] = gens
        self.gen_index = {g.name: i for i, g in enumerate(gens)}

        # interned monomials: parallel arrays indexed by monomial id
        self._weight: list[int] = []
        self._left: list[int] = []   # -1 for generator leaves
        self._right: list[int] = []
        self._genidx: list[int] = []
        self._key: list[tuple] = []
        self._pair_id: dict[tuple[int, int], int] = {}
        self._gen_id: list[int] = []
        for i, g in enumerate(gens):
            mid = len(self._weight)
            self._weight.append(g.weight)
            self._left.append(-1)
            self._right.append(-1)
            self._genidx.append(i)
            self._key.append((g.weight, 0, i))
            self._gen_id.append(mid)

        self._hall_by_weight: dict[int, list[int]] = {}
        self._hall_pos: dict[int, dict[int, int]] = {}  # n -> {mid: position}
        self._enumerated = 0
        self._bracket_memo: dict[tuple[int, int], dict] = {}
        self._in_progress: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # monomial structure

    def weight(self, mid: int) -> int:
        return self._weight[mid]

    def is_generator(self, mid: int) -> bool:
        return self._left[mid] < 0

    def factors(self, mid: int) -> tuple[int, int]:
        if self._left[mid] < 0:
            raise ValueError("generator monomial has no factors")
        return self._left[mid], self._right[mid]

    def generator_of(self, mid: int) -> Generator:
        if self._left[mid] >= 0:
            raise ValueError("composite monomial is not a generator")
        return self.gens[self._genidx[mid]]

    def key(self, mid: int) -> tuple:
        return self._key[mid]

    def gen_monomial(self, name: str) -> int:
        return self._gen_id[self.gen_index[name]]

    def is_hall_pair(self, a: int, b: int) -> bool:
        if self._key[a] >= self._key[b]:
            return False
        if self._left[b] < 0:
            return True
        return self._key[self._left[b]] <= self._key[a]

    def hall_pair(self, a: int, b: int) -> int:
        """Intern the Hall monomial [a, b]; the pair must satisfy the Hall
        condition."""
        got = self._pair_id.get((a, b))
        if got is not None:
            return got
        if not self.is_hall_pair(a, b):
            raise ValueError(
                f"[{self.monomial_str(a)}, {self.monomial_str(b)}] violates the"
                " Hall condition"
            )
        mid = len(self._weight)
        w = self._weight[a] + self._weight[b]
        self._weight.append(w)
        self._left.append(a)
        self._right.append(b)
        self._genidx.append(-1)
        self._key.append((w, 1, self._key[b], self._key[a]))
        self._pair_id[(a, b)] = mid
        return mid

    def monomial_str(self, mid: int) -> str:
        if self._left[mid] < 0:
            return self.gens[self._genidx[mid]].name
        l, r = self._left[mid], self._right[mid]
        return f"[{self.monomial_str(l)},{self.monomial_str(r)}]"

    # ------------------------------------------------------------------
    # Hall basis enumeration

    def hall_basis(self, n: int) -> list[int]:
        """Basis monomials of weight n, in increasing Hall order."""
        self._enumerate_to(n)
        return self._hall_by_weight.get(n, [])

    def _enumerate_to(self, n: int):
        while self._enumerated < n:
            m = self._enumerated + 1
            found = [self._gen_id[i] for i, g in enumerate(self.gens) if g.weight == m]
            for wb in range(1, m):
                wa = m - wb
                for b in self._hall_by_weight.get(wb, []):
                    for a in self._hall_by_weight.get(wa, []):
                        if self.is_hall_pair(a, b):
                            found.append(self.hall_pair(a, b))
            found.sort(key=lambda mid: self._key[mid])
            self._hall_by_weight[m] = found
            self._enumerated = m

    def hall_counts(self, max_weight: int) -> list[int]:
        return [len(self.hall_basis(n)) for n in range(1, max_weight + 1)]

    # ------------------------------------------------------------------
    # bracket rewriting (integer coefficients, field-independent)

    def _ibracket(self, a: int, b: int) -> dict:
        """Integer-coefficient normal form of [a, b] for Hall monomials."""
        if a == b:
            return {}
        if self._key[a] > self._key[b]:
            return {m: -c for m, c in self._ibracket(b, a).items()}
        memo = self._bracket_memo.get((a, b))
        if memo is not None:
            return memo
        if self.is_hall_pair(a, b):
            out = {self.hall_pair(a, b): 1}
            self._bracket_memo[(a, b)] = out
            return out
        if (a, b) in self._in_progress:
            raise RuntimeError(
                "Hall rewriting cycle on "
                f"[{self.monomial_str(a)},{self.monomial_str(b)}]"
            )
        self._in_progress.add((a, b))
        # a < b, b = [c, d], a < c: [a,[c,d]] = [[a,c],d] + [c,[a,d]]
        c, d = self._left[b], self._right[b]
        out: dict = {}
        for m, coef in self._ibracket(a, c).items():
            for m2, coef2 in self._ibracket(m, d).items():
                out[m2] = out.get(m2, 0) + coef * coef2
        for m, coef in self._ibracket(a, d).items():
            for m2, coef2 in self._ibracket(c, m).items():
                out[m2] = out.get(m2, 0) + coef * coef2
        out = {m: v for m, v in out.items() if v}
        self._in_progress.discard((a, b))
        self._bracket_memo[(a, b)] = out
        return out

    # ------------------------------------------------------------------
    # elements

    def zero(self) -> "LieElement":
        return LieElement(self, {})

    def gen_element(self, name: str) -> "LieElement":
        if name not in self.gen_index:
            raise InputError(f"unknown generator {name!r}")
        return LieElement(self, {self.gen_monomial(name): self.field.one})

    def monomial_element(self, mid: int) -> "LieElement":
        return LieElement(self, {mid: self.field.one})

    def from_terms(self, terms: dict) -> "LieElement":
        field = self.field
        return LieElement(
            self, {m: v for m, v in terms.items() if not field.is_zero(v)}
        )

    def parse(self, text: str) -> "LieElement":
        return parse_expression(self, text)

    def coordinates(self, elem: "LieElement", n: int) -> dict:
        """Coordinates of the weight-n part over hall_basis(n) positions."""
        pos = self._hall_pos.get(n)
        if pos is None:
            pos = {mid: i for i, mid in enumerate(self.hall_basis(n))}
            self._hall_pos[n] = pos
        out = {}
        for mid, coef in elem.terms.items():
            if self._weight[mid] == n:
                out[pos[mid]] = coef
        return out

    def element_from_coordinates(self, coords: dict, n: int) -> "LieElement":
        basis = self.hall_basis(n)
        return self.from_terms({basis[i]: v for i, v in coords.items()})

    def bracket_coordinates(self, m: int, row: dict, w: int, elem: "LieElement") -> dict:
        """Coordinates of [row, elem] for weight-m coordinates row and a
        weight-w element."""
        return self.coordinates(self.element_from_coordinates(row, m).bracket(elem), m + w)


class LieElement:
    """Sparse exact-coefficient combination of Hall monomials."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FreeLieAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        weights = {self.algebra.weight(m) for m in self.terms}
        return len(weights) <= 1

    def weight(self) -> Optional[int]:
        """The common weight of all terms; None for 0 or inhomogeneous."""
        weights = {self.algebra.weight(m) for m in self.terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    def __add__(self, other: "LieElement") -> "LieElement":
        field = self.algebra.field
        out = dict(self.terms)
        field.axpy(out, field.one, other.terms)
        return LieElement(self.algebra, out)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-other)

    def __neg__(self) -> "LieElement":
        field = self.algebra.field
        return LieElement(self.algebra, {m: field.neg(v) for m, v in self.terms.items()})

    def scale(self, a) -> "LieElement":
        field = self.algebra.field
        if field.is_zero(a):
            return LieElement(self.algebra, {})
        return LieElement(self.algebra, {m: field.mul(a, v) for m, v in self.terms.items()})

    def bracket(self, other: "LieElement") -> "LieElement":
        alg = self.algebra
        field = alg.field
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                # the integer rewriting coefficients can vanish in F_p, and
                # axpy takes nonzero field entries only
                images = ((m, field.of(i)) for m, i in alg._ibracket(m1, m2).items())
                field.axpy(out, field.mul(c1, c2), {m: x for m, x in images if x})
        return LieElement(alg, out)

    def __eq__(self, other):
        return self.algebra is other.algebra and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        alg = self.algebra
        field = alg.field
        parts = []
        for m in sorted(self.terms, key=alg.key):
            c = self.terms[m]
            s = alg.monomial_str(m)
            cs = field.format(c)
            if cs == "1":
                parts.append(s)
            elif cs == "-1":
                parts.append(f"-{s}")
            else:
                parts.append(f"{cs}*{s}")
        return " + ".join(parts).replace("+ -", "- ")


def substitution(
    source: FreeLieAlgebra, target: FreeLieAlgebra, images: dict
) -> Callable[[LieElement], LieElement]:
    """The Lie map source -> target sending each generator name to its
    image in `images` (elements of target).

    The returned function applies the map to elements of source; the images
    of Hall monomials are memoised for as long as the function lives.
    Coefficients pass through target.field.of, which leaves them unchanged
    when both algebras share a field and reduces them otherwise (Q -> F_p).
    """
    field = target.field
    memo = {source.gen_monomial(name): img for name, img in images.items()}

    def mono(mid: int) -> LieElement:
        got = memo.get(mid)
        if got is None:
            l, r = source.factors(mid)
            got = memo[mid] = mono(l).bracket(mono(r))
        return got

    def apply(elem: LieElement) -> LieElement:
        out = target.zero()
        for mid, c in elem.terms.items():
            out = out + mono(mid).scale(field.of(c))
        return out

    return apply


# ----------------------------------------------------------------------
# Witt dimension formulas


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    mu, d, m = 1, 2, n
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            mu = -mu
        d += 1
    if m > 1:
        mu = -mu
    return mu


def witt_dims(weights: list[int], max_weight: int) -> list[int]:
    """Graded dimensions of the free Lie algebra on generators of the given
    weights, degrees 1..max_weight.

    Uses the generalized Witt formula: with H(t) = 1/(1 - sum_x t^w(x)) the
    Hilbert series of the enveloping (free associative) algebra and
    s_m = m [t^m] log H, the dimension in weight m is
    (1/m) sum_{d | m} mu(m/d) s_d.  All arithmetic is exact over Z.
    """
    N = max_weight
    g = [0] * (N + 1)
    for w in weights:
        if w <= N:
            g[w] += 1
    # h = 1/(1-g): h_k = sum_i g_i h_{k-i}
    h = [0] * (N + 1)
    h[0] = 1
    for k in range(1, N + 1):
        h[k] = sum(g[i] * h[k - i] for i in range(1, k + 1))
    # s_m = m h_m - sum_{i<m} s_i h_{m-i}  (from t H' = S H)
    s = [0] * (N + 1)
    for m in range(1, N + 1):
        s[m] = m * h[m] - sum(s[i] * h[m - i] for i in range(1, m))
    dims = []
    for m in range(1, N + 1):
        total = 0
        for d in range(1, m + 1):
            if m % d == 0:
                total += _mobius(m // d) * s[d]
        q, r = divmod(total, m)
        if r:
            raise AssertionError("Witt formula gave a non-integer")
        dims.append(q)
    return dims


# ----------------------------------------------------------------------
# bracket-expression grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := scalar '*' term | '-' term | atom
#   atom   := name | '[' expr ',' expr ']' | '(' expr ')'
#   scalar := int | int '/' int
#
# Names may contain letters, digits, '_' and '.' (qualified names use dots).
# Brackets, parentheses and prefix operators nest at most MAX_NESTING deep.
# The parser evaluates each construct as soon as it is read, sums from the
# left, so an expression goes straight to its normal form.

MAX_NESTING = 100


class ExprSyntaxError(InputError):
    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in "[],+-*/()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(text, i, f"unexpected character {ch!r}")
    tokens.append(("end", "", n))
    return tokens


def parse_expression(alg: FreeLieAlgebra, text: str) -> LieElement:
    """Parse a bracket expression to its normal form in alg, in one pass:
    the first error from the left is the one raised."""
    field = alg.field
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def advance():
        t = tokens[pos[0]]
        pos[0] += 1
        return t

    def expect(kind):
        t = advance()
        if t[0] != kind:
            raise ExprSyntaxError(text, t[2], f"expected {kind!r}, got {t[1]!r}")
        return t

    def parse_scalar():
        t = expect("int")
        if peek()[0] == "/":
            advance()
            return field.parse(f"{t[1]}/{expect('int')[1]}")
        return field.parse(t[1])

    def parse_atom(depth):
        t = peek()
        if t[0] == "name":
            advance()
            return alg.gen_element(t[1])
        if t[0] == "[":
            advance()
            left = parse_expr(depth + 1)
            expect(",")
            right = parse_expr(depth + 1)
            expect("]")
            return left.bracket(right)
        if t[0] == "(":
            advance()
            inner = parse_expr(depth + 1)
            expect(")")
            return inner
        raise ExprSyntaxError(text, t[2], f"unexpected token {t[1]!r}")

    def parse_term(depth=0):
        t = peek()
        if depth > MAX_NESTING:
            raise ExprSyntaxError(text, t[2], f"nested deeper than {MAX_NESTING}")
        if t[0] == "-":
            advance()
            return -parse_term(depth + 1)
        if t[0] == "int":
            scalar = parse_scalar()
            expect("*")
            return parse_term(depth + 1).scale(scalar)
        return parse_atom(depth)

    def parse_expr(depth=0):
        out = parse_term(depth)
        while peek()[0] in ("+", "-"):
            op = advance()[0]
            rhs = parse_term(depth)
            out = out + rhs if op == "+" else out - rhs
        return out

    out = parse_expr()
    t = peek()
    if t[0] != "end":
        raise ExprSyntaxError(text, t[2], f"trailing input {t[1]!r}")
    return out

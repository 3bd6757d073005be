"""Exact field arithmetic over the rationals and prime fields.

A field is represented by a small coefficient-protocol object rather than by
wrapping every scalar.  A rational value is a plain ``int`` when it is
integral and a ``fractions.Fraction`` (lowest terms, positive denominator)
otherwise; every operation of :class:`RationalField` returns a value of that
form, so an integral value is never a ``Fraction`` and never a float.
``int`` arithmetic is several times cheaper than ``Fraction`` arithmetic,
so the elimination kernel (:class:`gradedlie.linalg.Echelon`) keeps its
rows over Q as primitive integer vectors, eliminates them fraction-free
and forms ``Fraction`` values only for the residues and canonical rows it
returns.  The graded engine's structure constants are likewise integer
numerators over one denominator per vector (:func:`integral` splits a
vector that way), so its :meth:`RationalField.axpy` calls see only ints;
chain differentials and free Lie elements are built with
:meth:`RationalField.axpy` on canonical values.
Prime-field values are plain ints in ``[0, p)``.  All values are immutable,
so they are safe to share between threads.  Containers (matrices, Lie
elements, ...) carry the field object and guard against mixing fields at
their own boundaries.

Fields are spelled ``"Q"`` or ``"Fp:<prime>"`` in config files and on the
command line; see :func:`parse_field`.

The module is also the package's input boundary: :class:`InputError`, the
one reader of input files (:func:`load`), the one line splitter of their
formats (:func:`lines`) and the one reader of integers (:func:`integer`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class InputError(ValueError):
    """Bad input: a malformed file, expression, graph or field spec.  The
    CLI exits 2 on it; the loaders' own errors are its subclasses."""


class FieldError(InputError):
    """Bad field construction or mixed-field operation."""


def load(path, parse, *args):
    """parse(text, *args) of the UTF-8 file `path`.  A decode error is an
    InputError; it and any InputError of `parse` get the path in front,
    each in its own class."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read(), *args)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    except InputError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def lines(text: str):
    """(number, line) of each line of an input file that is not blank once
    its # comment is cut off, the line stripped."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def integer(text: str, what: str, least: int = 0, error=InputError) -> int:
    """int(text) when that is at least `least`, else `error` naming `what`."""
    try:
        value = int(text)
    except ValueError:  # also for a string of more than 4300 digits
        value = least - 1
    if value < least:
        raise error(f"{what}: expected an integer >= {least}, got {text!r}")
    return value


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the concrete fields below.

    Subclasses provide exact ``mul/neg/inv``, coercion (``of``), the
    ``name`` property and the elimination kernel's in-place
    ``axpy(out, a, v)``, out += a*v for sparse vectors {index: nonzero
    value}; a sum is ``of(a + b)``.  Zero coefficients are represented as
    the field's canonical zero; sparse containers drop them.
    """

    zero = 0
    one = 1

    def is_zero(self, a) -> bool:
        return not a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def div_vec(self, vec: dict, d) -> dict:
        """vec/d with canonical values; vec itself when d is 1."""
        if d == 1:
            return vec
        if d == -1:  # the engine's other orientation of a stored pair
            return {c: self.neg(x) for c, x in vec.items()}
        return {c: self.div(x, d) for c, x in vec.items()}

    def parse(self, text: str):
        """An integer or a/b, mapped into the field by `of`."""
        num, slash, den = text.strip().partition("/")
        try:  # int() refuses a string of more than 4300 digits
            num, den = int(num), int(den) if slash else 1
        except ValueError as exc:
            raise FieldError(str(exc)) from None
        if not den:
            raise FieldError("zero denominator")
        return self.of(Fraction(num, den) if slash else num)

    def format(self, a) -> str:
        return str(a)

    def __repr__(self):
        return self.name


def integral(vec: dict) -> tuple:
    """(numerators, den) with vec = numerators/den, den the lcm of the
    denominators of vec's canonical values; vec itself and 1 if no value is
    a ``Fraction`` (always so over F_p), found without the lcm pass."""
    if Fraction not in set(map(type, vec.values())):
        return vec, 1
    den = lcm(*(x.denominator for x in vec.values()))
    return {c: x.numerator * (den // x.denominator) for c, x in vec.items()}, den


def _q(x):
    """An exact rational as int when integral, else as Fraction."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


class RationalField(Field):
    """The field of rationals with arbitrary-precision arithmetic."""

    def of(self, x):
        if isinstance(x, float):
            raise FieldError("refusing to coerce float to an exact rational")
        if isinstance(x, int):
            return int(x)
        return _q(Fraction(x))

    def mul(self, a, b):
        return _q(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in Q")
        return _q(Fraction(1, a))

    def div(self, a, b):
        return _q(Fraction(a, b))

    def axpy(self, out: dict, a, v: dict):
        if not a:
            return
        for c, x in v.items():
            ax = a * x
            if c in out:
                ax += out[c]
                if not ax:
                    del out[c]
                    continue
            if type(ax) is not int and ax.denominator == 1:
                ax = ax.numerator
            out[c] = ax

    @property
    def name(self) -> str:
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """The prime field F_p; values are canonical representatives in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p

    def of(self, x):
        if isinstance(x, float):
            raise FieldError("refusing to coerce float to F_p")
        if not isinstance(x, int):
            # accept exact rationals with denominator invertible mod p
            num = int(x.numerator)
            den = int(x.denominator)
            if den % self.p == 0:
                raise FieldError(f"denominator {den} not invertible mod {self.p}")
            return num * pow(den, -1, self.p) % self.p
        return x % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, -1, self.p)

    def axpy(self, out: dict, a, v: dict):
        if not a:
            return
        p = self.p
        for c, x in v.items():
            if c in out:
                s = (out[c] + a * x) % p
                if s:
                    out[c] = s
                else:
                    del out[c]
            else:
                # a and x are nonzero residues mod a prime: so is a*x
                out[c] = a * x % p

    @property
    def name(self) -> str:
        return f"Fp:{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def parse_field(text: str) -> Field:
    """Parse a field spec: "Q" or "Fp:<prime>"."""
    text = text.strip()
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        return PrimeField(integer(text[3:], f"modulus of {text!r}", 2, FieldError))
    raise FieldError(f"unknown field spec {text!r} (expected 'Q' or 'Fp:<prime>')")


def check_same_field(a: Field, b: Field, what: str = "operands"):
    if a != b:
        raise FieldError(f"field mismatch between {what}: {a.name} vs {b.name}")

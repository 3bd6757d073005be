"""Sparse exact linear algebra over a field from :mod:`gradedlie.fields`.

Vectors are dicts ``{column index: nonzero scalar}``.  The one elimination
type is :class:`Echelon`, an incremental echelon builder with deterministic
pivoting (lowest column index wins); spans are Echelons, and
:class:`SparseMatrix` (rank and kernel of a matrix given by its columns)
and :class:`ColumnSolver` are thin uses of it.  A combination of columns
that has to be tracked rides along as extra columns of the same vector
(:func:`_tracked`), so every row operation acts on one vector, and over Q
the tracked part is eliminated fraction-free too.

A batch of vectors (:meth:`Echelon.of`, :meth:`Echelon.extend`) is added
shortest support first, by a stable sort on the support size, so ties keep
their arrival order.  Short rows make short pivot rows, and every later
vector is cleared with those, which avoids most of the fill-in the arrival
order causes (the fill-reducing idea of Markowitz, Management Sci. 3,
1957; compare Bouillaguet & Delaplace, "Sparse Gaussian elimination modulo
p: an update", CASC 2016).  The order moves only the stored semi-echelon
rows: the rank, the pivot set (the leading columns of the span), the
residue of :meth:`Echelon.reduce` and the canonical rows depend only on
the span.  That holds for tracked columns too: the tracking indices fix
which columns count as earlier, not the order of insertion, and the
stored rows with a pivot among the tracking columns are a basis of the
span's vectors supported there.  The RAAG resolution's boundary rows are
the one stream added in arrival order, and only at a weight whose ranks
its lowest-column certificate does not settle
(:meth:`gradedlie.raag.RaagResolution.verify_exactness`).

An Echelon stores its rows in semi-echelon form (each row's lowest column
is its pivot, no back-substitution on add) and builds the canonical
reduced row echelon form only when a caller reads canonical rows.  Over Q
the stored rows are primitive integer vectors and elimination is
fraction-free (compare Bareiss, Math. Comp. 22, 1968): a vector is cleared
with ``out = a*out - b*row``, so the elimination behind a rank, a pivot set
or a membership test does no ``Fraction`` arithmetic.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from typing import Optional

from .fields import Field, RationalField, integral


def vec_axpy(field: Field, out: dict, a, v: dict):
    """In-place out += a*v (out is a plain dict being built)."""
    field.axpy(out, a, v)


class Echelon:
    """Incremental row echelon form over an arbitrary exact field.

    The stored rows are in semi-echelon form: each row's pivot is its
    lowest column, and every row with pivot q has support >= q.  A vector
    is reduced by clearing the pivot columns it meets in heap order,
    pushing each pivot column a row operation brings in; a cleared column
    never comes back, since the rows applied after it have higher pivots.
    The residue on the non-pivot columns is unique, so :meth:`reduce`
    and :meth:`express` need no canonical form.

    Over F_p each stored row has pivot entry 1.  Over Q an input is scaled
    by the lcm of its denominators, eliminated in integers and stored as a
    primitive integer row with a positive pivot entry; residues are divided
    back by the accumulated scale, so every returned value is an ``int``
    or a non-integral ``Fraction``.

    ``rows`` (``{pivot column: row}``) and :meth:`basis` are the canonical
    reduced row echelon form (pivot entries 1, each pivot column cleared
    from the other rows), the unique basis of the span.  It is built on the
    first read, by clearing the higher pivot columns of the rows in
    descending pivot order, and cached until the next add.  Readers that
    need only the rank, the pivot set or membership never build it;
    :attr:`primitive_rows` reads it before the division by the pivot
    entries, as integer rows over Q.
    """

    def __init__(self, field: Field):
        self.field = field
        self._integral = isinstance(field, RationalField)
        self._rows: dict[int, dict] = {}  # pivot column -> semi-echelon row
        self._prim: Optional[dict] = None
        self._canon: Optional[dict] = None

    @classmethod
    def of(cls, field: Field, vectors) -> "Echelon":
        """The echelon of the span of vectors, added by :meth:`extend`
        (shortest support first)."""
        return cls(field).extend(vectors)

    def extend(self, vectors) -> "Echelon":
        """Add a batch of vectors shortest support first and return self.

        The sort is stable, so vectors of equal support size keep their
        arrival order and the stored rows do not depend on hashing.  Only
        the stored rows depend on the order; everything read from the
        span does not (see the module docstring).
        """
        for vec in sorted(vectors, key=len):
            self.add(vec)
        return self

    def copy(self) -> "Echelon":
        """An independent Echelon of the same span, to extend without
        changing this one (stored rows are never changed in place)."""
        ech = Echelon(self.field)
        ech._rows = dict(self._rows)
        ech._prim, ech._canon = self._prim, self._canon
        return ech

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def _step(self, out: dict, row: dict, p: int) -> int:
        """Clear column p of out with row (pivot p); return the factor out
        was scaled by (over Q, out = a*out - b*row with a and b the pivot
        entries divided by their gcd)."""
        if self._integral:
            g = gcd(row[p], out[p])
            a, coef = row[p] // g, -(out[p] // g)
            if a != 1:
                for c in out:
                    out[c] *= a
        else:
            a, coef = 1, self.field.neg(out[p])
        vec_axpy(self.field, out, coef, row)
        return a

    def _clear(self, vec: dict):
        """(out, scale): scale*vec with the pivot columns of out cleared,
        lowest first."""
        rows = self._rows
        out, scale = integral(vec) if self._integral else (vec, 1)
        out = dict(out) if scale == 1 else out
        heap = [c for c in out if c in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            if p in out:
                row = rows[p]
                for c in row:
                    if c not in out and c in rows:
                        heappush(heap, c)
                scale *= self._step(out, row, p)
        return out, scale

    def _normalise(self, out: dict, p: int) -> dict:
        """out divided by out[p] (F_p) or by the content of out, signed like
        out[p] (Q); out itself when that changes nothing, as for the +-1
        rows of a RAAG boundary."""
        x = out[p]
        if self._integral:
            d = gcd(*out.values()) if x > 0 else -gcd(*out.values())
            return out if d == 1 else {c: y // d for c, y in out.items()}
        if x == 1:
            return out
        field = self.field
        if x == field.neg(field.one):
            return {c: field.neg(y) for c, y in out.items()}
        f = field.inv(x)
        return {c: field.mul(f, y) for c, y in out.items()}

    def reduce(self, vec: dict) -> dict:
        """Return the residue of vec modulo the current row space."""
        out, scale = self._clear(vec)
        return self.field.div_vec(out, scale)

    def add(self, vec: dict) -> Optional[int]:
        """Insert vec; return its new pivot column, or None if dependent."""
        out, _ = self._clear(vec)
        if not out:
            return None
        p = min(out)
        self._rows[p] = self._normalise(out, p)
        self._prim = self._canon = None
        return p

    @property
    def primitive_rows(self) -> dict[int, dict]:
        """Canonical rows by pivot column before their pivot entries are
        made 1: over Q, primitive integer rows with a positive pivot entry."""
        if self._prim is None:
            rows = self._rows
            reduced: dict[int, dict] = {}
            for p in sorted(rows, reverse=True):
                out = dict(rows[p])
                for q in [c for c in out if c != p and c in rows]:
                    self._step(out, reduced[q], q)
                reduced[p] = self._normalise(out, p)
            self._prim = reduced
        return self._prim

    @property
    def rows(self) -> dict[int, dict]:
        """Canonical rows by pivot column."""
        if self._canon is None:
            rows = self.primitive_rows
            if self._integral:  # pivot entries to 1
                rows = {p: self.field.div_vec(row, row[p]) for p, row in rows.items()}
            self._canon = rows
        return self._canon

    def basis(self) -> list[dict]:
        """Canonical basis, ordered by pivot column."""
        rows = self.rows
        return [dict(rows[p]) for p in sorted(rows)]

    def primitive_basis(self) -> list[dict]:
        """:attr:`primitive_rows` ordered by pivot column: the canonical
        basis up to a nonzero scalar per row, with no ``Fraction`` over Q.
        For spans that are only bracketed further; the rows are shared, so
        callers must not change them."""
        rows = self.primitive_rows
        return [rows[p] for p in sorted(rows)]

    def express(self, vec: dict):
        """Coefficients of vec over the canonical basis, or None.

        Returns ``{pivot column: coefficient}`` such that
        ``vec == sum(coeff * row)``: the canonical rows have entry 1 at
        their own pivot and 0 at the others, so the coefficients are vec's
        entries at the pivot columns.
        """
        if self.reduce(vec):
            return None
        return {p: vec[p] for p in sorted(vec) if p in self._rows}


def _tracked(columns: list[dict]) -> tuple[int, list[dict]]:
    """(top, tracked columns): column j with a 1 added at column top - j,
    top = max row index + len(columns).

    Echelonizing the tracked columns, in any order, tracks every
    combination in the columns above the row indices.  The newest column
    has the lowest tracking column, so for a column that depends on the
    earlier ones the span holds a relation whose pivot is its own tracking
    column, and the tracking part of every canonical row with a pivot at a
    row index involves only independent columns.
    """
    top = max((r for col in columns for r in col), default=-1) + len(columns)
    return top, [{**col, top - j: 1} for j, col in enumerate(columns)]


class SparseMatrix:
    """A matrix given by its column vectors (row index -> nonzero scalar)."""

    def __init__(self, field: Field, columns: list[dict]):
        self.field = field
        self.columns = columns

    def rank(self) -> int:
        return Echelon.of(self.field, self.columns).rank

    def kernel(self) -> list[dict]:
        """Canonical basis of the right null space (len = columns - rank),
        as vectors over the column indices."""
        top, tracked = _tracked(self.columns)
        last_row = top - len(self.columns)
        stored = Echelon.of(self.field, tracked)._rows
        relations = [
            {top - c: x for c, x in row.items()} for p, row in stored.items() if p > last_row
        ]
        return Echelon.of(self.field, relations).basis()


class ColumnSolver:
    """Solve M x = b for a sparse matrix given by column vectors.

    The columns are echelonized with their combinations tracked as extra
    columns (:func:`_tracked`).  A solution is the basic one: zero on every
    column that lies in the span of the earlier columns, which makes it
    unique.
    """

    def __init__(self, field: Field, columns: list[dict]):
        self.field = field
        self._top, tracked = _tracked(columns)
        self._last_row = self._top - len(columns)
        self._ech = Echelon.of(field, tracked)
        self.rank = sum(p <= self._last_row for p in self._ech.pivots())

    def solve(self, b: dict) -> Optional[dict]:
        """The basic solution x (dict col->coeff), or None if unsolvable."""
        if max(b, default=-1) > self._last_row:  # a row no column has
            return None
        residue = self._ech.reduce(b)
        if any(c <= self._last_row for c in residue):
            return None
        neg, top = self.field.neg, self._top
        return {top - c: neg(x) for c, x in residue.items()}

"""Sparse exact linear algebra over a field from :mod:`gradedlie.fields`.

Vectors are dicts ``{column index: nonzero scalar}``.  The one elimination
type is :class:`Echelon`, an incremental echelon builder with deterministic
pivoting (lowest column index wins, rows inserted in arrival order); spans
are Echelons, and :class:`SparseMatrix` (rank and kernel of a matrix given
by its columns) and :class:`ColumnSolver` are thin uses of it.

An Echelon stores its rows in semi-echelon form (each row's lowest column
is its pivot, no back-substitution on insert) and builds the canonical
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
    The residue on the non-pivot columns is unique, so :meth:`reduce`,
    :meth:`contains` and :meth:`express` need no canonical form.

    Over F_p each stored row has pivot entry 1.  Over Q an input is scaled
    by the lcm of its denominators, eliminated in integers and stored as a
    primitive integer row with a positive pivot entry; residues are divided
    back by the accumulated scale, so every returned value is an ``int``
    or a non-integral ``Fraction``.

    ``rows`` and ``companions`` (``{pivot column: vector}``) and
    :meth:`basis` are the canonical reduced row echelon form (pivot entries
    1, each pivot column cleared from the other rows), the unique basis of
    the span.  It is built on the first read, by clearing the higher pivot
    columns of the rows in descending pivot order, and cached until the
    next insert.  Readers that need only the rank, the pivot set or
    membership never build it; :attr:`primitive_rows` reads it before the
    division by the pivot entries, as integer rows over Q.

    Rows inserted with a companion vector (:meth:`insert`) carry it along:
    every row operation applied to a row is applied to its companion too.
    Either every row of an echelon has a companion or none has.
    """

    def __init__(self, field: Field):
        self.field = field
        self._integral = isinstance(field, RationalField)
        self._rows: dict[int, dict] = {}  # pivot column -> semi-echelon row
        self._comps: dict[int, dict] = {}  # pivot column -> its companion
        self._prim: Optional[tuple[dict, dict]] = None
        self._canon: Optional[tuple[dict, dict]] = None

    @classmethod
    def of(cls, field: Field, vectors) -> "Echelon":
        """The echelon of the span of vectors, added in order."""
        ech = cls(field)
        for vec in vectors:
            ech.add(vec)
        return ech

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def _step(self, out: dict, track, row: dict, comp, p: int) -> int:
        """Clear column p of out with row (pivot p), applying the same
        operation to track with comp; return the factor out was scaled by
        (over Q, out = a*out - b*row with a and b the pivot entries divided
        by their gcd)."""
        field = self.field
        if self._integral:
            g = gcd(row[p], out[p])
            a, coef = row[p] // g, -(out[p] // g)
            if a != 1:
                for c in out:
                    out[c] *= a
                if track is not None:
                    for c in track:
                        track[c] = field.mul(a, track[c])
        else:
            a, coef = 1, field.neg(out[p])
        vec_axpy(field, out, coef, row)
        if track is not None:
            vec_axpy(field, track, coef, comp)
        return a

    def _clear(self, vec: dict, companion: Optional[dict] = None):
        """(out, track, scale): scale*vec and scale*companion with the pivot
        columns of out cleared, lowest first."""
        field, rows = self.field, self._rows
        out, scale = integral(vec) if self._integral else (vec, 1)
        out = dict(out) if scale == 1 else out
        track = None if companion is None else dict(companion)
        if scale != 1 and track is not None:
            track = {c: field.mul(scale, x) for c, x in track.items()}
        heap = [c for c in out if c in rows]
        heapify(heap)
        while heap:
            p = heappop(heap)
            if p in out:
                row = rows[p]
                for c in row:
                    if c not in out and c in rows:
                        heappush(heap, c)
                scale *= self._step(out, track, row, self._comps.get(p), p)
        return out, track, scale

    def _normalise(self, out: dict, track, p: int):
        """out and track divided by out[p] (F_p) or by the content of out,
        signed like out[p] (Q)."""
        field = self.field
        if self._integral:
            d = gcd(*out.values()) if out[p] > 0 else -gcd(*out.values())
            row = {c: x // d for c, x in out.items()}
            f = field.inv(d)
        else:
            f = field.inv(out[p])
            row = {c: field.mul(f, x) for c, x in out.items()}
        return row, (None if track is None else {c: field.mul(f, x) for c, x in track.items()})

    def reduce(self, vec: dict) -> dict:
        """Return the residue of vec modulo the current row space."""
        out, _, scale = self._clear(vec)
        return self.field.div_vec(out, scale)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def add(self, vec: dict) -> Optional[int]:
        """Insert vec; return its new pivot column, or None if dependent."""
        return self.insert(vec)[0]

    def insert(self, vec: dict, companion: Optional[dict] = None):
        """Insert vec carrying companion; return (pivot, companion residue).

        If vec is independent it is stored with its companion and the
        residue is None.  If vec is dependent the pivot is None and the
        residue is the companion minus the combination of stored companions
        that matches vec (None without a companion).
        """
        out, track, scale = self._clear(vec, companion)
        if not out:
            return None, (None if track is None else self.field.div_vec(track, scale))
        p = min(out)
        self._rows[p], comp = self._normalise(out, track, p)
        if comp is not None:
            self._comps[p] = comp
        self._prim = self._canon = None
        return p, None

    @property
    def primitive_rows(self) -> dict[int, dict]:
        """Canonical rows by pivot column before their pivot entries are
        made 1: over Q, primitive integer rows with a positive pivot entry."""
        if self._prim is None:
            rows = self._rows
            reduced: dict[int, dict] = {}
            comps: dict[int, dict] = {}
            for p in sorted(rows, reverse=True):
                out = dict(rows[p])
                track = dict(self._comps[p]) if self._comps else None
                for q in [c for c in out if c != p and c in rows]:
                    self._step(out, track, reduced[q], comps.get(q), q)
                reduced[p], comp = self._normalise(out, track, p)
                if comp is not None:
                    comps[p] = comp
            self._prim = reduced, comps
        return self._prim[0]

    def _canonical(self) -> tuple[dict, dict]:
        if self._canon is None:
            rows, comps = self.primitive_rows, self._prim[1]
            if self._integral:  # pivot entries to 1
                div = self.field.div_vec
                comps = {p: div(comp, rows[p][p]) for p, comp in comps.items()}
                rows = {p: div(row, row[p]) for p, row in rows.items()}
            self._canon = rows, comps
        return self._canon

    @property
    def rows(self) -> dict[int, dict]:
        """Canonical rows by pivot column."""
        return self._canonical()[0]

    @property
    def companions(self) -> dict[int, dict]:
        """Companions of the canonical rows by pivot column."""
        return self._canonical()[1]

    def basis(self) -> list[dict]:
        """Canonical basis, ordered by pivot column."""
        rows = self.rows
        return [dict(rows[p]) for p in sorted(rows)]

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
        field = self.field
        ech = Echelon(field)
        relations = []
        for j, col in enumerate(self.columns):
            pivot, residue = ech.insert(col, {j: field.one})
            if pivot is None:
                relations.append(residue)
        return Echelon.of(field, relations).basis()


class ColumnSolver:
    """Solve M x = b for a sparse matrix given by column vectors.

    Columns are echelonized with combination tracking; solutions are
    deterministic (free variables set to zero, lowest-index pivots).  The
    canonical companions are built at the first solve and then reused.
    """

    def __init__(self, field: Field, columns: list[dict]):
        self.field = field
        self._ech = Echelon(field)
        for j, col in enumerate(columns):
            self._ech.insert(col, {j: field.one})

    @property
    def rank(self) -> int:
        return self._ech.rank

    def solve(self, b: dict) -> Optional[dict]:
        """A particular solution x (dict col->coeff), or None if unsolvable."""
        coeffs = self._ech.express(b)
        if coeffs is None:
            return None
        sol: dict = {}
        companions = self._ech.companions
        for p, c in coeffs.items():
            vec_axpy(self.field, sol, c, companions[p])
        return sol

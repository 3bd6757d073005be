"""Sparse exact linear algebra over a field from :mod:`gradedlie.fields`.

Vectors are dicts ``{column index: nonzero scalar}``.  The one elimination
type is :class:`Echelon`, an incremental reduced-row-echelon builder with
deterministic pivoting (lowest column index wins, rows inserted in arrival
order); spans are Echelons, and :class:`SparseMatrix` (rank and kernel of
a matrix given by its columns) and :class:`ColumnSolver` are thin uses of
it.
"""

from __future__ import annotations

from typing import Optional

from .fields import Field


def vec_axpy(field: Field, out: dict, a, v: dict):
    """In-place out += a*v (out is a plain dict being built)."""
    field.axpy(out, a, v)


class Echelon:
    """Incremental reduced row echelon form over an arbitrary exact field.

    Pivot columns are chosen as the lowest index of each reduced row; the
    stored rows are fully reduced against each other (pivot entries 1, each
    pivot column cleared from all other rows), so the row set is the unique
    canonical basis of the span.  Clearing one pivot column of a vector
    never brings in another, so a vector is reduced in one pass over the
    pivot columns in its support.

    Rows inserted with a companion vector (:meth:`insert`) carry it along:
    every row operation applied to a row is applied to its companion too.
    Either every row of an echelon has a companion or none has.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict[int, dict] = {}  # pivot column -> row vector
        self.companions: dict[int, dict] = {}  # pivot column -> companion

    @classmethod
    def of(cls, field: Field, vectors) -> "Echelon":
        """The echelon of the span of vectors, added in order."""
        ech = cls(field)
        for vec in vectors:
            ech.add(vec)
        return ech

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self) -> list[int]:
        return sorted(self.rows)

    def _clear(self, out: dict, track: Optional[dict] = None) -> list[int]:
        """Clear the pivot columns of out in place, lowest first, applying
        the same operations to track through the companions; return the
        cleared columns."""
        field, rows = self.field, self.rows
        hits = sorted([c for c in out if c in rows])
        for p in hits:
            coef = field.neg(out[p])
            vec_axpy(field, out, coef, rows[p])
            if track is not None:
                vec_axpy(field, track, coef, self.companions[p])
        return hits

    def reduce(self, vec: dict) -> dict:
        """Return the residue of vec modulo the current row space."""
        out = dict(vec)
        self._clear(out)
        return out

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def add(self, vec: dict) -> Optional[int]:
        """Insert vec; return its new pivot column, or None if dependent."""
        return self.insert(vec)[0]

    def insert(self, vec: dict, companion: Optional[dict] = None):
        """Insert vec carrying companion; return (pivot, companion residue).

        The companion residue is what the row operations that reduce vec
        leave of the companion.  If vec is independent it is stored,
        normalised like vec's row, as that row's companion; if vec is
        dependent the pivot is None and the residue is the companion minus
        the combination of stored companions that matches vec.
        """
        field = self.field
        out = dict(vec)
        track = None if companion is None else dict(companion)
        self._clear(out, track)
        if not out:
            return None, track
        p = min(out)
        inv, mul = field.inv(out[p]), field.mul
        row = {c: mul(inv, x) for c, x in out.items()}
        if track is not None:
            track = {c: mul(inv, x) for c, x in track.items()}
        # back-substitute into existing rows to keep the reduced form
        for q, other in self.rows.items():
            if p in other:
                coef = field.neg(other[p])
                vec_axpy(field, other, coef, row)
                if track is not None:
                    vec_axpy(field, self.companions[q], coef, track)
        self.rows[p] = row
        if track is not None:
            self.companions[p] = track
        return p, track

    def basis(self) -> list[dict]:
        """Canonical basis, ordered by pivot column."""
        return [dict(self.rows[p]) for p in sorted(self.rows)]

    def express(self, vec: dict):
        """Coefficients of vec over the canonical basis, or None.

        Returns ``{pivot column: coefficient}`` such that
        ``vec == sum(coeff * row)``.
        """
        out = dict(vec)
        hits = self._clear(out)
        if out:
            return None
        return {p: vec[p] for p in hits}


class SparseMatrix:
    """A matrix given by its column vectors (row index -> nonzero scalar)."""

    def __init__(self, field: Field, columns: list[dict]):
        self.field = field
        self.columns = columns

    def rank(self) -> int:
        # eliminate the rows: on the CE differentials of M*N, eliminating
        # the columns was faster on d_2 but slower on d_3 and in total
        rows: dict[int, dict] = {}
        for j, col in enumerate(self.columns):
            for r, x in col.items():
                rows.setdefault(r, {})[j] = x
        return Echelon.of(self.field, [rows[r] for r in sorted(rows)]).rank

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
    deterministic (free variables set to zero, lowest-index pivots).
    """

    def __init__(self, field: Field, columns: list[dict]):
        self.field = field
        self.columns = columns
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
        for p, c in coeffs.items():
            vec_axpy(self.field, sol, c, self._ech.companions[p])
        return sol

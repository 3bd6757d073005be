"""Sparse exact linear algebra over a field from :mod:`gradedlie.fields`.

Vectors are dicts ``{column index: nonzero scalar}``.  The central tool is
:class:`Echelon`, an incremental reduced-row-echelon builder with
deterministic pivoting (lowest column index wins, rows inserted in arrival
order), which everything else (rank, kernel, subspaces, solving) is built
on.  Matrices are immutable after construction; elimination always
produces new objects, so independent computations can run concurrently.
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
    """Immutable sparse matrix; entries maps (row, col) -> nonzero scalar."""

    def __init__(self, field: Field, rows: int, cols: int, entries: dict):
        self.field = field
        self.rows = rows
        self.cols = cols
        self._col_vectors: Optional[list[dict]] = None  # cache for apply
        self.entries = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            if not field.is_zero(v):
                self.entries[(r, c)] = v

    @classmethod
    def from_row_vectors(cls, field: Field, cols: int, row_vecs: list[dict]):
        entries = {}
        for r, vec in enumerate(row_vecs):
            for c, v in vec.items():
                entries[(r, c)] = v
        return cls(field, len(row_vecs), cols, entries)

    def row_vectors(self) -> list[dict]:
        out = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def col_vectors(self) -> list[dict]:
        out = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            out[c][r] = v
        return out

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.field,
            self.cols,
            self.rows,
            {(c, r): v for (r, c), v in self.entries.items()},
        )

    def rank(self) -> int:
        return Echelon.of(self.field, self.row_vectors()).rank

    def kernel(self) -> "Subspace":
        """Canonical basis of the right null space (dim = cols - rank)."""
        field = self.field
        ech = Echelon.of(field, self.row_vectors())
        pivots = ech.pivots()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            vec = {f: field.one}
            for p in pivots:
                x = ech.rows[p].get(f)
                if x is not None:
                    vec[p] = field.neg(x)
            basis.append(vec)
        return Subspace.from_vectors(field, self.cols, basis)

    def apply(self, vec: dict) -> dict:
        """Matrix-vector product (vec indexed by columns)."""
        if self._col_vectors is None:
            self._col_vectors = self.col_vectors()
        cols = self._col_vectors
        out: dict = {}
        for c, x in vec.items():
            vec_axpy(self.field, out, x, cols[c])
        return out


class Subspace:
    """A subspace of k^n in canonical reduced echelon form."""

    def __init__(self, field: Field, ambient_dim: int, echelon: Echelon):
        self.field = field
        self.ambient_dim = ambient_dim
        self._ech = echelon

    @classmethod
    def from_vectors(cls, field: Field, ambient_dim: int, vectors) -> "Subspace":
        return cls(field, ambient_dim, Echelon.of(field, vectors))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Echelon(field))

    @property
    def dim(self) -> int:
        return self._ech.rank

    @property
    def basis(self) -> list[dict]:
        return self._ech.basis()

    def pivots(self) -> list[int]:
        return self._ech.pivots()

    def contains(self, vec: dict) -> bool:
        return self._ech.contains(vec)

    def reduce(self, vec: dict) -> dict:
        return self._ech.reduce(vec)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


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

"""Dense Gauss-Jordan elimination: the test oracle for the sparse kernel.

Works on full lists of field values, with no pivot bookkeeping shared with
gradedlie.linalg, and returns the unique reduced row echelon form.
"""


def rref(field, rows: list[dict], ncols: int) -> list[dict]:
    """The nonzero rows of the reduced row echelon form, as sparse dicts
    ordered by pivot column."""
    dense = [[row.get(c, field.zero) for c in range(ncols)] for row in rows]
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(dense)) if not field.is_zero(dense[i][c])), None)
        if pivot is None:
            continue
        dense[r], dense[pivot] = dense[pivot], dense[r]
        inv = field.inv(dense[r][c])
        dense[r] = [field.mul(inv, x) for x in dense[r]]
        for i in range(len(dense)):
            if i != r and not field.is_zero(dense[i][c]):
                f = dense[i][c]
                dense[i] = [field.of(x - field.mul(f, y)) for x, y in zip(dense[i], dense[r])]
        r += 1
    return [{c: x for c, x in enumerate(row) if not field.is_zero(x)} for row in dense[:r]]


def rank(field, rows: list[dict], ncols: int) -> int:
    return len(rref(field, rows, ncols))


def normal_form(field, reduced: list[dict], vec: dict) -> dict:
    """vec minus its combination of the given reduced row echelon rows
    that clears their pivot columns."""
    out = {c: x for c, x in vec.items() if not field.is_zero(x)}
    for row in reduced:
        p = min(row)
        if p in out:
            f = out[p]
            for c, x in row.items():
                out[c] = field.of(out.get(c, field.zero) - field.mul(f, x))
            out = {c: x for c, x in out.items() if not field.is_zero(x)}
    return out


def combination(field, coeffs: dict, vectors) -> dict:
    """sum of coeffs[k] * vectors[k], without the kernel's axpy."""
    out: dict = {}
    for k, a in coeffs.items():
        for c, x in vectors[k].items():
            out[c] = field.of(out.get(c, field.zero) + field.mul(a, x))
    return {c: x for c, x in out.items() if not field.is_zero(x)}


def null_space(field, columns: list[dict], nrows: int) -> list[dict]:
    """The reduced row echelon basis of the right null space of the matrix
    with the given columns (vectors over nrows row indices)."""
    rows = [{j: col[r] for j, col in enumerate(columns) if r in col} for r in range(nrows)]
    reduced = rref(field, rows, len(columns))
    pivots = {min(row) for row in reduced}
    free = []
    for f in range(len(columns)):
        if f in pivots:
            continue
        vec = {f: field.one}
        for row in reduced:
            if f in row:
                vec[min(row)] = field.neg(row[f])
        free.append(vec)
    return rref(field, free, len(columns))

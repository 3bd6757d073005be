import copy
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from dense_oracle import combination, normal_form, null_space, rank as oracle_rank, rref
from gradedlie.fields import QQ, GF
from gradedlie.linalg import ColumnSolver, Echelon, SparseMatrix
from gradedlie.presented import add_brackets, load_presentation
from oracles import intersect, quotient_basis, sum_spaces


def columns_of(row_vecs: list[dict], cols: int) -> list[dict]:
    columns = [{} for _ in range(cols)]
    for r, vec in enumerate(row_vecs):
        for c, v in vec.items():
            columns[c][r] = v
    return columns


def mat(rows, field=QQ):
    row_vecs = [
        {j: field.of(v) for j, v in enumerate(r) if v != 0} for r in rows
    ]
    cols = max((len(r) for r in rows), default=0)
    return SparseMatrix(field, columns_of(row_vecs, cols))


def test_rank_trivial():
    assert mat([[1, 0], [0, 1]]).rank() == 2
    assert SparseMatrix(QQ, [{}] * 4).rank() == 0
    assert mat([[1, 2], [2, 4]]).rank() == 1


def test_kernel_trivial():
    assert len(mat([[1, 0], [0, 1]]).kernel()) == 0
    assert len(SparseMatrix(QQ, [{}] * 3).kernel()) == 3
    k = mat([[1, 1]]).kernel()
    assert len(k) == 1
    (v,) = k
    # span{(1, -1)} up to normalization
    assert QQ.of(v.get(0, QQ.zero) + v.get(1, QQ.zero)) == QQ.zero


def test_quotient_basis():
    zero2 = Echelon(QQ)
    assert quotient_basis(zero2, 2) == [0, 1]
    full = Echelon.of(QQ, [{0: QQ.one}, {1: QQ.one}])
    assert quotient_basis(full, 2) == []
    line = Echelon.of(QQ, [{0: QQ.one}])
    assert quotient_basis(line, 3) == [1, 2]


def test_intersect_trivial():
    a = Echelon.of(QQ, [{0: QQ.one}])
    b = Echelon.of(QQ, [{1: QQ.one}])
    assert intersect(a, a).basis() == a.basis()
    assert intersect(a, b).rank == 0
    e12 = Echelon.of(QQ, [{0: QQ.one}, {1: QQ.one}])
    e23 = Echelon.of(QQ, [{1: QQ.one}, {2: QQ.one}])
    got = intersect(e12, e23)
    assert got.rank == 1
    assert got.basis() == [{1: QQ.one}]


def test_echelon_canonical_idempotent():
    ech = Echelon(QQ)
    ech.add({0: QQ.of(2), 1: QQ.of(4)})
    ech.add({0: QQ.of(1), 2: QQ.of(1)})
    basis = ech.basis()
    again = Echelon(QQ)
    for row in basis:
        again.add(row)
    assert again.basis() == basis


def test_express():
    ech = Echelon(QQ)
    ech.add({0: QQ.one, 1: QQ.one})
    ech.add({1: QQ.one, 2: QQ.one})
    coeffs = ech.express({0: QQ.one, 2: QQ.of(-1)})
    assert coeffs is not None
    assert ech.express({2: QQ.one}) is None


def test_column_solver():
    field = QQ
    cols = [{0: field.of(1), 1: field.of(1)}, {1: field.of(1)}, {0: field.of(2), 1: field.of(2)}]
    solver = ColumnSolver(field, cols)
    assert solver.rank == 2
    sol = solver.solve({0: field.of(3), 1: field.of(5)})
    assert sol is not None
    # verify M x = b
    out = {}
    for j, c in sol.items():
        for r, v in cols[j].items():
            out[r] = field.of(out.get(r, field.zero) + field.mul(c, v))
    out = {r: v for r, v in out.items() if not field.is_zero(v)}
    assert out == {0: field.of(3), 1: field.of(5)}
    assert solver.solve({2: field.one}) is None


def _random_rows(rng, field, rows, cols, density=0.4):
    row_vecs = [{} for _ in range(rows)]
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                x = field.of(rng.randint(-5, 5))
                if not field.is_zero(x):
                    row_vecs[r][c] = x
    return row_vecs


@pytest.mark.parametrize("field", [QQ, GF(5), GF(65521)])
def test_rank_nullity_random(field):
    rng = random.Random(12345)
    for _ in range(200):
        rows = rng.randint(0, 7)
        cols = rng.randint(1, 7)
        m = SparseMatrix(field, columns_of(_random_rows(rng, field, rows, cols), cols))
        assert m.rank() + len(m.kernel()) == cols


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_dim_formula_random(field):
    rng = random.Random(999)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = Echelon.of(field, _random_rows(rng, field, rng.randint(0, 4), n))
        b = Echelon.of(field, _random_rows(rng, field, rng.randint(0, 4), n))
        assert intersect(a, b).rank + sum_spaces(a, b).rank == a.rank + b.rank


@seed(20210112)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), max_size=6))
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate(rows):
    m = mat(rows + [[0, 0, 0]])
    for v in m.kernel():
        assert combination(QQ, v, m.columns) == {}


# -- the elimination kernel against the dense oracle ------------------------

NCOLS = 7
F7 = GF(7)


def q_value():
    return st.builds(
        lambda n, d: QQ.div(QQ.of(n), QQ.of(d)),
        st.integers(-6, 6).filter(bool),
        st.sampled_from([1, 1, 1, 2, 3]),
    )


def sparse_rows(value):
    row = st.dictionaries(st.integers(0, NCOLS - 1), value, max_size=4)
    return st.lists(row, max_size=8)


FIELDS = {
    "Q": (QQ, sparse_rows(q_value())),
    "F7": (F7, sparse_rows(st.integers(1, 6))),
}


def exact_rational(x) -> bool:
    """x is an int when integral and a Fraction otherwise."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_echelon_matches_dense_oracle(name):
    field, rows_strategy = FIELDS[name]

    @seed(20210113)
    @given(rows_strategy)
    @settings(max_examples=120, deadline=None)
    def check(rows):
        ech = Echelon(field)
        for row in rows:
            ech.add(row)
        assert ech.basis() == rref(field, rows, NCOLS)
        for row in rows:
            assert ech.reduce(row) == {}
            assert combination(field, ech.express(row), ech.rows) == row
        if field == QQ:
            assert all(
                exact_rational(x) for r in ech.rows.values() for x in r.values()
            )

    check()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_echelon_keeps_no_caller_dict(name):
    """A row that is already normalised is stored as it is, so mutating a
    vector after add, or a row that basis() returned, must leave the
    echelon unchanged."""
    field, rows_strategy = FIELDS[name]
    unit_rows = st.lists(
        st.dictionaries(st.integers(0, NCOLS - 1), st.sampled_from([1, field.neg(1)]), max_size=4),
        max_size=6,
    )

    @seed(20210114)
    @given(unit_rows, rows_strategy)
    @settings(max_examples=80, deadline=None)
    def check(units, rows):
        vectors = units + rows
        kept = copy.deepcopy(vectors)
        ech = Echelon(field)
        for vec in vectors:
            ech.add(vec)
            for c in vec:
                vec[c] = field.of(3)
            vec[NCOLS] = field.one
        reduced = rref(field, kept, NCOLS)
        assert ech.basis() == reduced
        for row in ech.basis():
            row.clear()
            row[0] = field.of(2)
        assert ech.basis() == reduced
        assert all(ech.reduce(vec) == {} for vec in kept)

    check()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_adding_to_a_copy_leaves_the_original_unchanged(name):
    """A copy of an Echelon, with or without its canonical rows already
    built, extends to the span of more rows while the original keeps its
    own; primitive_basis is the canonical basis up to the pivot entries."""
    field, rows_strategy = FIELDS[name]

    @seed(20210115)
    @given(rows_strategy, rows_strategy, st.booleans())
    @settings(max_examples=80, deadline=None)
    def check(first, more, read_first):
        ech = Echelon.of(field, first)
        if read_first:
            ech.basis()
        dup = ech.copy()
        for row in more:
            dup.add(row)
        assert ech.basis() == rref(field, first, NCOLS)
        assert ech.pivots() == [min(row) for row in rref(field, first, NCOLS)]
        assert dup.basis() == rref(field, first + more, NCOLS)
        prim = dup.primitive_basis()
        assert [field.div_vec(row, row[min(row)]) for row in prim] == dup.basis()

    check()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_column_solver_against_oracle(name):
    field, rows_strategy = FIELDS[name]

    @seed(20210116)
    @given(rows_strategy, rows_strategy)
    @settings(max_examples=120, deadline=None)
    def check(columns, targets):
        solver = ColumnSolver(field, columns)
        assert solver.rank == oracle_rank(field, columns, NCOLS)
        # the columns lying in the span of the earlier columns
        dependent = {
            j for j in range(len(columns))
            if oracle_rank(field, columns[: j + 1], NCOLS) == oracle_rank(field, columns[:j], NCOLS)
        }
        for b in targets + [dict(c) for c in columns]:
            x = solver.solve(b)
            in_span = oracle_rank(field, columns + [b], NCOLS) == solver.rank
            assert (x is not None) == in_span
            if x is not None:
                assert combination(field, x, columns) == b
                assert not dependent & set(x)  # the basic solution
                if field == QQ:
                    assert all(exact_rational(c) for c in x.values())

    check()


def test_tracked_columns_rank_over_f7():
    # a row sequence on which reducing at the first coordinate equal to 1
    # (rather than at each row's pivot) leaves a dependent row nonzero
    seq = [
        {1: 3, 2: 1, 0: 4}, {1: 3, 0: 5, 2: 2}, {1: 2, 2: 5},
        {2: 5, 1: 3, 0: 1}, {2: 5}, {2: 6, 0: 3, 1: 6},
    ]
    m = SparseMatrix(F7, seq)
    solver = ColumnSolver(F7, seq)
    assert m.rank() == solver.rank == 3
    # each relation combines the inputs to 0
    kernel = m.kernel()
    assert len(kernel) == 3
    for relation in kernel:
        assert relation and combination(F7, relation, seq) == {}
    # each canonical row is a combination of the inputs
    for row in Echelon.of(F7, seq).basis():
        x = solver.solve(row)
        assert x is not None and combination(F7, x, seq) == row


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_sparse_matrix_against_oracle(name):
    field, columns_strategy = FIELDS[name]

    @seed(20210117)
    @given(columns_strategy)
    @settings(max_examples=120, deadline=None)
    def check(columns):
        # the columns are vectors over NCOLS row indices
        m = SparseMatrix(field, columns)
        kernel = m.kernel()
        assert m.rank() == oracle_rank(field, columns, NCOLS)
        assert kernel == null_space(field, columns, NCOLS)
        assert m.rank() + len(kernel) == len(columns)
        if field == QQ:
            assert all(exact_rational(x) for v in kernel for x in v.values())

    check()


# -- interleaved adds and reads against the dense oracle --------------------

VECTOR_OPS = ["add", "reduce", "express", "solve"]
READ_OPS = ["basis", "rows", "primitive_rows", "kernel"]


def op_sequences(value):
    vec = st.dictionaries(st.integers(0, NCOLS - 1), value, max_size=4)
    op = st.one_of(
        st.tuples(st.sampled_from(VECTOR_OPS), vec),
        st.tuples(st.sampled_from(READ_OPS), st.just({})),
    )
    return st.lists(op, max_size=14)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_interleaved_echelon_against_oracle(name):
    """Any mix of adds and reads gives what the dense oracle gives."""
    field = FIELDS[name][0]
    value = q_value() if field == QQ else st.integers(1, 6)

    def exact(values):
        assert field != QQ or all(exact_rational(x) for x in values)

    @seed(20210118)
    @given(op_sequences(value))
    @settings(max_examples=150, deadline=None)
    def check(ops):
        ech, inputs = Echelon(field), []
        for op, vec in ops:
            reduced = rref(field, inputs, NCOLS)
            by_pivot = {min(row): row for row in reduced}
            residue = normal_form(field, reduced, vec)
            if op == "add":
                inputs.append(vec)
                assert ech.add(vec) == (min(residue) if residue else None)
            elif op == "reduce":
                got = ech.reduce(vec)
                exact(got.values())
                assert got == residue
            elif op == "express":
                coeffs = ech.express(vec)
                assert (coeffs is None) == bool(residue)
                if coeffs is not None:
                    exact(coeffs.values())
                    assert combination(field, coeffs, by_pivot) == vec
            elif op == "solve":
                solver = ColumnSolver(field, inputs)
                for _ in range(2):  # the second solve reuses the echelon
                    x = solver.solve(vec)
                    assert (x is None) == bool(residue)
                    if x is not None:
                        exact(x.values())
                        assert combination(field, x, inputs) == vec
            elif op == "basis":
                assert ech.basis() == reduced
            elif op == "rows":
                assert ech.rows == by_pivot
                exact(x for row in ech.rows.values() for x in row.values())
            elif op == "primitive_rows":
                prim = ech.primitive_rows
                assert {p: field.div_vec(row, row[p]) for p, row in prim.items()} == by_pivot
                if field == QQ:  # primitive integer rows, positive pivot entry
                    for p, row in prim.items():
                        assert all(type(x) is int for x in row.values())
                        assert row[p] > 0 and math.gcd(*row.values()) == 1
            else:
                kernel = SparseMatrix(field, inputs).kernel()
                exact(x for v in kernel for x in v.values())
                assert kernel == null_space(field, inputs, NCOLS)
            reduced = rref(field, inputs, NCOLS)
            assert ech.pivots() == [min(row) for row in reduced]
            # a copy, so that the check itself leaves the cache state alone
            assert copy.deepcopy(ech).basis() == reduced

    check()


# -- batch order: shortest support first, outputs independent of the order --


def batches(field, rows_strategy):
    """Random batches with repeated and dependent vectors mixed in:
    rows[i] + c*rows[j] for drawn i, j and c (c = 0 repeats rows[i])."""

    @st.composite
    def draw(draw):
        rows = draw(rows_strategy)
        if rows:
            index = st.integers(0, len(rows) - 1)
            for i, j, c in draw(st.lists(st.tuples(index, index, st.integers(0, 3)), max_size=4)):
                vec = dict(rows[i])
                field.axpy(vec, field.of(c), rows[j])
                rows.append(vec)
        return rows

    return draw()


def _span_outputs(ech, probes):
    return ech.rank, ech.pivots(), ech.rows, ech.primitive_rows, [ech.reduce(v) for v in probes]


def _extend_in_arrival_order(ech, vectors):
    for vec in vectors:
        ech.add(vec)
    return ech


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_echelon_outputs_do_not_depend_on_the_batch_order(name):
    field, rows_strategy = FIELDS[name]

    @seed(20210106)
    @given(st.data(), rows_strategy)
    @settings(max_examples=100, deadline=None)
    def check(data, probes):
        batch = data.draw(batches(field, rows_strategy))
        shuffled = data.draw(st.permutations(batch))
        expected = _span_outputs(_extend_in_arrival_order(Echelon(field), batch), probes)
        assert _span_outputs(Echelon.of(field, batch), probes) == expected
        assert _span_outputs(Echelon.of(field, shuffled), probes) == expected

    check()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_tracked_columns_do_not_depend_on_the_batch_order(name):
    """The kernel and the basic solutions are the same whether the tracked
    columns go in shortest first or in arrival order: the tracking
    indices, not the insertion order, say which columns come earlier."""
    field, rows_strategy = FIELDS[name]

    def results(columns, targets):
        solver = ColumnSolver(field, columns)
        solutions = [solver.solve(b) for b in targets + columns]
        return SparseMatrix(field, columns).kernel(), solver.rank, solutions

    @seed(20210107)
    @given(batches(field, rows_strategy), rows_strategy)
    @settings(max_examples=100, deadline=None)
    def check(columns, targets):
        shortest_first = results(columns, targets)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Echelon, "extend", _extend_in_arrival_order)
            assert results(columns, targets) == shortest_first

    check()


class _RecordingEchelon(Echelon):
    """An Echelon that records every vector added to it."""

    def __init__(self, field):
        super().__init__(field)
        self.added = []

    def add(self, vec):
        self.added.append(vec)
        return super().add(vec)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_echelon_of_adds_shortest_first(name):
    field, rows_strategy = FIELDS[name]

    @seed(20210108)
    @given(batches(field, rows_strategy))
    @settings(max_examples=60, deadline=None)
    def check(batch):
        # a stable sort: equal sizes keep their arrival order
        assert _RecordingEchelon.of(field, batch).added == sorted(batch, key=len)

    check()


@pytest.mark.parametrize("field", [QQ, F7], ids=["Q", "F7"])
def test_add_brackets_adds_shortest_first(field):
    # twisted coordinates, so the brackets have supports of many sizes
    path = os.path.join(os.path.dirname(__file__), "golden", "inputs", "mn-twisted.lie")
    eng = load_presentation(path, field=field).engine
    n = 5
    gens = [(1, {i: field.one}) for i in range(eng.dim(1))]

    def units(m):
        return [{i: field.one} for i in range(eng.dim(m))]

    arrival = [eng.bracket_vec(n - w, v, w, g) for w, g in gens for v in units(n - w)]
    sizes = [len(v) for v in arrival]
    assert sizes != sorted(sizes)
    added = add_brackets(_RecordingEchelon(field), units, gens, n, eng.bracket_vec).added
    assert added == sorted(arrival, key=len)

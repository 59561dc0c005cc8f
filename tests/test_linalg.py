from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from catres.linalg import (
    FieldSpec,
    Mat,
    MAX_PRIME,
    RowBasis,
    _check_int64_headroom,
    coords_in_rows,
    left_nullspace,
    nullspace,
    rank,
    row_basis,
    row_span_contains,
    rref,
    solve,
    solve_left,
)
from oracles import naive_matmul, naive_rank, naive_rref

F5 = FieldSpec("prime", 5)
QQ = FieldSpec("rational")


def test_fieldspec_validation():
    with pytest.raises(ValueError):
        FieldSpec("prime", 6)
    with pytest.raises(ValueError):
        FieldSpec("prime", None)
    with pytest.raises(ValueError):
        FieldSpec("weird")
    assert FieldSpec("prime", 2).one == 1
    assert QQ.coerce("2/3") == Fraction(2, 3)
    assert F5.coerce(-1) == 4
    assert F5.inv(2) == 3


def test_rref_zero_matrix():
    r, piv, rk = rref(Mat.zeros(F5, 2, 2))
    assert rk == 0 and piv == []
    assert r.is_zero()


def test_rref_identity():
    m = Mat.identity(F5, 3)
    r, piv, rk = rref(m)
    assert rk == 3 and r == m


def test_rref_rank_one_mod5():
    # [[1,2],[2,4]] over F_5: rank 1, pivot col 0
    m = Mat.from_rows(F5, [[1, 2], [2, 4]])
    r, piv, rk = rref(m)
    assert rk == 1 and piv == [0]
    assert r.tolist() == [[1, 2], [0, 0]]


def test_solve_identity_and_zero():
    b = Mat.from_rows(F5, [[1], [2], [3]])
    x = solve(Mat.identity(F5, 3), b)
    assert x == b
    z = solve(Mat.zeros(F5, 2, 2), Mat.zeros(F5, 2, 1))
    assert z is not None and z.is_zero()


def test_solve_scalar_mod5():
    # 2x = 3 mod 5  ->  x = 4
    x = solve(Mat.from_rows(F5, [[2]]), Mat.from_rows(F5, [[3]]))
    assert x.tolist() == [[4]]


def test_solve_inconsistent():
    a = Mat.from_rows(QQ, [[1, 1], [1, 1]])
    b = Mat.from_rows(QQ, [[1], [2]])
    assert solve(a, b) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(Mat.zeros(F5, 2, 2), Mat.zeros(F5, 3, 1))


def test_nullspace_identity_and_zero():
    assert nullspace(Mat.identity(F5, 3)).cols == 0
    assert nullspace(Mat.zeros(F5, 2, 3)).cols == 3


def test_nullspace_rationals():
    # [[1,1]] over Q -> span{(1,-1)}
    n = nullspace(Mat.from_rows(QQ, [[1, 1]]))
    assert n.cols == 1
    v = [n[0, 0], n[1, 0]]
    assert v[0] == -v[1] and v[0] != 0


def _rand_mat(draw, field, rows, cols):
    if field.kind == "prime":
        entries = draw(
            st.lists(st.integers(0, field.p - 1), min_size=rows * cols, max_size=rows * cols)
        )
    else:
        entries = draw(
            st.lists(
                st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
                min_size=rows * cols,
                max_size=rows * cols,
            )
        )
    return Mat.from_rows(field, [entries[i * cols : (i + 1) * cols] for i in range(rows)])


@st.composite
def mats(draw, max_dim=5):
    field = draw(st.sampled_from([FieldSpec("prime", 2), F5, QQ]))
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    return _rand_mat(draw, field, rows, cols)


@given(mats())
def test_rref_is_idempotent(m):
    r, piv, rk = rref(m)
    r2, piv2, rk2 = rref(r)
    assert r2 == r and piv2 == piv and rk2 == rk


@given(mats())
def test_rref_matches_naive_oracle(m):
    r, piv, rk = rref(m)
    rows, piv2 = naive_rref(m.tolist(), m.field)
    assert piv == piv2
    assert r.tolist() == [[m.field.coerce(x) for x in row] for row in rows]


@given(mats())
def test_rank_nullity(m):
    n = nullspace(m)
    assert rank(m) + n.cols == m.cols
    assert (m @ n).is_zero()


@given(mats(), st.integers(0, 10**6))
def test_solve_exactness_or_certified_failure(m, seed):
    # rhs = m @ x0 for a derived x0 must be solvable; random rhs either solves
    # exactly or rank([A|b]) > rank(A).
    field = m.field
    x0 = Mat.from_rows(
        field, [[(seed // (i + 1)) % 3 for _ in range(1)] for i in range(m.cols)]
    )
    b = m @ x0
    x = solve(m, b)
    assert x is not None and m @ x == b
    b2 = Mat.from_rows(field, [[(seed // (i + 2)) % 5] for i in range(m.rows)])
    x2 = solve(m, b2)
    if x2 is None:
        assert rank(m.hstack(b2)) > rank(m)
    else:
        assert m @ x2 == b2


@given(mats())
def test_row_basis_and_membership(m):
    b = row_basis(m)
    assert b.rows == rank(m)
    for i in range(m.rows):
        assert row_span_contains(b, m.row_at(i))
    if b.rows:
        c = coords_in_rows(b, m)
        assert c @ b == m


@st.composite
def row_basis_cases(draw):
    """A basis over F_3 or Q (possibly dependent, possibly with no rows) and
    a batch of vectors, inside its span or drawn at random."""
    field = draw(st.sampled_from([FieldSpec("prime", 3), QQ]))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 4))
    basis = _rand_mat(draw, field, k, n) if k else Mat.zeros(field, 0, n)
    if k and draw(st.booleans()):
        # mix in combinations of the rows, then shuffle: dependent rows anywhere
        basis = basis.vstack(_rand_mat(draw, field, draw(st.integers(1, 3)), k) @ basis)
        basis = basis.take_rows(draw(st.permutations(range(basis.rows))))
    m = draw(st.integers(1, 4))
    if basis.rows and draw(st.booleans()):
        v = _rand_mat(draw, field, m, basis.rows) @ basis
    else:
        v = _rand_mat(draw, field, m, n)
    return basis, v


@given(row_basis_cases())
def test_row_basis_matches_solve_left_and_naive_rank(case):
    basis, v = case
    f = basis.field
    rb = RowBasis(basis)
    assert rb.rank == naive_rank(basis.tolist(), f)
    inside = naive_rank(basis.tolist() + v.tolist(), f) == rb.rank
    assert rb.contains(v) == inside == row_span_contains(basis, v)
    expected = solve_left(basis, v)
    assert (expected is not None) == inside
    if inside:
        assert rb.coords(v).tolist() == expected.tolist()
        assert coords_in_rows(basis, v).tolist() == expected.tolist()
    else:
        with pytest.raises(ValueError):
            rb.coords(v)
    # one row at a time agrees with the batch
    for i in range(v.rows):
        row_inside = naive_rank(basis.tolist() + [v.tolist()[i]], f) == rb.rank
        assert rb.contains(v.row_at(i)) == row_inside


def test_solve_left_and_left_nullspace():
    a = Mat.from_rows(F5, [[1, 2], [0, 1]])
    b = Mat.from_rows(F5, [[2, 4]])
    x = solve_left(a, b)
    assert x @ a == b
    ln = left_nullspace(Mat.from_rows(F5, [[1, 2], [2, 4]]))
    assert ln.rows == 1 and (ln @ Mat.from_rows(F5, [[1, 2], [2, 4]])).is_zero()


def test_block_and_stack_helpers():
    a = Mat.identity(F5, 2)
    b = Mat.from_rows(F5, [[3]])
    d = Mat.block_diag(F5, [a, b])
    assert d.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 3]]
    assert Mat.stack_rows(F5, []).rows == 0
    assert a.flatten_row().tolist() == [[1, 0, 0, 1]]


@given(mats(max_dim=4))
def test_rank_matches_naive(m):
    assert rank(m) == naive_rank(m.tolist(), m.field)


@st.composite
def mat_triples(draw, max_dim=4):
    field = draw(st.sampled_from([FieldSpec("prime", 3), QQ]))
    a = draw(st.integers(1, max_dim))
    b = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    d = draw(st.integers(1, max_dim))
    return (
        _rand_mat(draw, field, a, b),
        _rand_mat(draw, field, b, c),
        _rand_mat(draw, field, c, d),
    )


@given(mat_triples())
def test_matmul_associative_and_distributive(t):
    x, y, z = t
    assert (x @ y) @ z == x @ (y @ z)
    w = _copy_shape_identityish(y)
    assert x @ (y + w) == x @ y + x @ w


@given(mat_triples(), st.sampled_from(["none", "left", "right"]))
def test_matmul_matches_naive_oracle(t, zero):
    x, y, _ = t
    if zero == "left":
        x = Mat.zeros(x.field, x.rows, x.cols)
    elif zero == "right":
        y = Mat.zeros(y.field, y.rows, y.cols)
    expected = naive_matmul(x.tolist(), y.tolist(), x.field)
    assert (x @ y).tolist() == [[x.field.coerce(v) for v in row] for row in expected]


def test_int64_headroom_guard():
    p = 1048573  # largest prime below MAX_PRIME
    assert p < MAX_PRIME
    _check_int64_headroom(1 << 23, p)
    limit = ((1 << 63) - 1) // (p - 1) ** 2  # largest inner dimension that fits
    _check_int64_headroom(limit, p)
    with pytest.raises(ValueError, match="overflow int64"):
        _check_int64_headroom(limit + 1, p)
    _check_int64_headroom((1 << 61) - 1, 3)
    with pytest.raises(ValueError):
        _check_int64_headroom(1 << 61, 3)  # 2**61 * 2**2 = 2**63


def _copy_shape_identityish(y):
    m = Mat.zeros(y.field, y.rows, y.cols).a.copy()
    for i in range(min(y.rows, y.cols)):
        m[i, i] = y.field.one
    return Mat(y.field, m)


@given(mats(max_dim=4))
def test_transpose_involution_and_rank_invariance(m):
    assert m.T.T == m
    assert rank(m.T) == rank(m)


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_prime_scalar_arithmetic_canonical(a, b):
    f = FieldSpec("prime", 7)
    x, y = f.coerce(a), f.coerce(b)
    assert 0 <= x < 7 and 0 <= y < 7
    assert f.coerce(a + b) == (x + y) % 7
    assert f.coerce(a * b) == (x * y) % 7
    if x:
        assert (x * f.inv(x)) % 7 == 1

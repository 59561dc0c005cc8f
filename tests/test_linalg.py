from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from catres.linalg import (
    FieldSpec,
    Mat,
    MAX_PRIME,
    RowBasis,
    _check_int64_headroom,
    _rref_prime,
    coords_in_rows,
    left_nullspace,
    nullspace,
    rank,
    reverse_row_basis,
    row_basis,
    rref,
    solve,
    solve_left,
)
from oracles import (
    list_block_diag_rows,
    list_first_differing_row,
    list_permuted,
    list_reverse_row_basis,
    list_take_cols,
    naive_matmul,
    naive_rank,
    naive_rref,
    numpy_rref_prime,
)

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


@st.composite
def sparse_prime_mats(draw):
    """Tall sparse F_p matrices, the shapes the library reduces: up to
    80 x 30, density at most 0.2, with all-zero rows mixed in."""
    p = draw(st.sampled_from([2, 3, 5]))
    rows, cols = draw(st.integers(1, 80)), draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(1, p, (rows, cols)) * (rng.random((rows, cols)) < density)
    a[rng.random(rows) < draw(st.sampled_from([0.0, 0.3, 0.7])), :] = 0
    return Mat(FieldSpec("prime", p), a.astype(np.int64))


@given(sparse_prime_mats())
@example(Mat.zeros(FieldSpec("prime", 3), 40, 12))
def test_sparse_prime_rref_matches_the_numpy_and_naive_routes(m):
    p, before = m.field.p, m.a.copy()
    r, piv, rk = rref(m)
    via_numpy, piv_numpy = numpy_rref_prime(m.a, p)
    via_lists, piv_naive = naive_rref(m.tolist(), m.field)
    assert piv == piv_numpy == piv_naive and rk == len(piv)
    assert r.a.dtype == np.int64 and r.a.shape == m.a.shape
    assert ((0 <= r.a) & (r.a < p)).all()
    assert (r.a == via_numpy).all() and r.tolist() == via_lists
    assert (m.a == before).all()


def test_prime_kernel_reduces_entries_outside_the_residues():
    # a leading 3 and a row of multiples of 3 are zero over F_3
    a = np.array([[3, 7, -2], [6, 4, 1], [0, 0, 3], [-1, 5, 8]], dtype=np.int64)
    out, piv = _rref_prime(a, 3)
    expected, piv_numpy = numpy_rref_prime(a, 3)
    assert piv == piv_numpy == [0, 1]
    assert (out == expected).all()


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
        assert RowBasis(b).contains(m.row_at(i))
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
    assert rb.contains(v) == inside
    expected = solve_left(basis, v)
    assert (expected is not None) == inside
    if inside:
        assert rb.coords(v).tolist() == expected.tolist()
        assert rb.coords(v) @ rb.basis == v
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
    return Mat.from_rows(y.field, [[int(i == j) for j in range(y.cols)] for i in range(y.rows)])


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


def _canonical(m):
    """The carrier invariant: over F_p int64 entries in 0..p-1 over den 1;
    over Q Python ints over a positive den with gcd(den, entries) = 1 (so
    den = 1 for the zero matrix)."""
    if m.field.kind == "prime":
        return m.den == 1 and m.a.dtype == np.int64 and ((m.a >= 0) & (m.a < m.field.p)).all()
    return (
        m.a.dtype == object
        and all(type(x) is int for x in m.a.flat)
        and m.den >= 1
        and gcd(m.den, *m.a.flat) == 1
    )


@given(mat_triples(), st.integers(1, 6))
def test_carrier_stays_canonical_and_matches_the_fraction_oracles(t, k):
    x, y, z = t
    f = x.field
    third = f.coerce(Fraction(1, 3)) if f.kind == "rational" else f.coerce(k)
    w = x.scale(third)  # same shape as x, another denominator over Q
    vals = x.tolist()
    r, piv, _ = rref(x)
    rows, piv2 = naive_rref(vals, f)
    b = row_basis(x)
    c = _rand_mat_from_seed(f, k, x.rows)
    rb = RowBasis(x)
    cases = {
        "matmul": (x @ y, naive_matmul(vals, y.tolist(), f)),
        "rref": (r, [[f.coerce(v) for v in row] for row in rows]),
        "coords": (rb.coords(c @ x) @ x, (c @ x).tolist()),
        "T": (x.T, [list(col) for col in zip(*vals)]),
        "vstack": (x.vstack(w), vals + w.tolist()),
        "hstack": (x.hstack(w), [a + b_ for a, b_ in zip(vals, w.tolist())]),
        "stack_rows": (Mat.stack_rows(f, [w, x, w]), w.tolist() + vals + w.tolist()),
        "block_diag": (
            Mat.block_diag(f, [x, w]),
            [row + [f.zero] * w.cols for row in vals]
            + [[f.zero] * x.cols + row for row in w.tolist()],
        ),
        "with_array": (x.with_array(x.a[:, :1]), [row[:1] for row in vals]),
        "row_at": (w.row_at(x.rows - 1), [w.tolist()[-1]]),
        "flatten_row": (w.flatten_row(), [[v for row in w.tolist() for v in row]]),
        "sum": (
            x + w,
            [[f.coerce(a + b_) for a, b_ in zip(p, q)] for p, q in zip(vals, w.tolist())],
        ),
        "difference": (x - x, [[f.zero] * x.cols for _ in vals]),
    }
    assert piv == piv2
    for name, (m, expected) in cases.items():
        assert _canonical(m), name
        assert m.tolist() == expected, name
    for m in (b, nullspace(x), rb._r, rb._t, rb.coords(c @ x)):
        assert _canonical(m)


def _rand_mat_from_seed(field, seed, rows):
    """A 1 x rows coordinate row with small entries, one of them nonzero."""
    return Mat.from_rows(field, [[(seed * (i + 1)) % 3 + (i == 0) for i in range(rows)]])


@given(mats())
def test_equal_values_built_by_different_routes_compare_equal(m):
    f = m.field
    assert Mat.from_rows(f, m.tolist()) == m
    assert m.scale(3).scale(f.inv(3)) == m
    assert m + m - m == m
    assert m.T.T == m and m.flatten_row().reshape(m.rows, m.cols) == m
    if f.kind == "rational":
        # a non-canonical (den, a) pair is normalised on construction
        assert Mat(f, m.a * 6, m.den * 6) == m
        assert m.scale(Fraction(1, 2)) == Mat(f, m.a, m.den * 2)
        assert (m == m.scale(Fraction(1, 2))) == m.is_zero()


def test_products_and_sums_normalise_their_denominator():
    half = Mat.from_rows(QQ, [[Fraction(1, 2), Fraction(3, 2)]])
    two = Mat.from_rows(QQ, [[2], [2]])
    prod = half @ two
    assert (prod.den, prod.a.tolist()) == (1, [[4]]) and prod == Mat.from_rows(QQ, [[4]])
    s = half + Mat.from_rows(QQ, [[Fraction(1, 2), Fraction(1, 2)]])
    assert (s.den, s.a.tolist()) == (1, [[1, 2]])
    zero = half - half
    assert zero.den == 1 and zero == Mat.zeros(QQ, 1, 2)
    assert Mat(QQ, np.array([[2, 4]], dtype=object), 4) == Mat.from_rows(QQ, [[Fraction(1, 2), 1]])
    mixed = Mat.from_rows(QQ, [[1, 1]]).vstack(half)
    assert mixed.den == 2 and mixed.tolist() == [[1, 1], [Fraction(1, 2), Fraction(3, 2)]]


# -- the regrouping surface: every route against a nested-list route ----------
# Over Q the entries have denominators 1..6, so matrices on different
# denominators meet in every comparison.

FIELDS = [FieldSpec("prime", 3), F5, QQ]


@st.composite
def permute_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    n = int(np.prod(shape))
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    rows = draw(st.sampled_from(divisors))
    m = _rand_mat(draw, field, rows, n // rows)
    axes = tuple(draw(st.permutations(range(len(shape)))))
    out_rows = draw(st.sampled_from(divisors))
    return m, shape, axes, out_rows, n // out_rows


@given(permute_cases())
def test_permuted_matches_the_list_route(case):
    m, shape, axes, rows, cols = case
    expected = list_permuted(m.tolist(), shape, axes, rows, cols)
    assert m.permuted(shape, axes, rows, cols) == Mat.from_rows(m.field, expected)


@given(mats(max_dim=6), st.data())
def test_take_cols_matches_the_list_route(m, data):
    if data.draw(st.booleans()):
        lo = data.draw(st.integers(0, m.cols))
        idx = slice(lo, data.draw(st.integers(lo, m.cols)))
    else:
        idx = data.draw(st.lists(st.integers(0, m.cols - 1), max_size=6))
    got = m.take_cols(idx)
    expected = list_take_cols(m.tolist(), idx, m.cols)
    assert got.rows == m.rows and got.tolist() == expected
    if got.cols:  # canonical over Q: the denominator of the kept columns
        assert got == Mat.from_rows(m.field, expected)


@given(mats(), st.data())
def test_first_differing_row_matches_the_list_route(m, data):
    other = m
    for i in data.draw(st.lists(st.integers(0, m.rows - 1), max_size=2)):
        row = _rand_mat(data.draw, m.field, 1, m.cols)
        parts = [other.take_rows(range(i)), row, other.take_rows(range(i + 1, m.rows))]
        other = Mat.stack_rows(m.field, parts)
    expected = list_first_differing_row(m.tolist(), other.tolist())
    assert m.first_differing_row(other) == other.first_differing_row(m) == expected
    assert (expected is None) == (m == other)


def test_first_differing_row_aligns_denominators():
    a = Mat.from_rows(QQ, [[Fraction(1, 2), 1], [1, 1]])  # over 2
    b = Mat.from_rows(QQ, [[Fraction(1, 2), 1], [1, Fraction(1, 3)]])  # over 6
    assert a.first_differing_row(b) == 1 and b.first_differing_row(a) == 1
    assert a.first_differing_row(a.take_rows([0, 1])) is None
    with pytest.raises(ValueError, match="shape"):
        a.first_differing_row(a.T.take_rows([0]))


@st.composite
def block_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    return field, [_rand_mat(draw, field, n, d * d) for d in dims], dims


@given(block_cases())
def test_block_diag_rows_matches_the_list_route(case):
    field, flats, dims = case
    got = Mat.block_diag_rows(field, flats, dims)
    expected = list_block_diag_rows([f.tolist() for f in flats], dims)
    assert got.rows == flats[0].rows and got.tolist() == expected
    if got.cols:
        assert got == Mat.from_rows(field, expected)


@given(mats(max_dim=6))
def test_reverse_row_basis_matches_the_list_route(m):
    got = reverse_row_basis(m)
    expected = list_reverse_row_basis(m.tolist(), m.field)
    assert got.rows == len(expected) and got.cols == m.cols
    assert got.tolist() == [[m.field.coerce(x) for x in r] for r in expected]


@given(mats(max_dim=5), st.data())
def test_reverse_row_basis_of_a_kernel_span_is_the_nullspace_basis(m, data):
    kernel = nullspace(m).T
    if kernel.rows:
        mixed = _rand_mat(data.draw, m.field, data.draw(st.integers(1, 3)), kernel.rows)
        spanning = (mixed @ kernel).vstack(kernel.scale(-1))
        assert reverse_row_basis(spanning) == kernel

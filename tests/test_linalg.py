from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from catres import linalg
from catres.algebra import quotient_projection
from catres.linalg import (
    FieldSpec,
    Mat,
    MAX_PRIME,
    RowBasis,
    _gauss_jordan,
    _int64_fits,
    coords_in_rows,
    first_non_intertwiner,
    left_nullspace,
    nullspace,
    placed_row_basis,
    rank,
    reverse_row_basis,
    row_basis,
    rref,
    solve,
    solve_left,
)
from oracles import (
    augmented_solve,
    fraction_free_rref,
    list_block_diag_rows,
    list_first_differing_row,
    list_identity_columns,
    list_permuted,
    list_reverse_row_basis,
    list_take_cols,
    naive_matmul,
    naive_non_intertwiner,
    naive_rank,
    naive_rref,
    numpy_rref_prime,
    object_matmul,
    two_product_non_intertwiner,
)

F5 = FieldSpec("prime", 5)
QQ = FieldSpec("rational")
# a rational carrier is int64 exactly when every |numerator| is below it
WORD = 1 << 62
BIG_DEN = 2**65 + 7


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


def _random_prime_mat(p, rows, cols, density, zero_rows, seed):
    """A random F_p matrix: each entry nonzero with probability ``density``,
    then each row zeroed with probability ``zero_rows``."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, p, (rows, cols)) * (rng.random((rows, cols)) < density)
    a[rng.random(rows) < zero_rows, :] = 0
    return Mat(FieldSpec("prime", p), a.astype(np.int64))


@st.composite
def sparse_prime_mats(draw):
    """F_p matrices of the shapes the library reduces and past them: tall
    (up to 80 x 30) or wide (up to 30 x 200), sparse up to dense, with
    all-zero rows mixed in."""
    p = draw(st.sampled_from([2, 3, 5]))
    tall = draw(st.booleans())
    rows = draw(st.integers(1, 80 if tall else 30))
    cols = draw(st.integers(1, 30 if tall else 200))
    density = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]))
    zero_rows = draw(st.sampled_from([0.0, 0.3, 0.7]))
    return _random_prime_mat(p, rows, cols, density, zero_rows, draw(st.integers(0, 2**32 - 1)))


@given(sparse_prime_mats())
@example(Mat.zeros(FieldSpec("prime", 3), 40, 12))
@example(_random_prime_mat(3, 20, 164, 0.013, 0.0, 1))  # a typical Hom system
@example(_random_prime_mat(3, 126, 21, 0.1, 0.3, 2))
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


def _random_rational_mat(rows, cols, density, zero_rows, big, dependent, den, seed):
    """A random Q matrix: each numerator nonzero in [-9, 9] with probability
    ``density``, each row zeroed with probability ``zero_rows``, then with
    ``big`` about half the entries times 2**70 + 1 (past int64), then
    ``dependent`` integer combinations of the rows appended and the rows
    shuffled, all over the denominator ``den``."""
    rng = np.random.default_rng(seed)
    a = rng.integers(-9, 10, (rows, cols)) * (rng.random((rows, cols)) < density)
    a[rng.random(rows) < zero_rows, :] = 0
    a = a.astype(object)
    if big:
        a[rng.random((rows, cols)) < 0.5] *= 2**70 + 1
    if dependent:
        a = np.vstack([a, rng.integers(-3, 4, (dependent, rows)).astype(object) @ a])
    return Mat(QQ, a[rng.permutation(a.shape[0])], den)


@st.composite
def sparse_rational_mats(draw):
    """Q matrices, tall (up to 40 x 15) or wide (up to 15 x 60), sparse up
    to dense, with zero rows, dependent rows, denominators and numerators
    past int64."""
    tall = draw(st.booleans())
    rows = draw(st.integers(1, 40 if tall else 15))
    cols = draw(st.integers(1, 15 if tall else 60))
    return _random_rational_mat(
        rows,
        cols,
        draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0])),
        draw(st.sampled_from([0.0, 0.3])),
        draw(st.booleans()),
        draw(st.integers(0, 3)),
        draw(st.sampled_from([1, 6, 2**65 + 7])),
        draw(st.integers(0, 2**32 - 1)),
    )


@given(sparse_rational_mats())
@example(Mat.zeros(QQ, 12, 7))
@example(_random_rational_mat(20, 60, 0.03, 0.0, False, 2, 1, 1))  # a sparse Hom system
@example(_random_rational_mat(15, 15, 1.0, 0.0, True, 3, 2**65 + 7, 2))
def test_rational_rref_matches_the_fraction_free_and_naive_routes(m):
    before = m.a.copy()
    r, piv, rk = rref(m)
    via_columns, piv_columns, den = fraction_free_rref(m.a)
    via_lists, piv_naive = naive_rref(m.tolist(), m.field)
    assert piv == piv_columns == piv_naive and rk == len(piv)
    assert _canonical(r) and r.a.shape == m.a.shape
    assert r == Mat(QQ, via_columns, den) and r.tolist() == via_lists
    assert (m.a == before).all()


def test_prime_kernel_reduces_entries_outside_the_residues():
    # a leading 3 and a row of multiples of 3 are zero over F_3
    a = np.array([[3, 7, -2], [6, 4, 1], [0, 0, 3], [-1, 5, 8]], dtype=np.int64)
    out, piv = _gauss_jordan(a, 3)
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
    assert x is not None and m @ x == b and x == augmented_solve(m, b)
    b2 = Mat.from_rows(field, [[(seed // (i + 2)) % 5] for i in range(m.rows)])
    x2 = solve(m, b2)
    assert x2 == augmented_solve(m, b2)
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
    expected, got = augmented_solve(basis.T, v.T), solve_left(basis, v)
    assert (expected is not None) == inside and (got is not None) == inside
    if inside:
        expected = expected.T
        assert got == expected
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


def _row_basis_edge_cases(field):
    """(label, basis, batch): rank 0, full rank (no free column) and a
    dependent basis, each with a batch of rows inside and outside the span
    (full rank leaves no row outside)."""
    m = lambda rows: Mat.from_rows(field, rows)
    inside_outside = m([[0, 0, 0], [1, 0, 0]])
    dependent = m([[1, 2, 0], [2, 4, 0], [0, 1, 1], [1, 3, 1]])  # rank 2
    return [
        ("no rows", Mat.zeros(field, 0, 3), inside_outside),
        ("zero rows", m([[0, 0, 0], [0, 0, 0]]), inside_outside),
        ("full rank", m([[1, 2, 0], [0, 1, 1], [1, 0, 2]]), m([[1, 1, 1], [2, 0, 1], [0, 0, 0]])),
        ("dependent", dependent, m([[3, 7, 1], [0, 0, 1], [1, 3, 1]])),
    ]


@pytest.mark.parametrize("field", [FieldSpec("prime", 3), QQ], ids=["F3", "Q"])
def test_row_basis_checks_only_the_free_columns_and_keeps_the_verdicts(field):
    cases = _row_basis_edge_cases(field)
    assert [len(RowBasis(basis)._free) for _, basis, _ in cases] == [3, 3, 0, 1]
    for label, basis, batch in cases:
        rb = RowBasis(basis)
        for i in range(batch.rows):
            v = batch.row_at(i)
            expected = augmented_solve(basis.T, v.T)
            assert rb.contains(v) == (expected is not None), (label, i)
            got = rb.solve(v)
            assert (got is None) == (expected is None), (label, i)
            if got is not None:
                assert got == expected.T and got @ basis == v, (label, i)


@pytest.mark.parametrize("field", [FieldSpec("prime", 3), QQ], ids=["F3", "Q"])
@pytest.mark.parametrize("cells", [1, 3, 7, 1 << 20])
def test_a_batch_checked_in_row_blocks_keeps_its_verdict(monkeypatch, field, cells):
    # the span check of a batch goes in blocks of rows; a row outside the
    # span in the last block still refuses the batch
    from catres import linalg

    monkeypatch.setattr(linalg, "_CHECK_CELLS", cells)
    for label, basis, batch in _row_basis_edge_cases(field):
        rb = RowBasis(basis)
        inside = [i for i in range(batch.rows) if rb.contains(batch.row_at(i))]
        v = batch.take_rows(inside * 3)
        assert rb.solve(v) @ basis == v, label
        for i in set(range(batch.rows)) - set(inside):
            assert not rb.contains(v.vstack(batch.row_at(i))), (label, i)


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
    assert _int64_fits(1 << 23, p - 1, p - 1)
    limit = ((1 << 63) - 1) // (p - 1) ** 2  # largest inner dimension that fits
    assert _int64_fits(limit, p - 1, p - 1)
    assert not _int64_fits(limit + 1, p - 1, p - 1)
    # the F_p product refuses before it reads an entry, so the zero pages of
    # these two 64 MB arrays are never touched
    f = FieldSpec("prime", p)
    message = f"F_{p} product with inner dimension {limit + 1} would overflow int64"
    with pytest.raises(ValueError, match=message):
        Mat.zeros(f, 1, limit + 1) @ Mat.zeros(f, limit + 1, 1)
    assert _int64_fits((1 << 61) - 1, 2, 2)
    assert not _int64_fits(1 << 61, 2, 2)  # 2**61 * 2**2 = 2**63


def _q_mat(rows, den=1):
    return Mat(QQ, np.array(rows, dtype=object), den)


def _check_product(x, y):
    """x @ y against the Fraction and the object-int routes."""
    prod = x @ y
    assert prod == object_matmul(x, y)
    assert prod.tolist() == naive_matmul(x.tolist(), y.tolist(), QQ)
    return prod


def test_q_zero_product_over_denominators_past_int64(object_products):
    # the int64 product is 0 over den 1, not over den (2**65 + 7)**2, which
    # no int64 divides it by; as a factor again it runs in int64
    big = 2**65 + 7
    zero = _check_product(_q_mat([[1, 0]], big), _q_mat([[0], [1]], big))
    assert zero.is_zero() and zero.den == 1
    assert _check_product(zero, _q_mat([[1, 2]])).is_zero() and object_products == []


# 2**63 - 1 = 7**2 * 73 * 127 * 337 * 92737 * 649657
_BELOW = (7, 7 * 73 * 127, 337 * 92737 * 649657)


@pytest.mark.parametrize("den", [1, 5])
def test_q_product_at_the_word_size_bound(object_products, den):
    # inner dimension k, max|A|, max|B| with k * max|A| * max|B| = 2**63 - 1
    # runs in int64; at 2**63 the product leaves int64 and runs on Python ints
    for (k, a, b), route in ((_BELOW, []), ((2, 1 << 31, 1 << 31), [((1, 2), (2, 1))])):
        assert k * a * b == (1 << 63) - (not route)
        object_products.clear()
        x = _q_mat([[a] * k], den)
        y = _q_mat([[b] for _ in range(k)], 3)
        prod = _check_product(x, y)  # 2**63 would wrap to -2**63 in int64
        assert prod[0, 0] == Fraction(k * a * b, den * 3)
        assert object_products[:1] == route


@pytest.mark.parametrize(
    "entry",
    [WORD - 1, -WORD + 1, WORD, -WORD, (1 << 63) - 1, -(1 << 63) + 1, -(1 << 63), 1 << 63],
)
def test_q_product_of_entries_at_the_edge_of_int64(object_products, entry):
    # a numerator below 2**62 is carried in int64 and its products run there
    # when the word-size rule admits them; from 2**62 on, and so past the
    # int64 limits +-(2**63 - 1), -2**63 and 2**63, it is carried on Python
    # ints and so are its products, also by a zero factor
    x = _q_mat([[entry], [1]], 3)  # inner dimension 1
    word = abs(entry) < WORD
    assert _canonical(x) and (x.a.dtype == np.int64) == word
    for y in (_q_mat([[1, 0]]), _q_mat([[0, -1]], 5), _q_mat([[0, 0]])):
        object_products.clear()
        _check_product(x, y)
        assert bool(object_products) != word
    # by 2 an int64 entry's product runs in int64 and its result, past
    # 2**62, is carried on Python ints; by 3 it leaves int64
    object_products.clear()
    assert _canonical(_check_product(x, _q_mat([[2, 1]])))
    assert bool(object_products) != word
    object_products.clear()
    _check_product(x, _q_mat([[3, 1]]))
    assert object_products


@st.composite
def products_near_the_word_size_bound(draw):
    """Rational x (m x k) and y (k x n) whose numerators put
    k * max|x| * max|y| within a few units of 2**63, denominators not 1."""
    m, k, n = (draw(st.integers(1, 3)) for _ in range(3))
    a = draw(st.integers(1, (1 << 62) // k))
    b = (1 << 63) // (k * a) + draw(st.integers(-2, 2))
    b = max(b, 1)

    def entries(rows, cols, top):
        flat = draw(st.lists(st.integers(-top, top), min_size=rows * cols, max_size=rows * cols))
        flat[0] = draw(st.sampled_from([top, -top]))
        return [flat[i * cols : (i + 1) * cols] for i in range(rows)]

    dens = st.integers(2, 30)
    return _q_mat(entries(m, k, a), draw(dens)), _q_mat(entries(k, n, b), draw(dens))


@given(products_near_the_word_size_bound())
@example((_q_mat([[-(1 << 31), 1 << 31]], 3), _q_mat([[1 << 31], [1 << 31]], 7)))
@example((_q_mat([[-1] * 7], 9), _q_mat([[(1 << 63) // 7]] * 7, 2)))
def test_q_products_near_the_word_size_bound_match_the_oracles(xy):
    x, y = xy
    prod = _check_product(x, y)
    # the product as a factor again, on int64 below 2**62, else on Python ints
    z = _q_mat([[1 - 2 * (j % 2)] for j in range(y.cols)], 7)
    _check_product(prod, z)
    _check_product(x.T.take_rows([0]), prod.take_cols(slice(0, 1)))


# -- the row-gather route of the word-size product ----------------------------

F_BIG = FieldSpec("prime", 1048573)  # the largest prime below MAX_PRIME


@st.composite
def products_past_the_gather_floor(draw):
    """x (m x k) @ y (k x n) of at least 2**15 multiply-adds with at most
    one entry of x in 16 nonzero, over F_2, F_3, F_1048573 and Q
    (numerators up to 2**20 of either sign, over denominators): x is all
    zero, or zero but for one nonzero a row, or sparse with or without zero
    rows; y is dense."""
    field = draw(st.sampled_from([FieldSpec("prime", 2), FieldSpec("prime", 3), F_BIG, QQ]))
    m, k, n = draw(st.integers(48, 64)), draw(st.integers(30, 36)), draw(st.integers(32, 40))
    pattern = draw(st.sampled_from(["all zero", "one a row", "sparse", "sparse, zero rows"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = field.p - 1 if field.characteristic else 1 << 20
    x = np.zeros((m, k), dtype=np.int64)
    if pattern == "one a row":
        x[np.arange(m), rng.integers(0, k, m)] = rng.integers(1, top + 1, m)
    elif pattern != "all zero":
        at = np.zeros(m * k, dtype=bool)
        at[rng.choice(m * k, m * k // 16, replace=False)] = True
        at = at.reshape(m, k)
        if pattern == "sparse, zero rows":
            at[rng.random(m) < 0.5] = False
        x[at] = rng.integers(1, top + 1, int(at.sum()))
    y = rng.integers(0, top + 1, (k, n))
    if field.characteristic:
        return Mat(field, x), Mat(field, y)
    sign = rng.choice([-1, 1], (m, k))
    return Mat(field, x * sign, int(rng.integers(1, 30))), Mat(field, -y, int(rng.integers(1, 30)))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # cleared per example
@given(products_past_the_gather_floor())
def test_sparse_left_operands_take_the_row_gather_route(row_gathers, xy):
    x, y = xy
    row_gathers.clear()
    prod = x @ y
    assert row_gathers == [(x.rows, x.cols, y.cols)]
    assert _canonical(prod)
    expected = naive_matmul(x.tolist(), y.tolist(), x.field)
    assert prod.tolist() == [[x.field.coerce(v) for v in row] for row in expected]
    if not x.field.characteristic:
        assert prod == object_matmul(x, y)


@pytest.mark.parametrize("field", [FieldSpec("prime", 2), FieldSpec("prime", 3), QQ])
def test_denser_left_operands_take_the_dense_route(row_gathers, field):
    # past the floor, but one entry in 15 nonzero: the dense product is
    # cheaper than gathering, and gives the same entries
    rng = np.random.default_rng(0)
    x = np.zeros(60 * 60, dtype=np.int64)
    x[rng.choice(x.size, x.size // 15, replace=False)] = 1
    x, y = Mat(field, x.reshape(60, 60)), Mat(field, rng.integers(0, 2, (60, 60)))
    prod = x @ y
    assert row_gathers == []
    expected = naive_matmul(x.tolist(), y.tolist(), field)
    assert prod.tolist() == [[field.coerce(v) for v in row] for row in expected]


@pytest.mark.parametrize("field", [FieldSpec("prime", 3), QQ], ids=["F3", "Q"])
@pytest.mark.parametrize("m, k, n", [(0, 64, 64), (64, 0, 64), (64, 64, 0)])
def test_products_with_a_zero_dimension_are_zero(row_gathers, field, m, k, n):
    prod = Mat.zeros(field, m, k) @ Mat.identity(field, 64).take_rows(range(k)).take_cols(
        slice(0, n)
    )
    assert prod == Mat.zeros(field, m, n) and row_gathers == []


@pytest.mark.parametrize("edge, gathered", [(_BELOW, True), ((2, 1 << 31, 1 << 31), False)])
def test_q_row_gather_at_the_word_size_bound(object_products, row_gathers, edge, gathered):
    # k * max|x| * max|y| = 2**63 - 1 runs by the row gather in int64; at
    # 2**63 the product leaves int64 for Python ints and gathers nothing
    k, a, b, size = *edge, 200
    x = np.zeros((size, k), dtype=object)
    x[0] = a  # row 0 meets column 0 of y in k * a * b
    at = np.arange(1, size, 4)  # and every fourth row one more: x is under 1/16 nonzero
    x[at, at % k] = [a * (-1) ** i for i in at]
    y = np.array([[b * (-1) ** (i * j) for j in range(size)] for i in range(k)], dtype=object)
    prod = _check_product(Mat(QQ, x, 3), Mat(QQ, y, 5))
    assert prod[0, 0] == Fraction(k * a * b, 15)
    assert (len(row_gathers), len(object_products)) == ((1, 0) if gathered else (0, 1))


_F3 = FieldSpec("prime", 3)
# label -> (a call on mismatched operands, the ValueError message it raises)
_MISMATCHES = {
    "a 1-d array": (lambda: Mat(_F3, np.zeros(3, dtype=np.int64)), "2-d array, not 1-d"),
    "a sum over two fields": (lambda: Mat.zeros(_F3, 1, 1) + Mat.zeros(F5, 1, 1), "field mismatch"),
    "a product over two fields": (
        lambda: Mat.zeros(_F3, 1, 1) @ Mat.zeros(F5, 1, 1),
        "field mismatch",
    ),
    "an hstack over two fields": (
        lambda: Mat.zeros(_F3, 1, 1).hstack(Mat.zeros(QQ, 1, 1)),
        "field mismatch",
    ),
    "an hstack of unequal rows": (
        lambda: Mat.zeros(_F3, 1, 2).hstack(Mat.zeros(_F3, 2, 2)),
        "hstack of 1 rows with 2 rows",
    ),
    "a vstack over two fields": (
        lambda: Mat.zeros(QQ, 1, 1).vstack(Mat.zeros(_F3, 1, 1)),
        "field mismatch",
    ),
    "a vstack of unequal columns": (
        lambda: Mat.zeros(_F3, 1, 2).vstack(Mat.zeros(_F3, 1, 3)),
        "vstack of 2 columns with 3 columns",
    ),
}


@pytest.mark.parametrize("label", sorted(_MISMATCHES))
def test_mismatched_operands_raise_value_error(label):
    # a ValueError, not an assert, so that ``python -O`` checks them too
    make, message = _MISMATCHES[label]
    with pytest.raises(ValueError, match=message):
        make()


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
    over Q a Python int den >= 1 with gcd(den, entries) = 1 (so den = 1 for
    the zero matrix), the numerators int64 exactly when every one of them
    is below 2**62 in absolute value, else Python ints."""
    if m.field.kind == "prime":
        return m.den == 1 and m.a.dtype == np.int64 and ((m.a >= 0) & (m.a < m.field.p)).all()
    nums = [int(x) for x in m.a.flat]
    word = all(abs(x) < WORD for x in nums)
    return (
        m.a.dtype == (np.int64 if word else object)
        and (word or all(type(x) is int for x in m.a.flat))
        and type(m.den) is int
        and m.den >= 1
        and gcd(m.den, *nums) == 1
    )


def _raw(a, den):
    """A rational Mat holding a and den as given, past the constructor."""
    m = object.__new__(Mat)
    m.field, m.a, m.den = QQ, a, den
    return m


def test_the_carrier_check_holds_both_ways():
    # int64 below the word bound and Python ints from it on pass; a carrier
    # on the other dtype, in higher terms or over a numpy den fails
    below = np.array([[WORD - 1, -WORD + 1]], dtype=np.int64)
    at = np.array([[WORD, 1]], dtype=object)
    assert _canonical(_raw(below, 1)) and _canonical(_raw(at, 3))
    for a, den in (
        (below.astype(object), 1),
        (at.astype(np.int64), 3),
        (below * 0 + 2, 2),
        (below, np.int64(1)),
        (at * 2, 2),
    ):
        assert not _canonical(_raw(a, den))
    # the constructor makes the canonical carrier from any of them, int64
    # input at the bound and at -2**63 included
    edge = np.array([[-(1 << 63), 2]], dtype=np.int64)
    for a, den in (
        (below.astype(object), 1),
        (at, 3),
        (at.astype(np.int64), 3),
        (at * 4, 4),
        (edge, 2),
        (below * 0, 2**70),
    ):
        m = Mat(QQ, a, den)
        assert _canonical(m) and m == Mat.from_rows(QQ, [[Fraction(int(x), den) for x in a[0]]])


def test_scalars_read_off_a_carrier_are_python_ints():
    # Fraction(np.int64(2**62 - 1), 1) * 4 would wrap to -4 with only a warning
    m = Mat.from_rows(QQ, [[WORD - 1, -1]])
    assert m.a.dtype == np.int64
    x = m[0, 0]
    assert type(x.numerator) is int and x * 4 == 4 * (WORD - 1)
    assert type(Mat.from_rows(F5, [[3]])[0, 0]) is int
    r = rref(Mat.from_rows(QQ, [[2, 1]]))[0]
    assert type(r.den) is int and r.den == 2


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
    for m in (b, nullspace(x), rb._r_free, rb._t, rb.coords(c @ x)):
        assert _canonical(m)


# numerators on both sides of the word bound, and small ones
_EDGES = [0, 1, -2, 3, WORD - 1, -WORD + 1, WORD, -WORD, WORD + 1, -WORD - 1]


@st.composite
def pairs_at_the_word_bound(draw):
    """Two rational matrices of one shape whose numerators sit at +-(2**62
    - 1), +-2**62, +-(2**62 + 1) or are small, over 1, 3 or 2**65 + 7, the
    latter also over small numerators alone; and a scalar."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    small = st.sampled_from(_EDGES[:4])

    def one():
        nums = st.sampled_from(_EDGES) if draw(st.booleans()) else small
        flat = draw(st.lists(nums, min_size=rows * cols, max_size=rows * cols))
        den = draw(st.sampled_from([1, 3, BIG_DEN]))
        return Mat(QQ, np.array(flat, dtype=object).reshape(rows, cols), den)

    scalar = st.sampled_from([0, 2, -3, Fraction(1, 2), Fraction(-5, BIG_DEN), BIG_DEN])
    return one(), one(), draw(scalar)


def _fractions(rows, f):
    return [[f(x) for x in row] for row in rows]


@given(pairs_at_the_word_bound())
@example((Mat(QQ, np.array([[1, -2]], dtype=object), BIG_DEN),) * 2 + (Fraction(1, 2),))
@example((Mat(QQ, np.array([[WORD - 1], [WORD - 1]], dtype=object)),) * 2 + (2,))
def test_carriers_at_the_word_bound_match_the_fraction_oracles(case):
    x, y, c = case
    xs, ys = x.tolist(), y.tolist()
    cases = {
        "sum": (x + y, [[a + b for a, b in zip(p, q)] for p, q in zip(xs, ys)]),
        "difference": (x - y, [[a - b for a, b in zip(p, q)] for p, q in zip(xs, ys)]),
        "negation": (-x, _fractions(xs, lambda a: -a)),
        "scale": (x.scale(c), _fractions(xs, lambda a: a * c)),
        "product": (x @ y.T, naive_matmul(xs, y.T.tolist(), QQ)),
        "stack_rows": (Mat.stack_rows(QQ, [x, y]), xs + ys),
        "hstack": (x.hstack(y), [p + q for p, q in zip(xs, ys)]),
        "block_diag": (
            Mat.block_diag(QQ, [x, y]),
            [p + [0] * y.cols for p in xs] + [[0] * x.cols + q for q in ys],
        ),
    }
    rows, pivots = naive_rref(xs, QQ)
    free = [j for j in range(x.cols) if j not in pivots]
    kernel = [[Fraction(int(i == j)) for j in free] for i in range(x.cols)]
    for r, pc in enumerate(pivots):
        kernel[pc] = [-rows[r][j] for j in free]
    cases["nullspace"] = (nullspace(x), kernel)
    v = Mat.from_rows(QQ, [[1] * x.rows]) @ x
    expected = augmented_solve(x.T, v.T)
    cases["coords"] = (RowBasis(x).coords(v), expected.T.tolist())
    for name, (m, want) in cases.items():
        assert _canonical(m), name
        assert m.tolist() == want, name
    assert RowBasis(x).coords(v) @ x == v


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


# -- canonical bases: factored with no reduction ----------------------------

# the ``reductions`` fixture patches the kernel once per test: each example
# clears it before the calls it counts
counts_reductions = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


def _scaled(m, rows, cols):
    """Over Q, m with the rows and the columns flagged True divided by
    BIG_DEN: the same row-reduction pattern, other denominators."""
    r = np.array([1 if x else BIG_DEN for x in rows], dtype=object)
    c = np.array([1 if x else BIG_DEN for x in cols], dtype=object)
    return Mat(QQ, m.a * np.outer(r, c), m.den * BIG_DEN**2)


@st.composite
def canonical_bases(draw):
    """(route, basis): a basis that is the identity on some of its columns,
    from each route by which the library makes one, over F_3 or Q, with
    rows and columns of the input over 2**65 + 7 at random over Q."""
    field = draw(st.sampled_from([FieldSpec("prime", 3), QQ]))
    k, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    m = _rand_mat(draw, field, k, n)
    if field == QQ and draw(st.booleans()):
        flags = st.lists(st.booleans(), min_size=k + n, max_size=k + n)
        f = draw(flags)
        m = _scaled(m, f[:k], f[k:])
    route = draw(st.sampled_from(["row_basis", "shuffled", "reverse", "left_nullspace", "placed"]))
    if route == "row_basis":
        return route, row_basis(m)
    if route == "shuffled":  # rref rows out of order: an unmarked plain Mat
        b = row_basis(m)
        return route, b.take_rows(draw(st.permutations(range(b.rows))))
    if route == "reverse":
        return route, reverse_row_basis(m)
    if route == "left_nullspace":
        return route, left_nullspace(m)
    # two reverse_row_basis blocks on disjoint columns of a wider row
    other = _rand_mat(draw, field, draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    where = draw(st.permutations(range(n + other.cols)))
    blocks = [
        (reverse_row_basis(m), sorted(where[:n])),
        (reverse_row_basis(other), sorted(where[n:])),
    ]
    return route, placed_row_basis(field, n + other.cols, blocks)


def _batch(draw, basis, m):
    """m rows: combinations of the basis rows, or any rows, at random."""
    if basis.rows and draw(st.booleans()):
        return _rand_mat(draw, basis.field, m, basis.rows) @ basis
    return _rand_mat(draw, basis.field, m, basis.cols)


def _assert_solves_match_the_augmented_route(rb, basis, v):
    """``contains``, ``solve`` and ``coords`` of rb against the solution
    read off rref([basis^T | v^T])."""
    expected = augmented_solve(basis.T, v.T)
    assert rb.contains(v) == (expected is not None)
    got = rb.solve(v)
    assert got == (None if expected is None else expected.T)
    if expected is None:
        with pytest.raises(ValueError):
            rb.coords(v)
    else:
        assert rb.coords(v) == got and got @ basis == v


def _assert_factored_with_no_reduction(reductions, basis, v):
    reductions.clear()
    rb = RowBasis(basis)
    assert reductions == []
    assert rb.pivots == list_identity_columns(basis.tolist())
    assert rb.rank == basis.rows == naive_rank(basis.tolist(), basis.field)
    assert rb.left_kernel() == left_nullspace(basis)
    _assert_solves_match_the_augmented_route(rb, basis, v)


@counts_reductions
@given(canonical_bases(), st.data())
def test_row_basis_of_a_canonical_basis_reads_its_identity_columns(reductions, case, data):
    _, basis = case
    v = _batch(data.draw, basis, data.draw(st.integers(1, 4)))
    _assert_factored_with_no_reduction(reductions, basis, v)
    rows = row_basis(RowBasis(basis))
    assert rows == row_basis(basis) and list(rows._pivots) == rref(basis)[1]


def test_a_canonical_basis_over_a_denominator_past_int64(reductions):
    # the rows of [I | X] over 2**65 + 7, read at their first and at their
    # last nonzero columns
    x = np.array([[BIG_DEN, 0, 1, 5], [0, BIG_DEN, 2, 0]], dtype=object)
    for a in (x, x[::-1, ::-1]):
        basis = Mat(QQ, a, BIG_DEN)
        assert basis.den == BIG_DEN
        inside = Mat.from_rows(QQ, [[3, 0], [1, -1]]) @ basis
        outside = Mat.from_rows(QQ, [[1, 1, 0, 0]])
        for v in (inside, outside, inside.vstack(outside)):
            _assert_factored_with_no_reduction(reductions, basis, v)


@counts_reductions
@given(canonical_bases(), st.data())
def test_a_nearly_canonical_basis_takes_the_reduction_route(reductions, case, data):
    _, basis = case
    rows = basis.tolist()
    pivots = list_identity_columns(rows)
    if data.draw(st.booleans()) and basis.rows > 1:
        # one extra nonzero in a column where the basis is the identity
        i, j = data.draw(st.permutations(range(basis.rows)))[:2]
        rows[j][pivots[i]] = basis.field.coerce(data.draw(st.integers(1, 2)))
    elif rows:
        # a row repeated: the rows are dependent
        again = rows[data.draw(st.integers(0, len(rows) - 1))]
        rows.insert(data.draw(st.integers(0, len(rows))), list(again))
    else:
        rows = [[basis.field.zero] * basis.cols]  # a zero row
    near = Mat.from_rows(basis.field, rows)
    reductions.clear()
    rb = RowBasis(near)
    # a perturbed basis can still be the identity on other columns
    assert len(reductions) == (list_identity_columns(rows) is None)
    assert rb.rank == naive_rank(rows, basis.field)
    assert rb.left_kernel() == left_nullspace(near)
    v = _batch(data.draw, near, data.draw(st.integers(1, 4)))
    _assert_solves_match_the_augmented_route(rb, near, v)


@pytest.mark.parametrize("field", [FieldSpec("prime", 3), QQ], ids=["F3", "Q"])
def test_a_basis_off_the_identity_on_both_readings_is_reduced(reductions, field):
    # the first nonzeros repeat a column; the last ones read 2, not 1
    near = Mat.from_rows(field, [[1, 0, 2], [1, 1, 0]])
    rb = RowBasis(near)
    assert len(reductions) == 1 and rb.pivots == [0, 1]
    v = Mat.from_rows(field, [[2, 1, 2], [0, 0, 1]])
    _assert_solves_match_the_augmented_route(rb, near, v)


@counts_reductions
@given(mats())
def test_rref_and_quotient_of_a_row_basis_read_its_pivots(reductions, m):
    b = row_basis(m)
    copy = b.with_array(b.a.copy())  # the same matrix, unmarked
    reductions.clear()
    r, pivots, rk = rref(b)
    proj, nonpiv = quotient_projection(b)
    rb = RowBasis(b)
    assert reductions == []
    assert (r, pivots, rk) == rref(copy) and (r.rows, rk) == (b.rows, b.rows)
    assert (proj, nonpiv) == quotient_projection(copy)
    assert rb.pivots == pivots and rb.left_kernel() == left_nullspace(b)
    # a view carries no mark: rref reduces it
    reductions.clear()
    rref(b.take_rows(range(b.rows)))
    assert len(reductions) == (b.rows > 0)


def _check_factoring(basis, reductions):
    """The left kernel and the row basis of one factoring equal
    ``left_nullspace`` and ``row_basis`` of B, and the row basis carries
    the pivots, so that rref reads them with no reduction; a B factored by
    reduction gives its row basis with no second one."""
    factored = RowBasis(basis)
    assert factored.left_kernel() == left_nullspace(basis)
    reductions.clear()
    rows = row_basis(factored)
    assert reductions == [] or factored._kernel is None
    pivots = rref(basis)[1]
    assert rows == row_basis(basis) and list(rows._pivots) == pivots
    reductions.clear()
    assert rref(rows)[1] == pivots and reductions == []


@counts_reductions
@given(row_basis_cases())
def test_the_left_kernel_of_the_factoring_is_the_left_nullspace(reductions, case):
    _check_factoring(case[0], reductions)


@counts_reductions
@given(sparse_rational_mats())
def test_the_left_kernel_matches_over_big_denominators(reductions, m):
    _check_factoring(m, reductions)


# -- content keys --------------------------------------------------------------


@st.composite
def mat_pairs(draw):
    """Two matrices of one field and shape, equal about half the time."""
    field = draw(st.sampled_from([FieldSpec("prime", 2), F5, QQ]))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = _rand_mat(draw, field, rows, cols)
    return m, _rand_mat(draw, field, rows, cols) if draw(st.booleans()) else m


@given(mat_pairs())
def test_key_is_equal_iff_the_matrices_are(pair):
    m, other = pair
    assert (m.key() == other.key()) == (m == other)
    assert hash(m.key()) == hash(m.take_rows(range(m.rows)).key())
    # the same content as a strided view, as a product and as a fresh copy
    # of its numerators
    for twin in (m.T.T, m @ Mat.identity(m.field, m.cols), m.take_rows(range(m.rows))):
        assert twin.key() == m.key()


def test_key_tells_apart_denominators_shapes_and_big_numerators():
    m = Mat.from_rows(QQ, [[Fraction(1, 2), Fraction(3, 2)]])
    halved = Mat(QQ, m.a, m.den * 2)  # the same numerators over twice the den
    assert halved != m and halved.key() != m.key()
    assert m.reshape(2, 1).key() != m.key()
    # a carrier on Python ints is keyed by the ints themselves
    big = np.array([[1 << 70, 1]], dtype=object)
    assert Mat(QQ, big).key() == Mat(QQ, big.copy()).key()
    assert Mat(QQ, big).key() != Mat(QQ, big * 3).key() != Mat(QQ, big, 7).key()
    edge = Mat.from_rows(QQ, [[WORD]])
    assert edge.key() == Mat.from_rows(QQ, [[WORD]]).key() != Mat.from_rows(QQ, [[WORD - 1]]).key()
    # entries that agree in their lowest byte, over a large prime and over Q
    f = FieldSpec("prime", 65537)
    assert Mat.from_rows(f, [[65536, 257]]).key() != Mat.from_rows(f, [[0, 1]]).key()
    assert Mat.from_rows(QQ, [[256, 1]]).key() != Mat.from_rows(QQ, [[0, 1]]).key()
    # one shape at two widths: the lengths differ
    assert Mat.from_rows(QQ, [[1 << 40]]).key() != Mat.from_rows(QQ, [[1]]).key()


# -- the batched intertwining check ------------------------------------------

# the routes of ``first_non_intertwiner``: the broadcast products, with the
# maps in one block or one map per block, and the 2-D products of
# ``Mat.__matmul__``, forced onto its row gather
INTERTWINING_ROUTES = {
    "broadcast": {"_GATHER_FLOOR": 1 << 62},
    "broadcast, one map per block": {"_GATHER_FLOOR": 1 << 62, "_CHECK_CELLS": 1},
    "2-D, gathered": {"_GATHER_FLOOR": 0, "_GATHER_SHARE": 1},
}


def _intertwining_answers(source, target, maps):
    """The kernel's answer on each route, then the two oracles'."""
    answers = []
    for route in INTERTWINING_ROUTES.values():
        with pytest.MonkeyPatch.context() as patch:
            for name, value in route.items():
                patch.setattr(linalg, name, value)
            answers.append(first_non_intertwiner(source, target, maps))
    return answers + [
        two_product_non_intertwiner(source, target, maps),
        naive_non_intertwiner(source, target, maps),
    ]


def _flat_rows(field, mats):
    return Mat.stack_rows(field, [x.flatten_row() for x in mats])


@st.composite
def intertwining_cases(draw, entries=None):
    """(source, target, maps) over one field: actions A_b that are
    polynomials in one m x m matrix X; a target that is the source, the
    source with one entry moved, the source scaled, or other polynomials
    in X; and maps that are polynomials in X (which intertwine the source
    with itself), zero or arbitrary."""
    field = QQ if entries is not None else draw(st.sampled_from([FieldSpec("prime", 2), F5, QQ]))
    d, m, k = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 5))
    if entries is None:
        entries = (
            st.integers(0, field.p - 1) if field.kind == "prime"
            else st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
        )

    def square():
        return Mat.from_rows(field, [[draw(entries) for _ in range(m)] for _ in range(m)])

    x = square()
    powers = [Mat.identity(field, m), x, x @ x]

    def polynomial():
        out = Mat.zeros(field, m, m)
        for power in powers:
            out = out + power.scale(draw(st.integers(-2, 2)))
        return out

    source = _flat_rows(field, [polynomial() for _ in range(d)])
    kind = draw(st.sampled_from(["same", "moved", "scaled", "other"]))
    target = source
    if kind == "moved":
        moved = source.tolist()
        moved[draw(st.integers(0, d - 1))][draw(st.integers(0, m * m - 1))] += 1
        target = Mat.from_rows(field, moved)
    elif kind == "scaled":
        target = source.scale(Fraction(1, 2) if field == QQ else 2)
    elif kind == "other":
        target = _flat_rows(field, [polynomial() for _ in range(d)])
    choices = {"polynomial": polynomial, "zero": lambda: Mat.zeros(field, m, m), "arbitrary": square}
    maps = [choices[draw(st.sampled_from(sorted(choices)))]() for _ in range(k)]
    return source, target, _flat_rows(field, maps) if maps else Mat.zeros(field, 0, m * m)


def _assert_routes_agree(source, target, maps):
    # and against the target over a third of its scale: over Q the same
    # numerators, mostly, over another denominator
    third = target.scale(Fraction(1, 3) if target.field == QQ else 2)
    for other in (target, third):
        answers = _intertwining_answers(source, other, maps)
        assert answers == [answers[-1]] * len(answers)


@settings(max_examples=80)
@given(intertwining_cases())
def test_intertwining_kernel_matches_the_oracles_on_every_route(case):
    _assert_routes_agree(*case)


# numerators at and around the bound of a rational int64 carrier, and 0, +-1
EDGE_NUMERATORS = [0, 1, -1, WORD - 1, -(WORD - 1), WORD, -WORD, WORD + 1, -(WORD + 1)]


@settings(max_examples=60)
@given(intertwining_cases(st.builds(
    Fraction, st.sampled_from(EDGE_NUMERATORS), st.sampled_from([1, 3, BIG_DEN])
)))
def test_intertwining_kernel_matches_the_oracles_at_the_word_bound(case):
    _assert_routes_agree(*case)


def test_intertwining_kernel_finds_a_known_failure():
    # k[x]/x^2 on its regular module (unit, x) into the simple (1, 0): a
    # map intertwines exactly when it kills x, the second basis vector
    for field in (F5, QQ):
        regular = Mat.from_rows(field, [[1, 0, 0, 1], [0, 1, 0, 0]])
        simple = Mat.from_rows(field, [[1], [0]])
        half = Fraction(1, 2) if field == QQ else 3
        maps = Mat.from_rows(field, [[1, 0], [half, 0], [0, 0], [half, 1], [0, 1]])
        assert _intertwining_answers(regular, simple, maps) == [3] * 5
        assert _intertwining_answers(regular, simple, maps.take_rows(range(3))) == [None] * 5
    # a rational map wrong only in its scale: A_b = 2 I on the target
    source = Mat.from_rows(QQ, [[1]])
    target = Mat.from_rows(QQ, [[Fraction(1, 2)]])
    assert _intertwining_answers(source, target, Mat.from_rows(QQ, [[0], [Fraction(1, 3)]])) == [1] * 5


def test_intertwining_kernel_on_empty_spaces():
    f = F5
    act = Mat.from_rows(f, [[1, 0, 0, 1], [0, 1, 0, 0]])
    cases = {
        "no maps": (act, act, Mat.zeros(f, 0, 4)),
        "zero source": (Mat.zeros(f, 2, 0), act, Mat.zeros(f, 3, 0)),
        "zero target": (act, Mat.zeros(f, 2, 0), Mat.zeros(f, 3, 0)),
        "zero algebra": (Mat.zeros(f, 0, 4), Mat.zeros(f, 0, 4), Mat.from_rows(f, [[1, 2, 3, 4]])),
    }
    for label, case in cases.items():
        assert _intertwining_answers(*case) == [None] * 5, label


def test_intertwining_kernel_does_not_wrap_int64():
    # 9 * 2^61 and 1 * 2^61 agree modulo 2^64: only the product on Python
    # ints, past the word-size bound, tells them apart (all three carriers
    # are int64)
    maps = Mat.from_rows(QQ, [[0], [1 << 61]])
    assert _intertwining_answers(Mat.from_rows(QQ, [[9]]), Mat.from_rows(QQ, [[1]]), maps) == [1] * 5
    edge = Mat.from_rows(QQ, [[WORD - 1]])
    maps = Mat.from_rows(QQ, [[WORD - 1], [-WORD], [WORD], [-(WORD - 1)]])
    assert _intertwining_answers(edge, edge, maps) == [None] * 5

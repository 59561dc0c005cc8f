"""Independent brute-force oracles used by the test suite.

Deliberately naive: plain Python lists, no numpy, no shortcuts shared with
the library code.  These are the second route for every dual-route check.
The one exception is ``cover_is_projective``, which calls the library's
projective cover: a route independent of the top count in ``is_projective``.
"""

from fractions import Fraction

from catres.modules import projective_cover


def naive_rref(rows, field):
    """Gauss-Jordan on a list-of-lists copy.  Returns (rref, pivot_cols)."""
    if field.kind == "prime":
        p = field.p
        rows = [[int(x) % p for x in r] for r in rows]
        inv = lambda x: pow(x, p - 2, p)
        red = lambda x: x % p
    else:
        rows = [[Fraction(x) for x in r] for r in rows]
        inv = lambda x: Fraction(1) / x
        red = lambda x: x
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        iv = inv(rows[r][c])
        rows[r] = [red(x * iv) for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [red(a - f * b) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def naive_rank(rows, field):
    return len(naive_rref(rows, field)[1]) if rows else 0


def naive_matmul(a, b, field):
    if field.kind == "prime":
        p = field.p
        return [[sum(x * y for x, y in zip(ra, cb)) % p for cb in zip(*b)] for ra in a]
    return [[sum(Fraction(x) * Fraction(y) for x, y in zip(ra, cb)) for cb in zip(*b)] for ra in a]


def naive_hom_dim(M, N):
    """dim Hom(M, N) by solving every intertwining equation densely.

    Unknown matrix F is m x n; for every algebra basis element b the
    equation rho_M(b) F - F rho_N(b) = 0 contributes m*n rows.
    """
    field = M.algebra.field
    m, n = M.dim, N.dim
    if m == 0 or n == 0:
        return 0
    eqs = []
    for t in range(M.algebra.dim):
        A = M.action_list(t)
        B = N.action_list(t)
        for i in range(m):
            for j in range(n):
                row = [field.zero] * (m * n)
                for k in range(m):
                    row[k * n + j] += A[i][k]
                for k in range(n):
                    row[i * n + k] -= B[k][j]
                eqs.append([field.coerce(x) for x in row])
    return m * n - naive_rank(eqs, field)


def cover_is_projective(M):
    """Projectivity by building the whole projective cover P -> M: M is
    projective iff the cover is an isomorphism, i.e. dim P = dim M."""
    return projective_cover(M).source.dim == M.dim

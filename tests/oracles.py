"""Independent brute-force oracles used by the test suite.

Deliberately naive: plain Python lists, no numpy, no shortcuts shared with
the library code.  These are the second route for every dual-route check.
The exceptions keep a library's former route as the second route of its
replacement, on the library's own primitives:

* ``cover_is_projective`` builds the projective cover, against the top
  count in ``is_projective``;
* ``kron_hom_space`` solves one ``np.kron`` intertwining block per
  generator (``generating_indices``), against the Yoneda and the
  projective-presentation routes of ``hom_space`` (the library builds no
  intertwining system any more);
* ``iso_distinct_simples`` compares simples by ``is_isomorphic``, against
  the idempotent test of ``ModuleContext.representatives`` behind
  ``distinct_simples``;
* ``search_isomorphism`` is the budgeted search for an isomorphism (basis
  maps, random combinations, then every combination while their number
  fits the budget), against the Krull-Schmidt decision of
  ``modules.is_isomorphic``;
* ``bigint_divided_trace_gram`` takes exact big-integer matrix powers one
  product at a time, against the batched powers modulo p*q;
* ``loop_is_ideal`` builds the left- and right-multiplication matrices one
  basis element at a time, against the two table products of
  ``algebra._is_ideal``;
* ``greedy_cover`` picks the covering maps of a projective cover one hom at
  a time out of every representative projective, against the one rref per
  projective in top(M) of ``modules._build_presentation``;
* ``theta_via_presentation`` recomputes theta from a projective
  presentation over tilde with no corner restriction anywhere, against the
  corner-restriction route of ``functors.theta``;
* ``numpy_rref_prime`` eliminates over F_p with whole-array numpy row
  operations, and ``fraction_free_rref`` over Q column by column on dense
  lists of numerators (the library's former Q kernel), each against the
  one sparse-row Gauss-Jordan kernel ``linalg._gauss_jordan`` behind
  ``rref``;
* ``augmented_solve`` reads a solution off rref([a | b]) (the library's
  former solve), against ``solve`` and ``solve_left``, which go through
  the factored ``RowBasis`` and its residual check on the non-pivot
  columns only;
* ``loop_module_validate`` checks a module's action against the unit and
  the table one pair of basis elements at a time on plain lists, against
  the one product of ``Repn.validate``;
* ``loop_unit_psis`` builds each map psi_j of the four-term sequence one
  row of m_hat_j at a time, against the one product of
  ``functors.unit_psis``;
* ``trace_form_radical`` takes the kernel of tr(L_a L_b) from the stacked
  left-multiplication matrices, against the two table products of
  ``algebra._radical_by_traces`` over Q;
* ``loop_theta_rho_hom`` lifts one map at a time, against the one product
  and one coordinate solve of ``functors.theta_rho_maps``;
* ``loop_theta`` moves the corner rows by rho_F(zeta(b_t)) one basis
  element of Lambda at a time, against the action that
  ``modules.induced_action`` induces in ``functors.theta``;
* ``loop_zeta`` builds each zeta(b_t) as the product pi L(b_t) iota,
  against the one ``Mat.block_diag_rows`` of Lambda's table in
  ``auslander.build_auslander``;
* ``roundtrip_adjunction`` and ``roundtrip_right_adjoint`` send each basis
  row of a homotopy Hom through a ``ChainMap`` of per-map functor images
  and solve it back to coordinates, against the one call of
  ``KbHom.induced_bijection``, which solves the lifted maps of each
  degree to coordinates once, in ``complexes.step_iv_adjunction`` and
  ``certify.right_adjoint_sample``;
* ``corner_route_iso`` builds e*tilde*e as an ``Algebra`` (``corner_algebra``),
  transports it to Lambda by restriction to the Lambda-summand and checks
  that zeta inverts that transport basis element by basis element, against
  the three whole-matrix checks on zeta of ``auslander.check_corner_iso``;
* ``corner_split_idempotents`` splits A/J as the library once did: a
  ``_Corner`` per corner, every candidate list of random combinations
  built before the first one is tried, two split-and-recurse blocks and a
  pairwise orthogonality loop, against the one recursive routine of
  ``algebra.primitive_idempotents`` and the certificate
  ``checked_idempotents`` that ends it;
* ``loop_projective_resolution`` is the resolution loop with its
  periodicity flag: it builds each syzygy afresh, searches it against the
  earlier ones and halts on periodicity if asked, against the walk down
  the syzygy chain kept on each presentation in
  ``homology.projective_resolution`` and ``homology.projective_dimension``;
* ``module_homology`` builds each homology H_i = ker d_i / im d_(i-1) as a
  module, against the rank count of ``complexes._is_exact`` behind
  ``is_acyclic``;
* ``resolution_ext_dim`` takes Ext^i as the cohomology of Hom(P_*, N) on a
  whole (possibly non-minimal) resolution, from the ranks of the
  precomposition maps, against the dimension shift down the syzygy chain
  of ``homology.ext_dim``;
* ``object_matmul`` multiplies rational matrices on their Python-int
  numerators, the library's route for a product that the word-size rule
  refuses, against the int64 product of ``Mat.__matmul__``;
* ``module_content`` keys a module by its action's entries as field
  scalars, against the ``Mat.key`` by which the library shares one
  record of kept values among equal modules;
* ``idempotent_set_defect`` checks a set of idempotents on plain lists
  against the radical it is given (the library's certified one), against
  the block products and the corners of A/J of
  ``algebra.checked_idempotents``, which certifies the idempotents of a
  hint and of the split alike;
* ``two_product_non_intertwiner`` checks maps against two module actions
  by two 2-D products of ``Mat``s, one side permuted onto the other (the
  library's former route), and ``naive_non_intertwiner`` one map and one
  basis element at a time on lists of field scalars, against the broadcast
  products of ``linalg.first_non_intertwiner``;
* ``ext_is_injective`` asks Ext^1(S, M) = 0 of every simple S (the
  library's former route), against the socle count of
  ``homology.is_injective``.
"""

import itertools
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional
from math import gcd, isqrt, lcm

import numpy as np

from catres.algebra import (
    _RANDOM_COMBINATIONS,
    Algebra,
    AlgebraError,
    SplitGiveUp,
    quotient_algebra,
)
from catres.complexes import (
    ChainMap,
    db_theta,
    kb_hom,
    kb_theta_lambda_data,
    prop31_sequence,
    step_v_unit,
)
from catres.functors import counit, theta_hom, theta_rho_data
from catres.homology import distinct_simples, ext_dim
from catres.linalg import (
    MAX_ROOT_SEARCH_PRODUCT,
    Mat,
    RowBasis,
    coords_in_rows,
    left_nullspace,
    nullspace,
    rank,
    row_basis,
    rref,
    solve,
    solve_left,
)
from catres.modules import (
    HomSpace,
    ModHom,
    Repn,
    _is_invertible,
    context,
    direct_sum,
    hom_combination,
    hom_space,
    is_isomorphic,
    projective_cover,
    projective_presentation,
    quotient_repn,
    sub_repn,
    zero_hom,
    zero_module,
)


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


def numpy_rref_prime(a, p):
    """RREF of an int64 array over F_p by numpy row operations on all rows.
    Returns (rref, pivot_cols); the argument is not written."""
    a = a % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        # entries stay below p**2 before reduction: safe in int64
        a -= np.outer(col, a[r])
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots


def fraction_free_rref(a):
    """RREF of an array of integer numerators over Q, read as Python ints,
    column by column with fraction-free updates on dense lists: each
    updated row is p * row - f * pivot_row divided by its content, and the
    pivots divide out only at the end.  Returns (rref numerators,
    pivot_cols, den) with den the lcm of the pivots."""
    rows = [_primitive(r) for r in a.tolist()]
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(m):
            f = rows[i][c]
            if f and i != r:
                rows[i] = _primitive([p * x - f * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
    den = lcm(*(rows[i][pc] for i, pc in enumerate(pivots)))
    out = np.zeros((m, n), dtype=object)
    for i, pc in enumerate(pivots):
        s = den // rows[i][pc]
        out[i, :] = [x * s for x in rows[i]]
    return out, pivots, den


def _primitive(row):
    """Integer row divided by the gcd of its entries (unchanged if zero)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def augmented_solve(a, b):
    """The solution x of ``a @ x = b`` read off rref([a | b]), 0 on the
    free columns of a, or None iff a pivot falls in b's columns."""
    r, pivots, rk = rref(a.hstack(b))
    if any(pc >= a.cols for pc in pivots):
        return None
    x = [[a.field.zero] * b.cols for _ in range(a.cols)]
    red = r.tolist()
    for i, pc in enumerate(pivots):
        x[pc] = red[i][a.cols :]
    return Mat.from_rows(a.field, x) if a.cols else Mat.zeros(a.field, 0, b.cols)


def loop_module_validate(M):
    """``Repn.validate`` on plain lists, one pair at a time: rho(1) is the
    identity and rho(b_i) rho(b_j) = sum_k c_ijk rho(b_k) for every i, j."""
    A, f, n, d = M.algebra, M.field, M.dim, M.algebra.dim
    if n == 0:
        return True
    acts = [M.action_mat(i).tolist() for i in range(d)]
    table = A.table_matrix().tolist()  # row i, column j * d + k: c_ijk

    def combination(coeffs):
        out = [[f.zero] * n for _ in range(n)]
        for c, act in zip(coeffs, acts):
            for r in range(n):
                for s in range(n):
                    out[r][s] = f.coerce(out[r][s] + c * act[r][s])
        return out

    identity = [[f.one if r == s else f.zero for s in range(n)] for r in range(n)]
    if combination(A.unit.tolist()[0]) != identity:
        return False
    return all(
        naive_matmul(acts[i], acts[j], f) == combination(table[i][j * d : (j + 1) * d])
        for i, j in itertools.product(range(d), repeat=2)
    )


def naive_rank(rows, field):
    return len(naive_rref(rows, field)[1]) if rows else 0


def naive_matmul(a, b, field):
    if field.kind == "prime":
        p = field.p
        return [[sum(x * y for x, y in zip(ra, cb)) % p for cb in zip(*b)] for ra in a]
    return [[sum(Fraction(x) * Fraction(y) for x, y in zip(ra, cb)) for cb in zip(*b)] for ra in a]


def object_matmul(x, y):
    """x @ y over Q as one product of object arrays of Python ints over the
    product of the denominators."""
    return Mat(x.field, x.a.astype(object) @ y.a.astype(object), x.den * y.den)


def list_permuted(rows, shape, axes, nrows, ncols):
    """The entries of ``rows`` read row-major as an array of ``shape``, its
    axes permuted, re-read row-major as nrows x ncols: one entry at a time."""
    flat = [x for r in rows for x in r]
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    out_shape = [shape[a] for a in axes]
    out = []
    for index in itertools.product(*(range(n) for n in out_shape)):
        out.append(flat[sum(i * strides[a] for i, a in zip(index, axes))])
    return [out[r * ncols : (r + 1) * ncols] for r in range(nrows)]


def list_take_cols(rows, idx, ncols):
    """Columns ``idx`` (a slice or a list) of a matrix with ``ncols`` columns."""
    cols = list(range(ncols))[idx] if isinstance(idx, slice) else list(idx)
    return [[r[j] for j in cols] for r in rows]


def list_first_differing_row(a, b):
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


def list_block_diag_rows(flats, dims):
    """Row i: the block-diagonal matrix of row i of each flat, read as a
    dims[t] x dims[t] matrix, flattened; built one entry at a time."""
    total = sum(dims)
    out = []
    for i in range(len(flats[0])):
        big = [[0] * total for _ in range(total)]
        o = 0
        for flat, m in zip(flats, dims):
            for r in range(m):
                for c in range(m):
                    big[o + r][o + c] = flat[i][r * m + c]
            o += m
        out.append([x for r in big for x in r])
    return out


def list_reverse_row_basis(rows, field):
    """``naive_rref`` of the columns reversed, nonzero rows kept, then both
    the columns and the rows put back in reverse order."""
    if not rows:
        return []
    red, pivots = naive_rref([r[::-1] for r in rows], field)
    return [r[::-1] for r in red[: len(pivots)]][::-1]


def list_identity_columns(rows):
    """The columns, one per row, where ``rows`` (lists of field scalars) is
    the identity, read at every row's first nonzero entry, else at every
    row's last; None if neither reading gives the identity or a row is
    zero."""
    if any(not any(r) for r in rows):
        return None
    nonzero = [[c for c, x in enumerate(r) if x != 0] for r in rows]
    for cols in ([cs[0] for cs in nonzero], [cs[-1] for cs in nonzero]):
        if all(r[c] == (i == j) for i, r in enumerate(rows) for j, c in enumerate(cols)):
            return cols
    return None


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
        A = M.action_mat(t).tolist()
        B = N.action_mat(t).tolist()
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


def naive_product(A, u, v):
    """u * v for coordinate lists u, v: sum of u_i v_j table[i, j, k] term by term."""
    field = A.field
    table = A.table_matrix().tolist()  # row i, column j * dim + k: table[i, j, k]
    out = [field.zero] * A.dim
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            uv = field.coerce(ui) * field.coerce(vj)
            for k in range(A.dim):
                out[k] = field.coerce(out[k] + uv * table[i][j * A.dim + k])
    return out


def _intertwine_block(field, act_m, act_n):
    """kron(act_m, I_n) - kron(I_m, act_n.T), the block of one generator."""
    m, n = act_m.shape[0], act_n.shape[0]
    if field.kind == "prime":
        return np.kron(act_m, np.eye(n, dtype=np.int64)) - np.kron(
            np.eye(m, dtype=np.int64), act_n.T
        )
    block = np.empty((m * n, m * n), dtype=object)
    block[...] = Fraction(0)
    for i in range(m):
        for a in range(m):
            if act_m[i, a]:
                for b in range(n):
                    block[i * n + b, a * n + b] += act_m[i, a]
    for c in range(n):
        for b in range(n):
            if act_n[c, b]:
                for i in range(m):
                    block[i * n + b, i * n + c] -= act_n[c, b]
    return block


_GENERATORS = weakref.WeakKeyDictionary()  # algebra -> generating_indices


def generating_indices(A):
    """Small set of basis indices that generates the algebra A with the unit.

    An intertwining system over these generators alone has the same kernel
    as over the whole basis.  Memoised per algebra: the dual-route tests
    call the Kronecker oracle thousands of times on a few algebras.
    """
    if A in _GENERATORS:
        return _GENERATORS[A]
    span = row_basis(A.unit)
    gens = []
    for i in range(A.dim):
        if RowBasis(span).contains(A.basis_element(i)):
            continue
        gens.append(i)
        span = row_basis(span.vstack(A.basis_element(i)))
        while True:
            new = row_basis(span.vstack(A.products(span, span)))
            if new.rows == span.rows:
                break
            span = new
        if span.rows == A.dim:
            break
    _GENERATORS[A] = gens
    return gens


def kron_hom_space(M, N):
    """Basis of Hom(M, N) as m x n matrices: the nullspace of the stacked
    per-generator Kronecker blocks, vectors read row-major."""
    field = M.algebra.field
    m, n = M.dim, N.dim
    if m == 0 or n == 0:
        return []
    gens = generating_indices(M.algebra)
    dtype = np.int64 if field.kind == "prime" else object

    def values(X, g):
        return np.array(X.action_mat(g).tolist(), dtype=dtype)

    blocks = [_intertwine_block(field, values(M, g), values(N, g)) for g in gens]
    if blocks and field.kind == "prime":
        system = Mat(field, np.vstack(blocks) % field.p)
    elif blocks:
        system = Mat.from_rows(field, np.vstack(blocks).tolist())
    else:
        system = Mat.zeros(field, 0, m * n)
    kernel = nullspace(system).T.tolist()  # one kernel vector per row
    return [Mat.from_rows(field, [v[r * n : (r + 1) * n] for r in range(m)]) for v in kernel]


def iso_distinct_simples(A):
    """One simple per isomorphism class, by an isomorphism search against
    every simple kept so far."""
    reps = []
    for s in context(A).simples:
        if any(s.dim == t.dim and is_isomorphic(s, t) is not None for t in reps):
            continue
        reps.append(s)
    return reps


EXHAUSTIVE_BUDGET = 1 << 16
RANDOM_TRIALS = 64
INCONCLUSIVE = "inconclusive"


def search_isomorphism(M, N):
    """An invertible intertwiner M -> N, None if none exists, or
    ``INCONCLUSIVE``, by the budgeted search that ``modules.is_isomorphic``
    once ran: the basis maps of Hom(M, N), then ``RANDOM_TRIALS`` random
    combinations, then every combination while their number fits in
    ``EXHAUSTIVE_BUDGET``."""
    if M.algebra is not N.algebra:
        raise ValueError("search_isomorphism: different algebras")
    if M.dim != N.dim:
        return None
    if M.dim == 0:
        return zero_hom(M, N)
    homs = hom_space(M, N)
    if not homs:
        return None
    for h in homs:
        if _is_invertible(h.mat):
            return h
    f = M.field
    k = len(homs)
    rng = random.Random(f"catres-iso:{M.dim}:{k}")
    for _ in range(RANDOM_TRIALS):
        cand = hom_combination(homs, [f.random_scalar(rng, 3) for _ in range(k)])
        if _is_invertible(cand.mat):
            return cand
    # deterministic exhaustive fallback: every combination over F_p; over Q
    # the det of a combination has degree <= dim in each coefficient, so
    # vanishing on the grid {0..dim}^k certifies no isomorphism exists
    values = f.p if f.kind == "prime" else M.dim + 1
    if values**k > EXHAUSTIVE_BUDGET:
        return INCONCLUSIVE
    for coeffs in itertools.product(range(values), repeat=k):
        cand = hom_combination(homs, coeffs)
        if _is_invertible(cand.mat):
            return cand
    return None


def int_matrix_power_trace(m, k):
    """Trace of the k-th power of an integer matrix, exact bigint arithmetic."""
    acc = None
    base = np.array(m, dtype=object)
    while k:
        if k & 1:
            acc = base if acc is None else acc.dot(base)
        k >>= 1
        if k:
            base = base.dot(base)
    return int(np.trace(acc))


def bigint_divided_trace_gram(A, basis, q):
    """gram[t][s] = (tr(Z^q) / q) mod p for Z = L(b_s * b_t), one pair at a
    time; None if some trace is not divisible by q."""
    p, r = A.field.p, basis.rows
    gram = [[0] * r for _ in range(r)]
    for s in range(r):
        for t in range(r):
            w = basis.row_at(s) @ A.right_mult_matrix(basis.row_at(t))
            z = A.left_mult_matrix(w).tolist()
            tr = int_matrix_power_trace(z, q)
            if tr % q:
                return None
            gram[t][s] = (tr // q) % p
    return gram


def loop_is_ideal(A, rows):
    """Is the row span of ``rows`` a two-sided ideal?  b*v and v*b for every
    basis element b and every row v, one basis element at a time."""
    prods = []
    for i in range(A.dim):
        b = A.basis_element(i)
        prods += [rows @ A.left_mult_matrix(b), rows @ A.right_mult_matrix(b)]
    return RowBasis(rows).contains(Mat.stack_rows(A.field, prods))


def greedy_cover(M):
    """(parts, cover matrix) of the projective cover of M, one hom at a
    time: out of each representative projective, keep a hom iff its
    composite to the top of M is independent of the composites kept
    before out of that projective."""
    ctx = context(M.algebra)
    to_top = ctx.top_projection(M)
    parts, mats = [], []
    for i in ctx.representatives:
        span = None
        for h in hom_space(ctx.projectives[i], M):
            comp = (h.mat @ to_top).flatten_row()
            if comp.is_zero() or (span is not None and RowBasis(span).contains(comp)):
                continue
            span = comp if span is None else row_basis(span.vstack(comp))
            parts.append(i)
            mats.append(h.mat)
    return parts, Mat.stack_rows(M.field, mats)


def theta_via_presentation(F, data):
    """theta(F) computed with no corner restriction: choose a projective
    presentation Q1 -> Q0 -> F -> 0 over tilde, read off the underlying map
    of add-M summands through the Yoneda correspondence, and take its
    cokernel in mod-Lambda."""
    if F.dim == 0:
        return zero_module(data.lam)
    ctx = context(data.tilde)
    summands = []
    for eps in ctx.idempotents:
        psi = (eps @ data.end.flat).reshape(data.M.dim, data.M.dim)
        summands.append(sub_repn(data.M, row_basis(psi)))

    pres0 = projective_presentation(F)
    q0, parts0, ker_rows = pres0.cover, pres0.parts, pres0.syzygy
    if ker_rows.rows == 0:
        x0_parts = [summands[i][0] for i in parts0]
        if not x0_parts:
            return zero_module(data.lam)
        return direct_sum(x0_parts)
    omega, incl = sub_repn(q0.source, ker_rows)
    pres1 = projective_presentation(omega)
    q1, parts1 = pres1.cover, pres1.parts
    d = q1.then(incl)  # Q1 -> Q0 over tilde

    x0_parts = [summands[i][0] for i in parts0]
    x1_parts = [summands[i][0] for i in parts1]
    X0 = direct_sum(x0_parts) if x0_parts else zero_module(data.lam)
    X1 = direct_sum(x1_parts) if x1_parts else zero_module(data.lam)

    # block offsets in Q1, Q0 and X1, X0
    def offsets(mods):
        offs, o = [], 0
        for m in mods:
            offs.append(o)
            o += m.dim
        return offs

    q1_blocks = [ctx.projectives[i] for i in parts1]
    q0_blocks = [ctx.projectives[i] for i in parts0]
    q1_off = offsets(q1_blocks)
    q0_off = offsets(q0_blocks)
    x1_off = offsets(x1_parts)
    x0_off = offsets(x0_parts)

    fld = data.lam.field
    cores = []
    for s, i1 in enumerate(parts1):
        pj = ctx.projectives[i1]
        # coords of e_j inside its projective
        gen = coords_in_rows(ctx.projective_rows[i1], ctx.idempotents[i1])
        gen_in_q1 = Mat.from_blocks(fld, 1, d.source.dim, [(0, q1_off[s], gen)])
        image = gen_in_q1 @ d.mat
        for t, i0 in enumerate(parts0):
            pk = ctx.projectives[i0]
            block = image.with_array(image.a[:, q0_off[t] : q0_off[t] + pk.dim])
            # back to tilde coordinates: w in e_k tilde e_j
            w = block @ ctx.projective_rows[i0]
            W = (w @ data.end.flat).reshape(data.M.dim, data.M.dim)
            nj_rows = summands[i1][1].mat
            nk_rows = summands[i0][1].mat
            cores.append((x1_off[s], x0_off[t], coords_in_rows(nk_rows, nj_rows @ W)))
    dmod = ModHom(X1, X0, Mat.from_blocks(fld, X1.dim, X0.dim, cores))
    assert dmod.validate(), "presentation differential is not Lambda-linear"
    Q, _ = quotient_repn(X0, row_basis(dmod.mat))
    return Q


def loop_unit_psis(data):
    """``functors.unit_psis`` one map at a time: psi_j = pi @ m_hat_j, where
    m_hat_j (Lambda -> M, lambda -> m_j . lambda) is stacked one product
    per basis element of Lambda."""
    lam, m = data.lam, data.M.dim
    psis = []
    for j in range(m):
        mj = Mat.identity(lam.field, m).row_at(j)
        m_hat = Mat.stack_rows(
            lam.field, [mj @ data.M.rho(lam.basis_element(t)) for t in range(lam.dim)]
        )
        psis.append((data.pi @ m_hat).flatten_row())
    return Mat.stack_rows(lam.field, psis)


def trace_form_radical(A):
    """Kernel of T(a, b) = tr(L_a L_b), the radical in characteristic 0.

    tr(L_a L_b) is the dot product of L_a and the transpose of L_b, both
    flattened: the whole Gram matrix is one product.
    """
    lmats = [A.left_mult_matrix(A.basis_element(i)) for i in range(A.dim)]
    flat = Mat.stack_rows(A.field, [m.flatten_row() for m in lmats])
    flat_t = Mat.stack_rows(A.field, [m.T.flatten_row() for m in lmats])
    return row_basis(left_nullspace(flat @ flat_t.T))


def loop_theta(F, data):
    """theta(F) one basis element b_t of Lambda at a time: the corner rows
    of F moved by rho_F(zeta(b_t)), in coordinates of the corner rows."""
    lam = data.lam
    rows = row_basis(F.rho(data.e))
    k = rows.rows
    moved = Mat.stack_rows(
        F.field, [rows @ F.rho(data.lambda_to_tilde.row_at(t)) for t in range(lam.dim)]
    )
    return Repn(lam, k, RowBasis(rows).coords(moved).reshape(lam.dim, k * k))


def loop_zeta(data):
    """zeta: Lambda -> tilde one basis element b_t at a time, as the map
    pi L(b_t) iota of M in coordinates of the basis of End(M)."""
    lam = data.lam
    zetas = [
        (data.pi @ lam.left_mult_matrix(lam.basis_element(t)) @ data.iota).flatten_row()
        for t in range(lam.dim)
    ]
    return data.end.basis.coords(Mat.stack_rows(lam.field, zetas))


def loop_theta_rho_hom(g, src, tgt):
    """theta_rho of one map g: N -> N': the basis of Hom(M, N) followed by
    g, in coordinates of the basis of Hom(M, N'), for ``src`` and ``tgt``
    the theta_rho data of N and N'."""
    if not src.space or not tgt.space:
        return zero_hom(src.module, tgt.module)
    return ModHom(src.module, tgt.module, tgt.space.basis.coords(src.space.then(g.mat)))


def _chainmap_coords(kb, f):
    """The coordinates of the chain map f in the term Hom spaces of kb."""
    fld = kb.source.algebra.field
    pieces = [
        kb.spaces[i].basis.coords(f.comp(i).mat.flatten_row()) for i in kb.window if kb.spaces[i]
    ]
    return Mat.stack_cols(fld, pieces) if pieces else Mat.zeros(fld, 1, 0)


def _roundtrip_bijection(A, B, convert):
    """Does ``convert``, a linear map from chain maps of A to chain maps of
    B, induce a bijection on homotopy classes?  Each basis row of A goes
    through a ChainMap and back to B-coordinates on its own."""
    fld = A.source.algebra.field

    def image_rows(rows):
        out = [
            _chainmap_coords(B, convert(A.coords_to_chainmap(rows.row_at(r))))
            for r in range(rows.rows)
        ]
        return Mat.stack_rows(fld, out) if out else Mat.zeros(fld, 0, B.total)

    img_chain, img_htp = image_rows(A.chain_rows), image_rows(A.homotopy_rows)
    htp_ok = RowBasis(B.homotopy_rows).contains(img_htp)
    if img_chain.rows or B.homotopy_rows.rows:
        stacked = Mat.stack_rows(fld, [img_chain, B.homotopy_rows])
    else:
        stacked = Mat.zeros(fld, 0, B.total)
    induced_rank = rank(stacked) - B.homotopy_rows.rows
    return {
        "dims_equal": A.dim == B.dim,
        "homotopics_preserved": htp_ok,
        "induced_rank": induced_rank,
        "bijective": htp_ok and A.dim == B.dim and induced_rank == A.dim,
        "dims": (A.dim, B.dim),
    }


def roundtrip_adjunction(P, F, data):
    """``complexes.step_iv_adjunction`` one chain map at a time: f ->
    counit^(-1) then theta(f), term by term."""
    sv = step_v_unit(P, data)
    if not sv.ok:
        return {"ok": False, "detail": f"unit failed: {sv.detail}"}
    thetaF = db_theta(F, data)
    A = kb_hom(sv.lifted, F)
    B = kb_hom(P, thetaF)
    fld = P.algebra.field
    counits = {i: counit(P.term(i), data).mat for i in P.degrees()}
    inv_counits = {i: solve(c, Mat.identity(fld, c.rows)) for i, c in counits.items()}

    def convert(f):
        comps = {}
        for i in P.degrees():
            if P.term(i).dim and thetaF.term(i).dim:
                tf = theta_hom(f.comp(i), data)
                comps[i] = ModHom(P.term(i), thetaF.term(i), inv_counits[i] @ tf.mat)
        return ChainMap(P, thetaF, comps)

    result = _roundtrip_bijection(A, B, convert)
    result["ok"] = result["bijective"]
    return result


def roundtrip_right_adjoint(F, P, data):
    """``certify.right_adjoint_sample`` one chain map at a time: g -> alpha
    then theta_rho(g), term by term, with ``loop_theta_rho_hom``."""
    lifted = kb_theta_lambda_data(P, data)
    thetaF = db_theta(F, data)
    B = kb_hom(thetaF, P)
    A = kb_hom(F, lifted)
    p31 = prop31_sequence(F, data)

    def convert(g):
        comps = {}
        for i in F.degrees():
            if lifted.term(i).dim == 0 or F.term(i).dim == 0:
                continue
            s = p31.degreewise[i]
            src = theta_rho_data(thetaF.term(i), data)
            tr_g = loop_theta_rho_hom(g.comp(i), src, theta_rho_data(P.term(i), data))
            comps[i] = ModHom(F.term(i), lifted.term(i), s.alpha.mat @ tr_g.mat)
        return ChainMap(F, lifted, comps)

    return _roundtrip_bijection(B, A, convert)


def idempotent_set_defect(A, rows, radical):
    """The first way in which the coordinate lists ``rows`` fail to be a
    complete set of orthogonal primitive idempotents of A, or None.

    Plain lists throughout: the left and right multiplication matrices of
    each e are read off the table one entry at a time, e_i e_j is e_i
    times R(e_j), and e is primitive iff its corner eAe (the rows of
    L(e) R(e)) adds exactly one dimension to the rows of ``radical``, a
    basis of J: dim eAe / eJe = dim e(A/J)e, which is 1 for a primitive e
    over a split A/J.
    """
    field, d = A.field, A.dim
    table = A.table_matrix().tolist()  # row i, column j * d + k: (b_i b_j)_k
    rows = [[field.coerce(x) for x in r] for r in rows]

    def mult(e, right):
        # row k of L(e): e b_k; of R(e): b_k e
        return [
            [field.coerce(sum(e[i] * (table[k][i * d + m] if right else table[i][k * d + m])
                              for i in range(d)))
             for m in range(d)]
            for k in range(d)
        ]

    lefts = [mult(e, False) for e in rows]
    rights = [mult(e, True) for e in rows]
    for i, ei in enumerate(rows):
        for j, rj in enumerate(rights):
            prod = naive_matmul([ei], rj, field)[0]
            if prod != (ei if i == j else [field.zero] * d):
                return f"e_{i} e_{j} is wrong"
    total = [field.coerce(sum(col)) for col in zip(*rows)] if rows else [field.zero] * d
    if total != [field.coerce(x) for x in A.unit.tolist()[0]]:
        return "the idempotents do not sum to the unit"
    rad = naive_rank(radical, field)
    for i, (le, re) in enumerate(zip(lefts, rights)):
        corner = naive_matmul(le, re, field)
        if naive_rank(corner + list(radical), field) - rad != 1:
            return f"e_{i} is not primitive"
    return None


def corner_algebra(A, e):
    """The corner eAe with unit e, a 1 x dim row.  Returns (C, embed,
    degenerate); the rows of ``embed`` (dim C x dim A) are the corner basis
    inside A."""
    if A.multiply(e, e) != e:
        raise AlgebraError("corner: e is not idempotent")
    embed = row_basis(A.left_mult_matrix(e) @ A.right_mult_matrix(e))
    m = embed.rows
    if m == 0:
        empty = Algebra(A.field, [], Mat.zeros(A.field, 1, 0), Mat.zeros(A.field, 0, 0))
        return empty, embed, True
    basis = RowBasis(embed)
    table = basis.coords(A.products(embed, embed)).reshape(m, m * m)
    return Algebra(A.field, [f"c{i}" for i in range(m)], basis.coords(e), table), embed, False


def corner_route_iso(data):
    """e*tilde*e = Lambda by the corner algebra: e = pi iota as a map of M,
    the corner transported to Lambda by restriction to the Lambda-summand
    (c -> pi(c(iota(1)))), that transport unital and multiplicative, and
    zeta inverse to it on every corner basis element.  Returns
    (ok, detail, dim e*tilde*e)."""
    lam, M, end = data.lam, data.M, data.end
    e = end.basis.coords((data.pi @ data.iota).flatten_row())
    corner, embed, degenerate = corner_algebra(data.tilde, e)
    if degenerate:
        return False, "corner at the Lambda-summand collapsed", 0
    to_lam = HomSpace(M, M, embed @ end.flat).after(lam.unit @ data.iota) @ data.pi
    if rank(to_lam) != lam.dim or corner.dim != lam.dim:
        return False, "corner is not linearly isomorphic to Lambda", corner.dim
    if coords_in_rows(embed, e) @ to_lam != lam.unit:
        return False, "unit is not preserved", corner.dim
    ident = Mat.identity(corner.field, corner.dim)
    if corner.products(ident, ident) @ to_lam != lam.products(to_lam, to_lam):
        return False, "multiplicativity fails", corner.dim
    for i in range(corner.dim):
        if to_lam.row_at(i) @ data.lambda_to_tilde != embed.row_at(i):
            return False, f"transports do not invert at basis {i}", corner.dim
    return True, "", corner.dim


# -- the former splitting of A/J ------------------------------------------------
# Kept as it was: a ``_Corner`` per corner, a ``try_element`` closure, two
# split-and-recurse blocks, every candidate list built before the first
# one is tried, and the pairwise orthogonality loop.


def loop_poly_roots(field, coeffs):
    """Roots in the base field of a monic polynomial given low-to-high.

    Over Q, raises SplitGiveUp when the lowest nonzero and the leading
    coefficient of the integer-cleared polynomial have a product of at
    least ``MAX_ROOT_SEARCH_PRODUCT``.
    """
    roots = []
    if field.kind == "prime":
        for x in range(field.p):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % field.p
            if acc == 0:
                roots.append(x)
        return roots
    # rational roots of an integer-cleared polynomial
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    lead = ints[-1]
    const = next((c for c in ints if c != 0), 0)
    if const == 0:
        roots.append(Fraction(0))
        return roots
    if abs(const * lead) >= MAX_ROOT_SEARCH_PRODUCT:
        raise SplitGiveUp(
            f"rational root search: lowest coefficient {const} times leading"
            f" coefficient {lead} reaches the bound {MAX_ROOT_SEARCH_PRODUCT}"
        )

    def divisors(n):
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return sorted(out)

    for num in divisors(const):
        for dq in divisors(lead):
            for sign in (1, -1):
                cand = Fraction(sign * num, dq)
                acc = Fraction(0)
                for c in reversed(coeffs):
                    acc = acc * cand + Fraction(c)
                if acc == 0 and cand not in roots:
                    roots.append(cand)
    if 0 not in roots:
        accz = Fraction(coeffs[0])
        if accz == 0:
            roots.append(Fraction(0))
    return roots


class _Corner:
    """A unital subspace of a fixed semisimple algebra, with its own unit."""

    def __init__(self, B, basis, unit):
        self.B = B
        self.basis = basis  # rows in B-coordinates
        self.unit = unit

    @property
    def dim(self):
        return self.basis.rows


def _split_semisimple(B, c, rng):
    """Orthogonal primitive idempotents of a corner of semisimple B."""
    if c.dim == 0:
        return []
    if c.dim == 1:
        return [c.unit]

    def try_element(z):
        """Split along a central element with reducible minimal polynomial."""
        coeffs = _min_poly_coords_in_corner(B, c, z)
        deg = len(coeffs) - 1
        if deg <= 1:
            return None
        roots = loop_poly_roots(B.field, coeffs)
        if not roots:
            return None
        lam = roots[0]
        # e = g(z)/g(lam) with g = minpoly/(t - lam); idempotent, central in c
        g = _poly_divide_linear(B.field, coeffs, lam)
        gz = _eval_poly_in_corner(B, c, g, z)
        glam = _eval_scalar(B.field, g, lam)
        if glam == 0:
            return None
        e = gz.scale(B.field.inv(glam))
        if (B.multiply(e, e) - e).is_zero() and not e.is_zero() and not (e - c.unit).is_zero():
            return e
        return None

    # 1) central splitting
    zc = _corner_center_rows(B, c)
    if zc.rows > 1:
        for z in eager_random_combinations(zc, rng):
            e = try_element(z)
            if e is not None:
                left = _corner_of_unit(B, e)
                right = _corner_of_unit(B, c.unit - e)
                return _split_semisimple(B, left, rng) + _split_semisimple(B, right, rng)
        raise SplitGiveUp(
            "cannot split the center: division components beyond the prime field"
        )

    # 2) center is one-dimensional: simple algebra; hunt a zero divisor
    for v in eager_random_combinations(c.basis, rng):
        if v.is_zero():
            continue
        ideal_rows = row_basis(B.products(v, c.basis))
        if ideal_rows.rows in (0, c.dim):
            continue
        # right ideal vC = fC for an idempotent f: f acts as left identity on vC
        f = _left_identity_on(B, c, ideal_rows)
        if f is None:
            continue
        left = _corner_of_unit(B, f)
        right = _corner_of_unit(B, c.unit - f)
        return _split_semisimple(B, left, rng) + _split_semisimple(B, right, rng)
    raise SplitGiveUp("no zero divisor found: division algebra of dimension > 1")


def eager_random_combinations(rows, rng):
    """The rows of ``rows``, then ``_RANDOM_COMBINATIONS`` random
    combinations of them, all built by one product."""
    f, k = rows.field, _RANDOM_COMBINATIONS
    coeffs = [[f.random_scalar(rng, 3) for _ in range(rows.rows)] for _ in range(k)]
    combos = Mat.from_rows(f, coeffs) @ rows
    return [rows.row_at(i) for i in range(rows.rows)] + [combos.row_at(i) for i in range(k)]


def _corner_of_unit(B, e):
    # row k is e * b_k * e: (e b_k) e is row k of L(e) times R(e)
    return _Corner(B, row_basis(B.left_mult_matrix(e) @ B.right_mult_matrix(e)), e)


def _corner_center_rows(B, c):
    k = c.dim
    prods = B.products(c.basis, c.basis)  # row r * k + i is c_r c_i
    # row r, block i: c_r c_i - c_i c_r, zero in every block iff central
    swapped = prods.a.reshape(k, k, B.dim).transpose(1, 0, 2)
    big = prods.reshape(k, k * B.dim) - prods.with_array(swapped.reshape(k, k * B.dim))
    coeff = left_nullspace(big)  # rows: coefficient vectors over corner basis
    return row_basis(coeff @ c.basis)


def _min_poly_coords_in_corner(B, c, u):
    rows = [c.unit]
    power = c.unit
    while True:
        power = B.multiply(power, u)
        span = Mat.stack_rows(B.field, rows)
        rel = solve_left(span, power)
        if rel is not None:
            return (-rel).tolist()[0] + [B.field.one]
        rows.append(power)


def _eval_poly_in_corner(B, c, coeffs, u):
    acc = Mat.zeros(B.field, 1, B.dim)
    for cf in reversed(coeffs):
        acc = B.multiply(acc, u) + c.unit.scale(cf)
    return acc


def _eval_scalar(field, coeffs, x):
    acc = field.zero
    for cf in reversed(coeffs):
        acc = field.coerce(acc * x + field.coerce(cf))
    return acc


def _poly_divide_linear(field, coeffs, lam):
    """coeffs / (t - lam) for monic coeffs (exact division of the minimal poly)."""
    n = len(coeffs) - 1
    out = [field.zero] * n
    carry = field.zero
    for k in range(n - 1, -1, -1):
        carry = field.coerce(coeffs[k + 1] + carry * lam)
        out[k] = carry
    return out


def _left_identity_on(B, c, ideal_rows):
    """Solve for f in the row span with f*x = x for all x spanning the ideal."""
    k = ideal_rows.rows
    # unknown coefficients a_t with sum a_t (g_t * x_s) = x_s for all s
    lhs = B.products(ideal_rows, ideal_rows).reshape(k, k * B.dim)
    sol = solve_left(lhs, ideal_rows.flatten_row())
    if sol is None:
        return None
    f = sol @ ideal_rows
    if (B.multiply(f, f) - f).is_zero() and not f.is_zero():
        return f
    return None


def corner_split_idempotents(A, chain):
    """Complete orthogonal set of primitive idempotents summing to 1, as
    1 x dim coordinate rows, by the former route.

    Decomposes the semisimple quotient A/J and lifts along the nilpotent
    kernel by the cubic refinement e <- 3e^2 - 2e^3.
    """
    if A.dim == 0:
        return []
    quot, proj, section = quotient_algebra(A, chain.radical)
    rng = random.Random(20240801)
    ssquare = _split_semisimple(quot, _corner_of_unit(quot, quot.unit), rng)
    lifted = []
    total = Mat.zeros(A.field, 1, A.dim)
    for ebar in ssquare:
        g = ebar @ section
        cmpl = A.unit - total
        g = A.multiply(A.multiply(cmpl, g), cmpl)
        for _ in range(A.dim + 4):
            defect = A.multiply(g, g) - g
            if defect.is_zero():
                break
            g2 = A.multiply(g, g)
            g3 = A.multiply(g2, g)
            g = g2.scale(3) - g3.scale(2)
        else:
            raise AlgebraError("idempotent refinement failed to converge")
        lifted.append(g)
        total = total + g
    if not (total - A.unit).is_zero():
        raise AlgebraError("lifted idempotents do not sum to the unit")
    for i, ei in enumerate(lifted):
        for j, ej in enumerate(lifted):
            prod = A.multiply(ei, ej)
            expect = ei if i == j else Mat.zeros(A.field, 1, A.dim)
            if prod != expect:
                raise AlgebraError("lifted idempotents are not orthogonal")
    return lifted


# -- the resolution loop with its periodicity flag ------------------------------


@dataclass
class LoopStatus:
    kind: str  # "complete" | "truncated" | "periodic"
    length: Optional[int] = None
    depth: Optional[int] = None
    period: Optional[int] = None
    offset: Optional[int] = None


@dataclass
class LoopResolution:
    modules: list  # P_0 .. P_d
    differentials: list  # d_i : P_i -> P_(i-1), entries for i = 1..d
    augmentation: ModHom  # P_0 -> M
    syzygies: list  # Omega^1, Omega^2, ... as Repn, each built afresh
    status: LoopStatus


def loop_projective_resolution(M, max_depth, halt_on_periodic=True):
    """The minimal resolution of M as the library once built it: each
    syzygy from ``sub_repn`` on the kernel rows, compared with M and every
    earlier syzygy of its dimension, in order, until the first isomorphism
    (a comparison that raises SplitGiveUp is skipped); with
    ``halt_on_periodic`` the loop stops there, otherwise it resolves on to
    ``max_depth``."""
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    pres = projective_presentation(M)
    aug = pres.cover
    modules, diffs, syzygies, omegas = [aug.source], [], [], [M]
    periodic = None
    ker_rows = pres.syzygy
    depth = 0
    while True:
        if ker_rows.rows == 0:
            if periodic is not None:
                raise AssertionError("resolution terminated despite a periodicity certificate")
            status = LoopStatus(kind="complete", length=depth)
            break
        if depth == max_depth:
            if periodic is not None:
                status = LoopStatus(kind="periodic", period=periodic[1], offset=periodic[0])
            else:
                status = LoopStatus(kind="truncated", depth=depth)
            break
        omega, incl = sub_repn(modules[-1], ker_rows)
        syzygies.append(omega)
        if periodic is None:
            for j, prev in enumerate(omegas):
                try:
                    if prev.dim == omega.dim and is_isomorphic(omega, prev) is not None:
                        periodic = (j, len(omegas) - j)
                        break
                except SplitGiveUp:
                    pass
        omegas.append(omega)
        if periodic is not None and halt_on_periodic:
            status = LoopStatus(kind="periodic", period=periodic[1], offset=periodic[0])
            break
        pres = projective_presentation(omega)
        diffs.append(pres.cover.then(incl))
        modules.append(pres.cover.source)
        ker_rows = pres.syzygy
        depth += 1
    return LoopResolution(modules, diffs, aug, syzygies, status)


# -- homology modules and Ext from a resolution ------------------------------


def module_homology(C):
    """H_i = ker d_i / im d_(i-1) as modules, for i in the degree window."""
    out = []
    for i in C.degrees():
        K, incl = sub_repn(C.term(i), left_nullspace(C.diff(i).mat))
        img = row_basis(C.diff(i - 1).mat)
        if img.rows:
            img_in_k = coords_in_rows(incl.mat, img)
        else:
            img_in_k = Mat.zeros(C.algebra.field, 0, K.dim)
        out.append(quotient_repn(K, img_in_k)[0])
    return out


def _precompose_rank(d, src, tgt):
    """Rank of Hom(P_i, N) -> Hom(P_(i+1), N), f -> d then f (0 without d)."""
    if d is None or not src or not tgt:
        return 0
    try:
        return rank(tgt.basis.coords(src.after(d.mat)))
    except ValueError:
        raise AssertionError("composite escaped the hom space") from None


def resolution_ext_dim(M, N, i, res):
    """dim Ext^i(M, N) as the cohomology at Hom(P_i, N) of Hom(P_*, N), for
    any projective resolution ``res`` of M (a ``ProjResolution``) that
    reaches depth i + 1 or is complete."""
    if not res.complete and len(res.modules) < i + 2:
        raise ValueError(f"resolution truncated before depth {i + 1}")

    def term(j):
        return res.modules[j] if 0 <= j < len(res.modules) else zero_module(M.algebra)

    homs = {j: hom_space(term(j), N) for j in (i - 1, i, i + 1) if j >= 0}
    # res.differential(j) is None for j < 1, so homs[j - 1] exists when read
    r_in = _precompose_rank(res.differential(i), homs.get(i - 1), homs[i])
    r_out = _precompose_rank(res.differential(i + 1), homs[i], homs[i + 1])
    return len(homs[i]) - r_out - r_in


def module_content(M):
    """(algebra, dim, action entries as field scalars) of M: equal for two
    modules iff they have the same content."""
    return id(M.algebra), M.dim, tuple(map(tuple, M.flat_action().tolist()))


def two_product_non_intertwiner(source, target, maps):
    """The first row F of ``maps`` (m x n, flattened) with A_b F != F B_b
    for a row b of ``source`` (the m x m A_b) or ``target`` (the n x n
    B_b), or None: the actions of A stacked against the maps side by side,
    and the maps stacked against the actions of B side by side, the first
    product permuted onto the layout of the second."""
    d, k = source.rows, maps.rows
    m, n = isqrt(source.cols), isqrt(target.cols)
    if not (d and k and m and n):
        return None
    wide = maps.permuted((k, m, n), (1, 0, 2), m, k * n)
    left = (source.reshape(d * m, m) @ wide).permuted((d, m, k, n), (2, 0, 1, 3), k, d * m * n)
    right = maps.reshape(k * m, n) @ target.permuted((d, n, n), (1, 0, 2), n, d * n)
    return left.first_differing_row(right.permuted((k, m, d, n), (0, 2, 1, 3), k, d * m * n))


def naive_non_intertwiner(source, target, maps):
    """``two_product_non_intertwiner`` one map F and one b at a time, as
    products of lists of field scalars."""
    f = source.field
    m, n = isqrt(source.cols), isqrt(target.cols)

    def square(row, size):
        return [row[i * size : (i + 1) * size] for i in range(size)]

    acts = [(square(a, m), square(b, n)) for a, b in zip(source.tolist(), target.tolist())]
    for t, flat in enumerate(maps.tolist()):
        F = [flat[i * n : (i + 1) * n] for i in range(m)]
        if any(naive_matmul(a, F, f) != naive_matmul(F, b, f) for a, b in acts):
            return t
    return None


def ext_is_injective(A, M):
    """Is M injective?  Iff Ext^1(S, M) = 0 for every simple S: a module
    with no extension by a simple has no proper essential extension."""
    return M.dim == 0 or all(ext_dim(s, M, 1) == 0 for s in distinct_simples(A))

"""Finite-dimensional associative unital algebras by structure constants.

An algebra is a basis b_0..b_{d-1}, a unit vector, and a table
``table[i, j] = coordinates of b_i * b_j``.  On top of that: radical
chains, quotients, primitive idempotents, and a bounded-length
quiver-with-relations frontend.

Primitive idempotents come from splitting the semisimple quotient A/J one
corner at a time, by one of two candidate searches: a central element
whose minimal polynomial has a root when the corner's center has
dimension > 1, a zero divisor when the corner is simple.  The random
coefficients of a search are drawn from a seeded rng before any of its
candidates is tried, so the idempotents are a function of the input.  An
algebra whose construction gives its idempotents carries them as
``idempotent_hint``: a quiver algebra its trivial paths (``from_quiver``,
in the order the split would list them), the Auslander algebra T its
local pieces; ``checked_idempotents`` certifies them and the split's.  So
only an algebra given by structure constants is split.

Conventions (fixed across the package): elements are coordinate row
vectors; the path ``[a, b]`` means "a first, then b"; modules are right
modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    FieldSpec,
    Mat,
    RootSearchBound,
    RowBasis,
    left_nullspace,
    nullspace,
    nullspace_of_rref,
    power_traces,
    quoted,
    row_basis,
    rref,
    solve_left,
)


class AlgebraError(ValueError):
    """``at`` locates the item of a spec to blame, as the keys and indices
    that lead to it, such as ("relations", 0); empty when no one item is."""

    def __init__(self, message: str, at: tuple = ()):
        super().__init__(message)
        self.at = at


class SplitGiveUp(AlgebraError):
    """Semisimple-quotient decomposition hit a division component it cannot split."""


@dataclass
class ValidationReport:
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


@dataclass
class RadicalChain:
    powers: list  # row bases of J^1 >= J^2 >= ... >= J^n (last one is zero)
    nilpotency_index: int
    top: tuple  # (A/J, proj, section) as ``quotient_algebra(A, J)`` returns them

    @property
    def radical(self) -> Mat:
        return self.powers[0]

    def power(self, i: int) -> Mat:
        """Row basis of J^i for 1 <= i <= n."""
        return self.powers[i - 1]


class Algebra:
    """An algebra by structure constants.  ``table`` is the dim x dim^2
    matrix whose row i holds the coordinates of b_i * b_j for all j."""

    def __init__(self, field: FieldSpec, basis_labels, unit: Mat, table: Mat,
                 radical_hint: Optional[Mat] = None):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = list(basis_labels)
        self.unit = unit
        self._table = table
        self._right_table: Optional[Mat] = None
        self.radical_hint = radical_hint
        # a complete set of primitive idempotents known from a construction,
        # one row each; catres.modules.context takes them, checked, instead
        # of splitting A/J (``checked_idempotents``)
        self.idempotent_hint: Optional[Mat] = None
        self._radical_chain: Optional[RadicalChain] = None
        self.module_context = None  # set by catres.modules.context
        d = self.dim
        for name, m, shape in (("table", table, (d, d * d)), ("unit", unit, (1, d))):
            if m.field != field or (m.rows, m.cols) != shape:
                raise ValueError(
                    f"{name}: a {m.rows}x{m.cols} matrix over {m.field}, not"
                    f" {shape[0]}x{shape[1]} over {field}"
                )

    # -- raw arithmetic on coordinate rows ------------------------------

    def multiply(self, u: Mat, v: Mat) -> Mat:
        """Product of two elements given as 1 x dim coordinate rows."""
        return self.products(u, v)

    def table_matrix(self) -> Mat:
        """The table as a dim x dim^2 matrix: row i holds b_i * b_j for all j.

        ``rows @ table_matrix()`` stacks the left-multiplication matrices of
        all rows side by side, with one product.
        """
        return self._table

    def right_table(self) -> Mat:
        """The dim x dim^2 matrix whose row j holds b_i * b_j for all i:
        ``rows @ right_table()`` stacks right-multiplication matrices."""
        if self._right_table is None:
            d = self.dim
            self._right_table = self._table.permuted((d, d, d), (1, 0, 2), d, d * d)
        return self._right_table

    def products(self, u: Mat, v: Mat) -> Mat:
        """Row ``i * v.rows + j`` is the product of row i of u and row j of v.

        Two matrix products against the table do every pair at once, on the
        integer carrier over both fields (``Mat.__matmul__`` enforces the
        int64 headroom over F_p and multiplies the denominators over Q).
        """
        f, d = self.field, self.dim
        a, b = u.rows, v.rows
        if not (a and b and d):
            return Mat.zeros(f, a * b, d)
        # x[i, y, k] = sum_x u[i, x] table[x, y, k]; then contract y with v
        x = u @ self._table
        w = v @ x.permuted((a, d, d), (1, 0, 2), d, a * d)
        return w.permuted((b, a, d), (1, 0, 2), a * b, d)

    def left_mult_matrix(self, u: Mat) -> Mat:
        """Matrix of x -> u*x in the row convention (row k = coords of u*b_k)."""
        return (u @ self._table).reshape(self.dim, self.dim)

    def right_mult_matrix(self, u: Mat) -> Mat:
        """Matrix of x -> x*u (row k = coords of b_k*u)."""
        return (u @ self.right_table()).reshape(self.dim, self.dim)

    def basis_element(self, i: int) -> Mat:
        return Mat.identity(self.field, self.dim).row_at(i)

    # -- validation ------------------------------------------------------

    def validate(self) -> ValidationReport:
        violations = []
        ident = Mat.identity(self.field, self.dim)
        for side, mult in (("left", self.left_mult_matrix), ("right", self.right_mult_matrix)):
            if mult(self.unit) != ident:
                violations.append(f"unit law fails on the {side}")
        d = self.dim
        pairs = self._table.reshape(d * d, d)  # row j * d + k: b_j b_k
        for i in range(d):
            # row j * d + k: (b_i b_j) b_k on the left, b_i (b_j b_k) on the right;
            # the right side is formed transposed, so that the sparse L(b_i)
            # is the left operand and a row gather scans its nonzeros, not
            # those of the d^2 x d pairs
            left = self._table.row_at(i).reshape(d, d)  # L(b_i)
            right = (left.T @ pairs.T).T
            row = (left @ self._table).reshape(d * d, d).first_differing_row(right)
            if row is not None:
                j, k = divmod(row, d)
                labels = ", ".join(quoted(self.basis_labels[t]) for t in (i, j, k))
                violations.append(f"associativity fails at triple ({labels})")
                break
        return ValidationReport(not violations, violations)

    # -- radical -----------------------------------------------------------

    def radical_chain(self) -> RadicalChain:
        if self._radical_chain is not None:
            return self._radical_chain
        if self.dim == 0:
            raise AlgebraError("radical of the zero algebra is undefined")
        j = self.radical_hint
        if j is None:
            j = _radical_by_traces(self)
        j = row_basis(j) if j.rows else Mat.zeros(self.field, 0, self.dim)
        # certified in three steps: j is an ideal, the chain of its powers
        # reaches zero (so j is nilpotent), and the trace route finds no
        # radical in A/j
        if j.rows and not _is_ideal(self, j):
            raise AlgebraError("claimed radical is not a two-sided ideal")
        powers = [j]
        while powers[-1].rows:
            powers.append(_subspace_product(self, powers[-1], j))
            if len(powers) > self.dim + 1:
                raise AlgebraError("claimed radical is not nilpotent")
        quot, proj, section = quotient_algebra(self, j)
        if quot.dim and _radical_by_traces(quot).rows:
            raise AlgebraError("quotient by claimed radical is not semisimple")
        self._radical_chain = RadicalChain(powers, len(powers), (quot, proj, section))
        return self._radical_chain


def _subspace_product(A: Algebra, u_rows: Mat, v_rows: Mat) -> Mat:
    if u_rows.rows == 0 or v_rows.rows == 0:
        return Mat.zeros(A.field, 0, A.dim)
    return row_basis(A.products(u_rows, v_rows))


def _is_ideal(A: Algebra, rows: Mat) -> bool:
    """Is the row span of ``rows`` a two-sided ideal?  Row s * dim + k of
    ``rows @ table_matrix()`` is v_s * b_k, and of ``rows @ right_table()``
    it is b_k * v_s: two products give every product to test."""
    r, d = rows.rows, A.dim
    left = (rows @ A.table_matrix()).reshape(r * d, d)
    right = (rows @ A.right_table()).reshape(r * d, d)
    return RowBasis(rows).contains(left.vstack(right))


# matrices of one (count, n, n) power stack hold at most this many entries
_STACK_ENTRIES = 1 << 21


def _divided_trace_gram(A: Algebra, basis: Mat, q: int) -> Mat:
    """gram[t, s] = (tr(Z^q) / q) mod p, Z the left-multiplication matrix of
    b_s * b_t lifted entrywise to 0..p-1, for the rows b of ``basis``.

    Only tr(Z^q) mod p*q is needed, so the lifts of all products are raised
    to the q-th power together, modulo p*q, in stacks of bounded size.
    """
    p, n, r = A.field.characteristic, A.dim, basis.rows
    w = A.products(basis, basis)  # row s * r + t is b_s * b_t
    table = A.table_matrix()
    step = max(1, _STACK_ENTRIES // (n * n))
    traces = np.concatenate([
        power_traces(w.take_rows(slice(c, c + step)) @ table, q, p * q)
        for c in range(0, r * r, step)
    ])
    if (traces % q).any():
        raise AlgebraError("divided-trace divisibility failed; not an F_p algebra?")
    return Mat(A.field, (traces // q).astype(np.int64).reshape(r, r).T)


def _radical_by_traces(A: Algebra) -> Mat:
    """The radical by the chain of trace forms, over Q and F_p alike.

    Level 1 is the kernel of the trace form T(x, y) = tr(L_{xy}): row k of
    the table is L_{b_k} flattened, so one product against the flattened
    identity gives every tr(L_{b_k}), and one more gives the Gram matrix
    tr(L_{b_i b_j}).  In characteristic 0 that kernel is the radical.  Over
    F_p, level j > 1 imposes (tr(Z^q) / q) mod p with q = p^(j-1) <= dim on
    the previous level, Z lifting the left multiplication by x*y entrywise
    to 0..p-1; these conditions are linear, and the last level is the
    radical.  ``Algebra.radical_chain`` re-certifies the result (ideal,
    nilpotent, semisimple quotient), so a defect here cannot go unnoticed.
    """
    f, n = A.field, A.dim
    table = A.table_matrix()
    traces = table @ Mat.identity(f, n).reshape(n * n, 1)  # row k: tr(L_{b_k})
    gram = (table.reshape(n * n, n) @ traces).reshape(n, n)
    basis = row_basis(nullspace(gram).T)
    p = q = f.characteristic  # 0 over Q, where level 1 is the radical
    while basis.rows and 0 < q <= n:
        ker = nullspace(_divided_trace_gram(A, basis, q))
        basis = row_basis(ker.T @ basis)
        q *= p
    return basis


# -- quotients ---------------------------------------------------------------


def quotient_algebra(A: Algebra, ideal_rows: Mat):
    """Quotient by a two-sided ideal.  Returns (Q, proj, section).

    ``proj`` is dim(A) x dim(Q) (row convention: v -> v @ proj);
    ``section`` is dim(Q) x dim(A) with section @ proj = identity.
    """
    proj, nonpiv = quotient_projection(ideal_rows)
    section = Mat.identity(A.field, A.dim).take_rows(nonpiv)
    dq = len(nonpiv)
    table = (A.products(section, section) @ proj).reshape(dq, dq * dq)
    labels = [A.basis_labels[c] for c in nonpiv]
    q = Algebra(A.field, labels, A.unit @ proj, table)
    return q, proj, section


def quotient_projection(rows: Mat):
    """The projection onto the quotient by the row span of ``rows``, and
    the non-pivot columns that index the quotient basis.

    The projection v -> v - v[pivots] @ R, restricted to the non-pivot
    coordinates, is the identity on the non-pivot rows and -R on the pivot
    rows, for R = rref(rows): the nullspace of ``rows``.  The section
    picks the non-pivot rows of the identity.
    """
    r, pivots, _ = rref(rows)
    return nullspace_of_rref(r, pivots), [c for c in range(rows.cols) if c not in pivots]


# -- primitive idempotents ------------------------------------------------


# random combinations tried per split, after the rows themselves
_RANDOM_COMBINATIONS = 80


def _split_semisimple(B: Algebra, basis: Mat, unit: Mat, rng: random.Random) -> list:
    """Orthogonal primitive idempotents of the corner of semisimple B with
    row basis ``basis`` and unit ``unit``.

    A corner whose center has dimension > 1 splits along a central element;
    a simple corner splits along a zero divisor.  The first idempotent e
    that the search finds splits the corner into eBe and (1-e)B(1-e).
    """
    if basis.rows <= 1:
        return [unit] if basis.rows else []
    center = _corner_center_rows(B, basis)
    if center.rows > 1:
        candidates = _with_random_combinations(center, rng)
        found = (_central_idempotent(B, unit, z) for z in candidates)
        give_up = "cannot split the center: division components beyond the prime field"
    else:
        candidates = _with_random_combinations(basis, rng)
        found = (_zero_divisor_idempotent(B, basis, v) for v in candidates)
        give_up = "no zero divisor found: division algebra of dimension > 1"
    e = next((e for e in found if e is not None), None)
    if e is None:
        raise SplitGiveUp(give_up)
    return [f for u in (e, unit - e) for f in _split_semisimple(B, _corner_rows(B, u), u, rng)]


def _with_random_combinations(rows: Mat, rng: random.Random):
    """Yield the rows of ``rows``, then ``_RANDOM_COMBINATIONS`` random
    combinations of them.

    Every coefficient is drawn before the first row is yielded, so the
    ``rng`` stream does not depend on how many candidates the caller
    tries; each combination is built only when it is asked for.
    """
    f, k = rows.field, _RANDOM_COMBINATIONS
    coeffs = [[f.random_scalar(rng, 3) for _ in range(rows.rows)] for _ in range(k)]
    for i in range(rows.rows):
        yield rows.row_at(i)
    for c in coeffs:
        yield Mat.row(f, c) @ rows


def _corner_rows(A: Algebra, e: Mat) -> Mat:
    """Row basis of the corner eAe: row k of L(e) times R(e) is e * b_k * e."""
    return row_basis(A.left_mult_matrix(e) @ A.right_mult_matrix(e))


def _corner_center_rows(B: Algebra, basis: Mat) -> Mat:
    """Row basis of the center of the corner with row basis ``basis``."""
    k = basis.rows
    prods = B.products(basis, basis)  # row r * k + i is c_r c_i
    # row r, block i: c_r c_i - c_i c_r, zero in every block iff central
    big = prods.reshape(k, k * B.dim) - prods.permuted((k, k, B.dim), (1, 0, 2), k, k * B.dim)
    coeff = left_nullspace(big)  # rows: coefficient vectors over corner basis
    return row_basis(coeff @ basis)


def _central_idempotent(B: Algebra, unit: Mat, z: Mat) -> Optional[Mat]:
    """e = g(z)/g(lam) for the first root lam of the minimal polynomial of
    the central z and g = minpoly/(t - lam): an idempotent of the corner
    other than 0 and ``unit``, or None."""
    coeffs = _min_poly(B, unit, z)
    if len(coeffs) <= 2:
        return None
    try:
        roots = B.field.roots(coeffs)
    except RootSearchBound as exc:
        raise SplitGiveUp(str(exc)) from None
    if not roots:
        return None
    g = _poly_divide_linear(B.field, coeffs, roots[0])
    glam = B.field.evaluate(g, roots[0])
    if glam == 0:
        return None
    gz = Mat.zeros(B.field, 1, B.dim)
    for cf in reversed(g):
        gz = B.multiply(gz, z) + unit.scale(cf)
    e = gz.scale(B.field.inv(glam))
    if B.multiply(e, e) == e and not e.is_zero() and e != unit:
        return e
    return None


def _zero_divisor_idempotent(B: Algebra, basis: Mat, v: Mat) -> Optional[Mat]:
    """For v in the simple corner C with row basis ``basis``: the
    idempotent f with vC = fC, when vC is a proper nonzero right ideal,
    or None.  f lies in vC and acts on it as a left identity."""
    if v.is_zero():
        return None
    ideal = row_basis(B.products(v, basis))
    k = ideal.rows
    if k in (0, basis.rows):
        return None
    # unknown coefficients a_t with sum a_t (g_t * g_s) = g_s for all s
    lhs = B.products(ideal, ideal).reshape(k, k * B.dim)
    sol = solve_left(lhs, ideal.flatten_row())
    if sol is None:
        return None
    f = sol @ ideal
    if B.multiply(f, f) == f and not f.is_zero():
        return f
    return None


def _min_poly(B: Algebra, unit: Mat, u: Mat):
    """Coefficients, low to high, of the minimal polynomial of u in the
    corner with unit ``unit``."""
    rows = [unit]
    power = unit
    while True:
        power = B.multiply(power, u)
        span = Mat.stack_rows(B.field, rows)
        rel = solve_left(span, power)
        if rel is not None:
            return (-rel).tolist()[0] + [B.field.one]
        rows.append(power)


def _poly_divide_linear(field: FieldSpec, coeffs, lam):
    """coeffs / (t - lam) for monic coeffs (exact division of the minimal poly)."""
    n = len(coeffs) - 1
    out = [field.zero] * n
    carry = field.zero
    for k in range(n - 1, -1, -1):
        carry = field.coerce(coeffs[k + 1] + carry * lam)
        out[k] = carry
    return out


def primitive_idempotents(A: Algebra) -> list:
    """Complete orthogonal set of primitive idempotents summing to 1, as
    1 x dim coordinate rows.

    Splits the semisimple quotient A/J one corner at a time, starting from
    A/J itself.  A corner whose center has dimension > 1 is searched for a
    central element whose minimal polynomial has a root in the field; a
    simple corner is searched for a zero divisor v, whose right ideal vC =
    fC gives the idempotent f.  Each search tries the basis rows of the
    center or of the corner, then ``_RANDOM_COMBINATIONS`` random
    combinations of them, whose coefficients are all drawn before the
    first candidate is tried.  The first idempotent e found splits the
    corner into e and 1 - e.  The idempotents of A/J are lifted along the
    nilpotent kernel by e <- 3e^2 - 2e^3 and certified (``checked_idempotents``).
    """
    if A.dim == 0:
        return []
    quot, proj, section = A.radical_chain().top
    rng = random.Random(20240801)
    ssquare = _split_semisimple(quot, _corner_rows(quot, quot.unit), quot.unit, rng)
    lifted = []
    total = Mat.zeros(A.field, 1, A.dim)
    for ebar in ssquare:
        g = ebar @ section
        cmpl = A.unit - total
        g = A.multiply(A.multiply(cmpl, g), cmpl)
        for _ in range(A.dim + 4):
            g2 = A.multiply(g, g)
            if g2 == g:
                break
            g = g2.scale(3) - A.multiply(g2, g).scale(2)
        else:
            raise AlgebraError("idempotent refinement failed to converge")
        lifted.append(g)
        total = total + g
    return checked_idempotents(A, Mat.stack_rows(A.field, lifted))


def checked_idempotents(A: Algebra, rows: Mat) -> list:
    """The rows of ``rows`` as 1 x dim coordinate rows, once they are shown
    to be a complete set of orthogonal primitive idempotents of A.

    Three checks, each raising an ``AlgebraError`` that names the check
    and the rows that fail it: e_i e_j is e_i for i = j and zero
    otherwise (one product against ``Mat.block_diag``); the rows sum to
    the unit; each e_i spans a corner of dimension 1 in A/J
    (``RadicalChain.top``).  The last test is exact when A/J is split (a
    product of matrix algebras over the field): then e is primitive iff
    e (A/J) e is the field.  Over a non-split A/J it rejects primitive
    idempotents too, so it never passes an imprimitive one.
    """
    f, n, d = A.field, rows.rows, A.dim
    es = [rows.row_at(i) for i in range(n)]
    # row i * n + j of the products is e_i e_j, of the block rows e_i or 0
    expected = Mat.block_diag(f, es).reshape(n * n, d)
    bad = A.products(rows, rows).first_differing_row(expected)
    if bad is not None:
        i, j = divmod(bad, n)
        check = "not idempotent" if i == j else "not orthogonal"
        raise AlgebraError(f"idempotents: rows ({i}, {j}) are {check}")
    if Mat.row(f, [1] * n) @ rows != A.unit:
        raise AlgebraError("idempotents: the rows do not sum to the unit")
    quot, proj, _ = A.radical_chain().top
    for i, e in enumerate(es):
        corner = _corner_rows(quot, e @ proj).rows
        if corner != 1:
            raise AlgebraError(
                f"idempotents: row {i} is not primitive (its corner of A/J"
                f" has dimension {corner})"
            )
    return es


# -- quiver frontend ------------------------------------------------------

# from_quiver tabulates the product of the d bounded paths as a d x d x d
# int64 array: 200 paths bound it at 200**3 * 8 bytes = 64 MB.
MAX_QUIVER_PATHS = 200


@dataclass
class QuiverSpec:
    field: FieldSpec
    vertices: list
    arrows: list  # (name, source, target) with vertex names
    relations: list  # each: list of (coeff, [arrow names]) summands, parallel paths
    length_bound: int = 0

    def __post_init__(self):
        if self.length_bound < 1:
            raise AlgebraError("quiver spec requires a positive length_bound", ("length_bound",))
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise AlgebraError("duplicate vertices", ("vertices",))
        names = set()
        for k, (name, s, t) in enumerate(self.arrows):
            if name in names:
                raise AlgebraError("duplicate arrow names", ("arrows", k))
            if s not in vs or t not in vs:
                at = ("arrows", k)
                raise AlgebraError(f"arrow {quoted(name)} references unknown vertex", at)
            names.add(name)


def from_quiver(q: QuiverSpec) -> Algebra:
    """Bounded path algebra modulo relations.

    Basis: residue paths of length < length_bound modulo the two-sided
    ideal generated by the relations (all longer paths are killed by the
    bound).  The path [a, b] means "a first, then b"; right modules act
    by path concatenation on the right.  The algebra carries its radical,
    the positive-length paths, as ``radical_hint`` and its primitive
    idempotents, the trivial paths, as ``idempotent_hint``.
    """
    f = q.field
    arrow_by_name = {a[0]: a for a in q.arrows}
    leaving = {}  # vertex -> the arrows out of it, in spec order
    for a in q.arrows:
        leaving.setdefault(a[1], []).append(a)
    # enumerate paths of length < L, one length at a time: tuples of arrow
    # names, source/target tracked.  The count is checked as each length
    # is added, before the next is made and before the table is built, so
    # a level is at most MAX_QUIVER_PATHS paths times the arrows at their ends.
    paths, frontier = [], [((), v, v) for v in q.vertices]
    for _ in range(q.length_bound):
        if not frontier:
            break
        paths += frontier
        if len(paths) > MAX_QUIVER_PATHS:
            raise AlgebraError(
                f"more than {MAX_QUIVER_PATHS} paths of length < {q.length_bound}",
                ("length_bound",),
            )
        frontier = [
            (arrs + (name,), s, a_t)
            for arrs, s, t in frontier
            for name, _, a_t in leaving.get(t, ())
        ]
    # key by (arrow tuple, source): arrow names pin everything except the
    # vertex of a lazy path
    index = {}
    for i, (arrs, s, t) in enumerate(paths):
        index[(arrs, s)] = i
    d = len(paths)
    labels = ["*".join(arrs) if arrs else f"e_{s}" for arrs, s, _ in paths]

    def concat(i: int, j: int):
        arrs_i, si, ti = paths[i]
        arrs_j, sj, tj = paths[j]
        if ti != sj:
            return None
        combined = arrs_i + arrs_j
        if len(combined) >= q.length_bound:
            return None  # killed by the bound
        return index[(combined, si)]

    table = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            k = concat(i, j)
            if k is not None:
                table[i, j, k] = 1
    unit = Mat.row(f, [0 if arrs else 1 for arrs, s, t in paths])
    bounded = Algebra(f, labels, unit, Mat(f, table.reshape(d, d * d)))

    # relation vectors, validated: parallel summands, admissible (length >= 2)
    rel_vecs = []
    for k, rel in enumerate(q.relations):
        vec = [f.zero] * d
        sig = None
        touched = False
        for t, (coeff, arr_names) in enumerate(rel):
            at = ("relations", k, "terms", t, "path")
            for nm in arr_names:
                if nm not in arrow_by_name:
                    raise AlgebraError(f"relation references unknown arrow {quoted(nm)}", at)
            if len(arr_names) < 2:
                raise AlgebraError("relations must be admissible: paths of length >= 2", at)
            src = arrow_by_name[arr_names[0]][1]
            tgt = arrow_by_name[arr_names[-1]][2]
            for a, b in zip(arr_names, arr_names[1:]):
                if arrow_by_name[a][2] != arrow_by_name[b][1]:
                    raise AlgebraError(f"relation path {quoted(arr_names)} is not composable", at)
            if sig is None:
                sig = (src, tgt)
            elif sig != (src, tgt):
                raise AlgebraError("relation mixes non-parallel paths", ("relations", k))
            key = (tuple(arr_names), src)
            if key in index:
                vec[index[key]] += f.coerce(coeff)
                touched = True
            # paths of length >= L are already zero in the bounded algebra
        if touched:
            rel_vecs.append(Mat.row(f, vec))

    ideal = (
        row_basis(Mat.stack_rows(f, rel_vecs)) if rel_vecs else Mat.zeros(f, 0, d)
    )
    # saturate to a two-sided ideal under arrow multiplication
    arrows = Mat.stack_rows(f, [
        bounded.basis_element(index[((a[0],), a[1])])
        for a in q.arrows
        if ((a[0],), a[1]) in index
    ])
    while ideal.rows and arrows.rows:
        sat = row_basis(Mat.stack_rows(
            f, [ideal, bounded.products(arrows, ideal), bounded.products(ideal, arrows)]
        ))
        if sat.rows == ideal.rows:
            break
        ideal = sat

    alg, proj, _ = quotient_algebra(bounded, ideal)
    rep = alg.validate()
    if not rep.ok:
        raise AlgebraError(f"ideal not admissible within bound: {rep.violations}")
    # radical = image of positive-length paths (admissible ideal)
    pos = [bounded.basis_element(i) @ proj for i, (arrs, s, t) in enumerate(paths) if arrs]
    alg.radical_hint = (
        row_basis(Mat.stack_rows(f, pos)) if pos else Mat.zeros(f, 0, alg.dim)
    )
    # the trivial paths, in the order the split of A/J = k^n lists them: it
    # splits off g(z)/g(lam) for the first remaining vertex z and the first
    # root lam of t^2 - t, which is z itself when lam = 1 (first vertex
    # first) and 1 - z when lam = 0 (last vertex first)
    trivial = [bounded.basis_element(i) @ proj for i, (arrs, s, t) in enumerate(paths) if not arrs]
    if f.roots([f.zero, -f.one, f.one])[0] == 0:
        trivial.reverse()
    alg.idempotent_hint = Mat.stack_rows(f, trivial)
    return alg

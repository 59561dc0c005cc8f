"""Finite-dimensional associative unital algebras by structure constants.

An algebra is a basis b_0..b_{d-1}, a unit vector, and a table
``table[i, j] = coordinates of b_i * b_j``.  On top of that: radical
chains, quotients, corners, opposite algebras, primitive idempotents,
and a bounded-length quiver-with-relations frontend.

Conventions (fixed across the package): elements are coordinate row
vectors; the path ``[a, b]`` means "a first, then b"; modules are right
modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

import numpy as np

from .linalg import (
    _ZERO,
    FieldSpec,
    Mat,
    RowBasis,
    _int64_headroom,
    _integer_rows,
    left_nullspace,
    nullspace,
    row_basis,
    row_span_contains,
    rref,
    solve_left,
)


class AlgebraError(ValueError):
    pass


class SplitGiveUp(AlgebraError):
    """Semisimple-quotient decomposition hit a division component it cannot split."""


@dataclass
class ValidationReport:
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


@dataclass
class Idempotent:
    coords: Mat  # 1 x dim row in the ambient algebra


@dataclass
class RadicalChain:
    powers: list  # row bases of J^1 >= J^2 >= ... >= J^n (last one is zero)
    nilpotency_index: int

    @property
    def radical(self) -> Mat:
        return self.powers[0]

    def power(self, i: int) -> Mat:
        """Row basis of J^i for 1 <= i <= n."""
        return self.powers[i - 1]


class Algebra:
    def __init__(self, field: FieldSpec, basis_labels, unit: Mat, table: np.ndarray,
                 radical_hint: Optional[Mat] = None, provenance: str = "table"):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = list(basis_labels)
        self.unit = unit
        self.table = table  # (dim, dim, dim), table[i, j] = coords of b_i b_j
        self.radical_hint = radical_hint
        self.provenance = provenance
        self._radical_chain: Optional[RadicalChain] = None
        self._generators: Optional[list] = None
        self._nz = None
        self._int_nz = None
        self.module_context = None  # set by catres.modules.context
        assert table.shape == (self.dim,) * 3
        assert unit.rows == 1 and unit.cols == self.dim

    # -- raw arithmetic on coordinate rows ------------------------------

    def _red(self, a: np.ndarray) -> np.ndarray:
        return a % self.field.p if self.field.kind == "prime" else a

    def _nonzero_triples(self):
        """(i, j, k, value) for nonzero table entries; object tables are
        sparse enough that skipping zeros beats dense Fraction tensordots."""
        if self._nz is None:
            nz = []
            for i in range(self.dim):
                for j in range(self.dim):
                    for k in range(self.dim):
                        v = self.table[i, j, k]
                        if v:
                            nz.append((i, j, k, v))
            self._nz = nz
        return self._nz

    def multiply(self, u: Mat, v: Mat) -> Mat:
        """Product of two elements given as 1 x dim coordinate rows."""
        return self.products(u, v)

    def table_matrix(self) -> Mat:
        """The table as a dim x dim^2 matrix: row i holds b_i * b_j for all j.

        ``rows @ table_matrix()`` stacks the left-multiplication matrices of
        all rows side by side, with one product.
        """
        d = self.dim
        return Mat(self.field, self.table.reshape(d, d * d))

    def products(self, u: Mat, v: Mat) -> Mat:
        """Row ``i * v.rows + j`` is the product of row i of u and row j of v.

        Over F_p two matrix products against the table do every pair at once
        (``Mat.__matmul__`` enforces the int64 headroom).  Over Q each pair
        visits the nonzero table entries on integers: the rows and the table
        are scaled by the lcm of their denominators, and each output entry
        becomes a ``Fraction`` once.
        """
        f, d = self.field, self.dim
        a, b = u.rows, v.rows
        if not (a and b and d):
            return Mat.zeros(f, a * b, d)
        if f.kind == "rational":
            return self._rational_products(u, v)
        # x[i, y, k] = sum_x u[i, x] table[x, y, k]; then contract y with v
        x = (u @ self.table_matrix()).a.reshape(a, d, d)
        w = v @ Mat(f, x.transpose(1, 0, 2).reshape(d, a * d), _copy=False)
        return Mat(f, w.a.reshape(b, a, d).transpose(1, 0, 2).reshape(a * b, d))

    def _rational_products(self, u: Mat, v: Mat) -> Mat:
        if self._int_nz is None:
            nz = self._nonzero_triples()
            ratios = [val.as_integer_ratio() for *_, val in nz]
            den = lcm(*(r[1] for r in ratios))
            by_x = {}
            for (x, y, k, _), (num, r) in zip(nz, ratios):
                by_x.setdefault(x, []).append((y, k, num * (den // r)))
            self._int_nz = (den, by_x)
        den, by_x = self._int_nz
        vi, vs = _integer_rows(v.a.tolist())
        rows = []
        for urow, du in zip(*_integer_rows(u.a.tolist())):
            terms = [(ux, by_x[x]) for x, ux in enumerate(urow) if ux and x in by_x]
            for vrow, dv in zip(vi, vs):
                acc = [0] * self.dim
                for ux, group in terms:
                    for y, k, t in group:
                        vy = vrow[y]
                        if vy:
                            acc[k] += ux * vy * t
                scale = du * dv * den
                rows.append([Fraction(c, scale) if c else _ZERO for c in acc])
        out = np.empty((len(rows), self.dim), dtype=object)
        out[:, :] = rows
        return Mat(self.field, out, _copy=False)

    def left_mult_matrix(self, u: Mat) -> Mat:
        """Matrix of x -> u*x in the row convention (row k = coords of u*b_k)."""
        if self.field.kind == "prime":
            x = np.tensordot(u.a[0], self.table, axes=(0, 0)) % self.field.p
            return Mat(self.field, x, _copy=False)
        ua = u.a[0]
        x = np.empty((self.dim, self.dim), dtype=object)
        x[...] = Fraction(0)
        for i, j, k, val in self._nonzero_triples():
            ui = ua[i]
            if ui:
                x[j, k] += ui * val
        return Mat(self.field, x, _copy=False)

    def right_mult_matrix(self, u: Mat) -> Mat:
        """Matrix of x -> x*u (row k = coords of b_k*u)."""
        if self.field.kind == "prime":
            x = np.tensordot(u.a[0], self.table, axes=(0, 1)) % self.field.p
            return Mat(self.field, x, _copy=False)
        ua = u.a[0]
        x = np.empty((self.dim, self.dim), dtype=object)
        x[...] = Fraction(0)
        for i, j, k, val in self._nonzero_triples():
            uj = ua[j]
            if uj:
                x[i, k] += uj * val
        return Mat(self.field, x, _copy=False)

    def basis_element(self, i: int) -> Mat:
        m = Mat.zeros(self.field, 1, self.dim).a.copy()
        m[0, i] = self.field.one
        return Mat(self.field, m, _copy=False)

    def power(self, u: Mat, k: int) -> Mat:
        acc = self.unit
        for _ in range(k):
            acc = self.multiply(acc, u)
        return acc

    # -- validation ------------------------------------------------------

    def validate(self) -> ValidationReport:
        violations = []
        lu = self.left_mult_matrix(self.unit)
        ru = self.right_mult_matrix(self.unit)
        ident = Mat.identity(self.field, self.dim)
        if lu != ident:
            violations.append("unit law fails on the left")
        if ru != ident:
            violations.append("unit law fails on the right")
        t = self.table
        for i in range(self.dim):
            # (b_i b_j) b_k vs b_i (b_j b_k), all j, k at once
            lhs = self._red(np.tensordot(t[i], t, axes=(1, 0)))
            # rhs[j, k, :] = sum_m t[j, k, m] * t[i, m, :]
            rhs = self._red(np.tensordot(t, t[i], axes=(2, 0)))
            if not (lhs == rhs).all():
                j, k = next(
                    (j, k)
                    for j in range(self.dim)
                    for k in range(self.dim)
                    if not (lhs[j, k] == rhs[j, k]).all()
                )
                violations.append(
                    f"associativity fails at triple ({self.basis_labels[i]},"
                    f" {self.basis_labels[j]}, {self.basis_labels[k]})"
                )
                break
        return ValidationReport(not violations, violations)

    # -- derived algebras --------------------------------------------------

    def opposite(self) -> "Algebra":
        return Algebra(
            self.field,
            self.basis_labels,
            self.unit,
            self.table.transpose(1, 0, 2).copy(),
            provenance="opposite",
        )

    def generating_indices(self) -> list:
        """Small set of basis indices that generates the algebra with the unit.

        An intertwining system over these generators alone has the same
        kernel as over the whole basis; the Kronecker Hom oracle of the
        tests builds its systems this way.
        """
        if self._generators is not None:
            return self._generators
        span = row_basis(self.unit)
        gens = []
        for i in range(self.dim):
            if row_span_contains(span, self.basis_element(i)):
                continue
            gens.append(i)
            span = row_basis(span.vstack(self.basis_element(i)))
            while True:
                new = row_basis(span.vstack(self.products(span, span)))
                if new.rows == span.rows:
                    break
                span = new
            if span.rows == self.dim:
                break
        self._generators = gens
        return gens

    # -- radical -----------------------------------------------------------

    def radical_chain(self, annotation: Optional[Mat] = None) -> RadicalChain:
        if self._radical_chain is not None and annotation is None:
            return self._radical_chain
        if self.dim == 0:
            raise AlgebraError("radical of the zero algebra is undefined")
        j = annotation if annotation is not None else self.radical_hint
        if j is None:
            j = _radical_by_field(self)
        j = row_basis(j) if j.rows else Mat.zeros(self.field, 0, self.dim)
        _verify_radical(self, j)
        powers = [j]
        while powers[-1].rows:
            powers.append(_subspace_product(self, powers[-1], j))
            if len(powers) > self.dim + 1:
                raise AlgebraError("claimed radical is not nilpotent")
        chain = RadicalChain(powers=powers, nilpotency_index=len(powers))
        if annotation is None:
            self._radical_chain = chain
        return chain

    def center(self) -> Mat:
        """Row basis of the center {z : zb = bz for all basis b}."""
        blocks = []
        for i in range(self.dim):
            b = self.basis_element(i)
            # row k of the block: coords of (b_k*b - b*b_k), zero iff central
            blocks.append((self.right_mult_matrix(b) - self.left_mult_matrix(b)).a)
        big = Mat(self.field, np.hstack(blocks), _copy=False)
        return row_basis(left_nullspace(big))


def _subspace_product(A: Algebra, u_rows: Mat, v_rows: Mat) -> Mat:
    if u_rows.rows == 0 or v_rows.rows == 0:
        return Mat.zeros(A.field, 0, A.dim)
    return row_basis(A.products(u_rows, v_rows))


def _is_ideal(A: Algebra, rows: Mat) -> bool:
    # b*v and v*b for every basis element b and every row v, checked in one batch
    prods = []
    for i in range(A.dim):
        b = A.basis_element(i)
        prods += [rows @ A.left_mult_matrix(b), rows @ A.right_mult_matrix(b)]
    return RowBasis(rows).contains(Mat.stack_rows(A.field, prods))


def _verify_radical(A: Algebra, j: Mat):
    """Certify: j is a nilpotent ideal and A/j has zero algorithmic radical."""
    if j.rows and not _is_ideal(A, j):
        raise AlgebraError("claimed radical is not a two-sided ideal")
    power = j
    steps = 0
    while power.rows:
        power = _subspace_product(A, power, j)
        steps += 1
        if steps > A.dim:
            raise AlgebraError("claimed radical is not nilpotent")
    quot, _, _ = quotient_algebra(A, j)
    if quot.dim and _radical_by_field(quot).rows:
        raise AlgebraError("quotient by claimed radical is not semisimple")


def _radical_by_field(A: Algebra) -> Mat:
    if A.field.kind == "rational":
        return _radical_trace_form(A)
    return _radical_prime_chain(A)


def _radical_trace_form(A: Algebra) -> Mat:
    """Kernel of T(a,b) = trace(L_a L_b); equals the radical in characteristic 0."""
    lmats = [A.left_mult_matrix(A.basis_element(i)) for i in range(A.dim)]
    g = Mat.zeros(A.field, A.dim, A.dim).a.copy()
    for i in range(A.dim):
        for k in range(i, A.dim):
            tr = np.trace((lmats[i] @ lmats[k]).a)
            g[i, k] = tr
            g[k, i] = tr
    gram = Mat(A.field, g, _copy=False)
    return row_basis(left_nullspace(gram))


# matrices of one (count, n, n) power stack hold at most this many entries
_STACK_ENTRIES = 1 << 21


def _power_traces(z: np.ndarray, k: int, modulus: int) -> np.ndarray:
    """tr(Z^k) mod ``modulus`` for each matrix Z of a (count, n, n) stack.

    Repeated squaring, reducing after every product: in int64 when dot
    products of length n over entries below ``modulus`` fit, otherwise on
    exact Python integers.
    """
    if not _int64_headroom(z.shape[-1], modulus):
        z = z.astype(object)
    acc = None
    base = z % modulus
    while k:
        if k & 1:
            acc = base if acc is None else (acc @ base) % modulus
        k >>= 1
        if k:
            base = (base @ base) % modulus
    return np.trace(acc, axis1=1, axis2=2) % modulus


def _divided_trace_gram(A: Algebra, basis: Mat, q: int) -> np.ndarray:
    """gram[t, s] = (tr(Z^q) / q) mod p, Z the left-multiplication matrix of
    b_s * b_t lifted entrywise to 0..p-1, for the rows b of ``basis``.

    Only tr(Z^q) mod p*q is needed, so the lifts of all products are raised
    to the q-th power together, modulo p*q, in stacks of bounded size.
    """
    p, n, r = A.field.p, A.dim, basis.rows
    w = A.products(basis, basis).a  # row s * r + t is b_s * b_t
    table = A.table_matrix()
    step = max(1, _STACK_ENTRIES // (n * n))
    traces = np.concatenate([
        _power_traces((Mat(A.field, w[c : c + step]) @ table).a.reshape(-1, n, n), q, p * q)
        for c in range(0, r * r, step)
    ])
    if (traces % q).any():
        raise AlgebraError("divided-trace divisibility failed; not an F_p algebra?")
    return (traces // q).astype(np.int64).reshape(r, r).T


def _radical_prime_chain(A: Algebra) -> Mat:
    """Radical over F_p by the divided-trace chain.

    Level j imposes g_j(x, y) = (tr(Z^{p^(j-1)}) / p^(j-1)) mod p on the
    previous level, where Z lifts the left-multiplication matrix of x*y
    entrywise to 0..p-1.  On the prime field these conditions are linear,
    and the last level is the radical.  The result is re-certified by
    ``_verify_radical`` (ideal + nilpotent + semisimple quotient), so a
    defect here cannot go unnoticed.
    """
    p = A.field.p
    n = A.dim
    levels = 1
    q = p
    while q <= n:
        levels += 1
        q *= p
    basis = Mat.identity(A.field, n)  # rows: current I_{j-1} basis
    for j in range(1, levels + 1):
        if basis.rows == 0:
            break
        gram = _divided_trace_gram(A, basis, p ** (j - 1))
        ker = nullspace(Mat(A.field, gram, _copy=False))  # columns: coefficient vectors
        basis = row_basis(ker.T @ basis)
    return basis


# -- quotients, subalgebras, corners ------------------------------------


def quotient_algebra(A: Algebra, ideal_rows: Mat):
    """Quotient by a two-sided ideal.  Returns (Q, proj, section).

    ``proj`` is dim(A) x dim(Q) (row convention: v -> v @ proj);
    ``section`` is dim(Q) x dim(A) with section @ proj = identity.
    """
    f = A.field
    r, pivots, rk = rref(ideal_rows) if ideal_rows.rows else (ideal_rows, [], 0)
    nonpiv = [c for c in range(A.dim) if c not in pivots]
    # reduction: v -> v - v[pivots] @ R, then restrict to non-pivot coords
    proj = Mat.zeros(f, A.dim, len(nonpiv)).a.copy()
    for jq, c in enumerate(nonpiv):
        proj[c, jq] = f.one
    for i, pc in enumerate(pivots):
        for jq, c in enumerate(nonpiv):
            val = -r.a[i, c]
            proj[pc, jq] = val % f.p if f.kind == "prime" else val
    proj = Mat(f, proj, _copy=False)
    section = Mat.zeros(f, len(nonpiv), A.dim).a.copy()
    for jq, c in enumerate(nonpiv):
        section[jq, c] = f.one
    section = Mat(f, section, _copy=False)

    dq = len(nonpiv)
    table = (A.products(section, section) @ proj).a.reshape(dq, dq, dq)
    labels = [A.basis_labels[c] for c in nonpiv]
    q = Algebra(f, labels, A.unit @ proj, table, provenance="quotient")
    return q, proj, section


def quotient_by_power(A: Algebra, chain: RadicalChain, i: int):
    """The algebra A/J^i with its canonical projection; 1 <= i <= n."""
    if not 1 <= i <= chain.nilpotency_index:
        raise AlgebraError(f"power index {i} out of range 1..{chain.nilpotency_index}")
    q, proj, _ = quotient_algebra(A, chain.power(i))
    return q, proj


def corner_algebra(A: Algebra, e: Idempotent):
    """The corner eAe with unit e.  Returns (C, embed, degenerate).

    ``embed`` is dim(C) x dim(A), its rows are the corner basis inside A.
    """
    ec = e.coords
    defect = A.multiply(ec, ec) - ec
    if not defect.is_zero():
        raise AlgebraError("corner: e is not idempotent")
    embed = row_basis(_corner_rows(A, ec))
    m = embed.rows
    if m == 0:
        empty = np.zeros((0, 0, 0), dtype=np.int64) if A.field.kind == "prime" else np.empty(
            (0, 0, 0), dtype=object
        )
        return Algebra(A.field, [], Mat.zeros(A.field, 1, 0), empty, provenance="corner"), embed, True
    basis = RowBasis(embed)
    table = basis.coords(A.products(embed, embed)).a.reshape(m, m, m)
    unit = basis.coords(ec)
    labels = [f"c{i}" for i in range(m)]
    c = Algebra(A.field, labels, unit, table, provenance="corner")
    return c, embed, False


# -- primitive idempotents ------------------------------------------------


def _poly_roots(field: FieldSpec, coeffs):
    """Roots in the base field of a monic polynomial given low-to-high."""
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
    den = 1
    for c in coeffs:
        den = den * Fraction(c).denominator // np.gcd(den, Fraction(c).denominator)
    ints = [int(Fraction(c) * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    lead = ints[-1]
    const = next((c for c in ints if c != 0), 0)
    if const == 0:
        roots.append(Fraction(0))
        return roots

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


def _eval_poly(A: Algebra, coeffs, u: Mat) -> Mat:
    acc = Mat.zeros(A.field, 1, A.dim)
    for c in reversed(coeffs):
        acc = A.multiply(acc, u) + A.unit.scale(c)
    return acc


class _Corner:
    """A unital subspace of a fixed semisimple algebra, with its own unit."""

    def __init__(self, B: Algebra, basis: Mat, unit: Mat):
        self.B = B
        self.basis = basis  # rows in B-coordinates
        self.unit = unit

    @property
    def dim(self):
        return self.basis.rows


def _split_semisimple(B: Algebra, c: _Corner, rng: random.Random, budget: int = 80):
    """Orthogonal primitive idempotents of a corner of semisimple B."""
    if c.dim == 0:
        return []
    if c.dim == 1:
        return [c.unit]

    def try_element(z: Mat):
        """Split along a central element with reducible minimal polynomial."""
        coeffs = _min_poly_coords_in_corner(B, c, z)
        deg = len(coeffs) - 1
        if deg <= 1:
            return None
        roots = _poly_roots(B.field, coeffs)
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
        candidates = [zc.row_at(i) for i in range(zc.rows)]
        for _ in range(budget):
            coeffs_vec = [rng.randrange(B.field.p) if B.field.kind == "prime" else rng.randint(-3, 3)
                          for _ in range(zc.rows)]
            v = Mat.zeros(B.field, 1, B.dim)
            for t, cf in enumerate(coeffs_vec):
                v = v + zc.row_at(t).scale(cf)
            candidates.append(v)
        for z in candidates:
            e = try_element(z)
            if e is not None:
                left = _corner_of_unit(B, e)
                right = _corner_of_unit(B, c.unit - e)
                return _split_semisimple(B, left, rng, budget) + _split_semisimple(
                    B, right, rng, budget
                )
        raise SplitGiveUp(
            "cannot split the center: division components beyond the prime field"
        )

    # 2) center is one-dimensional: simple algebra; hunt a zero divisor
    candidates = [c.basis.row_at(i) for i in range(c.dim)]
    for _ in range(budget):
        coeffs_vec = [rng.randrange(B.field.p) if B.field.kind == "prime" else rng.randint(-3, 3)
                      for _ in range(c.dim)]
        v = Mat.zeros(B.field, 1, B.dim)
        for t, cf in enumerate(coeffs_vec):
            v = v + c.basis.row_at(t).scale(cf)
        candidates.append(v)
    for v in candidates:
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
        return _split_semisimple(B, left, rng, budget) + _split_semisimple(B, right, rng, budget)
    raise SplitGiveUp("no zero divisor found: division algebra of dimension > 1")


def _corner_rows(A: Algebra, e: Mat) -> Mat:
    """Row k is e * b_k * e: (e b_k) e is row k of L(e) times R(e)."""
    return A.left_mult_matrix(e) @ A.right_mult_matrix(e)


def _corner_of_unit(B: Algebra, e: Mat) -> _Corner:
    return _Corner(B, row_basis(_corner_rows(B, e)), e)


def _corner_center_rows(B: Algebra, c: _Corner) -> Mat:
    k = c.dim
    prods = B.products(c.basis, c.basis).a.reshape(k, k, B.dim)  # [r, i] = c_r c_i
    # row r, block i: c_r c_i - c_i c_r, zero in every block iff central
    big = Mat(B.field, prods.reshape(k, k * B.dim)) - Mat(
        B.field, prods.transpose(1, 0, 2).reshape(k, k * B.dim)
    )
    coeff = left_nullspace(big)  # rows: coefficient vectors over corner basis
    return row_basis(coeff @ c.basis)


def _min_poly_coords_in_corner(B: Algebra, c: _Corner, u: Mat):
    rows = [c.unit]
    power = c.unit
    while True:
        power = B.multiply(power, u)
        span = Mat.stack_rows(B.field, rows)
        rel = solve_left(span, power)
        if rel is not None:
            coeffs = [-rel.a[0, t] for t in range(len(rows))] + [B.field.one]
            if B.field.kind == "prime":
                coeffs = [int(x) % B.field.p for x in coeffs]
            return coeffs
        rows.append(power)


def _eval_poly_in_corner(B: Algebra, c: _Corner, coeffs, u: Mat) -> Mat:
    acc = Mat.zeros(B.field, 1, B.dim)
    for cf in reversed(coeffs):
        acc = B.multiply(acc, u) + c.unit.scale(cf)
    return acc


def _eval_scalar(field: FieldSpec, coeffs, x):
    acc = field.zero
    for cf in reversed(coeffs):
        acc = field.coerce(acc * x + field.coerce(cf))
    return acc


def _poly_divide_linear(field: FieldSpec, coeffs, lam):
    """coeffs / (t - lam) for monic coeffs (exact division of the minimal poly)."""
    n = len(coeffs) - 1
    out = [field.zero] * n
    carry = field.zero
    for k in range(n - 1, -1, -1):
        carry = field.coerce(coeffs[k + 1] + carry * lam)
        out[k] = carry
    return out


def _left_identity_on(B: Algebra, c: _Corner, ideal_rows: Mat):
    """Solve for f in the row span with f*x = x for all x spanning the ideal."""
    k = ideal_rows.rows
    # unknown coefficients a_t with sum a_t (g_t * x_s) = x_s for all s
    lhs = Mat(B.field, B.products(ideal_rows, ideal_rows).a.reshape(k, k * B.dim))
    rhs = Mat(B.field, np.concatenate([ideal_rows.a[s] for s in range(k)]).reshape(1, -1))
    sol = solve_left(lhs, rhs)
    if sol is None:
        return None
    f = sol @ ideal_rows
    if (B.multiply(f, f) - f).is_zero() and not f.is_zero():
        return f
    return None


def primitive_idempotents(A: Algebra, chain: RadicalChain) -> list:
    """Complete orthogonal set of primitive idempotents summing to 1.

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
        lifted.append(Idempotent(g))
        total = total + g
    if not (total - A.unit).is_zero():
        raise AlgebraError("lifted idempotents do not sum to the unit")
    for i, ei in enumerate(lifted):
        for j, ej in enumerate(lifted):
            prod = A.multiply(ei.coords, ej.coords)
            expect = ei.coords if i == j else Mat.zeros(A.field, 1, A.dim)
            if prod != expect:
                raise AlgebraError("lifted idempotents are not orthogonal")
    return lifted


# -- quiver frontend ------------------------------------------------------


@dataclass
class QuiverSpec:
    field: FieldSpec
    vertices: list
    arrows: list  # (name, source, target) with vertex names
    relations: list  # each: list of (coeff, [arrow names]) summands, parallel paths
    length_bound: int = 0

    def __post_init__(self):
        if self.length_bound < 1:
            raise AlgebraError("quiver spec requires a positive length_bound")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate arrow names")
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise AlgebraError("duplicate vertices")
        for name, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise AlgebraError(f"arrow {name} references unknown vertex")


def from_quiver(q: QuiverSpec) -> Algebra:
    """Bounded path algebra modulo relations.

    Basis: residue paths of length < length_bound modulo the two-sided
    ideal generated by the relations (all longer paths are killed by the
    bound).  The path [a, b] means "a first, then b"; right modules act
    by path concatenation on the right.
    """
    f = q.field
    arrow_by_name = {a[0]: a for a in q.arrows}
    # enumerate paths of length < L: tuples of arrow names; source/target tracked
    paths = [((), v, v) for v in q.vertices]
    frontier = list(paths)
    for _ in range(q.length_bound - 1):
        nxt = []
        for arrs, s, t in frontier:
            for name, a_s, a_t in q.arrows:
                if a_s == t:
                    nxt.append((arrs + (name,), s, a_t))
        paths.extend(nxt)
        frontier = nxt
    # key by (arrow tuple, source): arrow names pin everything except the
    # vertex of a lazy path
    index = {}
    for i, (arrs, s, t) in enumerate(paths):
        index[(arrs, s)] = i
    d = len(paths)

    def label(p):
        arrs, s, t = p
        return f"e_{s}" if not arrs else "*".join(arrs)

    labels = [label(p) for p in paths]

    def concat(i: int, j: int):
        arrs_i, si, ti = paths[i]
        arrs_j, sj, tj = paths[j]
        if ti != sj:
            return None
        combined = arrs_i + arrs_j
        if len(combined) >= q.length_bound:
            return None  # killed by the bound
        return index[(combined, si)]

    table = np.zeros((d, d, d), dtype=np.int64) if f.kind == "prime" else np.empty(
        (d, d, d), dtype=object
    )
    if f.kind == "rational":
        table[...] = Fraction(0)
    for i in range(d):
        for j in range(d):
            k = concat(i, j)
            if k is not None:
                table[i, j, k] = f.one
    unit = Mat.zeros(f, 1, d).a.copy()
    for i, (arrs, s, t) in enumerate(paths):
        if not arrs:
            unit[0, i] = f.one
    unit = Mat(f, unit, _copy=False)
    bounded = Algebra(f, labels, unit, table, provenance="quiver-bounded")

    # relation vectors, validated: parallel summands, admissible (length >= 2)
    rel_vecs = []
    for rel in q.relations:
        vec = Mat.zeros(f, 1, d).a.copy()
        sig = None
        touched = False
        for coeff, arr_names in rel:
            for nm in arr_names:
                if nm not in arrow_by_name:
                    raise AlgebraError(f"relation references unknown arrow {nm!r}")
            if len(arr_names) < 2:
                raise AlgebraError("relations must be admissible: paths of length >= 2")
            src = arrow_by_name[arr_names[0]][1]
            tgt = arrow_by_name[arr_names[-1]][2]
            for a, b in zip(arr_names, arr_names[1:]):
                if arrow_by_name[a][2] != arrow_by_name[b][1]:
                    raise AlgebraError(f"relation path {arr_names} is not composable")
            if sig is None:
                sig = (src, tgt)
            elif sig != (src, tgt):
                raise AlgebraError("relation mixes non-parallel paths")
            key = (tuple(arr_names), src)
            if key in index:
                vec[0, index[key]] += f.coerce(coeff)
                touched = True
            # paths of length >= L are already zero in the bounded algebra
        if touched:
            rel_vecs.append(Mat(f, vec, _copy=False))

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
    alg.provenance = "quiver"
    # radical = image of positive-length paths (admissible ideal)
    pos = [bounded.basis_element(i) @ proj for i, (arrs, s, t) in enumerate(paths) if arrs]
    alg.radical_hint = (
        row_basis(Mat.stack_rows(f, pos)) if pos else Mat.zeros(f, 0, alg.dim)
    )
    return alg

"""Exact dense linear algebra over prime fields and the rationals.

Everything downstream (module categories, resolutions, certification)
reduces to row reduction of matrices over an exact field.  Two carriers:

* prime field F_p: numpy int64 arrays with canonical entries 0..p-1,
  all vectorized ops followed by ``% p``;
* rationals: numpy object arrays of ``fractions.Fraction``.  Products and
  row reduction scale each row (or column) by the lcm of its denominators
  and run on Python integers; each result entry becomes a canonical
  ``Fraction`` once, at the end.

Coordinates against a fixed row basis go through :class:`RowBasis`: one
rref factors the basis, after which each batch of right-hand sides costs
one column slice, one product and one exact residual check.
``coords_in_rows`` and ``row_span_contains`` are one-shot wrappers over it;
callers that solve against the same basis repeatedly hold the factored
basis instead.

No floating point is used anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional

import numpy as np

# F_p products run in int64: a dot product of length k sums k terms below
# (p-1)**2.  With p < MAX_PRIME = 2**20 every term is below 2**40, so any
# inner dimension below 2**23 fits; ``Mat.__matmul__`` enforces the exact
# bound k * (p-1)**2 < 2**63 through ``_check_int64_headroom``.
MAX_PRIME = 1 << 20

_ZERO = Fraction(0)


def _int64_headroom(inner: int, modulus: int) -> bool:
    """Do int64 dot products of length ``inner`` over entries 0..modulus-1 fit?"""
    return inner * (modulus - 1) ** 2 < 1 << 63


def _check_int64_headroom(inner: int, p: int) -> None:
    """Refuse an F_p product whose int64 dot products could wrap."""
    if not _int64_headroom(inner, p):
        raise ValueError(
            f"F_{p} product with inner dimension {inner} would overflow int64"
        )


def _integer_rows(rows: list) -> tuple[list, list]:
    """Scale each row of rationals (or ints) by the lcm of its denominators.

    Returns the integer rows and the scale factors.
    """
    ints, scales = [], []
    for row in rows:
        nums, dens = zip(*[x.as_integer_ratio() for x in row])
        d = lcm(*dens)
        ints.append(list(nums) if d == 1 else [n * (d // e) for n, e in zip(nums, dens)])
        scales.append(d)
    return ints, scales


def _integer_cols(a: np.ndarray) -> tuple[np.ndarray, list]:
    """Scale each column of a nonempty rational matrix to integers.

    Returns the integer matrix (object dtype) and the column scale factors.
    """
    cols, scales = _integer_rows(a.T.tolist())
    return np.array(cols, dtype=object).T, scales


def _scaled_product(a: np.ndarray, d: list, b: np.ndarray, e: list) -> np.ndarray:
    """diag(1/d) (a @ b) diag(1/e) as Fractions, for integer matrices a and b."""
    c = a.dot(b).tolist()
    out = np.empty((len(d), len(e)), dtype=object)
    out[:, :] = [
        [Fraction(x, di * ej) if x else _ZERO for x, ej in zip(row, e)]
        for row, di in zip(c, d)
    ]
    return out


def is_prime(n: int) -> bool:
    """Trial-division primality check, adequate for desk-scale moduli."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """An exact coefficient field: F_p (``kind="prime"``) or Q (``kind="rational"``)."""

    kind: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "prime":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"modulus {self.p!r} is not prime")
            if self.p >= MAX_PRIME:
                raise ValueError(f"prime {self.p} exceeds the exact-arithmetic bound {MAX_PRIME}")
        elif self.kind == "rational":
            if self.p is not None:
                raise ValueError("rational field takes no modulus")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @property
    def zero(self):
        return 0 if self.kind == "prime" else Fraction(0)

    @property
    def one(self):
        return 1 if self.kind == "prime" else Fraction(1)

    def coerce(self, x):
        """Canonical representative of a scalar: int in 0..p-1, or a Fraction."""
        if self.kind == "prime":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"non-integer scalar {x} in a prime field")
                x = x.numerator
            return int(x) % self.p
        if isinstance(x, str):
            return Fraction(x)
        return Fraction(x)

    def inv(self, x):
        if self.kind == "prime":
            x = int(x) % self.p
            if x == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(x, self.p - 2, self.p)
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / x

    def scalar_to_json(self, x):
        if self.kind == "prime":
            return int(x)
        x = Fraction(x)
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def to_json(self) -> dict:
        if self.kind == "prime":
            return {"type": "prime", "p": self.p}
        return {"type": "rational"}

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        if not isinstance(obj, dict) or "type" not in obj:
            raise ValueError("field spec must be an object with a 'type' key")
        extra = set(obj) - {"type", "p"}
        if extra:
            raise ValueError(f"unknown field keys {sorted(extra)}")
        if obj["type"] == "prime":
            return FieldSpec("prime", int(obj["p"]))
        if obj["type"] == "rational":
            if "p" in obj:
                raise ValueError("rational field takes no modulus")
            return FieldSpec("rational")
        raise ValueError(f"unknown field type {obj['type']!r}")


def _empty(field: FieldSpec, rows: int, cols: int) -> np.ndarray:
    if field.kind == "prime":
        return np.zeros((rows, cols), dtype=np.int64)
    arr = np.empty((rows, cols), dtype=object)
    arr[:, :] = Fraction(0)
    return arr


class Mat:
    """Immutable dense matrix over a :class:`FieldSpec`.

    Stored row-major; most callers use the row-vector convention
    (vectors are 1 x n matrices acted on by right multiplication).
    """

    __slots__ = ("field", "a")

    def __init__(self, field: FieldSpec, a: np.ndarray, _copy: bool = True):
        assert a.ndim == 2
        self.field = field
        self.a = a.copy() if _copy else a
        self.a.setflags(write=False)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Mat":
        return Mat(field, _empty(field, rows, cols), _copy=False)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Mat":
        a = _empty(field, n, n)
        for i in range(n):
            a[i, i] = field.one
        return Mat(field, a, _copy=False)

    @staticmethod
    def from_rows(field: FieldSpec, rows: Iterable[Iterable]) -> "Mat":
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        a = _empty(field, len(rows), n)
        for i, r in enumerate(rows):
            if len(r) != n:
                raise ValueError("ragged rows")
            for j, x in enumerate(r):
                a[i, j] = field.coerce(x)
        return Mat(field, a, _copy=False)

    @staticmethod
    def row(field: FieldSpec, entries: Iterable) -> "Mat":
        return Mat.from_rows(field, [list(entries)])

    # -- shape / access -----------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __getitem__(self, ij):
        return self.a[ij]

    def row_at(self, i: int) -> "Mat":
        return Mat(self.field, self.a[i : i + 1])

    def take_rows(self, idx) -> "Mat":
        return Mat(self.field, self.a[list(idx), :])

    def tolist(self) -> list:
        return [[x for x in row] for row in self.a.tolist()]

    def to_json(self) -> list:
        f = self.field
        return [[f.scalar_to_json(x) for x in row] for row in self.a.tolist()]

    def is_zero(self) -> bool:
        if self.field.kind == "prime":
            return not self.a.any()
        return all(x == 0 for x in self.a.flat)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field or self.a.shape != other.a.shape:
            return False
        return bool((self.a == other.a).all())

    def __hash__(self):
        raise TypeError("Mat is not hashable")

    def __repr__(self):
        return f"Mat({self.field.kind},{self.rows}x{self.cols})"

    # -- arithmetic ----------------------------------------------------

    def _wrap(self, a: np.ndarray) -> "Mat":
        if self.field.kind == "prime":
            a = a % self.field.p
        return Mat(self.field, a, _copy=False)

    def __add__(self, other: "Mat") -> "Mat":
        assert self.field == other.field
        return self._wrap(self.a + other.a)

    def __sub__(self, other: "Mat") -> "Mat":
        assert self.field == other.field
        return self._wrap(self.a - other.a)

    def __neg__(self) -> "Mat":
        return self._wrap(-self.a)

    def scale(self, c) -> "Mat":
        c = self.field.coerce(c)
        return self._wrap(self.a * c)

    def __matmul__(self, other: "Mat") -> "Mat":
        assert self.field == other.field
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.a.shape} @ {other.a.shape}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Mat.zeros(self.field, self.rows, other.cols)
        if self.field.kind == "prime":
            _check_int64_headroom(self.cols, self.field.p)
            return self._wrap(self.a @ other.a)
        # (D A)(B E) = D (A B) E with D, E the row and column lcms: one
        # integer product, then one Fraction per output entry.
        a, d = _integer_rows(self.a.tolist())
        b, e = _integer_cols(other.a)
        return Mat(self.field, _scaled_product(np.array(a, dtype=object), d, b, e), _copy=False)

    @property
    def T(self) -> "Mat":
        return Mat(self.field, self.a.T)

    def hstack(self, other: "Mat") -> "Mat":
        assert self.field == other.field and self.rows == other.rows
        return Mat(self.field, np.hstack([self.a, other.a]), _copy=False)

    def vstack(self, other: "Mat") -> "Mat":
        assert self.field == other.field and self.cols == other.cols
        return Mat(self.field, np.vstack([self.a, other.a]), _copy=False)

    @staticmethod
    def stack_rows(field: FieldSpec, mats: list["Mat"]) -> "Mat":
        """Vertical stack; empty list gives a 0 x 0 matrix."""
        mats = [m for m in mats]
        if not mats:
            return Mat.zeros(field, 0, 0)
        cols = mats[0].cols
        assert all(m.cols == cols for m in mats)
        return Mat(field, np.vstack([m.a for m in mats]), _copy=False)

    @staticmethod
    def block_diag(field: FieldSpec, blocks: list["Mat"]) -> "Mat":
        r = sum(b.rows for b in blocks)
        c = sum(b.cols for b in blocks)
        a = _empty(field, r, c)
        i = j = 0
        for b in blocks:
            a[i : i + b.rows, j : j + b.cols] = b.a
            i += b.rows
            j += b.cols
        return Mat(field, a, _copy=False)

    def flatten_row(self) -> "Mat":
        """Matrix entries as a single 1 x (rows*cols) row, row-major."""
        return Mat(self.field, self.a.reshape(1, -1))


def flat_products(lefts: list, rights: list) -> Mat:
    """Row ``a * len(rights) + b`` is ``lefts[a] @ rights[b]`` flattened row-major.

    All lefts share one shape, all rights another; one product does it all.
    """
    f = lefts[0].field
    p, r = lefts[0].rows, rights[0].cols
    big = Mat(f, np.vstack([x.a for x in lefts]), _copy=False) @ Mat(
        f, np.hstack([x.a for x in rights]), _copy=False
    )
    a = big.a.reshape(len(lefts), p, len(rights), r).transpose(0, 2, 1, 3)
    return Mat(f, a.reshape(len(lefts) * len(rights), p * r))


# -- row reduction ------------------------------------------------------


def _rref_prime(a: np.ndarray, p: int):
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


def _rref_rational(a: np.ndarray):
    # Fraction-free Gauss-Jordan: rows scaled to integers span the same space,
    # so they have the same RREF.  Updated rows are divided by their content
    # to keep entries small; the pivots divide out only at the end.
    rows = [_primitive(r) for r in _integer_rows(a.tolist())[0]]
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
    out = np.empty((m, n), dtype=object)
    out[:, :] = _ZERO
    for i, pc in enumerate(pivots):
        p = rows[i][pc]
        out[i, :] = [Fraction(x, p) if x else _ZERO for x in rows[i]]
    return out, pivots


def _primitive(row: list) -> list:
    """Integer row divided by the gcd of its entries (unchanged if zero)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rref(m: Mat):
    """Reduced row-echelon form.  Returns ``(R, pivots, rank)``."""
    if m.rows == 0 or m.cols == 0:
        return Mat(m.field, m.a), [], 0
    if m.field.kind == "prime":
        a, pivots = _rref_prime(m.a.copy(), m.field.p)
    else:
        a, pivots = _rref_rational(m.a)
    return Mat(m.field, a, _copy=False), pivots, len(pivots)


def rank(m: Mat) -> int:
    return rref(m)[2]


def row_basis(m: Mat) -> Mat:
    """Canonical basis (rref rows) of the row space."""
    r, _, rk = rref(m)
    return Mat(m.field, r.a[:rk, :])


def nullspace(m: Mat) -> Mat:
    """Basis of the right kernel {x : m @ x = 0}, returned as columns."""
    r, pivots, rk = rref(m)
    field = m.field
    free = [c for c in range(m.cols) if c not in pivots]
    basis = _empty(field, m.cols, len(free))
    for k, fc in enumerate(free):
        basis[fc, k] = field.one
        for i, pc in enumerate(pivots):
            basis[pc, k] = -r.a[i, fc] if field.kind == "rational" else (-int(r.a[i, fc])) % field.p
    return Mat(field, basis, _copy=False)


def solve(a: Mat, b: Mat) -> Optional[Mat]:
    """Any exact solution x of ``a @ x = b``, or None iff inconsistent."""
    if a.rows != b.rows:
        raise ValueError(f"solve: {a.rows} equations vs rhs with {b.rows} rows")
    aug = a.hstack(b)
    r, pivots, rk = rref(aug)
    if any(pc >= a.cols for pc in pivots):
        return None
    field = a.field
    x = _empty(field, a.cols, b.cols)
    for i, pc in enumerate(pivots):
        x[pc, :] = r.a[i, a.cols :]
    return Mat(field, x, _copy=False)


def solve_left(a: Mat, b: Mat) -> Optional[Mat]:
    """Any exact solution x of ``x @ a = b`` (row-vector convention)."""
    sol = solve(a.T, b.T)
    return None if sol is None else sol.T


def left_nullspace(m: Mat) -> Mat:
    """Basis of {x : x @ m = 0}, returned as rows."""
    return nullspace(m.T).T


class RowBasis:
    """A k x n matrix B factored once, for many coordinate solves against it.

    One rref of ``[B | J]``, with J the k x k identity with its columns
    reversed, gives R = rref(B), its pivots, and a transform T with
    T @ B = R.  A batch V (m x n) lies in the row span of B iff
    V[:, pivots] @ R = V, and then c = V[:, pivots] @ T solves c @ B = V.
    Reversing the identity makes the left-nullspace rows of the rref pivot
    on the rows of B that depend on earlier rows, so T is zero in those
    columns: for a dependent B, ``coords`` returns the solution
    ``solve_left`` picks, supported on the first independent rows.  Over Q,
    R and T are kept as integer matrices with column scales.
    """

    __slots__ = ("field", "rows", "cols", "pivots", "_r", "_t")

    def __init__(self, basis: Mat):
        f = basis.field
        k, n = basis.rows, basis.cols
        flip = _empty(f, k, k)
        for i in range(k):
            flip[i, k - 1 - i] = f.one
        full, pivots, _ = rref(basis.hstack(Mat(f, flip, _copy=False)))
        self.field = f
        self.rows, self.cols = k, n
        self.pivots = [c for c in pivots if c < n]
        rk = len(self.pivots)
        r = full.a[:rk, :n]
        t = full.a[:rk, n:][:, ::-1]
        if f.kind == "prime":
            _check_int64_headroom(rk, f.p)
            self._r, self._t = np.ascontiguousarray(r), np.ascontiguousarray(t)
        elif rk:
            self._r, self._t = _integer_cols(r), _integer_cols(t)
        else:
            self._r = self._t = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _pivot_part(self, v: Mat):
        """``v[:, pivots]`` if every row of v lies in the span, else None.

        Over Q the part comes as integer rows with their row scales.
        """
        f = self.field
        if v.field != f or v.cols != self.cols:
            raise ValueError(f"{v.rows}x{v.cols} against a row basis of width {self.cols}")
        if f.kind == "prime":
            y = v.a[:, self.pivots]
            return None if ((y @ self._r - v.a) % f.p).any() else y
        if not (self.pivots and v.rows):
            return None if not v.is_zero() else ([], [])
        # V' = diag(s) V in integers: V = V[:, pivots] R iff V'[:, pivots] R' = V' diag(e)
        ints, s = _integer_rows(v.a.tolist())
        ints = np.array(ints, dtype=object)
        y = ints[:, self.pivots]
        r, e = self._r
        return (y, s) if (y.dot(r) == ints * np.array(e, dtype=object)).all() else None

    def contains(self, v: Mat) -> bool:
        """Is every row of ``v`` in the row span of the basis?"""
        return self._pivot_part(v) is not None

    def coords(self, v: Mat) -> Mat:
        """Coordinates c with c @ B = v; raises if a row of v is outside the span."""
        y = self._pivot_part(v)
        if y is None:
            raise ValueError("vector not in row span")
        f = self.field
        if f.kind == "prime":
            return Mat(f, (y @ self._t) % f.p, _copy=False)
        if not (self.pivots and v.rows):
            return Mat.zeros(f, v.rows, self.rows)
        (ints, s), (t, g) = y, self._t
        return Mat(f, _scaled_product(ints, s, t, g), _copy=False)


def row_span_contains(basis: Mat, v: Mat) -> bool:
    """Is every row of v in the row span of ``basis``?"""
    if v.rows == 0:
        return True
    return RowBasis(basis).contains(v)


def coords_in_rows(basis: Mat, v: Mat) -> Mat:
    """Coordinates c with c @ basis = v; raises if v is outside the span."""
    return RowBasis(basis).coords(v)

"""Exact dense linear algebra over prime fields and the rationals.

Everything downstream (module categories, resolutions, certification)
reduces to row reduction of matrices over an exact field.  One carrier
serves both fields: a matrix is an integer array ``a`` over one positive
common denominator ``den``.

* prime field F_p: ``a`` is a numpy int64 array with canonical entries
  0..p-1 and ``den`` is 1; all vectorized ops are followed by ``% p``;
* rationals: ``a`` is a numpy object array of Python ints and the matrix
  is a / den, kept canonical: gcd(den, entries) = 1, and den = 1 for the
  zero matrix.  Products, row reduction and coordinate solves run on the
  integers alone, and equality compares (den, a).

``fractions.Fraction`` values are made only where scalars enter or leave a
matrix: ``FieldSpec.coerce``, ``FieldSpec.scalar_from_json``,
``Mat.from_rows``, ``Mat.tolist`` and ``Mat.to_json``.

Only this module reads the carrier (``a``, ``den``, ``with_array``); the
other layers regroup entries through ``Mat.permuted``, select with
``take_rows`` and ``take_cols``, and compare with ``==`` and
``first_differing_row``.

Row reduction runs on Python lists over both fields.  Over F_p it is
Gauss-Jordan over the nonzero rows only, touching only the rows with an
entry in the pivot column.  The library's F_p matrices are small and
sparse: in the set-ups of F_3[x]/x^4 to x^6, every one of 1,000 cells or
more has under 5 % nonzero entries, and the largest, 7225 x 91 in the
chain of powers of rad T for F_3[x]/x^6, has 510 nonzeros.  At those
sizes numpy's per-call overhead outweighs the arithmetic.  Dense matrices
pay for it: a dense 100 x 100 over F_3 reduces 5-6x slower than with
numpy row operations, which remain in the tests as the reference route.

Coordinates against a fixed row basis go through :class:`RowBasis`: one
rref factors the basis, after which each batch of right-hand sides costs
one column slice, one product and one exact residual check.
``coords_in_rows`` is a one-shot wrapper over it; callers that solve
against the same basis repeatedly hold the factored basis instead.

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

def _int64_headroom(inner: int, modulus: int) -> bool:
    """Do int64 dot products of length ``inner`` over entries 0..modulus-1 fit?"""
    return inner * (modulus - 1) ** 2 < 1 << 63


def _check_int64_headroom(inner: int, p: int) -> None:
    """Refuse an F_p product whose int64 dot products could wrap."""
    if not _int64_headroom(inner, p):
        raise ValueError(
            f"F_{p} product with inner dimension {inner} would overflow int64"
        )


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
            if type(x) is int:
                return x % self.p
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"non-integer scalar {x} in a prime field")
                x = x.numerator
            return int(x) % self.p
        return x if type(x) is Fraction else Fraction(x)

    def inv(self, x):
        if self.kind == "prime":
            x = int(x) % self.p
            if x == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(x, self.p - 2, self.p)
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return Fraction(1) / x

    def random_scalar(self, rng, spread: int):
        """A random scalar: uniform on F_p, or an integer in
        [-spread, spread] over Q.  One ``rng`` call either way."""
        if self.kind == "prime":
            return rng.randrange(self.p)
        return rng.randint(-spread, spread)

    def scalar_to_json(self, x):
        if self.kind == "prime":
            return int(x)
        x = Fraction(x)
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def scalar_from_json(self, x):
        """The scalar a JSON value denotes: an int over F_p, an int or a
        "p/q" string over Q.  Raises ValueError (ZeroDivisionError for "p/0")."""
        if self.kind == "prime":
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError("prime-field scalars must be integers")
            return self.coerce(x)
        if isinstance(x, bool):
            raise ValueError("booleans are not scalars")
        if isinstance(x, (int, str)):
            return Fraction(x)
        raise ValueError(f"cannot read {x!r} as a rational scalar")

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
            p = obj.get("p")
            if isinstance(p, bool) or not isinstance(p, int):
                raise ValueError("prime field modulus 'p' must be an integer")
            return FieldSpec("prime", p)
        if obj["type"] == "rational":
            if "p" in obj:
                raise ValueError("rational field takes no modulus")
            return FieldSpec("rational")
        raise ValueError(f"unknown field type {obj['type']!r}")


def _empty(field: FieldSpec, rows: int, cols: int) -> np.ndarray:
    """A zero carrier array: int64 over F_p, Python ints over Q."""
    return np.zeros((rows, cols), dtype=np.int64 if field.kind == "prime" else object)


def _common_den(mats: list) -> tuple[int, list]:
    """The lcm of the denominators, and each array brought to it."""
    den = lcm(*(m.den for m in mats))
    return den, [m.a if m.den == den else m.a * (den // m.den) for m in mats]


class Mat:
    """Immutable dense matrix over a :class:`FieldSpec`: the integer array
    ``a`` over the positive denominator ``den`` (always 1 over F_p).

    Stored row-major; most callers use the row-vector convention
    (vectors are 1 x n matrices acted on by right multiplication).
    """

    __slots__ = ("field", "a", "den")

    def __init__(self, field: FieldSpec, a: np.ndarray, den: int = 1, _copy: bool = True):
        assert a.ndim == 2
        if field.kind == "rational":
            if a.dtype != object:
                a, _copy = a.astype(object), False
            if den != 1:
                g = gcd(den, *a.flat)
                if g != 1:
                    a, den, _copy = a // g, den // g, False
        self.field = field
        self.a = a.copy() if _copy else a
        self.den = den
        self.a.setflags(write=False)

    def with_array(self, a: np.ndarray) -> "Mat":
        """a / self.den, for an array on the scale of ``self.a``; not copied."""
        return Mat(self.field, a, self.den, _copy=False)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Mat":
        return Mat(field, _empty(field, rows, cols), _copy=False)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Mat":
        a = _empty(field, n, n)
        np.fill_diagonal(a, 1)
        return Mat(field, a, _copy=False)

    @staticmethod
    def from_rows(field: FieldSpec, rows: Iterable[Iterable]) -> "Mat":
        """The matrix with rows of field scalars (ints, Fractions, "p/q")."""
        # over Q a Python int is its own numerator over 1: no Fraction needed
        keep = int if field.kind == "rational" else None
        vals = [[x if type(x) is keep else field.coerce(x) for x in r] for r in rows]
        n = len(vals[0]) if vals else 0
        if any(len(r) != n for r in vals):
            raise ValueError("ragged rows")
        a = _empty(field, len(vals), n)
        den = 1
        if field.kind == "rational":
            den = lcm(*(x.denominator for r in vals for x in r))
            vals = [[x.numerator * (den // x.denominator) for x in r] for r in vals]
        if vals:
            a[:, :] = vals
        return Mat(field, a, den, _copy=False)

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
        """Entry (i, j) as a field scalar."""
        x = self.a[ij]
        return x if self.field.kind == "prime" else Fraction(x, self.den)

    def row_at(self, i: int) -> "Mat":
        return self.with_array(self.a[i : i + 1])

    def take_rows(self, idx) -> "Mat":
        """The rows ``idx``: a slice gives a view, any other iterable a copy."""
        return self.with_array(self.a[idx if isinstance(idx, slice) else list(idx)])

    def take_cols(self, idx) -> "Mat":
        """The columns ``idx``: a slice gives a view, a list a copy."""
        return self.with_array(self.a[:, idx])

    def permuted(self, shape: tuple, axes: tuple, rows: int, cols: int) -> "Mat":
        """The entries read row-major as an array of ``shape``, its axes
        permuted by ``axes``, re-read row-major as a rows x cols matrix."""
        return self.with_array(self.a.reshape(shape).transpose(axes).reshape(rows, cols))

    def reshape(self, rows: int, cols: int) -> "Mat":
        """Entries re-read row-major into a rows x cols matrix."""
        return self.with_array(self.a.reshape(rows, cols))

    def tolist(self) -> list:
        """Entries as field scalars: ints over F_p, Fractions over Q."""
        if self.field.kind == "prime":
            return self.a.tolist()
        den = self.den
        return [[Fraction(x, den) for x in row] for row in self.a.tolist()]

    def to_json(self) -> list:
        f = self.field
        return [[f.scalar_to_json(x) for x in row] for row in self.tolist()]

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field or self.a.shape != other.a.shape or self.den != other.den:
            return False
        return bool((self.a == other.a).all())

    def first_differing_row(self, other: "Mat") -> Optional[int]:
        """The first row where ``other``, of the same shape, differs, or None."""
        if self.a.shape != other.a.shape:
            raise ValueError(f"shape mismatch {self.a.shape} vs {other.a.shape}")
        a, b, _ = self._aligned(other)
        bad = (a != b).any(axis=1)
        return int(np.argmax(bad)) if bad.any() else None

    def __hash__(self):
        raise TypeError("Mat is not hashable")

    def __repr__(self):
        return f"Mat({self.field.kind},{self.rows}x{self.cols})"

    # -- arithmetic ----------------------------------------------------

    def _wrap(self, a: np.ndarray, den: int = 1) -> "Mat":
        if self.field.kind == "prime":
            a = a % self.field.p
        return Mat(self.field, a, den, _copy=False)

    def _aligned(self, other: "Mat"):
        assert self.field == other.field
        if self.den == other.den:
            return self.a, other.a, self.den
        den, (a, b) = _common_den([self, other])
        return a, b, den

    def __add__(self, other: "Mat") -> "Mat":
        a, b, den = self._aligned(other)
        return self._wrap(a + b, den)

    def __sub__(self, other: "Mat") -> "Mat":
        a, b, den = self._aligned(other)
        return self._wrap(a - b, den)

    def __neg__(self) -> "Mat":
        return self._wrap(-self.a, self.den)

    def scale(self, c) -> "Mat":
        c = self.field.coerce(c)
        if self.field.kind == "prime":
            return self._wrap(self.a * c)
        return self._wrap(self.a * c.numerator, self.den * c.denominator)

    def __matmul__(self, other: "Mat") -> "Mat":
        f = self.field
        assert f == other.field
        (m, k), (k2, n) = self.a.shape, other.a.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.a.shape} @ {other.a.shape}")
        if not (m and k and n):
            return Mat.zeros(f, m, n)
        if f.kind == "prime":
            _check_int64_headroom(k, f.p)
            return Mat(f, (self.a @ other.a) % f.p, _copy=False)
        # (A / d)(B / e) = (A B) / (d e): one integer product, one normalisation
        return Mat(f, self.a @ other.a, self.den * other.den, _copy=False)

    @property
    def T(self) -> "Mat":
        return self.with_array(self.a.T)

    def hstack(self, other: "Mat") -> "Mat":
        assert self.field == other.field and self.rows == other.rows
        return Mat.stack_cols(self.field, [self, other])

    def vstack(self, other: "Mat") -> "Mat":
        assert self.field == other.field and self.cols == other.cols
        return Mat.stack_rows(self.field, [self, other])

    @staticmethod
    def stack_rows(field: FieldSpec, mats: list["Mat"]) -> "Mat":
        """Vertical stack over the lcm of the denominators; empty list gives
        a 0 x 0 matrix."""
        if not mats:
            return Mat.zeros(field, 0, 0)
        den, arrays = _common_den(mats)
        return Mat(field, np.vstack(arrays), den, _copy=False)

    @staticmethod
    def stack_cols(field: FieldSpec, mats: list["Mat"]) -> "Mat":
        """Horizontal stack over the lcm of the denominators."""
        den, arrays = _common_den(mats)
        return Mat(field, np.hstack(arrays), den, _copy=False)

    @staticmethod
    def from_blocks(field: FieldSpec, rows: int, cols: int, blocks: list) -> "Mat":
        """A rows x cols matrix, zero outside the ``(i, j, block)`` triples,
        each block placed with its top-left entry at (i, j)."""
        den, arrays = _common_den([b for _, _, b in blocks])
        a = _empty(field, rows, cols)
        for (i, j, b), x in zip(blocks, arrays):
            a[i : i + b.rows, j : j + b.cols] = x
        return Mat(field, a, den, _copy=False)

    @staticmethod
    def block_diag(field: FieldSpec, blocks: list["Mat"]) -> "Mat":
        placed, i, j = [], 0, 0
        for b in blocks:
            placed.append((i, j, b))
            i, j = i + b.rows, j + b.cols
        return Mat.from_blocks(field, i, j, placed)

    @staticmethod
    def block_diag_rows(field: FieldSpec, flats: list["Mat"], dims: list) -> "Mat":
        """Row i: the block-diagonal matrix of the rows i of ``flats``, read
        as dims[t] x dims[t] matrices, flattened row-major."""
        n, total = flats[0].rows, sum(dims)
        den, arrays = _common_den(flats)
        a = _empty(field, n * total, total).reshape(n, total, total)
        o = 0
        for x, m in zip(arrays, dims):
            a[:, o : o + m, o : o + m] = x.reshape(n, m, m)
            o += m
        return Mat(field, a.reshape(n, total * total), den, _copy=False)

    def flatten_row(self) -> "Mat":
        """Matrix entries as a single 1 x (rows*cols) row, row-major."""
        return self.reshape(1, self.rows * self.cols)


def flat_products(lefts: list, rights: list) -> Mat:
    """Row ``a * len(rights) + b`` is ``lefts[a] @ rights[b]`` flattened row-major.

    All lefts share one shape, all rights another; one product does it all.
    """
    f = lefts[0].field
    p, r, k, h = lefts[0].rows, rights[0].cols, len(lefts), len(rights)
    big = Mat.stack_rows(f, lefts) @ Mat.stack_cols(f, rights)
    return big.permuted((k, p, h, r), (0, 2, 1, 3), k * h, p * r)


def power_traces(m: Mat, n: int, k: int, modulus: int) -> np.ndarray:
    """tr(Z^k) mod ``modulus`` for each row of the F_p matrix ``m``, read as
    an n x n integer matrix Z.  Repeated squaring, reducing after every
    product: in int64 when dot products of length n over entries below
    ``modulus`` fit, otherwise on exact Python integers."""
    z = m.a.reshape(m.rows, n, n)
    if not _int64_headroom(n, modulus):
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


# -- row reduction ------------------------------------------------------


def _rref_prime(a: np.ndarray, p: int):
    # Gauss-Jordan on Python lists over the nonzero rows (see the module
    # docstring for why); the input array is never written.
    rows = (a[a.any(axis=1)] % p).tolist()
    m = len(rows)
    pivots = []
    r = 0
    for c in range(a.shape[1]):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        prow = rows[r] = [x * inv % p for x in rows[r]]
        for i in range(m):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    out = np.zeros(a.shape, dtype=np.int64)
    if r:
        out[:r] = rows[:r]
    return out, pivots


def _rref_rational(a: np.ndarray):
    # Fraction-free Gauss-Jordan on the numerators: scaling does not change
    # the row space, so the rows of a have the RREF of a / den.  Updated
    # rows are divided by their content to keep entries small; the pivots
    # divide out only at the end, as the lcm of the pivots.
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


def _primitive(row: list) -> list:
    """Integer row divided by the gcd of its entries (unchanged if zero)."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rref(m: Mat):
    """Reduced row-echelon form.  Returns ``(R, pivots, rank)``."""
    if m.rows == 0 or m.cols == 0:
        return m, [], 0
    if m.field.kind == "prime":
        a, pivots = _rref_prime(m.a, m.field.p)
        return Mat(m.field, a, _copy=False), pivots, len(pivots)
    a, pivots, den = _rref_rational(m.a)
    return Mat(m.field, a, den, _copy=False), pivots, len(pivots)


def rank(m: Mat) -> int:
    return rref(m)[2]


def row_basis(m: Mat) -> Mat:
    """Canonical basis (rref rows) of the row space."""
    r, _, rk = rref(m)
    return r.with_array(r.a[:rk, :])


def reverse_row_basis(m: Mat) -> Mat:
    """The rref basis of the row space in reversed column order, rows then
    reversed.  For any rows spanning the kernel of S this is the transpose
    of ``nullspace(S)``, the kernel basis that is the identity on S's free
    columns."""
    r, _, rk = rref(m.with_array(m.a[:, ::-1]))
    return r.with_array(r.a[:rk, ::-1][::-1])


def nullspace(m: Mat) -> Mat:
    """Basis of the right kernel {x : m @ x = 0}, returned as columns."""
    r, pivots, _ = rref(m)
    return nullspace_of_rref(r, pivots)


def nullspace_of_rref(r: Mat, pivots: list) -> Mat:
    """``nullspace`` of a matrix from its rref R and pivots.

    Column k is the identity on the k-th free column and -R on the pivots;
    over R's denominator that is den and -R.a.
    """
    rk, pivot_set = len(pivots), set(pivots)
    free = np.array([c for c in range(r.cols) if c not in pivot_set], dtype=np.intp)
    basis = _empty(r.field, r.cols, len(free))
    basis[free, np.arange(len(free))] = r.den
    if rk:
        basis[pivots, :] = -r.a[:rk, free]
    return r._wrap(basis, r.den)


def solve(a: Mat, b: Mat) -> Optional[Mat]:
    """Any exact solution x of ``a @ x = b``, or None iff inconsistent."""
    if a.rows != b.rows:
        raise ValueError(f"solve: {a.rows} equations vs rhs with {b.rows} rows")
    r, pivots, rk = rref(a.hstack(b))
    if any(pc >= a.cols for pc in pivots):
        return None
    x = _empty(a.field, a.cols, b.cols)
    if rk:
        x[pivots, :] = r.a[:rk, a.cols :]
    return Mat(a.field, x, r.den, _copy=False)


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
    ``solve_left`` picks, supported on the first independent rows.  R and
    T stay on the carrier, so both checks are integer products.
    """

    __slots__ = ("field", "rows", "cols", "pivots", "basis", "_r", "_t")

    def __init__(self, basis: Mat):
        f = basis.field
        k, n = basis.rows, basis.cols
        self.basis = basis
        flip = _empty(f, k, k)
        flip[np.arange(k), np.arange(k)[::-1]] = 1
        full, pivots, _ = rref(basis.hstack(Mat(f, flip, _copy=False)))
        self.field = f
        self.rows, self.cols = k, n
        self.pivots = [c for c in pivots if c < n]
        rk = len(self.pivots)
        self._r = full.with_array(full.a[:rk, :n])
        self._t = full.with_array(full.a[:rk, n:][:, ::-1])

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _pivot_part(self, v: Mat) -> Optional[Mat]:
        """``v[:, pivots]`` if every row of v lies in the span, else None."""
        if v.field != self.field or v.cols != self.cols:
            raise ValueError(f"{v.rows}x{v.cols} against a row basis of width {self.cols}")
        y = v.with_array(v.a[:, self.pivots])
        return y if y @ self._r == v else None

    def contains(self, v: Mat) -> bool:
        """Is every row of ``v`` in the row span of the basis?"""
        return self._pivot_part(v) is not None

    def coords(self, v: Mat) -> Mat:
        """Coordinates c with c @ B = v; raises if a row of v is outside the span."""
        y = self._pivot_part(v)
        if y is None:
            raise ValueError("vector not in row span")
        return y @ self._t


def coords_in_rows(basis: Mat, v: Mat) -> Mat:
    """Coordinates c with c @ basis = v; raises if v is outside the span."""
    return RowBasis(basis).coords(v)

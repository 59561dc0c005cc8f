"""Exact dense linear algebra over prime fields and the rationals.

Everything downstream (module categories, resolutions, certification)
reduces to row reduction of matrices over an exact field.  One carrier
serves both fields: a matrix is an integer array ``a`` over one positive
common denominator ``den``.

* prime field F_p: ``a`` is a numpy int64 array with canonical entries
  0..p-1 and ``den`` is 1; all vectorized ops are followed by ``% p``;
* rationals: the matrix is a / den, kept canonical: gcd(den, entries) =
  1, den = 1 for the zero matrix, and ``a`` is int64 exactly when every
  |numerator| is below ``_WORD``, else an object array of Python ints
  (``_carrier`` picks it, so equal matrices have one carrier).
  Products, row reduction and coordinate solves run on the numerators
  alone, and equality compares (den, a).

Every product the word-size rule below admits, over F_p and on int64
carriers over Q, is the dense ``a @ b``, or, when the dense product
reaches ``_GATHER_FLOOR`` multiply-adds and at most one entry in
``_GATHER_SHARE`` of the left operand is nonzero, a row-gather product
that sums the rows of the right operand at the left one's nonzeros
(``_word_product``).  Each entry is the same integer sum either way, so
the one ``_int64_fits`` bound covers both.  T's table and the matrices
made from it are almost all zeros (0.09 % nonzero at F_3[x]/x^6), so most
products of a large set-up take the gather; README.md gives the
crossovers and the set-up times.

``FieldSpec`` owns the choice between the two fields: the scalars, the
characteristic and the roots of a polynomial (``FieldSpec.roots``); no
other module branches on the field kind or reads p.
``fractions.Fraction`` values are made only where scalars enter or leave a
matrix: ``FieldSpec.coerce``, ``FieldSpec.scalar_from_json``,
``FieldSpec.roots``, ``Mat.from_rows``, ``Mat.tolist`` and ``Mat.to_json``,
and a scalar read off a carrier is a Python int, which cannot wrap.

Only this module reads the carrier (``a``, ``den``, ``with_array``) and
the pivot mark (``_pivots``); the other layers regroup entries through
``Mat.permuted``, select with ``take_rows`` and ``take_cols``, compare
with ``==`` and ``first_differing_row``, and key a matrix by its content
with ``Mat.key``.

Row reduction is one Gauss-Jordan kernel on sparse rows over both
fields, told only the characteristic: each row is a {column: value} map,
each input row is reduced against the pivot rows kept so far and its
pivot column is then cleared from them, so the work follows the nonzero
entries.  The library's matrices are sparse: in the set-ups of
F_3[x]/x^4 to x^6, every one of 1,000 cells or more has under 5 %
nonzero entries.  Over F_p the values are residues and each kept row has
1 at its pivot; over Q they are the integer numerators, a kept row k
clears column c of a row as k[c] * row - row[c] * k divided by its
content, and the rows are scaled to the lcm of the pivots at the end.
README.md gives the timings of both fields.

Every solve goes through :class:`RowBasis`, which factors a basis once,
after which each batch of right-hand sides costs one column slice, one
product and one exact residual check.  ``coords_in_rows``, ``solve_left``
and ``solve`` (transposed) are one-shot wrappers over it; callers that
solve against one basis repeatedly hold the factored basis instead.

A basis that is already canonical is factored without a reduction.  The
library keeps its spaces as bases that are the identity on k of their
columns: rref rows, ``reverse_row_basis`` and kernel rows.  ``RowBasis``
reads those columns off each row's first, else last, nonzero entry and
checks the identity there exactly; ``row_basis`` marks its output with
its pivots (``_Reduced._pivots``), so that ``rref``, ``RowBasis`` and a
quotient by it read them instead of reducing it again.  The pivots come
from the code that made the matrix, never from a test in ``rref``, which
would cost more than reducing a small matrix (FFLAS-FFPACK keeps the
pivots of its echelon forms the same way).

No floating point is used anywhere in this package.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional

import numpy as np

# The word-size rule (FFLAS-FFPACK's, Dumas, Giorgi and Pernet, ACM TOMS
# 35(3), 2008): a product runs in int64 when k * max|A| * max|B| < 2**63 for
# inner dimension k, since then no term and no partial sum of a dot product
# can wrap.  ``_int64_fits`` owns it.  Over F_p the entries are 0..p-1, and
# with p < MAX_PRIME = 2**20 any inner dimension below 2**23 fits; a product
# past the bound is refused, and ``power_traces`` (entries modulo p*q) runs
# on Python ints past it.  Over Q a product of int64 carriers past it, or
# with a factor on Python ints, runs on Python ints (``_object_product``).
MAX_PRIME = 1 << 20

# a rational carrier is int64 while every |numerator| < _WORD, so that a sum,
# a difference or a negation cannot wrap; any other int64 op checks a bound
_WORD = 1 << 62

# the rational root search trial-divides up to the square roots of the
# lowest nonzero and the leading coefficient of the integer-cleared
# polynomial and then tries every pair of divisors; a product below this
# bounds both steps to about a second
MAX_ROOT_SEARCH_PRODUCT = 1 << 48

# the strings a rational scalar may be written as in JSON: "n" or "n/d"
_RATIONAL_STRING = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


# (largest entry, type) of the integer types a content key narrows to
_KEY_WIDTHS = [(int(np.iinfo(t).max), t) for t in (np.int8, np.int16, np.int32, np.int64)]


def _int64_fits(inner: int, bound_a: int, bound_b: int) -> bool:
    """Do dot products of length ``inner`` over entries |a| <= bound_a and
    |b| <= bound_b, and all their partial sums, stay inside int64?"""
    return inner * bound_a * bound_b < 1 << 63


def _too_long(x) -> bool:
    """Does ``reprlib`` cut x itself, not only items of it?"""
    r = reprlib.aRepr
    if isinstance(x, str):
        return len(repr(x[: r.maxstring])) > r.maxstring
    if isinstance(x, list):
        return len(x) > r.maxlist
    return isinstance(x, dict) and len(x) > r.maxdict


def quoted(x) -> str:
    """How an error message quotes an input value, in bounded space: the
    repr that ``reprlib`` abridges (30 characters of a string, 6 items of a
    list, 4 of an object, 6 levels, 40 digits), then the length of the
    value, or of the first item of a list, that it cut."""
    text = reprlib.repr(x)
    if _too_long(x):
        return f"{text} (length {len(x)})"
    if isinstance(x, list):  # of at most 6 items, shown in full
        for i, y in enumerate(x):
            if _too_long(y):
                return f"{text} (item {i} has length {len(y)})"
    return text


def _top(a: np.ndarray) -> int:
    """max |entry| of a carrier, 0 if it is empty (no int64 array made
    here holds -2**63, whose abs wraps)."""
    if a.dtype == object:
        return max(map(abs, a.flat), default=0)
    return int(np.maximum.reduce(np.abs(a), axis=None, initial=0))


def _carrier(a: np.ndarray, top: Optional[int] = None) -> np.ndarray:
    """a on the dtype of a rational carrier whose max |numerator| is
    ``top`` (by default a's own): int64 below ``_WORD``, else Python ints.
    The one rule for that dtype."""
    top = _top(a) if top is None else top
    return a.astype(np.int64 if top < _WORD else object, copy=False)


def _times(a: np.ndarray, c: int) -> np.ndarray:
    """The carrier a * c for a carrier a and an integer c: in int64 when
    max|a| * |c| < ``_WORD``, else on Python ints."""
    top = _top(a) * abs(c)
    return _carrier(a, top) * c if top else np.zeros(a.shape, dtype=np.int64)


def _zeros(shape: tuple, arrays: list) -> np.ndarray:
    """A zero array of ``shape`` on the dtype that holds the carriers ``arrays``."""
    return np.zeros(shape, dtype=np.result_type(np.int64, *arrays))


def _object_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on Python ints: the route of a product the word-size rule refuses."""
    return a.astype(object, copy=False) @ b  # an int64 b is read as Python ints


# The dense int64 product spends one multiply-add per entry of its m x k
# left operand A and column of the right one; ``_row_gather`` spends about
# twelve times as long on each nonzero of A it gathers.  It runs when the
# dense product reaches ``_GATHER_FLOOR`` multiply-adds and at most one
# entry of A in ``_GATHER_SHARE`` is nonzero (the crossover tables are in
# README.md)
_GATHER_FLOOR = 1 << 15
_GATHER_SHARE = 16


def _word_product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b on int64 arrays whose product ``_int64_fits`` admits and
    reaches ``_GATHER_FLOOR`` multiply-adds, reduced modulo p over F_p
    (p = 0 over Q): by ``_row_gather`` when the left operand is mostly
    zeros, else dense."""
    flat = a.ravel()
    at = flat.nonzero()[0]
    if at.size * _GATHER_SHARE <= flat.size:
        return _row_gather(flat, at, a.shape[1], b, p)
    c = a @ b
    return c % p if p else c


def _row_gather(flat: np.ndarray, at: np.ndarray, k: int, b: np.ndarray, p: int) -> np.ndarray:
    """The product of A, the m x k array read row-major from ``flat`` with
    nonzeros at the flat positions ``at``, and b, row by row (Gustavson, ACM
    TOMS 4(3), 1978): the rows of b at the nonzeros of A, scaled and summed
    per row of A with ``np.add.reduceat``.  Every entry is the dense
    product's integer sum less its zero terms, so ``_int64_fits`` covers it;
    only the rows with a nonzero are reduced modulo p.  The columns of b go
    in blocks, so that the gathered terms never outgrow the output."""
    m, n = flat.size // k, b.shape[1]
    rows, cols = np.divmod(at, k)
    first = np.ones(at.size, dtype=bool)  # the first nonzero of its row
    first[1:] = rows[1:] != rows[:-1]
    starts = first.nonzero()[0]
    vals, hit = flat[at, None], rows[starts]
    out = np.zeros((m, n), dtype=np.int64)
    step = max(1, m * n // max(1, at.size))
    for j in range(0, n, step):
        s = np.add.reduceat(vals * b[cols, j : j + step], starts, axis=0)
        out[hit, j : j + step] = s % p if p else s
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


class RootSearchBound(ValueError):
    """The rational root search of ``FieldSpec.roots`` would pass
    ``MAX_ROOT_SEARCH_PRODUCT``."""


@dataclass(frozen=True)
class FieldSpec:
    """An exact coefficient field: F_p (``kind="prime"``) or Q
    (``kind="rational"``), and what depends on which one it is."""

    kind: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "prime":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"modulus {quoted(self.p)} is not prime")
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

    @property
    def characteristic(self) -> int:
        """p over F_p, 0 over Q."""
        return self.p if self.kind == "prime" else 0

    def evaluate(self, coeffs, x):
        """The polynomial with coefficients ``coeffs``, low to high, at x."""
        acc = self.zero
        for cf in reversed(coeffs):
            acc = self.coerce(acc * x + self.coerce(cf))
        return acc

    def roots(self, coeffs) -> list:
        """Roots in the field of a monic polynomial given low-to-high.

        Over F_p in increasing order.  Over Q the rational root test on the
        integer-cleared polynomial: the candidates +-num/den for num
        dividing its lowest nonzero and den its leading coefficient, in
        increasing num, then den, + before -, then 0 if it is a root.
        Raises RootSearchBound when those two coefficients have a product
        of at least ``MAX_ROOT_SEARCH_PRODUCT``.
        """
        if self.kind == "prime":
            return [x for x in range(self.p) if self.evaluate(coeffs, x) == 0]
        # monic, so the leading coefficient is the common denominator
        den = lcm(*(Fraction(c).denominator for c in coeffs))
        ints = [int(Fraction(c) * den) for c in coeffs]
        lead = ints[-1]
        const = next(c for c in ints if c != 0)
        if abs(const * lead) >= MAX_ROOT_SEARCH_PRODUCT:
            raise RootSearchBound(
                f"rational root search: lowest coefficient {const} times leading"
                f" coefficient {lead} reaches the bound {MAX_ROOT_SEARCH_PRODUCT}"
            )

        def divisors(n):
            small = [d for d in range(1, isqrt(abs(n)) + 1) if n % d == 0]
            return sorted({*small, *(abs(n) // d for d in small)})

        roots = []
        for num in divisors(const):
            for dq in divisors(lead):
                for sign in (1, -1):
                    cand = Fraction(sign * num, dq)
                    if self.evaluate(coeffs, cand) == 0 and cand not in roots:
                        roots.append(cand)
        if coeffs[0] == 0:  # the candidates above are all nonzero
            roots.append(Fraction(0))
        return roots

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
        "p/q" string of ASCII digits over Q, with no sign but a leading "-"
        (so no exponent, point, blank or "_" is read, and Python's limit on
        the digits of an int bounds each part).  Raises ValueError
        (ZeroDivisionError for "p/0")."""
        if self.kind == "prime":
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError("prime-field scalars must be integers")
            return self.coerce(x)
        if isinstance(x, bool):
            raise ValueError("booleans are not scalars")
        if isinstance(x, int) or isinstance(x, str) and _RATIONAL_STRING.fullmatch(x):
            return Fraction(x)
        raise ValueError(
            f'cannot read {quoted(x)} as a rational scalar: expected an integer or "p/q"'
        )

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
            raise ValueError(f"unknown field keys {quoted(sorted(extra))}")
        if obj["type"] == "prime":
            p = obj.get("p")
            if isinstance(p, bool) or not isinstance(p, int):
                raise ValueError("prime field modulus 'p' must be an integer")
            return FieldSpec("prime", p)
        if obj["type"] == "rational":
            if "p" in obj:
                raise ValueError("rational field takes no modulus")
            return FieldSpec("rational")
        raise ValueError(f"unknown field type {quoted(obj['type'])}")


def _common_den(mats: list) -> tuple[int, list]:
    """The lcm of the denominators, and each carrier brought to it."""
    den = lcm(*(m.den for m in mats))
    return den, [m.a if m.den == den else _times(m.a, den // m.den) for m in mats]


class Mat:
    """Immutable dense matrix over a :class:`FieldSpec`: the integer array
    ``a`` over the positive denominator ``den`` (always 1 over F_p).

    Over Q it is brought to lowest terms and its carrier dtype.  A
    ``_made`` array (made here or selected from a carrier) is not copied,
    and an int64 one is below ``_WORD``; any other is copied as Python ints.

    Stored row-major; most callers use the row-vector convention
    (vectors are 1 x n matrices acted on by right multiplication).
    """

    __slots__ = ("field", "a", "den")

    def __init__(self, field: FieldSpec, a: np.ndarray, den: int = 1, _made: bool = False):
        if a.ndim != 2:
            raise ValueError(f"a matrix is a 2-d array, not {a.ndim}-d of shape {a.shape}")
        if field.kind == "rational":
            if not _made:
                a, den = a.astype(object), int(den)
            if den != 1:
                g = gcd(den, *(a.flat if a.dtype == object else [np.gcd.reduce(a, axis=None)]))
                if g != 1:
                    # an int64 a is a multiple of g >= _WORD only if it is zero
                    a, den = a // g if a.dtype == object or g < _WORD else a, den // g
            if a.dtype == object:
                a = _carrier(a)
        elif not _made:
            a = a.copy()
        self.field, self.a, self.den = field, a, den
        a.setflags(write=False)

    def with_array(self, a: np.ndarray) -> "Mat":
        """a / self.den, for an array of entries of ``self.a``; not copied."""
        return Mat(self.field, a, self.den, _made=True)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Mat":
        return Mat(field, np.zeros((rows, cols), dtype=np.int64), _made=True)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Mat":
        a = np.zeros((n, n), dtype=np.int64)
        np.fill_diagonal(a, 1)
        return Mat(field, a, _made=True)

    @staticmethod
    def from_rows(field: FieldSpec, rows: Iterable[Iterable]) -> "Mat":
        """The matrix with rows of field scalars (ints, Fractions, "p/q")."""
        # over Q a Python int is its own numerator over 1: no Fraction needed
        keep = int if field.kind == "rational" else None
        vals = [[x if type(x) is keep else field.coerce(x) for x in r] for r in rows]
        n = len(vals[0]) if vals else 0
        if any(len(r) != n for r in vals):
            raise ValueError("ragged rows")
        a = np.zeros((len(vals), n), dtype=np.int64 if field.kind == "prime" else object)
        den = 1
        if field.kind == "rational":
            den = lcm(*(x.denominator for r in vals for x in r))
            vals = [[x.numerator * (den // x.denominator) for x in r] for r in vals]
        if vals:
            a[:, :] = vals
        return Mat(field, a, den, _made=True)

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
        x = int(self.a[ij])
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

    def key(self) -> tuple:
        """An exact hashable content key: equal keys iff equal matrices over
        one field.  The shape, ``den`` and the numerators as bytes of the
        narrowest signed integer type that holds them (over F_p the
        canonical entries 0..p-1), or, for a carrier on Python ints, a
        tuple of them.  Equal matrices have one carrier and narrow to one
        width; at two widths the bytes of one shape differ in length."""
        a = self.a
        if a.dtype == object:
            return a.shape, self.den, tuple(a.flat)
        bound = self.field.p - 1 if self.field.kind == "prime" else _top(a)
        narrow = next(t for top, t in _KEY_WIDTHS if bound <= top)
        return a.shape, self.den, a.astype(narrow).tobytes()

    def __repr__(self):
        return f"Mat({self.field.kind},{self.rows}x{self.cols})"

    # -- arithmetic ----------------------------------------------------

    def _wrap(self, a: np.ndarray, den: int = 1) -> "Mat":
        """a / den for an array made from carriers: reduced modulo p over
        F_p, brought to its carrier dtype over Q (a sum may reach _WORD)."""
        a = a % self.field.p if self.field.kind == "prime" else _carrier(a)
        return Mat(self.field, a, den, _made=True)

    def _same_field(self, other: "Mat"):
        # one FieldSpec object in the common case, which needs no comparison
        if self.field is not other.field and self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def _aligned(self, other: "Mat"):
        self._same_field(other)
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
        return Mat(self.field, _times(self.a, c.numerator), self.den * c.denominator, _made=True)

    def __matmul__(self, other: "Mat") -> "Mat":
        f = self.field
        self._same_field(other)
        x, y = self.a, other.a
        (m, k), (k2, n) = x.shape, y.shape
        if k != k2:
            raise ValueError(f"shape mismatch {x.shape} @ {y.shape}")
        if not (m and k and n):
            return Mat.zeros(f, m, n)
        dense = m * k * n < _GATHER_FLOOR  # no gather below it: no nonzeros counted
        if f.kind == "prime":
            if not _int64_fits(k, f.p - 1, f.p - 1):
                raise ValueError(f"F_{f.p} product with inner dimension {k} would overflow int64")
            return Mat(f, x @ y % f.p if dense else _word_product(x, y, f.p), _made=True)
        # (A / d)(B / e) = (A B) / (d e): one integer product, one normalisation
        den = self.den * other.den
        tops = None if object in (x.dtype, y.dtype) else (_top(x), _top(y))
        if tops is None or not _int64_fits(k, *tops):
            return Mat(f, _object_product(x, y), den, _made=True)
        c = x @ y if dense else _word_product(x, y, 0)
        return Mat(f, c if k * tops[0] * tops[1] < _WORD else _carrier(c), den, _made=True)

    @property
    def T(self) -> "Mat":
        return self.with_array(self.a.T)

    def hstack(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if self.rows != other.rows:
            raise ValueError(f"hstack of {self.rows} rows with {other.rows} rows")
        return Mat.stack_cols(self.field, [self, other])

    def vstack(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if self.cols != other.cols:
            raise ValueError(f"vstack of {self.cols} columns with {other.cols} columns")
        return Mat.stack_rows(self.field, [self, other])

    @staticmethod
    def stack_rows(field: FieldSpec, mats: list["Mat"]) -> "Mat":
        """Vertical stack over the lcm of the denominators; empty list gives
        a 0 x 0 matrix."""
        if not mats:
            return Mat.zeros(field, 0, 0)
        den, arrays = _common_den(mats)
        return Mat(field, np.vstack(arrays), den, _made=True)

    @staticmethod
    def stack_cols(field: FieldSpec, mats: list["Mat"]) -> "Mat":
        """Horizontal stack over the lcm of the denominators."""
        den, arrays = _common_den(mats)
        return Mat(field, np.hstack(arrays), den, _made=True)

    @staticmethod
    def from_blocks(field: FieldSpec, rows: int, cols: int, blocks: list) -> "Mat":
        """A rows x cols matrix, zero outside the ``(i, j, block)`` triples,
        each block placed with its top-left entry at (i, j)."""
        den, arrays = _common_den([b for _, _, b in blocks])
        a = _zeros((rows, cols), arrays)
        for (i, j, b), x in zip(blocks, arrays):
            a[i : i + b.rows, j : j + b.cols] = x
        return Mat(field, a, den, _made=True)

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
        a = _zeros((n, total, total), arrays)
        o = 0
        for x, m in zip(arrays, dims):
            a[:, o : o + m, o : o + m] = x.reshape(n, m, m)
            o += m
        return Mat(field, a.reshape(n, total * total), den, _made=True)

    def flatten_row(self) -> "Mat":
        """Matrix entries as a single 1 x (rows*cols) row, row-major."""
        return self.reshape(1, self.rows * self.cols)


class _Reduced(Mat):
    """A ``row_basis`` output: rref rows with no zero row, marked with
    their pivot columns.  A subclass, so that no other Mat carries the
    slot; a view of it is a plain Mat."""

    __slots__ = ("_pivots",)


def power_traces(m: Mat, n: int, k: int, modulus: int) -> np.ndarray:
    """tr(Z^k) mod ``modulus`` for each row of the F_p matrix ``m``, read as
    an n x n integer matrix Z.  Repeated squaring, reducing after every
    product: in int64 when dot products of length n over entries below
    ``modulus`` fit, otherwise on exact Python integers."""
    z = m.a.reshape(m.rows, n, n)
    if not _int64_fits(n, modulus - 1, modulus - 1):
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


def _gauss_jordan(a: np.ndarray, p: int):
    # Gauss-Jordan on sparse rows, {column: value}, one input row at a time
    # (see the module docstring); the input is never written.  Kept rows are
    # reduced (0 at every other pivot) and normalised, so a new row is
    # cleared by one pass over the pivots it meets; its own pivot column is
    # then cleared from the kept rows.  Each output row holds den, the lcm
    # of the pivots (1 over F_p), at its pivot.
    n = a.shape[1]
    flat = a.ravel()
    nz = flat.nonzero()[0]
    rows = {}
    for k, x in zip(nz.tolist(), flat[nz].tolist()):
        if p:
            x %= p
        if x:
            i, c = divmod(k, n)
            rows.setdefault(i, {})[c] = x
    kept = {}  # pivot column -> its reduced row
    for row in rows.values():
        for c in [c for c in row if c in kept]:
            _clear(row, c, kept[c], p)
        if not row:
            continue
        c = min(row)
        _normalise(row, c, p)
        for other in kept.values():
            if c in other:
                _clear(other, c, row, p)
        kept[c] = row
    pivots = sorted(kept)
    den = 1 if p else lcm(*(kept[c][c] for c in pivots))
    at, vals = [], []  # flat positions and values of the output's entries
    for i, c in enumerate(pivots):
        row = kept[c]
        at += [i * n + k for k in row]
        vals += row.values() if p else [x * (den // row[c]) for x in row.values()]
    out = _carrier(np.zeros(a.shape, dtype=np.int64), 0 if p else max(map(abs, vals), default=0))
    out.put(at, vals)
    return out, pivots


def _clear(row: dict, c: int, other: dict, p: int):
    """row := other[c] * row - row[c] * other in place (0 at c, zeros dropped):
    reduced modulo p over F_p (other[c] is 1), divided by its content over Q."""
    f, s = row[c], other[c]
    if s != 1:
        for k in row:
            row[k] *= s
    for k, x in other.items():
        y = row.get(k, 0) - f * x
        if p:
            y %= p
        if y:
            row[k] = y
        else:
            row.pop(k, None)
    if not p:
        _normalise(row, c, p)


def _normalise(row: dict, c: int, p: int):
    """In place: over F_p row scaled to 1 at its pivot c, over Q (p = 0)
    divided by its content, the gcd of its entries."""
    s = pow(row[c], p - 2, p) if p else gcd(*row.values())
    if s != 1:
        for k in row:
            row[k] = row[k] * s % p if p else row[k] // s


def rref(m: Mat):
    """Reduced row-echelon form.  Returns ``(R, pivots, rank)``; a
    ``row_basis`` output is its own, with the pivots it is marked with."""
    if isinstance(m, _Reduced):
        return m, list(m._pivots), len(m._pivots)
    if m.rows == 0 or m.cols == 0:
        return m, [], 0
    p = m.field.characteristic
    a, pivots = _gauss_jordan(m.a, p)
    den = 1 if p or not pivots else int(a[0, pivots[0]])
    return Mat(m.field, a, den, _made=True), pivots, len(pivots)


def rank(m: Mat) -> int:
    return rref(m)[2]


def row_basis(m) -> Mat:
    """Canonical basis (rref rows) of the row space, marked with its pivots.

    ``m`` is a Mat, or a ``RowBasis`` whose B it is read off: a B factored
    by reduction gives the rows of rref([B | J]) that pivot in B, with no
    second reduction.  Rows fewer than the rows reduced are copied, so a
    kept basis does not pin the whole reduction output."""
    if isinstance(m, RowBasis) and m._kernel is not None:
        r, pivots = m._r.take_cols(slice(0, m.cols)), m.pivots
    else:
        r, pivots, _ = rref(m.basis if isinstance(m, RowBasis) else m)
    rk = len(pivots)
    out = _Reduced(r.field, r.a[:rk].copy() if rk < r.rows else r.a, r.den, _made=True)
    out._pivots = tuple(pivots)
    return out


def reverse_row_basis(m: Mat) -> Mat:
    """The rref basis of the row space in reversed column order, rows then
    reversed.  For any rows spanning the kernel of S this is the transpose
    of ``nullspace(S)``, the kernel basis that is the identity on S's free
    columns.  Rows fewer than the rows reduced are copied, as in
    ``row_basis``."""
    r, _, rk = rref(m.with_array(m.a[:, ::-1]))
    a = r.a[:rk, ::-1][::-1]
    return r.with_array(a.copy() if rk < r.rows else a)


def placed_row_basis(field: FieldSpec, cols: int, blocks: list) -> Mat:
    """The rows of every ``(rows, where)`` pair, each row placed in the
    columns ``where`` (increasing) of a zero row of length ``cols``,
    sorted by their last nonzero column.

    When every ``rows`` is a ``reverse_row_basis`` and the column sets are
    disjoint, the placed rows are zero on each other's pivots, so this is
    ``reverse_row_basis`` of them all, with no row reduction."""
    den, arrays = _common_den([b for b, _ in blocks])
    a = _zeros((sum(b.rows for b, _ in blocks), cols), arrays)
    r = 0
    for (b, where), x in zip(blocks, arrays):
        a[r : r + b.rows, where] = x
        r += b.rows
    last = cols - 1 - np.argmax(a[:, ::-1] != 0, axis=1)
    return Mat(field, a[np.argsort(last, kind="stable")], den, _made=True)


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
    # den, an entry of R at each pivot, fits R's carrier
    basis = np.zeros((r.cols, len(free)), dtype=r.a.dtype)
    basis[free, np.arange(len(free))] = r.den
    if rk:
        basis[pivots, :] = -r.a[:rk, free]
    return r._wrap(basis, r.den)


def solve(a: Mat, b: Mat) -> Optional[Mat]:
    """``solve_left`` transposed: x with ``a @ x = b``, 0 off a's pivot columns, or None."""
    if a.rows != b.rows:
        raise ValueError(f"solve: {a.rows} equations vs rhs with {b.rows} rows")
    sol = solve_left(a.T, b.T)
    return None if sol is None else sol.T


def solve_left(a: Mat, b: Mat) -> Optional[Mat]:
    """The exact solution x of ``x @ a = b`` (row-vector convention) that
    is supported on the first independent rows of a, or None iff a row of
    b lies outside the row span of a."""
    return RowBasis(a).solve(b)


def left_nullspace(m: Mat) -> Mat:
    """Basis of {x : x @ m = 0}, returned as rows."""
    return nullspace(m.T).T


def _identity_columns(b: Mat) -> Optional[list]:
    """Columns P, one per row, with b[:, P] = I: the pivots a ``row_basis``
    output is marked with, else each row's first nonzero column, else its
    last, checked exactly; None if neither reading gives the identity."""
    if isinstance(b, _Reduced):
        return list(b._pivots)
    a, (k, n) = b.a, b.a.shape
    if not n:
        return None if k else []
    nonzero = a != 0
    cols = nonzero.argmax(axis=1)
    for _ in range(2):
        at = a[:, cols]  # den * I iff den on its diagonal and k nonzeros
        if np.count_nonzero(at) == k and (at.diagonal() == b.den).all():
            return cols.tolist()
        cols = n - 1 - nonzero[:, ::-1].argmax(axis=1)
    return None


# entries of the free columns of a batch that ``RowBasis`` checks against
# its span at once
_CHECK_CELLS = 1 << 20


class RowBasis:
    """A k x n matrix B factored once, for many coordinate solves against it.

    Factoring gives columns P (``pivots``), R with the row span of B and
    R[:, P] = I, and T with T @ B = R.  A batch V (m x n) lies in the row
    span of B iff V[:, P] @ R = V, and then c = V[:, P] @ T solves
    c @ B = V.  R and T stay on the carrier, so both checks are integer
    products; R[:, P] = I, so the span check reads only the other columns.

    A canonical B, the identity on k of its columns (``_identity_columns``),
    is its own R with T = I and independent rows, so c = V[:, P] with no
    reduction and no product.  Any other B takes one rref of ``[B | J]``,
    with J the k x k identity with its columns reversed: R = rref(B), P
    its pivots, T read off J's columns.  Reversing the identity makes the
    left-nullspace rows of the rref pivot on the rows of B that depend on
    earlier rows, so T is zero in those columns: for a dependent B, the
    solution is the one supported on the first independent rows.  Against
    independent rows the coordinates are unique, so both routes agree.
    """

    # ``_kernel`` is None for a canonical B, whose T is the identity; ``_r``
    # is rref([B | J]) on the reduction route
    __slots__ = (
        "field", "rows", "cols", "pivots", "basis", "_free", "_r", "_r_free", "_t", "_kernel"
    )

    def __init__(self, basis: Mat):
        f, (k, n) = basis.field, basis.a.shape
        self.field, self.rows, self.cols, self.basis = f, k, n, basis
        pivots = _identity_columns(basis)
        if pivots is None:
            flip = np.zeros((k, k), dtype=np.int64)
            flip[np.arange(k), np.arange(k)[::-1]] = 1
            r, pivots, _ = rref(basis.hstack(Mat(f, flip, _made=True)))
            pivots = [c for c in pivots if c < n]
            # J's columns put back in order: T on the rows that pivot in B,
            # x for a basis of {x : x B = 0} on the others (``left_kernel``),
            # copied, as a kept kernel would pin all of rref([B | J])
            t, rk = r.a[:, n:][:, ::-1], len(pivots)
            self._t, self._kernel = r.with_array(t[:rk]), r.with_array(t[rk:][::-1].copy())
        else:
            r, self._t, self._kernel = basis, Mat.identity(f, k), None
        self.pivots, self._r = pivots, r
        taken = set(pivots)
        self._free = [c for c in range(n) if c not in taken]
        self._r_free = r.with_array(r.a[: len(pivots), self._free])

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _pivot_part(self, v: Mat) -> Optional[Mat]:
        """``v[:, pivots]`` if every row of v lies in the span, else None."""
        if v.field != self.field or v.cols != self.cols:
            raise ValueError(f"{v.rows}x{v.cols} against a row basis of width {self.cols}")
        y, free = v.with_array(v.a[:, self.pivots]), self._free
        if not free:
            return y
        # the rows go in blocks, so the residual's arrays stay near
        # _CHECK_CELLS; a batch of one block is checked on y itself, as a
        # view of y costs a Mat on every solve
        step = max(1, _CHECK_CELLS // len(free))
        for i in range(0, v.rows, step):
            part = y if step >= v.rows else y.take_rows(slice(i, i + step))
            if part @ self._r_free != v.with_array(v.a[i : i + step, free]):
                return None
        return y

    def contains(self, v: Mat) -> bool:
        """Is every row of ``v`` in the row span of the basis?"""
        return self._pivot_part(v) is not None

    def solve(self, v: Mat) -> Optional[Mat]:
        """Coordinates c with c @ B = v, or None if a row of v is outside the span."""
        y = self._pivot_part(v)
        return y if y is None or self._kernel is None else y @ self._t

    def coords(self, v: Mat) -> Mat:
        """Coordinates c with c @ B = v; raises if a row of v is outside the span."""
        c = self.solve(v)
        if c is None:
            raise ValueError("vector not in row span")
        return c

    def left_kernel(self) -> Mat:
        """Basis of {x : x @ B = 0} as rows, equal to ``left_nullspace(B)``:
        the rows of rref([B | J]) that vanish on B are x J for a basis of
        those x, in rref on J, so reversed they are the one reduced basis
        that is the identity on the kernel's free columns."""
        return Mat.zeros(self.field, 0, self.rows) if self._kernel is None else self._kernel


def coords_in_rows(basis: Mat, v: Mat) -> Mat:
    """Coordinates c with c @ basis = v; raises if v is outside the span."""
    return RowBasis(basis).coords(v)


def first_non_intertwiner(source: Mat, target: Mat, maps: Mat) -> Optional[int]:
    """The index of the first row F of ``maps``, an m x n matrix flattened
    row-major, with A_b F != F B_b for some b, or None if there is none.
    A_b and B_b are the rows b of ``source`` (d x m^2) and ``target``
    (d x n^2) read as m x m and n x n matrices: the actions of two modules.

    Every pair (F, b) is checked from two broadcast products on the
    carriers, ``A F`` and ``F B``, the maps taken in blocks whose sides
    hold about ``_CHECK_CELLS`` entries.  Over F_p the sides are compared
    modulo p; over Q, with A, F and B over the denominators a, f and b,
    (A/a)(F/f) = (F/f)(B/b) iff (A F) b = (F B) a, on int64 where
    ``_int64_fits`` admits it and on Python ints past it.  Where
    ``Mat.__matmul__`` would take the row gather for A stacked against the
    maps side by side (``_word_product``), the two sides are those 2-D
    products instead."""
    (d, mm), (_, nn), (k, cells) = source.a.shape, target.a.shape, maps.a.shape
    m, n = isqrt(mm), isqrt(nn)
    if not (d and k and cells):
        return None
    x, y = source.a, target.a
    if d * mm * k * n >= _GATHER_FLOOR and np.count_nonzero(x) * _GATHER_SHARE <= x.size:
        # each product is permuted, and dropped, before the next is made
        left = (source.reshape(d * m, m) @ maps.permuted((k, m, n), (1, 0, 2), m, k * n)).permuted(
            (d, m, k, n), (2, 0, 1, 3), k, d * cells
        )
        right = (maps.reshape(k * m, n) @ target.permuted((d, n, n), (1, 0, 2), n, d * n)).permuted(
            (k, m, d, n), (0, 2, 1, 3), k, d * cells
        )
        return left.first_differing_row(right)
    p = source.field.characteristic
    if not p:
        x, y = (a if c == 1 else _times(a, c) for a, c in ((x, target.den), (y, source.den)))
    x, y, f = x.reshape(d, m, m), y.reshape(d, n, n), maps.a
    tops = (p - 1,) * 3 if p else (_top(x), _top(f), _top(y))
    wide = object in (x.dtype, f.dtype, y.dtype) or not (
        _int64_fits(m, tops[0], tops[1]) and _int64_fits(n, tops[1], tops[2])
    )
    if wide:
        x, y, f = x.astype(object), y.astype(object), f.astype(object)
    step = max(1, _CHECK_CELLS // (d * cells))
    for i in range(0, k, step):
        block = f[i : i + step].reshape(-1, 1, m, n)
        left, right = np.matmul(x, block), np.matmul(block, y)  # (maps, d, m, n)
        if p:
            left %= p
            right %= p
        bad = (left != right).reshape(len(block), -1).any(axis=1)
        if bad.any():
            return i + int(np.argmax(bad))
    return None

"""The category of finite-dimensional right modules over an Algebra.

A module is a tuple of action matrices, one per algebra basis element,
acting on row vectors from the right: v . a := v @ rho(a).  A morphism
is a matrix F with rho_src(b) @ F = F @ rho_tgt(b) for every basis b.
Composition "f then g" is matrix product F @ G, and the composition
convention (fg)(m) = f(g(m)) makes Hom(M, N) a right End(M)-module with
no opposite-algebra twist anywhere in the code.

Hom spaces are computed one way: between direct sums as the sum of the
blocks Hom(X_a, Y_b) of their summands, which ``direct_sum`` tags on its
result, nested sums flattened; out of the content of a projective
P_i = e_i A by Yoneda, Hom(e_i A, N) = N e_i; and out of any other module
M as the kernel of Hom(P_0, N) -> Hom(Omega, N) for its projective
presentation 0 -> Omega -> P_0 -> M -> 0 (Lux and Szoke, Exp. Math. 12,
2003).  ``hom_space`` returns one ``HomSpace``: the reduced basis stacked,
one flattened map per row, with its side-by-side layout, its batched
compositions and its factored ``RowBasis``.  No other code lays out or
factors a Hom basis.

What depends only on a module's action is built once per content, not
per object: modules over one algebra with equal (dim, action) share one
record, a dict in ``context(A).records`` keyed by ``(dim, Mat.key())``
(hash-consing, Filliatre and Conchon, ML Workshop 2006).  It keeps the
presentation (and, on it, the syzygy Omega), the radical rows, the top
projection and the socle rows, the projectivity test, on the content of
P_i its index i, and each Hom space out of the module, checked, under its
target's key.  The context owns the records and lives as long as the
algebra, so a value is built once per algebra, however long its modules
live, and the work of a run does not depend on when the garbage collector
runs.  The functor values, which also depend on the Auslander data, are
kept on that data (``functors``).  Only ``Repn.summands`` stays on the
object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .algebra import (
    Algebra,
    AlgebraError,
    checked_idempotents,
    primitive_idempotents,
    quotient_projection,
)
from .linalg import (
    FieldSpec,
    Mat,
    RowBasis,
    first_non_intertwiner,
    left_nullspace,
    placed_row_basis,
    rank,
    reverse_row_basis,
    row_basis,
    rref,
)


class Repn:
    """A right module, stored as its flat action: row i of the
    algebra.dim x dim^2 matrix ``flat_action()`` is the matrix of the i-th
    basis element, flattened row-major."""

    def __init__(self, algebra: Algebra, dim: int, action: Mat):
        self.algebra = algebra
        self.dim = dim
        self._flat = action
        if action.field != algebra.field:
            raise ValueError(f"Repn: action over {action.field}, algebra over {algebra.field}")
        if (action.rows, action.cols) != (algebra.dim, dim * dim):
            raise ValueError(
                f"Repn: a {action.rows}x{action.cols} action for a module of dim {dim}"
                f" over an algebra of dim {algebra.dim}"
            )
        # the nonzero summands, none of them a sum, when the module is built
        # as a direct sum of two or more; hom_space then assembles from them
        self.summands: Optional[tuple] = None
        # the record of this content, shared with every equal module over
        # the algebra: a name, or a ("hom", target key) pair, to a value
        # that depends only on the action (``_recorded``)
        self.key = (dim, action.key())
        self.record = context(algebra).records.setdefault(self.key, {})

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def action(self) -> np.ndarray:
        """(algebra.dim, dim, dim) view of the action numerators, by which
        the span tracer of ``perfbench`` keys modules; the library reads
        ``flat_action``."""
        return self._flat.a.reshape(self.algebra.dim, self.dim, self.dim)

    def action_mat(self, i: int) -> Mat:
        return self._flat.row_at(i).reshape(self.dim, self.dim)

    def flat_action(self) -> Mat:
        """One row per basis element: its action matrix, flattened row-major.

        ``coords @ flat_action()`` gives rho of every coordinate row at once.
        """
        return self._flat

    def wide_action(self) -> Mat:
        """dim x (algebra.dim * dim): the action matrices side by side, so
        that ``rows @ wide_action()`` moves rows by every basis element."""
        d, n = self.algebra.dim, self.dim
        return self._flat.permuted((d, n, n), (1, 0, 2), n, d * n)

    def rho(self, coords: Mat) -> Mat:
        """Matrix of the action of the element with the given coordinates."""
        return (coords @ self._flat).reshape(self.dim, self.dim)

    def validate(self) -> bool:
        A = self.algebra
        if self.dim == 0:
            return True
        if self.rho(A.unit) != Mat.identity(self.field, self.dim):
            return False
        # row i * d + j: rho(b_i) rho(b_j) against rho(b_i b_j), all pairs at once
        d, n = A.dim, self.dim
        prods = self._flat.reshape(d * n, n) @ self.wide_action()
        pairs = A.table_matrix().reshape(d * d, d)
        return prods.permuted((d, n, d, n), (0, 2, 1, 3), d * d, n * n) == pairs @ self._flat

    def __repr__(self):
        return f"Repn(dim={self.dim})"


def _recorded(M: Repn, key, build):
    """``build()``, kept on the record of M under ``key``."""
    record = M.record
    if key not in record:
        record[key] = build()
    return record[key]


class ModHom:
    def __init__(self, source: Repn, target: Repn, mat: Mat):
        if (mat.rows, mat.cols) != (source.dim, target.dim):
            raise ValueError(f"ModHom: a {mat.rows}x{mat.cols} matrix for {source!r} -> {target!r}")
        self.source = source
        self.target = target
        self.mat = mat

    @property
    def field(self):
        return self.source.field

    def validate(self) -> bool:
        space = HomSpace(self.source, self.target, self.mat.flatten_row())
        return _first_non_intertwiner(space) is None

    def then(self, g: "ModHom") -> "ModHom":
        """self followed by g (apply self first).  The target of self and
        the source of g share a record: they are one module or equal ones."""
        if self.target.record is not g.source.record:
            raise ValueError(f"ModHom.then: {self!r} ends where {g!r} does not start")
        return ModHom(self.source, g.target, self.mat @ g.mat)

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def __repr__(self):
        return f"ModHom({self.source.dim}->{self.target.dim})"


def zero_module(A: Algebra) -> Repn:
    """The zero module over A, one per algebra (``ModuleContext.zero``)."""
    return context(A).zero


def zero_hom(M: Repn, N: Repn) -> ModHom:
    return ModHom(M, N, Mat.zeros(M.field, M.dim, N.dim))


def regular_module(A: Algebra) -> Repn:
    """A as a right module over itself: action of b_i = right multiplication,
    whose row k holds b_k * b_i: row i of ``A.right_table()``."""
    return Repn(A, A.dim, A.right_table())


def induced_action(flat: Mat, rows: Mat) -> Mat:
    """The flat action that ``flat`` (one row per algebra basis element, its
    n x n matrix flattened) induces on the action-stable row span of
    ``rows``, against the basis ``rows``."""
    d, k, n = flat.rows, rows.rows, rows.cols
    wide = flat.permuted((d, n, n), (1, 0, 2), n, d * n)
    moved = (rows @ wide).permuted((k, d, n), (1, 0, 2), d * k, n)
    try:
        c = RowBasis(rows).coords(moved)
    except ValueError:
        raise ValueError("subspace is not action-stable") from None
    return c.reshape(d, k * k)


def sub_repn(M: Repn, rows: Mat):
    """Submodule on an action-stable row subspace.  Returns (S, inclusion)."""
    rows = row_basis(rows)
    S = Repn(M.algebra, rows.rows, induced_action(M.flat_action(), rows))
    return S, ModHom(S, M, rows)


def quotient_repn(M: Repn, rows: Mat):
    """Quotient by an action-stable row subspace.  Returns (Q, projection)."""
    proj, nonpiv = quotient_projection(rows)
    # the quotient acts by section @ rho(b) @ proj, and the section picks
    # the non-pivot rows: one product for every basis element at once
    d, m, k = M.algebra.dim, M.dim, len(nonpiv)
    picked = [b * m + i for b in range(d) for i in nonpiv]
    rows_np = M.flat_action().reshape(d * m, m).take_rows(picked)
    Q = Repn(M.algebra, k, (rows_np @ proj).reshape(d, k * k))
    return Q, ModHom(M, Q, proj)


def direct_sum(parts: list) -> Repn:
    """Block-diagonal sum; part i occupies the rows after parts 0..i-1."""
    if not parts:
        raise ValueError("direct_sum of no parts needs an algebra; use zero_module")
    A = parts[0].algebra
    dims = [p.dim for p in parts]
    S = Repn(A, sum(dims), Mat.block_diag_rows(A.field, [p.flat_action() for p in parts], dims))
    leaves = tuple(x for p in parts for x in (p.summands or (p,)) if x.dim)
    if len(leaves) > 1:
        S.summands = leaves
    return S


# -- Hom spaces -----------------------------------------------------------


class HomSpace:
    """k maps M -> N held stacked: ``flat`` has one map per row, flattened
    row-major (k x m*n).  ``hom_space`` returns the reduced basis of
    Hom(M, N) in this form; every layout a caller needs is read off it.

    ``len``, iteration and indexing go over the maps as ModHoms, built on
    first use.  ``basis`` factors ``flat`` once for coordinate solves; a
    space from ``hom_space`` shares the factoring kept for its contents.
    """

    def __init__(self, source: Repn, target: Repn, flat: Mat):
        if flat.cols != source.dim * target.dim:
            raise ValueError(f"HomSpace: {flat.cols} columns for maps {source!r} -> {target!r}")
        self.source = source
        self.target = target
        self.flat = flat
        self._kept: Optional[_KeptHoms] = None  # what ``hom_space`` kept it from

    @cached_property
    def basis(self) -> RowBasis:
        return RowBasis(self.flat) if self._kept is None else self._kept.basis

    def wide(self) -> Mat:
        """m x (k*n): the maps side by side, the layout of ``Repn.wide_action``."""
        k, m, n = self.flat.rows, self.source.dim, self.target.dim
        return self.flat.permuted((k, m, n), (1, 0, 2), m, k * n)

    def then(self, g: Mat) -> Mat:
        """Row t: map t followed by g (n x q), flattened; one product."""
        k, m = self.flat.rows, self.source.dim
        return (self.flat.reshape(k * m, self.target.dim) @ g).reshape(k, m * g.cols)

    def after(self, d: Mat) -> Mat:
        """Row t: d (p x m) followed by map t, flattened; one product."""
        k, p, n = self.flat.rows, d.rows, self.target.dim
        return (d @ self.wide()).permuted((p, k, n), (1, 0, 2), k, p * n)

    @cached_property
    def _homs(self) -> list:
        m, n = self.source.dim, self.target.dim
        return [
            ModHom(self.source, self.target, self.flat.row_at(t).reshape(m, n))
            for t in range(self.flat.rows)
        ]

    def __len__(self) -> int:
        return self.flat.rows

    def __iter__(self):
        return iter(self._homs)

    def __getitem__(self, t: int) -> ModHom:
        return self._homs[t]


def hom_space(M: Repn, N: Repn) -> HomSpace:
    """The reduced basis of Hom(M, N), built once per (content of M,
    content of N) and kept on M's record under N's key; a call on other
    modules of those contents gets the kept maps over its own M and N.

    ``_hom_builder`` picks the route: between direct sums the kept spaces
    of their summands; out of the content of a projective P_i, on any
    object, Yoneda; out of any other module its projective presentation.
    All return the same reduced basis: the kernel vectors of the
    intertwining system that are the identity on its free columns, exactly
    what ``nullspace`` of that system gives.  Every space built is checked
    once against every basis element of the algebra (soundness), so a
    false summands tag or projective mark is caught.
    """
    if M.algebra is not N.algebra:
        raise ValueError("hom_space: modules over different algebras")
    if M.dim == 0 or N.dim == 0:
        return HomSpace(M, N, Mat.zeros(M.field, 0, M.dim * N.dim))
    kept = _recorded(M, ("hom", N.key), lambda: _KeptHoms(_built_hom_space(M, N).flat))
    space = HomSpace(M, N, kept.flat)
    space._kept = kept
    return space


class _KeptHoms:
    """A checked Hom basis as its source's record keeps it: the maps,
    flattened, and their ``RowBasis``, factored on first use.  It holds no
    module, so a record keeps no source or target object alive."""

    def __init__(self, flat: Mat):
        self.flat = flat

    @cached_property
    def basis(self) -> RowBasis:
        return RowBasis(self.flat)


def _built_hom_space(M: Repn, N: Repn) -> HomSpace:
    build = _hom_builder(M, N)
    space = HomSpace(M, N, build(M, N))
    bad = _first_non_intertwiner(space)
    if bad is not None:
        where = f"{build.__name__}, dim {M.dim} -> dim {N.dim}: hom basis vector {bad} of {len(space)}"
        raise AssertionError(f"{where} fails the intertwining check")
    return space


def _hom_builder(M: Repn, N: Repn):
    """The builder of Hom(M, N).  The projectives mark their contents when
    built, so they are built before M's record is read."""
    if M.summands or N.summands:
        return _summed_homs
    context(M.algebra).projectives  # the regular module may come first
    return _yoneda_homs if "projective" in M.record else _presentation_homs


def _yoneda_homs(M: Repn, N: Repn) -> Mat:
    """Hom(P_i, N) for M of the content of P_i = e_i A, i read off its record.

    Hom(e_i A, N) = N e_i: the map with f(e_i) = v sends the basis vector p_t
    of P_i to v rho_N(p_t).  The rows of rho_N(e_i) span N e_i, and
    u rho_N(e_i) rho_N(p_t) = u rho_N(p_t) because e_i p_t = p_t, so the
    rows of [rho_N(p_0) | rho_N(p_1) | ...] span Hom(P_i, N), flattened.
    One product against the action builds them, and ``reverse_row_basis``
    turns them into the canonical basis, flattened, one hom per row: the
    same for any P_i of M's content (e_11 A and e_22 A of M_2(k) share one).
    """
    k, n = M.dim, N.dim
    rows = context(M.algebra).projective_rows[M.record["projective"]]
    rho = rows @ N.flat_action()  # row t: rho_N(p_t)
    return reverse_row_basis(rho.permuted((k, n, n), (1, 0, 2), n, k * n))


def _summed_homs(M: Repn, N: Repn) -> Mat:
    """Hom(X_1 + ... + X_p, Y_1 + ... + Y_q) for the summands of M and N
    (M or N itself where it has none).

    The intertwining system of block-diagonal actions splits into one
    system per block, so the space is the sum of the kept Hom(X_a, Y_b),
    each placed in the rows of X_a and the columns of Y_b of an m x n map.
    The blocks sit in disjoint columns of the flattened layout, so their
    canonical bases together, ordered by ``placed_row_basis``, are the
    canonical basis.  Returns it flattened, one hom per row.
    """
    n = N.dim
    blocks, r = [], 0
    for X in M.summands or (M,):
        c = 0
        for Y in N.summands or (N,):
            where = (np.arange(r, r + X.dim)[:, None] * n + np.arange(c, c + Y.dim)).ravel()
            blocks.append((hom_space(X, Y).flat, where))
            c += Y.dim
        r += X.dim
    return placed_row_basis(M.field, M.dim * n, blocks)


def _presentation_homs(M: Repn, N: Repn) -> Mat:
    """Hom(M, N) = ker(Hom(P_0, N) -> Hom(Omega, N)) for the presentation
    0 -> Omega -> P_0 -> M -> 0 of ``projective_presentation(M)``.

    A map g: P_0 -> N factors through the cover q iff it kills the syzygy
    rows Omega, and then g = q (s g) for the section s with s q = I.  With
    F_1..F_h the Yoneda basis of Hom(P_0, N), one product of [Omega; s]
    against [F_1 | ... | F_h] gives both the restrictions Omega F_j and the
    maps s F_j.  The left nullspace of the restrictions, one row per F_j,
    gives the combinations c with Omega (sum_j c_j F_j) = 0, and the maps
    s (sum_j c_j F_j) span Hom(M, N); ``reverse_row_basis`` turns them into
    the canonical basis.  Returns it flattened, one hom per row.
    """
    pres = projective_presentation(M)
    m, n, P = M.dim, N.dim, pres.cover.source
    # the kept Hom(P_0, N), unless P_0 has M's content: that is the space
    # being built, so P_0's own builder makes it
    homs = hom_space(P, N) if P.record is not M.record else HomSpace(P, N, _hom_builder(P, N)(P, N))
    h, k = len(homs), pres.syzygy.rows
    if h == 0:  # no map out of P_0, so none out of M
        return Mat.zeros(M.field, 0, m * n)
    both = homs.after(pres.syzygy.vstack(pres.section))
    restricted = both.take_cols(slice(0, k * n))
    maps = both.take_cols(slice(k * n, None))
    return reverse_row_basis(left_nullspace(restricted) @ maps)


def _first_non_intertwiner(space: HomSpace) -> Optional[int]:
    """The index of the first map F of ``space`` with rho_M(b) F != F rho_N(b)
    for some basis element b, or None if every map intertwines
    (``linalg.first_non_intertwiner``)."""
    return first_non_intertwiner(space.source.flat_action(), space.target.flat_action(), space.flat)


# -- per-algebra derived data ----------------------------------------------


class ModuleContext:
    """Per-algebra data: the records of the module contents, and the
    radical, idempotents, simples and projectives, each built on first use.

    Every ``Repn`` asks for the context of its algebra, so making one
    computes nothing.  The idempotents are the algebra's checked idempotent
    hint when it carries one (a quiver algebra's trivial paths, the
    Auslander algebra T's local pieces), else the split of A/J
    (``primitive_idempotents``)."""

    def __init__(self, A: Algebra):
        self.algebra = A
        self.records: dict = {}  # (dim, action key) -> that content's record

    @cached_property
    def regular(self) -> Repn:
        return regular_module(self.algebra)

    @cached_property
    def zero(self) -> Repn:
        """The zero module, shared: no code tags a module it was handed."""
        A = self.algebra
        return Repn(A, 0, Mat.zeros(A.field, A.dim, 0))

    @cached_property
    def chain(self):
        return self.algebra.radical_chain()

    @cached_property
    def idempotents(self):
        A, hint = self.algebra, self.algebra.idempotent_hint
        if hint is None:
            return primitive_idempotents(A, self.chain)
        return checked_idempotents(A, self.chain, hint)

    @property
    def projectives(self):
        return self._simples_and_projectives[1]

    @property
    def simples(self):
        return self._simples_and_projectives[0]

    @property
    def projective_rows(self):
        """Row basis of each P_i = e_i A inside A: the basis of P_i."""
        return self._simples_and_projectives[2]

    @cached_property
    def representatives(self) -> list:
        """Indices of one primitive idempotent per isomorphism class of
        simples (equivalently, of indecomposable projectives), the lowest
        index of each class.

        S_t is isomorphic to S_s iff S_t e_s != 0: Hom(P_s, S_t) = S_t e_s,
        and a nonzero map P_s -> S_t factors through the top S_s of P_s.
        """
        kept = []
        for t, s in enumerate(self.simples):
            if all(s.rho(self.idempotents[r]).is_zero() for r in kept):
                kept.append(t)
        return kept

    @cached_property
    def _simples_and_projectives(self):
        """P_i = e_i A as a submodule of the regular module; S_i = P_i / P_i J.

        The simples, the projectives and the row basis of each P_i inside A
        (row k of L(e_i) is e_i b_k).
        """
        simples, projs, spans = [], [], []
        for idx, e in enumerate(self.idempotents):
            span = row_basis(self.algebra.left_mult_matrix(e))
            P, _ = sub_repn(self.regular, span)
            P.record.setdefault("projective", idx)
            S, _ = quotient_repn(P, self.radical_rows(P))
            projs.append(P)
            simples.append(S)
            spans.append(span)
        return simples, projs, spans

    def radical_rows(self, M: Repn) -> Mat:
        """Row span of M . J inside M, kept on M's record."""
        return _recorded(M, "radical_rows", lambda: _radical_rows(M, self.chain.radical))

    def socle_rows(self, M: Repn) -> Mat:
        """Rows of a basis of soc(M) = {v : v . J = 0} inside M, kept on M's
        record: the left kernel of [rho(j_1) | ... | rho(j_s)] over the rows
        j of a basis of J, from one product."""
        return _recorded(M, "socle_rows", lambda: _socle_rows(M, self.chain.radical))

    @cached_property
    def injective_hull_dims(self) -> list:
        """dim A e_r for each representative r: the dimension of the
        injective hull D(A e_r) of S_r (row k of R(e_r) is b_k e_r)."""
        A = self.algebra
        return [rank(A.right_mult_matrix(self.idempotents[r])) for r in self.representatives]

    def top_projection(self, M: Repn) -> Mat:
        """The projection M -> M/MJ onto the top, as a matrix, kept on M's
        record."""
        return _recorded(M, "top_projection", lambda: quotient_projection(self.radical_rows(M))[0])


def _radical_rows(M: Repn, j: Mat) -> Mat:
    """Row span of M . J inside M, for the rows j of a basis of J: the rows
    of every rho_M(j_t), from one product."""
    if j.rows == 0 or M.dim == 0:
        return Mat.zeros(M.field, 0, M.dim)
    return row_basis((j @ M.flat_action()).reshape(j.rows * M.dim, M.dim))


def _socle_rows(M: Repn, j: Mat) -> Mat:
    if j.rows == 0 or M.dim == 0:
        return Mat.identity(M.field, M.dim)
    s, m = j.rows, M.dim
    return left_nullspace((j @ M.flat_action()).permuted((s, m, m), (1, 0, 2), m, s * m))


def context(A: Algebra) -> ModuleContext:
    """The ModuleContext of A, kept on A itself.

    The context refers back to A (its modules do), so a registry keyed
    weakly by A would keep every algebra alive; on A the two form a cycle
    that the garbage collector frees with A, records and all.
    """
    if A.module_context is None:
        A.module_context = ModuleContext(A)
    return A.module_context


@dataclass(frozen=True)
class Presentation:
    """The projective presentation 0 -> Omega -> P_0 -> M -> 0 of M.

    ``omega`` is the syzygy Omega as a module with its inclusion into P_0,
    built on first use and kept.  Omega keeps its own presentation in
    turn, so the chain M, Omega^1, Omega^2, ... is built once and every
    resolution of M walks it.
    """

    cover: ModHom  # the minimal projective cover q: P_0 -> M
    parts: list  # indices into context(A).projectives of P_0's summands
    syzygy: Mat  # rows of Omega = ker q inside P_0
    section: Mat  # s with s q = I on M

    @cached_property
    def omega(self) -> tuple:
        """(Omega, its inclusion into P_0)."""
        return sub_repn(self.cover.source, self.syzygy)


def projective_cover(M: Repn) -> ModHom:
    """Minimal projective cover P -> M (epi with superfluous kernel)."""
    return projective_presentation(M).cover


def projective_presentation(M: Repn) -> Presentation:
    """The presentation of M from its minimal projective cover, built once
    per content and kept on M's record: resolutions, isomorphism tests and
    Hom spaces out of M, and out of every module equal to M, share it.  So
    its cover may end in such an equal module rather than in M itself."""
    return _recorded(M, "presentation", lambda: _build_presentation(M))


def _build_presentation(M: Repn) -> Presentation:
    ctx = context(M.algebra)
    f = M.field
    if M.dim == 0:
        empty = Mat.zeros(f, 0, 0)
        return Presentation(zero_hom(zero_module(M.algebra), M), [], empty, empty)
    to_top = ctx.top_projection(M)
    chosen, part_indices = [], []
    # greedy: keep a hom iff its composite to the top is independent of the
    # composites already chosen from the same projective, that is, keep the
    # pivot columns of the composites side by side.  Only the lowest
    # projective of each isomorphism class covers: isomorphic copies (such
    # as the conjugate e_i of one matrix block of A/J) have composites in
    # different bases, so they would double-cover.  Repeated homs out of
    # one representative give its multiplicity.  Only the projectives in
    # top(M) are solved: a map P_i -> M sends e_i into M e_i, so its
    # composite to the top lies in top(M) e_i, and a zero block keeps no map.
    for pi_idx, block in _top_blocks(M):
        if block.is_zero():
            continue
        space = hom_space(ctx.projectives[pi_idx], M)
        if not space:
            continue
        _, kept, _ = rref(space.then(to_top).T)
        chosen.append(space.flat.take_rows(kept).reshape(len(kept) * space.source.dim, M.dim))
        part_indices += [pi_idx] * len(kept)
    if not part_indices:
        raise AlgebraError("projective cover: no covering maps found (nonzero M with zero top?)")
    P = direct_sum([ctx.projectives[i] for i in part_indices])
    q = ModHom(P, M, Mat.stack_rows(f, chosen))
    # epi + kernel inside P.J; fails only for non-split simples, which the
    # idempotent machinery would have rejected earlier
    rows = RowBasis(q.mat)
    if rows.rank != M.dim:
        raise AlgebraError("projective cover construction is not surjective")
    ker_rows = rows.left_kernel()
    prad = ctx.radical_rows(P)
    if not RowBasis(prad).contains(ker_rows):
        raise AlgebraError("projective cover kernel is not superfluous")
    return Presentation(q, part_indices, ker_rows, rows.coords(Mat.identity(f, M.dim)))


def is_projective(M: Repn) -> bool:
    """Is M projective?  Its cover P(M) -> M is onto, so iff dim P(M) = dim M.

    dim P(M) is read off the top, with no cover built:

        dim P(M) = sum_r rank(rho_M(e_r) pi) * dim P_r

    over the representatives e_r of ``context(A)``, for pi: M -> M/MJ the
    projection onto the top.  Every primitive idempotent of the context
    spans a corner of dimension 1 in A/J, so S_r e_r is 1-dimensional and
    rank(rho_M(e_r) pi) = dim top(M) e_r is the multiplicity of S_r in
    top(M).  The answer is kept on M's record.
    """
    return _recorded(M, "is_projective", lambda: _cover_dim(M) == M.dim)


def _cover_dim(M: Repn) -> int:
    projs = context(M.algebra).projectives
    return sum(rank(block) * projs[r].dim for r, block in _top_blocks(M))


def _top_blocks(M: Repn) -> list:
    """(r, rho_M(e_r) pi) for each representative r of ``context(A)``, with
    pi: M -> M/MJ the projection onto the top: the map of M e_r onto
    top(M) e_r, all from one product."""
    ctx = context(M.algebra)
    reps, m = ctx.representatives, M.dim
    e = Mat.stack_rows(M.field, [ctx.idempotents[r] for r in reps])
    tops = (e @ M.flat_action()).reshape(len(reps) * m, m) @ ctx.top_projection(M)
    return [(r, tops.take_rows(slice(i * m, (i + 1) * m))) for i, r in enumerate(reps)]


# -- isomorphism ---------------------------------------------------------------


def _is_invertible(m: Mat) -> bool:
    return m.rows == m.cols and rref(m)[2] == m.rows


def _split_pair(X: Repn, K: Repn):
    """Basis maps f: X -> K and g: K -> X with f then g invertible, or None.
    For local End(X) they exist iff X is a summand of K: if some composite
    is the identity, not all basis composites lie in rad End(X)."""
    into = hom_space(X, K)
    pairs = ((f, g) for g in hom_space(K, X) for f in into)
    return next((p for p in pairs if _is_invertible(p[0].mat @ p[1].mat)), None)


def is_isomorphic(M: Repn, N: Repn) -> Optional[ModHom]:
    """An invertible intertwiner M -> N, or None if there is none, decided
    exactly by Krull-Schmidt.

    A basis map of Hom(M, N) is tried first, which is exact for
    indecomposable M: for an isomorphism phi the basis maps are a_t then
    phi, a_t a basis of the local End(M), not all in its radical.  Else the
    summands X_i of M are split off N in turn, which by cancellation
    succeeds iff M and N are isomorphic, and the maps X_i -> N assemble the
    isomorphism.  Raises SplitGiveUp where the split of End(M) gives up.
    """
    if M.algebra is not N.algebra:
        raise ValueError("is_isomorphic: different algebras")
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
    # the summands X_i of M: the images of the primitive idempotents of End(M)
    E, space = endomorphism_algebra(M)
    idempotents = primitive_idempotents(E, E.radical_chain())
    xs = [sub_repn(M, (e @ space.flat).reshape(M.dim, M.dim)) for e in idempotents]
    if len(xs) == 1:  # M is indecomposable, so the basis test was exact
        return None
    f = M.field
    images, rows = [], Mat.identity(f, N.dim)  # the rows of K_(i-1) inside N
    for X, _ in xs:
        K, incl = sub_repn(N, rows)
        pair = _split_pair(X, K)
        if pair is None:
            return None
        images.append(pair[0].mat @ incl.mat)
        rows = left_nullspace(pair[1].mat) @ incl.mat  # K_i, the kernel of g
    # the rows of B_M are the X_i inside M: B_M^-1 sends M onto the X_i
    to_parts = RowBasis(Mat.stack_rows(f, [incl.mat for _, incl in xs])).coords(Mat.identity(f, M.dim))
    return ModHom(M, N, to_parts @ Mat.stack_rows(f, images))


def hom_combination(space: HomSpace, coeffs) -> ModHom:
    """The map sum_t coeffs[t] * space[t], from one product against ``flat``."""
    c = Mat.row(space.source.field, coeffs)
    return ModHom(space.source, space.target, (c @ space.flat).reshape(space.source.dim, space.target.dim))


# -- endomorphism algebras -----------------------------------------------------


def endomorphism_algebra(M: Repn):
    """End(M) with product (fg)(m) = f(g(m)).  Returns (Algebra, space).

    ``space`` is the HomSpace End(M) whose t-th map is the t-th basis
    element phi_t; the algebra product phi_i phi_j corresponds to
    mat(phi_j) @ mat(phi_i).
    """
    if M.dim == 0:
        raise ValueError("endomorphism algebra of the zero module")
    f, m = M.field, M.dim
    space = hom_space(M, M)
    k = len(space)
    # row i, block j: mat(phi_j) @ mat(phi_i), the matrix of phi_i phi_j
    prods = space.after(space.flat.reshape(k * m, m)).reshape(k * k, m * m)
    table = space.basis.coords(prods).reshape(k, k * k)
    unit = space.basis.coords(Mat.identity(f, m).flatten_row())
    labels = [f"phi{t}" for t in range(k)]
    E = Algebra(f, labels, unit, table)
    return E, space

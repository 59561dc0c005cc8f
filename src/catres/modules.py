"""The category of finite-dimensional right modules over an Algebra.

A module is a tuple of action matrices, one per algebra basis element,
acting on row vectors from the right: v . a := v @ rho(a).  A morphism
is a matrix F with rho_src(b) @ F = F @ rho_tgt(b) for every basis b.
Composition "f then g" is matrix product F @ G, and the composition
convention (fg)(m) = f(g(m)) makes Hom(M, N) a right End(M)-module with
no opposite-algebra twist anywhere in the code.

Hom spaces are computed one way: out of a sum of indecomposable
projectives by Yoneda, Hom(e_i A, N) = N e_i, and out of any other module
M as the kernel of Hom(P_0, N) -> Hom(Omega, N) for its projective
presentation 0 -> Omega -> P_0 -> M -> 0 (Lux and Szoke, Exp. Math. 12,
2003).  The presentation is memoised on M, and the syzygy Omega on the
presentation.  ``hom_space`` returns one ``HomSpace``: the reduced basis
stacked, one flattened map per row, with its side-by-side layout, its
batched compositions and its factored ``RowBasis``.  No other code lays
out or factors a Hom basis.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from .algebra import Algebra, AlgebraError, primitive_idempotents, quotient_projection
from .linalg import (
    FieldSpec,
    Mat,
    RowBasis,
    flat_products,
    left_nullspace,
    rank,
    reverse_row_basis,
    row_basis,
    rref,
)


class IsoInconclusive(Exception):
    """Isomorphism search exhausted its budget without a certificate either way."""


class Repn:
    """A right module, stored as its flat action: row i of the
    algebra.dim x dim^2 matrix ``flat_action()`` is the matrix of the i-th
    basis element, flattened row-major."""

    def __init__(self, algebra: Algebra, dim: int, action: Mat):
        self.algebra = algebra
        self.dim = dim
        self._flat = action
        assert action.field == algebra.field
        assert (action.rows, action.cols) == (algebra.dim, dim * dim)
        # indices into context(algebra).projectives, block by block, when the
        # module is built as their direct sum; hom_space then uses Yoneda
        self.projective_parts: Optional[tuple] = None
        # the projective presentation, built once by projective_presentation
        self._presentation: Optional[Presentation] = None

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
        mats = [self.action_mat(i) for i in range(A.dim)]
        pairs = A.table_matrix().reshape(A.dim * A.dim, A.dim)
        return flat_products(mats, mats) == pairs @ self._flat

    def __repr__(self):
        return f"Repn(dim={self.dim})"


class ModHom:
    def __init__(self, source: Repn, target: Repn, mat: Mat):
        assert mat.rows == source.dim and mat.cols == target.dim
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
        """self followed by g (apply self first)."""
        assert self.target is g.source or self.target.dim == g.source.dim
        return ModHom(self.source, g.target, self.mat @ g.mat)

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def __repr__(self):
        return f"ModHom({self.source.dim}->{self.target.dim})"


def zero_module(A: Algebra) -> Repn:
    return Repn(A, 0, Mat.zeros(A.field, A.dim, 0))


def zero_hom(M: Repn, N: Repn) -> ModHom:
    return ModHom(M, N, Mat.zeros(M.field, M.dim, N.dim))


def regular_module(A: Algebra) -> Repn:
    """A as a right module over itself: action of b_i = right multiplication,
    whose row k holds b_k * b_i: row i of ``A.right_table()``."""
    return Repn(A, A.dim, A.right_table())


def _action_on_rows(M: Repn, rows: Mat) -> Mat:
    """Induced flat action on an action-stable row subspace."""
    A = M.algebra
    k = rows.rows
    moved = (rows @ M.wide_action()).permuted((k, A.dim, M.dim), (1, 0, 2), A.dim * k, M.dim)
    try:
        c = RowBasis(rows).coords(moved)
    except ValueError:
        raise ValueError("subspace is not action-stable") from None
    return c.reshape(A.dim, k * k)


def sub_repn(M: Repn, rows: Mat):
    """Submodule on an action-stable row subspace.  Returns (S, inclusion)."""
    rows = row_basis(rows)
    S = Repn(M.algebra, rows.rows, _action_on_rows(M, rows))
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
    if all(p.projective_parts is not None for p in parts):
        S.projective_parts = tuple(i for p in parts for i in p.projective_parts)
    return S


# -- Hom spaces -----------------------------------------------------------


class HomSpace:
    """k maps M -> N held stacked: ``flat`` has one map per row, flattened
    row-major (k x m*n).  ``hom_space`` returns the reduced basis of
    Hom(M, N) in this form; every layout a caller needs is read off it.

    ``len``, iteration and indexing go over the maps as ModHoms, built on
    first use.  ``basis`` factors ``flat`` once for coordinate solves.
    """

    def __init__(self, source: Repn, target: Repn, flat: Mat):
        assert flat.cols == source.dim * target.dim
        self.source = source
        self.target = target
        self.flat = flat
        self._basis: Optional[RowBasis] = None
        self._maps: Optional[list] = None

    @property
    def basis(self) -> RowBasis:
        if self._basis is None:
            self._basis = RowBasis(self.flat)
        return self._basis

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

    def _homs(self) -> list:
        if self._maps is None:
            m, n = self.source.dim, self.target.dim
            self._maps = [
                ModHom(self.source, self.target, self.flat.row_at(t).reshape(m, n))
                for t in range(self.flat.rows)
            ]
        return self._maps

    def __len__(self) -> int:
        return self.flat.rows

    def __iter__(self):
        return iter(self._homs())

    def __getitem__(self, t: int) -> ModHom:
        return self._homs()[t]


def hom_space(M: Repn, N: Repn) -> HomSpace:
    """The reduced basis of Hom(M, N).

    Out of a direct sum of the projectives of ``context(A)`` the basis comes
    from Yoneda (``_yoneda_homs``); out of any other module from its
    projective presentation (``_presentation_homs``).  Both return the same
    reduced basis: the kernel vectors of the intertwining system that are
    the identity on its free columns, exactly what ``nullspace`` of that
    system gives.  Every basis vector is then checked against every basis
    element of the algebra (soundness).
    """
    if M.algebra is not N.algebra:
        raise ValueError("hom_space: modules over different algebras")
    if M.dim == 0 or N.dim == 0:
        return HomSpace(M, N, Mat.zeros(M.field, 0, M.dim * N.dim))
    if M.projective_parts is not None:
        space = HomSpace(M, N, _yoneda_homs(M, N))
    else:
        space = HomSpace(M, N, _presentation_homs(M, N))
    bad = _first_non_intertwiner(space)
    if bad is not None:
        raise AssertionError(f"hom basis vector {bad} of {len(space)} fails the intertwining check")
    return space


def _yoneda_homs(M: Repn, N: Repn) -> Mat:
    """Hom(P, N) for P = M, a direct sum of projectives P_i = e_i A.

    Hom(e_i A, N) = N e_i: the map with f(e_i) = v sends the basis vector p_t
    of P_i to v rho_N(p_t).  The rows of rho_N(e_i) span N e_i, and
    u rho_N(e_i) rho_N(p_t) = u rho_N(p_t) because e_i p_t = p_t, so the
    rows of [rho_N(p_0) | rho_N(p_1) | ...] span Hom(P_i, N), flattened.
    One product against the action builds them, and ``reverse_row_basis``
    turns them into the canonical basis.  Summands of P occupy disjoint
    columns, so each block is reduced on its own, once per distinct summand.
    Returns the basis flattened, one hom per row.
    """
    ctx = context(M.algebra)
    n = N.dim
    blocks, placed, row, off = {}, [], 0, 0
    for i in M.projective_parts:
        k = ctx.projectives[i].dim
        if i not in blocks:
            rho = ctx.projective_rows[i] @ N.flat_action()  # row t: rho_N(p_t)
            blocks[i] = reverse_row_basis(rho.permuted((k, n, n), (1, 0, 2), n, k * n))
        # the rows off..off+k of a dim P x n matrix, flattened
        placed.append((row, off * n, blocks[i]))
        row += blocks[i].rows
        off += k
    return Mat.from_blocks(M.field, row, M.dim * n, placed)


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
    m, n = M.dim, N.dim
    homs = HomSpace(pres.cover.source, N, _yoneda_homs(pres.cover.source, N))
    h, k = len(homs), pres.syzygy.rows
    if h == 0:  # no map out of P_0, so none out of M
        return Mat.zeros(M.field, 0, m * n)
    both = homs.after(pres.syzygy.vstack(pres.section))
    restricted = both.take_cols(slice(0, k * n))
    maps = both.take_cols(slice(k * n, None))
    return reverse_row_basis(left_nullspace(restricted) @ maps)


def _first_non_intertwiner(space: HomSpace) -> Optional[int]:
    """The index of the first map F of ``space`` with rho_M(b) F != F rho_N(b)
    for some basis element b, or None if every map intertwines.

    Two products cover every pair: the actions of M stacked, followed by
    every F, and every F followed by the actions of N side by side.
    """
    M, N = space.source, space.target
    d, m, n, k = M.algebra.dim, M.dim, N.dim, len(space)
    if k == 0:
        return None
    left = space.after(M.flat_action().reshape(d * m, m))
    right = space.then(N.wide_action())
    return left.first_differing_row(right.permuted((k, m, d, n), (0, 2, 1, 3), k, d * m * n))


# -- per-algebra derived data ----------------------------------------------


class ModuleContext:
    """Memoized per-algebra data: radical, idempotents, simples, projectives."""

    def __init__(self, A: Algebra):
        self.algebra = A
        self.regular = regular_module(A)
        self.chain = A.radical_chain()
        self._idempotents = None
        self._simples_projs = None
        self._representatives = None

    @property
    def idempotents(self):
        if self._idempotents is None:
            self._idempotents = primitive_idempotents(self.algebra, self.chain)
        return self._idempotents

    @property
    def projectives(self):
        return self._simples_and_projectives()[1]

    @property
    def simples(self):
        return self._simples_and_projectives()[0]

    @property
    def projective_rows(self):
        """Row basis of each P_i = e_i A inside A: the basis of P_i."""
        return self._simples_and_projectives()[2]

    @property
    def representatives(self) -> list:
        """Indices of one primitive idempotent per isomorphism class of
        simples (equivalently, of indecomposable projectives), the lowest
        index of each class.

        S_t is isomorphic to S_s iff S_t e_s != 0: Hom(P_s, S_t) = S_t e_s,
        and a nonzero map P_s -> S_t factors through the top S_s of P_s.
        """
        if self._representatives is None:
            kept = []
            for t, s in enumerate(self.simples):
                if all(s.rho(self.idempotents[r]).is_zero() for r in kept):
                    kept.append(t)
            self._representatives = kept
        return self._representatives

    def _simples_and_projectives(self):
        if self._simples_projs is None:
            self._simples_projs = simple_and_projective_modules(self.algebra, self.idempotents)
        return self._simples_projs

    def radical_rows(self, M: Repn) -> Mat:
        """Row span of M . J inside M."""
        return _radical_rows(M, self.chain.radical)

    def top(self, M: Repn):
        return quotient_repn(M, self.radical_rows(M))


def _radical_rows(M: Repn, j: Mat) -> Mat:
    """Row span of M . J inside M, for the rows j of a basis of J: the rows
    of every rho_M(j_t), from one product."""
    if j.rows == 0 or M.dim == 0:
        return Mat.zeros(M.field, 0, M.dim)
    return row_basis((j @ M.flat_action()).reshape(j.rows * M.dim, M.dim))


def context(A: Algebra) -> ModuleContext:
    """The ModuleContext of A, kept on A itself.

    The context refers back to A (its modules do), so a registry keyed
    weakly by A would keep every algebra alive; on A the two form a cycle
    that the garbage collector frees with A.
    """
    if A.module_context is None:
        A.module_context = ModuleContext(A)
    return A.module_context


def simple_and_projective_modules(A: Algebra, idempotents: list):
    """P_i = e_i A as a submodule of the regular module; S_i = P_i / P_i J.

    Returns the simples, the projectives and the row basis of each P_i
    inside A (row k of L(e_i) is e_i b_k).
    """
    ctx_reg = regular_module(A)
    chain = A.radical_chain()
    simples, projs, spans = [], [], []
    for idx, e in enumerate(idempotents):
        span = row_basis(A.left_mult_matrix(e))
        P, _ = sub_repn(ctx_reg, span)
        P.projective_parts = (idx,)
        S, _ = quotient_repn(P, _radical_rows(P, chain.radical))
        projs.append(P)
        simples.append(S)
        spans.append(span)
    return simples, projs, spans


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
    and kept on M: resolutions, isomorphism tests and Hom spaces out of M
    all share it."""
    if M._presentation is None:
        M._presentation = _build_presentation(M)
    return M._presentation


def _build_presentation(M: Repn) -> Presentation:
    ctx = context(M.algebra)
    f = M.field
    if M.dim == 0:
        empty = Mat.zeros(f, 0, 0)
        return Presentation(zero_hom(zero_module(M.algebra), M), [], empty, empty)
    T, piT = ctx.top(M)
    chosen, part_indices = [], []
    # greedy: keep a hom iff its composite to the top is independent of the
    # composites already chosen from the same projective, that is, keep the
    # pivot columns of the composites side by side.  Only the lowest
    # projective of each isomorphism class covers: isomorphic copies (such
    # as the conjugate e_i of one matrix block of A/J) have composites in
    # different bases, so they would double-cover.  Repeated homs out of
    # one representative give its multiplicity.
    for pi_idx in ctx.representatives:
        space = hom_space(ctx.projectives[pi_idx], M)
        if not space:
            continue
        _, kept, _ = rref(space.then(piT.mat).T)
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
    ker_rows = left_nullspace(q.mat)
    prad = ctx.radical_rows(P)
    if not RowBasis(prad).contains(ker_rows):
        raise AlgebraError("projective cover kernel is not superfluous")
    return Presentation(q, part_indices, ker_rows, rows.coords(Mat.identity(f, M.dim)))


def is_projective(M: Repn) -> bool:
    """Is M projective?  Its cover P(M) -> M is onto, so iff dim P(M) = dim M.

    dim P(M) is read off the top, with no cover built:

        dim P(M) = sum_i rank(top(M) e_i) * dim P_i / dim S_i

    over the complete set of primitive idempotents e_i of ``context(A)``.
    If S_i has multiplicity m in top(M) and lies over the simple factor
    M_n(D) of A/J, then n of the e_i are conjugate to e_i, each with
    rank(top(M) e_i) = m dim D, while dim S_i = n dim D: the n terms add
    up to m dim P_i.  Dividing by rank(S_i e_i) = dim D instead would
    count P_i n times, which is wrong for non-basic algebras such as the
    Auslander algebra of upper triangular 2x2 matrices.
    """
    ctx = context(M.algebra)
    top, _ = ctx.top(M)
    dim_cover = sum(
        Fraction(rank(top.rho(e)) * P.dim, S.dim)
        for e, P, S in zip(ctx.idempotents, ctx.projectives, ctx.simples)
    )
    return dim_cover == M.dim


# -- isomorphism search -----------------------------------------------------

EXHAUSTIVE_BUDGET = 1 << 16
RANDOM_TRIALS = 64


def _is_invertible(m: Mat) -> bool:
    return m.rows == m.cols and rref(m)[2] == m.rows


def is_isomorphic(M: Repn, N: Repn):
    """An invertible intertwiner M -> N, None if certified non-isomorphic.

    Raises IsoInconclusive when neither a certificate of isomorphism nor an
    exhaustive refutation fits in the search budget.
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
        raise IsoInconclusive(f"hom dimension {k} exceeds the exhaustive budget")
    for coeffs in itertools.product(range(values), repeat=k):
        cand = hom_combination(homs, coeffs)
        if _is_invertible(cand.mat):
            return cand
    return None


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

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
2003).  The presentation is memoised on M.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import Algebra, AlgebraError, primitive_idempotents, quotient_projection
from .linalg import (
    FieldSpec,
    Mat,
    RowBasis,
    _common_den,
    _empty,
    flat_products,
    left_nullspace,
    rank,
    row_basis,
    row_span_contains,
    rref,
    solve_left,
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
        """(algebra.dim, dim, dim) view of the action numerators, on the
        scale of ``flat_action().den``."""
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
        n = self.dim
        wide = self.action.transpose(1, 0, 2).reshape(n, self.algebra.dim * n)
        return self._flat.with_array(wide)

    def rho(self, coords: Mat) -> Mat:
        """Matrix of the action of the element with the given coordinates."""
        return (coords @ self._flat).reshape(self.dim, self.dim)

    def act(self, v: Mat, coords: Mat) -> Mat:
        return v @ self.rho(coords)

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
        for i in range(self.source.algebra.dim):
            if self.source.action_mat(i) @ self.mat != self.mat @ self.target.action_mat(i):
                return False
        return True

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


def identity_hom(M: Repn) -> ModHom:
    return ModHom(M, M, Mat.identity(M.field, M.dim))


def regular_module(A: Algebra) -> Repn:
    """A as a right module over itself: action of b_i = right multiplication,
    whose row k holds b_k * b_i: row i of ``A.right_table()``."""
    return Repn(A, A.dim, A.right_table())


def _action_on_rows(M: Repn, rows: Mat) -> Mat:
    """Induced flat action on an action-stable row subspace."""
    A = M.algebra
    k = rows.rows
    moved = rows @ M.wide_action()
    moved = moved.with_array(
        moved.a.reshape(k, A.dim, M.dim).transpose(1, 0, 2).reshape(A.dim * k, M.dim)
    )
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
    d, k = M.algebra.dim, len(nonpiv)
    rows_np = M._flat.with_array(M.action[:, nonpiv, :].reshape(d * k, M.dim))
    Q = Repn(M.algebra, k, (rows_np @ proj).reshape(d, k * k))
    return Q, ModHom(M, Q, proj)


def direct_sum(parts: list):
    """Block-diagonal sum.  Returns (sum, injections, projections)."""
    if not parts:
        raise ValueError("direct_sum of no parts needs an algebra; use zero_module")
    A = parts[0].algebra
    f = A.field
    total = sum(p.dim for p in parts)
    offs = np.cumsum([0] + [p.dim for p in parts]).tolist()
    den, arrays = _common_den([p._flat for p in parts])
    act = _empty(f, A.dim * total, total).reshape(A.dim, total, total)
    for p, x, o in zip(parts, arrays, offs):
        act[:, o : o + p.dim, o : o + p.dim] = x.reshape(A.dim, p.dim, p.dim)
    S = Repn(A, total, Mat(f, act.reshape(A.dim, total * total), den, _copy=False))
    if all(p.projective_parts is not None for p in parts):
        S.projective_parts = tuple(i for p in parts for i in p.projective_parts)
    ident = Mat.identity(f, total)
    injections = [ModHom(p, S, ident.take_rows(range(o, o + p.dim))) for p, o in zip(parts, offs)]
    projections = [ModHom(S, h.source, h.mat.T) for h in injections]
    return S, injections, projections


# -- Hom spaces -----------------------------------------------------------


def hom_space(M: Repn, N: Repn) -> list:
    """Basis of Hom(M, N) as a list of ModHom.

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
        return []
    if M.projective_parts is not None:
        flat = _yoneda_homs(M, N)
    else:
        flat = _presentation_homs(M, N)
    mats = [flat.row_at(t).reshape(M.dim, N.dim) for t in range(flat.rows)]
    _check_intertwines(M, N, mats)
    return [ModHom(M, N, x) for x in mats]


def _reduced_homs(flat: Mat) -> Mat:
    """The canonical basis of the span of flattened homs, one per row.

    Reduced in reversed column order, with the rows then reversed, any
    spanning set gives the unique basis that is the identity on the free
    columns of the intertwining system: the basis ``nullspace`` returns.
    """
    r, _, rk = rref(flat.with_array(flat.a[:, ::-1]))
    return r.with_array(r.a[:rk, ::-1][::-1])


def _yoneda_homs(M: Repn, N: Repn) -> Mat:
    """Hom(P, N) for P = M, a direct sum of projectives P_i = e_i A.

    Hom(e_i A, N) = N e_i: the map with f(e_i) = v sends the basis vector p_t
    of P_i to v rho_N(p_t).  The rows of rho_N(e_i) span N e_i, and
    u rho_N(e_i) rho_N(p_t) = u rho_N(p_t) because e_i p_t = p_t, so the
    rows of [rho_N(p_0) | rho_N(p_1) | ...] span Hom(P_i, N), flattened.
    One product against the action builds them, and ``_reduced_homs`` turns
    them into the canonical basis.  Summands of P occupy disjoint columns,
    so each block is reduced on its own, and once per distinct summand.
    Returns the basis flattened, one hom per row.
    """
    ctx = context(M.algebra)
    n = N.dim
    blocks, placed, row, off = {}, [], 0, 0
    for i in M.projective_parts:
        k = ctx.projectives[i].dim
        if i not in blocks:
            rho = ctx.projective_rows[i] @ N.flat_action()  # row t: rho_N(p_t)
            wide = rho.with_array(rho.a.reshape(k, n, n).transpose(1, 0, 2).reshape(n, k * n))
            blocks[i] = _reduced_homs(wide)
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
    s (sum_j c_j F_j) span Hom(M, N); ``_reduced_homs`` turns them into the
    canonical basis.  Returns it flattened, one hom per row.
    """
    pres = projective_presentation(M)
    m, n = M.dim, N.dim
    homs = _yoneda_homs(pres.cover.source, N)
    h, p, k = homs.rows, pres.cover.source.dim, pres.syzygy.rows
    if h == 0:  # no map out of P_0, so none out of M
        return Mat.zeros(M.field, 0, m * n)
    wide = homs.with_array(homs.a.reshape(h, p, n).transpose(1, 0, 2).reshape(p, h * n))
    both = pres.syzygy.vstack(pres.section) @ wide
    parts = both.a.reshape(k + m, h, n).transpose(1, 0, 2)
    restricted = both.with_array(parts[:, :k].reshape(h, k * n))
    maps = both.with_array(parts[:, k:].reshape(h, m * n))
    return _reduced_homs(left_nullspace(restricted) @ maps)


def _check_intertwines(M: Repn, N: Repn, mats: list):
    """rho_M(b) F = F rho_N(b) for every F in ``mats`` and every basis b.

    Two products cover every pair: the actions of M stacked against the
    F side by side, and the F stacked against the actions of N side by side.
    Both are integer products; their entries are compared over one scale.
    """
    if not mats:
        return
    f, d = M.field, M.algebra.dim
    m, n, k = M.dim, N.dim, len(mats)
    left = M.flat_action().reshape(d * m, m) @ Mat.stack_cols(f, mats)
    right = Mat.stack_rows(f, mats) @ N.wide_action()
    lhs = left.a.reshape(d, m, k, n).transpose(2, 0, 1, 3)
    rhs = right.a.reshape(k, m, d, n).transpose(0, 2, 1, 3)
    if left.den != right.den:  # equal canonical matrices share their denominator
        lhs, rhs = lhs * right.den, rhs * left.den
    bad = (lhs != rhs).reshape(k, -1).any(axis=1)
    if bad.any():
        raise AssertionError(
            f"hom basis vector {int(np.argmax(bad))} of {k} fails the intertwining check"
        )


def hom_flat_basis(homs: list, m: int, n: int, field: FieldSpec) -> Mat:
    """Hom basis flattened to rows (k x m*n), for coordinate computations."""
    if not homs:
        return Mat.zeros(field, 0, m * n)
    return Mat.stack_rows(field, [h.mat.flatten_row() for h in homs])


def hom_factorization(fh: ModHom):
    """Kernel, image, cokernel of a morphism.

    Returns ((K, incl), (I, incl), (C, proj)); rank-nullity and the
    exactness of 0 -> K -> source -> I -> 0 hold by construction and are
    asserted in tests.
    """
    ker_rows = left_nullspace(fh.mat)
    K, k_incl = sub_repn(fh.source, ker_rows)
    im_rows = row_basis(fh.mat)
    I, i_incl = sub_repn(fh.target, im_rows)
    C, c_proj = quotient_repn(fh.target, im_rows)
    return (K, k_incl), (I, i_incl), (C, c_proj)


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
        # filled in by catres.homology
        self.simple_resolutions = None

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
                if all(s.rho(self.idempotents[r].coords).is_zero() for r in kept):
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
        span = row_basis(A.left_mult_matrix(e.coords))
        P, _ = sub_repn(ctx_reg, span)
        P.projective_parts = (idx,)
        S, _ = quotient_repn(P, _radical_rows(P, chain.radical))
        projs.append(P)
        simples.append(S)
        spans.append(span)
    return simples, projs, spans


@dataclass(frozen=True)
class Presentation:
    """The projective presentation 0 -> Omega -> P_0 -> M -> 0 of M."""

    cover: ModHom  # the minimal projective cover q: P_0 -> M
    parts: list  # indices into context(A).projectives of P_0's summands
    syzygy: Mat  # rows of Omega = ker q inside P_0
    section: Mat  # s with s q = I on M


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
    chosen = []
    part_indices = []
    # greedy: keep a hom iff its composite to the top is independent of the
    # composites already chosen from the same projective.  Only the lowest
    # projective of each isomorphism class covers: isomorphic copies (such
    # as the conjugate e_i of one matrix block of A/J) have composites in
    # different bases, so they would double-cover.  Repeated homs out of
    # one representative give its multiplicity.
    for pi_idx in ctx.representatives:
        span = None
        for h in hom_space(ctx.projectives[pi_idx], M):
            comp = (h.mat @ piT.mat).flatten_row()
            if comp.is_zero():
                continue
            if span is not None and row_span_contains(span, comp):
                continue
            span = comp if span is None else row_basis(span.vstack(comp))
            chosen.append(h)
            part_indices.append(pi_idx)
    if not chosen:
        raise AlgebraError("projective cover: no covering maps found (nonzero M with zero top?)")
    parts = [h.source for h in chosen]
    P, injections, _ = direct_sum(parts)
    q = ModHom(P, M, Mat.stack_rows(f, [h.mat for h in chosen]))
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
        Fraction(rank(top.rho(e.coords)) * P.dim, S.dim)
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
        coeffs = [f.random_scalar(rng, 3) for _ in range(k)]
        cand = _combine(homs, coeffs)
        if _is_invertible(cand.mat):
            return cand
    # deterministic exhaustive fallback
    if f.kind == "prime":
        if f.p**k <= EXHAUSTIVE_BUDGET:
            for coeffs in itertools.product(range(f.p), repeat=k):
                cand = _combine(homs, coeffs)
                if _is_invertible(cand.mat):
                    return cand
            return None
    else:
        # det of a combination has degree <= dim in each coefficient, so
        # vanishing on the grid {0..dim}^k certifies no isomorphism exists
        grid = M.dim + 1
        if grid**k <= EXHAUSTIVE_BUDGET:
            for coeffs in itertools.product(range(grid), repeat=k):
                cand = _combine(homs, coeffs)
                if _is_invertible(cand.mat):
                    return cand
            return None
    raise IsoInconclusive(f"hom dimension {k} exceeds the exhaustive budget")


def _combine(homs: list, coeffs) -> ModHom:
    acc = Mat.zeros(homs[0].field, homs[0].mat.rows, homs[0].mat.cols)
    for h, c in zip(homs, coeffs):
        if c:
            acc = acc + h.mat.scale(c)
    return ModHom(homs[0].source, homs[0].target, acc)


# -- approximations and endomorphism algebras --------------------------------


def right_approximation(N: Repn, M: Repn) -> ModHom:
    """The right add(M)-approximation M^r -> N given by a Hom-basis."""
    homs = hom_space(M, N)
    r = len(homs)
    if r == 0:
        return zero_hom(zero_module(M.algebra), N)
    P, _, _ = direct_sum([M] * r)
    return ModHom(P, N, Mat.stack_rows(M.field, [h.mat for h in homs]))


def factors_through(f: ModHom, approx: ModHom) -> bool:
    """Does f: M -> N factor as g then approx for some module map g?"""
    homs = hom_space(f.source, approx.source)
    if not homs:
        return f.is_zero()
    stacked = Mat.stack_rows(
        f.field, [(h.mat @ approx.mat).flatten_row() for h in homs]
    )
    return solve_left(stacked, f.mat.flatten_row()) is not None


def endomorphism_algebra(M: Repn):
    """End(M) with product (fg)(m) = f(g(m)).  Returns (Algebra, end_basis).

    ``end_basis[t]`` is the matrix of the t-th basis endomorphism; the
    algebra product phi_i phi_j corresponds to mat(phi_j) @ mat(phi_i).
    """
    if M.dim == 0:
        raise ValueError("endomorphism algebra of the zero module")
    f = M.field
    homs = hom_space(M, M)
    k = len(homs)
    mats = [h.mat for h in homs]
    basis = RowBasis(hom_flat_basis(homs, M.dim, M.dim, f))
    # row j*k + i holds mat(phi_j) @ mat(phi_i), the matrix of phi_i phi_j
    prods = basis.coords(flat_products(mats, mats))
    table = prods.with_array(prods.a.reshape(k, k, k).transpose(1, 0, 2).reshape(k, k * k))
    unit = basis.coords(Mat.identity(f, M.dim).flatten_row())
    labels = [f"phi{t}" for t in range(k)]
    E = Algebra(f, labels, unit, table, provenance="endomorphism")
    return E, mats

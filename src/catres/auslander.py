"""Construction of the endomorphism algebra of M = Lambda/J + ... + Lambda/J^n.

``build_auslander`` packages everything the functor machinery needs: the
filtration module M with the inclusion and projection of its
Lambda-summand, the algebra tilde = End(M) (with the composition
convention (fg)(m) = f(g(m)), which absorbs the usual opposite-algebra
twist), and the map zeta: Lambda -> tilde, b -> (project, left-multiply
by b, include).  The idempotent e = zeta(1) projects onto the
Lambda-summand, and ``check_corner_iso`` certifies that zeta is an
algebra isomorphism onto e*tilde*e.  tilde carries its radical and its
primitive idempotents from the construction (``local_piece_radical``):
the radical hint, which ``Algebra.radical_chain`` certifies, and the
projections onto the local pieces of M as its idempotent hint, which
``algebra.checked_idempotents`` checks, so that T/J is never split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import Algebra, AlgebraError, RadicalChain, quotient_projection
from .homology import GldimResult, global_dimension
from .linalg import Mat, left_nullspace, rank, row_basis
from .modules import (
    HomSpace,
    Repn,
    context,
    direct_sum,
    endomorphism_algebra,
    hom_space,
    quotient_repn,
    regular_module,
)


@dataclass
class AuslanderData:
    lam: Algebra
    summands: list  # Lambda/J^1, ..., Lambda/J^n as Repn over lam
    M: Repn
    iota: Mat  # inclusion of the Lambda-summand (dim lam x dim M)
    pi: Mat  # projection onto the Lambda-summand (dim M x dim lam)
    tilde: Algebra
    end: HomSpace  # End(M), whose basis is the basis of tilde
    e: Mat  # 1 x dim tilde: zeta(1), the Lambda-summand projector
    lambda_to_tilde: Mat  # zeta: lam -> tilde, b -> (project, left-multiply, include)
    # (name, module content), or a name for a value of the data alone, -> the
    # value of ``functors`` kept for it
    functor_values: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # (dim e*tilde*e, defect) of the last ``check_corner_iso`` on the data
    corner_iso: tuple | None = field(default=None, init=False, repr=False, compare=False)


def build_auslander(lam: Algebra) -> AuslanderData:
    if lam.dim == 0:
        raise AlgebraError("Auslander construction needs a nonzero algebra")
    chain = lam.radical_chain()
    reg = regular_module(lam)
    n = chain.nilpotency_index
    summands = [quotient_repn(reg, chain.power(i))[0] for i in range(1, n + 1)]
    M = direct_sum(summands)
    tilde, end = endomorphism_algebra(M)
    tilde.radical_hint, tilde.idempotent_hint = local_piece_radical(lam, chain, M, end)

    # the Lambda-summand Lambda/J^n is the last block of M, so pi L(b_t) iota
    # is L(b_t), row t of Lambda's table, placed in that block
    f, rest = lam.field, M.dim - lam.dim
    iota = Mat.identity(f, M.dim).take_rows(range(rest, M.dim))
    pi = iota.T
    blocks = [Mat.zeros(f, lam.dim, rest * rest), lam.table_matrix()]
    lambda_to_tilde = end.basis.coords(Mat.block_diag_rows(f, blocks, [rest, lam.dim]))

    data = AuslanderData(
        lam=lam,
        summands=summands,
        M=M,
        iota=iota,
        pi=pi,
        tilde=tilde,
        end=end,
        e=lam.unit @ lambda_to_tilde,
        lambda_to_tilde=lambda_to_tilde,
    )
    ok, detail = check_corner_iso(data)
    if not ok:
        raise AlgebraError(f"corner isomorphism check failed: {detail}")
    return data


def local_piece_radical(lam: Algebra, chain: RadicalChain, M: Repn, end: HomSpace):
    """rad End(M) for M = Lambda/J + ... + Lambda/J^n, and the projections
    onto the local pieces of M, both from the construction, as coordinates
    against the basis of ``end``: (a spanning set of the radical, one row
    per piece projection).

    Left multiplication by a primitive idempotent e_v of Lambda on the
    summand Lambda/J^i is an idempotent eps of End(M) whose image is the
    local module X = e_v Lambda / e_v J^i; these pieces decompose M, so
    their eps are a complete set of orthogonal primitive idempotents of
    End(M).  They are listed from Lambda/J^n down to Lambda/J, and within
    one summand in the order of the idempotents of Lambda.  By
    Krull-Schmidt, f lies in rad End(M) iff no component f_kl: X_l -> X_k
    is an isomorphism (Auslander, Reiten and Smalo, Representation Theory
    of Artin Algebras, ch. I-II).  A map between local modules of equal
    dimension whose image leaves X_k J is onto, so an isomorphism, and
    pieces of unequal dimension impose nothing.  With B_d the rows of the
    pieces of dimension d and G_d the sum of their eps followed by the
    projection M -> M/MJ, f is radical iff B_d mat(f) G_d = 0 for every d:
    two products over all of ``end`` per dimension give its conditions,
    side by side.  ``Algebra.radical_chain`` certifies the radical and
    ``algebra.checked_idempotents`` the idempotents.
    """
    f, dl, m, k = lam.field, lam.dim, M.dim, len(end)
    ctx = context(lam)
    e_rows = Mat.stack_rows(f, ctx.idempotents)
    nv = e_rows.rows
    # row v * dl + c is e_v b_c: every left multiplication, stacked
    lefts = (e_rows @ lam.table_matrix()).reshape(nv * dl, dl)
    by_dim = {}  # d -> the sum of the eps of the pieces of dimension d
    levels = []  # per summand Lambda/J^i: each piece's eps placed in M
    off = 0
    for i in range(1, chain.nilpotency_index + 1):
        proj, nonpiv = quotient_projection(chain.power(i))
        s = len(nonpiv)
        # on Lambda/J^i: the section picks the non-pivot rows, then project
        eps_all = lefts.take_rows([v * dl + c for v in range(nv) for c in nonpiv]) @ proj
        level = []
        for v in range(nv):
            block = eps_all.take_rows(range(v * s, (v + 1) * s))
            d = rank(block)
            eps = Mat.from_blocks(f, m, m, [(off, off, block)])
            by_dim[d] = by_dim[d] + eps if d in by_dim else eps
            level.append(eps.flatten_row())
        levels.append(level)
        off += s
    idempotents = end.basis.coords(Mat.stack_rows(f, [e for lv in reversed(levels) for e in lv]))
    top = ctx.top_projection(M)
    conditions = []
    for d in sorted(by_dim):
        # the eps are orthogonal, so their sum has the rows of all the pieces
        b = row_basis(by_dim[d])
        # row a * k + j is row a of B_d mat(phi_j) G_d; condition j gathers them
        z = (b @ end.wide()).reshape(b.rows * k, m) @ (by_dim[d] @ top)
        conditions.append(z.permuted((b.rows, k, top.cols), (1, 0, 2), k, b.rows * top.cols))
    return left_nullspace(Mat.stack_cols(f, conditions)), idempotents


def corner_dim(data: AuslanderData) -> int:
    """dim e*tilde*e: row k of L(e) R(e) is e b_k e."""
    t = data.tilde
    return rank(t.left_mult_matrix(data.e) @ t.right_mult_matrix(data.e))


def check_corner_iso(data: AuslanderData):
    """zeta: Lambda -> tilde is an algebra isomorphism onto e*tilde*e.

    Multiplicativity makes e = zeta(1) idempotent and gives zeta(b) =
    zeta(1 b 1) = e zeta(b) e, so zeta lands in the corner; injective and
    of the corner's dimension, it is onto it.  Returns (ok, detail), and
    keeps (dim, detail) on the data for ``verify_auslander``.
    """
    dim = corner_dim(data)
    detail = _corner_iso_defect(data, dim)
    data.corner_iso = dim, detail
    return not detail, detail


def _corner_iso_defect(data: AuslanderData, dim_corner: int) -> str:
    """Why zeta is not an isomorphism onto a corner of dimension
    ``dim_corner``, or "" if it is."""
    lam, zeta = data.lam, data.lambda_to_tilde
    d = lam.dim
    lhs = data.tilde.products(zeta, zeta)  # row i * d + j: zeta(b_i) zeta(b_j)
    rhs = lam.table_matrix().reshape(d * d, d) @ zeta  # zeta(b_i b_j)
    row = lhs.first_differing_row(rhs)
    if row is not None:
        i, j = divmod(row, d)
        return f"multiplicativity fails at basis pair ({i}, {j})"
    if rank(zeta) != d:
        return "zeta is not injective"
    if dim_corner != d:
        return "corner dimension differs from dim Lambda"
    return ""


def hom_dim_sum(data: AuslanderData) -> int:
    """Sum of the dimensions of Hom(Lambda/J^i, Lambda/J^j) over the
    filtration summands.  It is no second route for dim tilde: End(M) is
    assembled from exactly these kept blocks (``modules._summed_homs``),
    so the report's ``dim_sum_consistent`` cannot fail.  An independent
    dense solve of each block lives in ``tests/oracles.py``."""
    total = 0
    for a in data.summands:
        for b in data.summands:
            total += len(hom_space(a, b))
    return total


def verify_auslander(data: AuslanderData) -> dict:
    """Desk-scale verification of the two headline properties.

    Returns a report: finiteness of gldim(tilde) (with the internal-
    inconsistency flag if the depth n + 2 is exceeded, n the nilpotency
    index of Lambda), the certificate that zeta: Lambda -> tilde is an
    algebra isomorphism onto e*tilde*e (``check_corner_iso``, as
    ``build_auslander`` ran it), and the dimension double-count.
    """
    n = data.lam.radical_chain().nilpotency_index
    g: GldimResult = global_dimension(data.tilde, n + 2)
    if data.corner_iso is None:  # data that did not come from build_auslander
        check_corner_iso(data)
    dim_corner, corner_detail = data.corner_iso
    corner_ok = not corner_detail
    dim_two_ways = hom_dim_sum(data)
    report = {
        "dim_lambda": data.lam.dim,
        "nilpotency_index": n,
        "dim_m": data.M.dim,
        "dim_tilde": data.tilde.dim,
        "dim_tilde_by_hom_sum": dim_two_ways,
        "dim_sum_consistent": dim_two_ways == data.tilde.dim,
        "gldim_tilde": g.to_json(),
        "gldim_tilde_finite": g.kind == "finite",
        "internal_inconsistency": g.kind != "finite",
        "corner_iso_ok": corner_ok,
        "corner_iso_detail": corner_detail,
        "corner_dim": dim_corner,
        "e_coords": data.e.to_json()[0],
    }
    report["ok"] = bool(
        report["dim_sum_consistent"] and report["gldim_tilde_finite"] and corner_ok
    )
    return report

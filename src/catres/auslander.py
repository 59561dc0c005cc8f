"""Construction of the endomorphism algebra of M = Lambda/J + ... + Lambda/J^n.

``build_auslander`` packages everything the functor machinery needs: the
filtration module M with the inclusion and projection of its
Lambda-summand, the algebra tilde = End(M) (with the composition
convention (fg)(m) = f(g(m)), which absorbs the usual opposite-algebra
twist), and the map zeta: Lambda -> tilde, b -> (project, left-multiply
by b, include).  The idempotent e = zeta(1) projects onto the
Lambda-summand, and ``check_corner_iso`` certifies that zeta is an
algebra isomorphism onto e*tilde*e.  tilde carries its radical from the
construction (``local_piece_radical``) as its radical hint, which
``Algebra.radical_chain`` certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def build_auslander(lam: Algebra) -> AuslanderData:
    if lam.dim == 0:
        raise AlgebraError("Auslander construction needs a nonzero algebra")
    chain = lam.radical_chain()
    reg = regular_module(lam)
    n = chain.nilpotency_index
    summands = [quotient_repn(reg, chain.power(i))[0] for i in range(1, n + 1)]
    M = direct_sum(summands)
    tilde, end = endomorphism_algebra(M)
    tilde.radical_hint = local_piece_radical(lam, chain, M, end)

    # the Lambda-summand Lambda/J^n is the last block of M
    iota = Mat.identity(lam.field, M.dim).take_rows(range(M.dim - lam.dim, M.dim))
    pi = iota.T
    zetas = [
        (pi @ lam.left_mult_matrix(lam.basis_element(t)) @ iota).flatten_row()
        for t in range(lam.dim)
    ]
    lambda_to_tilde = end.basis.coords(Mat.stack_rows(lam.field, zetas))

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


def local_piece_radical(lam: Algebra, chain: RadicalChain, M: Repn, end: HomSpace) -> Mat:
    """rad End(M) for M = Lambda/J + ... + Lambda/J^n, from the local pieces
    of M, as coordinates against the basis of ``end``, one row per element
    of a spanning set.

    Left multiplication by a primitive idempotent e_v of Lambda on the
    summand Lambda/J^i is an idempotent eps of End(M) whose image is the
    local module X = e_v Lambda / e_v J^i; these pieces decompose M.  By
    Krull-Schmidt, f lies in rad End(M) iff no component f_kl: X_l -> X_k
    is an isomorphism (Auslander, Reiten and Smalo, Representation Theory
    of Artin Algebras, ch. I-II).  A map between local modules of equal
    dimension whose image leaves X_k J is onto, so an isomorphism, and
    pieces of unequal dimension impose nothing.  With B_d the rows of the
    pieces of dimension d and G_d the sum of their eps followed by the
    projection M -> M/MJ, f is radical iff B_d mat(f) G_d = 0 for every d:
    two products over all of ``end`` give every condition.
    ``Algebra.radical_chain`` certifies the result.
    """
    f, dl, m, k = lam.field, lam.dim, M.dim, len(end)
    ctx = context(lam)
    e_rows = Mat.stack_rows(f, ctx.idempotents)
    nv = e_rows.rows
    # row v * dl + c is e_v b_c: every left multiplication, stacked
    lefts = (e_rows @ lam.table_matrix()).reshape(nv * dl, dl)
    rows_by_dim, eps_by_dim = {}, {}  # d -> placed piece rows; d -> {offset: sum of eps}
    off = 0
    for i in range(1, chain.nilpotency_index + 1):
        proj, nonpiv = quotient_projection(chain.power(i))
        s = len(nonpiv)
        # on Lambda/J^i: the section picks the non-pivot rows, then project
        eps_all = lefts.take_rows([v * dl + c for v in range(nv) for c in nonpiv]) @ proj
        for v in range(nv):
            eps = eps_all.take_rows(range(v * s, (v + 1) * s))
            rows = row_basis(eps)
            rows_by_dim.setdefault(rows.rows, []).append((off, rows))
            sums = eps_by_dim.setdefault(rows.rows, {})
            sums[off] = sums[off] + eps if off in sums else eps
        off += s
    top, _ = quotient_projection(ctx.radical_rows(M))
    dims = sorted(rows_by_dim)
    placed, spans, r = [], [], 0
    for d in dims:
        start = r
        for o, rows in rows_by_dim[d]:
            placed.append((r, o, rows))
            r += rows.rows
        spans.append((start, r))
    b = Mat.from_blocks(f, r, m, placed)
    g = Mat.stack_cols(f, [
        Mat.from_blocks(f, m, m, [(o, o, e) for o, e in eps_by_dim[d].items()]) @ top
        for d in dims
    ])
    t = top.cols
    # y[a, j] = row a of B mat(phi_j); then z[a, j, d] = that row times G_d
    y = b @ end.wide()
    z = y.reshape(r * k, m) @ g
    # regrouped as z[j, d, a]: condition d keeps the rows a of its span
    z = z.permuted((r, k, len(dims), t), (1, 2, 0, 3), k, len(dims) * r * t)
    cols = [
        c for j, (lo, hi) in enumerate(spans) for c in range((j * r + lo) * t, (j * r + hi) * t)
    ]
    return left_nullspace(z.take_cols(cols))


def corner_dim(data: AuslanderData) -> int:
    """dim e*tilde*e: row k of L(e) R(e) is e b_k e."""
    t = data.tilde
    return rank(t.left_mult_matrix(data.e) @ t.right_mult_matrix(data.e))


def check_corner_iso(data: AuslanderData):
    """zeta: Lambda -> tilde is an algebra isomorphism onto e*tilde*e.

    Multiplicativity makes e = zeta(1) idempotent and gives zeta(b) =
    zeta(1 b 1) = e zeta(b) e, so zeta lands in the corner; injective and
    of the corner's dimension, it is onto it.
    """
    lam, zeta = data.lam, data.lambda_to_tilde
    d = lam.dim
    lhs = data.tilde.products(zeta, zeta)  # row i * d + j: zeta(b_i) zeta(b_j)
    rhs = lam.table_matrix().reshape(d * d, d) @ zeta  # zeta(b_i b_j)
    row = lhs.first_differing_row(rhs)
    if row is not None:
        i, j = divmod(row, d)
        return False, f"multiplicativity fails at basis pair ({i}, {j})"
    if rank(zeta) != d:
        return False, "zeta is not injective"
    if corner_dim(data) != d:
        return False, "corner dimension differs from dim Lambda"
    return True, ""


def hom_dim_sum(data: AuslanderData) -> int:
    """Sum of pairwise Hom dimensions between the filtration summands,
    computed by independent pairwise solves (second route for dim tilde)."""
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
    algebra isomorphism onto e*tilde*e (``check_corner_iso``), and the
    dimension double-count.
    """
    n = data.lam.radical_chain().nilpotency_index
    g: GldimResult = global_dimension(data.tilde, n + 2)
    corner_ok, corner_detail = check_corner_iso(data)
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
        "corner_dim": corner_dim(data),
        "e_coords": data.e.to_json()[0],
    }
    report["ok"] = bool(
        report["dim_sum_consistent"] and report["gldim_tilde_finite"] and corner_ok
    )
    return report

"""Construction of the endomorphism algebra of M = Lambda/J + ... + Lambda/J^n.

``build_auslander`` packages everything the functor machinery needs: the
filtration module M with its summand injections/projections, the algebra
tilde = End(M) (with the composition convention (fg)(m) = f(g(m)), which
absorbs the usual opposite-algebra twist), the idempotent e projecting
onto the Lambda-summand, and the explicit corner isomorphism
e*tilde*e -> Lambda given by restriction to that summand.  tilde carries
its radical from the construction (``local_piece_radical``) as its
radical hint, which ``Algebra.radical_chain`` certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Algebra,
    AlgebraError,
    Idempotent,
    RadicalChain,
    corner_algebra,
    quotient_projection,
)
from .homology import GldimResult, global_dimension
from .linalg import Mat, coords_in_rows, left_nullspace, rank, row_basis
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
    chain: RadicalChain
    summands: list  # Lambda/J^1, ..., Lambda/J^n as Repn over lam
    M: Repn
    injections: list  # summand -> M
    projections: list  # M -> summand
    tilde: Algebra
    end: HomSpace  # End(M), whose basis is the basis of tilde
    e: Idempotent  # coords of the Lambda-summand projector in tilde
    corner: Algebra  # e tilde e
    corner_embed: Mat  # corner basis inside tilde
    corner_to_lambda: Mat  # algebra iso on coordinates, corner -> lam
    lambda_to_tilde: Mat  # lam -> tilde, b -> (project, left-multiply, include)

    @property
    def iota(self) -> Mat:
        """Inclusion matrix of the Lambda-summand (dim lam x dim M)."""
        return self.injections[-1].mat

    @property
    def pi(self) -> Mat:
        """Projection matrix onto the Lambda-summand (dim M x dim lam)."""
        return self.projections[-1].mat

    def tilde_of_lambda(self, lam_coords: Mat) -> Mat:
        """Inverse transport: coordinates in tilde of the corner lift of an
        element of Lambda."""
        return lam_coords @ self.lambda_to_tilde


def build_auslander(lam: Algebra) -> AuslanderData:
    if lam.dim == 0:
        raise AlgebraError("Auslander construction needs a nonzero algebra")
    chain = lam.radical_chain()
    n = chain.nilpotency_index
    reg = regular_module(lam)
    summands = []
    for i in range(1, n + 1):
        q, _ = quotient_repn(reg, chain.power(i))
        summands.append(q)
    M, injections, projections = direct_sum(summands)
    tilde, end = endomorphism_algebra(M)
    tilde.radical_hint = local_piece_radical(lam, chain, M, end)

    e_mat = projections[-1].mat @ injections[-1].mat  # project then include
    e = Idempotent(end.basis.coords(e_mat.flatten_row()))

    corner, corner_embed, degenerate = corner_algebra(tilde, e)
    if degenerate:
        raise AlgebraError("corner at the Lambda-summand collapsed")

    iota = injections[-1].mat
    pi = projections[-1].mat
    # row i: the unit of Lambda through iota, the i-th corner element and pi
    corner_maps = HomSpace(M, M, corner_embed @ end.flat)
    corner_to_lambda = corner_maps.after(lam.unit @ iota) @ pi
    if rank(corner_to_lambda) != lam.dim or corner.dim != lam.dim:
        raise AlgebraError("corner is not linearly isomorphic to Lambda")

    # b -> iota after left-multiplication after projection, as tilde coords
    zetas = [
        (pi @ lam.left_mult_matrix(lam.basis_element(t)) @ iota).flatten_row()
        for t in range(lam.dim)
    ]
    lambda_to_tilde = end.basis.coords(Mat.stack_rows(lam.field, zetas))

    data = AuslanderData(
        lam=lam,
        chain=chain,
        summands=summands,
        M=M,
        injections=injections,
        projections=projections,
        tilde=tilde,
        end=end,
        e=e,
        corner=corner,
        corner_embed=corner_embed,
        corner_to_lambda=corner_to_lambda,
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
    e_rows = Mat.stack_rows(f, [e.coords for e in ctx.idempotents])
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
    z4 = z.a.reshape(r, k, len(dims), t)
    conds = [
        z4[lo:hi, :, j, :].transpose(1, 0, 2).reshape(k, (hi - lo) * t)
        for j, (lo, hi) in enumerate(spans)
    ]
    return left_nullspace(z.with_array(np.concatenate(conds, axis=1)))


def check_corner_iso(data: AuslanderData):
    """The corner map transports unit to unit and products to products."""
    lam, corner = data.lam, data.corner
    unit_image = coords_in_rows(data.corner_embed, data.e.coords) @ data.corner_to_lambda
    if unit_image != lam.unit:
        return False, "unit is not preserved"
    ident = Mat.identity(corner.field, corner.dim)
    lhs = corner.products(ident, ident) @ data.corner_to_lambda
    rhs = lam.products(data.corner_to_lambda, data.corner_to_lambda)
    if lhs != rhs:
        row = next(r for r in range(lhs.rows) if lhs.row_at(r) != rhs.row_at(r))
        i, j = divmod(row, corner.dim)
        return False, f"multiplicativity fails at basis pair ({i}, {j})"
    # the two transports invert each other on the corner
    for i in range(corner.dim):
        lam_img = data.corner_to_lambda.row_at(i)
        back = data.tilde_of_lambda(lam_img)
        if back != data.corner_embed.row_at(i):
            return False, f"transports do not invert at basis {i}"
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
    index of Lambda), the corner isomorphism e*tilde*e = Lambda, and the
    dimension double-count.
    """
    g: GldimResult = global_dimension(data.tilde, data.chain.nilpotency_index + 2)
    corner_ok, corner_detail = check_corner_iso(data)
    dim_two_ways = hom_dim_sum(data)
    report = {
        "dim_lambda": data.lam.dim,
        "nilpotency_index": data.chain.nilpotency_index,
        "dim_m": data.M.dim,
        "dim_tilde": data.tilde.dim,
        "dim_tilde_by_hom_sum": dim_two_ways,
        "dim_sum_consistent": dim_two_ways == data.tilde.dim,
        "gldim_tilde": g.to_json(),
        "gldim_tilde_finite": g.kind == "finite",
        "internal_inconsistency": g.kind != "finite",
        "corner_iso_ok": corner_ok,
        "corner_iso_detail": corner_detail,
        "corner_dim": data.corner.dim,
        "e_coords": data.e.coords.to_json()[0],
    }
    report["ok"] = bool(
        report["dim_sum_consistent"] and report["gldim_tilde_finite"] and corner_ok
    )
    return report

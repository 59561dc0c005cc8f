"""Construction of the endomorphism algebra of M = Lambda/J + ... + Lambda/J^n.

``build_auslander`` packages everything the functor machinery needs: the
filtration module M with its summand injections/projections, the algebra
tilde = End(M) (with the composition convention (fg)(m) = f(g(m)), which
absorbs the usual opposite-algebra twist), the idempotent e projecting
onto the Lambda-summand, and the explicit corner isomorphism
e*tilde*e -> Lambda given by restriction to that summand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, AlgebraError, Idempotent, RadicalChain, corner_algebra
from .homology import GldimResult, global_dimension
from .linalg import Mat, RowBasis, coords_in_rows, rank
from .modules import (
    Repn,
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
    end_mats: list  # matrices of the End(M) basis
    end_basis: RowBasis  # the flattened End basis, factored for coordinates
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

    def end_matrix(self, coords: Mat) -> Mat:
        """The endomorphism of M with the given tilde-coordinates."""
        return self.end_basis.combine(coords).reshape(self.M.dim, self.M.dim)

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
    tilde, end_mats = endomorphism_algebra(M)
    end_basis = RowBasis(Mat.stack_rows(lam.field, [m.flatten_row() for m in end_mats]))

    e_mat = projections[-1].mat @ injections[-1].mat  # project then include
    e = Idempotent(end_basis.coords(e_mat.flatten_row()))

    corner, corner_embed, degenerate = corner_algebra(tilde, e)
    if degenerate:
        raise AlgebraError("corner at the Lambda-summand collapsed")

    iota = injections[-1].mat
    pi = projections[-1].mat
    rows = []
    for i in range(corner.dim):
        restr = iota @ end_basis.combine(corner_embed.row_at(i)).reshape(M.dim, M.dim) @ pi
        rows.append(lam.unit @ restr)
    corner_to_lambda = Mat.stack_rows(lam.field, rows)
    if rank(corner_to_lambda) != lam.dim or corner.dim != lam.dim:
        raise AlgebraError("corner is not linearly isomorphic to Lambda")

    # b -> iota after left-multiplication after projection, as tilde coords
    zetas = [
        (pi @ lam.left_mult_matrix(lam.basis_element(t)) @ iota).flatten_row()
        for t in range(lam.dim)
    ]
    lambda_to_tilde = end_basis.coords(Mat.stack_rows(lam.field, zetas))

    data = AuslanderData(
        lam=lam,
        chain=chain,
        summands=summands,
        M=M,
        injections=injections,
        projections=projections,
        tilde=tilde,
        end_mats=end_mats,
        end_basis=end_basis,
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


def verify_auslander(data: AuslanderData, max_depth=None) -> dict:
    """Desk-scale verification of the two headline properties.

    Returns a report: finiteness of gldim(tilde) (with the internal-
    inconsistency flag if the default depth is exceeded), the corner
    isomorphism e*tilde*e = Lambda, and the dimension double-count.
    """
    if max_depth is None:
        max_depth = data.chain.nilpotency_index + 2
    g: GldimResult = global_dimension(data.tilde, max_depth)
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

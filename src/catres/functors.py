"""Module-level restriction and lifting functors between mod-tilde and mod-Lambda.

Fix the Auslander data (M, tilde = End(M), e, corner iso).  Then:

* ``theta``      : F -> F.e with Lambda acting through the corner transport
                   (restriction to the corner; exact, presentation-free);
* ``theta_rho``  : N -> Hom(M, N) with the right tilde-action f.phi = f o phi
                   (right adjoint of theta);
* ``theta_lambda``: N -> coker(Hom(M,P1) -> Hom(M,P0)) over a projective
                   presentation P1 -> P0 -> N -> 0 (left adjoint; agrees with
                   theta_rho on projectives on the nose);
* the unit alpha: F -> theta_rho(theta(F)) with its four-term exact sequence
  0 -> F0 -> F -> theta_rho(theta F) -> F1 -> 0, both ends killed by e.

On morphisms theta and theta_rho act on a whole ``HomSpace`` at once:
``theta_maps`` restricts every map of a space to the corners with one
product and one coordinate solve, and ``theta_rho_maps`` postcomposes the
basis of Hom(M, N) with every map the same way.  ``theta_hom`` and
``theta_rho_hom`` are their one-map calls.

The independent oracle for the corner-restriction route, theta recomputed
from a projective presentation over tilde, lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .auslander import AuslanderData
from .homology import projective_resolution
from .linalg import Mat, RowBasis, coords_in_rows, left_nullspace, rank, row_basis, solve
from .modules import (
    HomSpace,
    ModHom,
    Repn,
    hom_space,
    quotient_repn,
    sub_repn,
)


# -- theta: corner restriction ------------------------------------------------


def corner_rows(F: Repn, data: AuslanderData) -> Mat:
    """Canonical basis (rref rows) of F.e inside F."""
    return row_basis(F.rho(data.e))


def theta(F: Repn, data: AuslanderData) -> Repn:
    """F.e as a right module over Lambda, acting through the corner."""
    lam = data.lam
    rows = corner_rows(F, data)
    k = rows.rows
    moved = Mat.stack_rows(
        F.field, [rows @ F.rho(data.lambda_to_tilde.row_at(t)) for t in range(lam.dim)]
    )
    return Repn(lam, k, RowBasis(rows).coords(moved).reshape(lam.dim, k * k))


def theta_hom(f: ModHom, data: AuslanderData, thetaF: Repn, thetaG: Repn) -> ModHom:
    """theta on one morphism, for ``thetaF`` and ``thetaG`` theta of its
    source and target: ``theta_maps`` of a one-map space."""
    return theta_maps(HomSpace(f.source, f.target, f.mat.flatten_row()), data, thetaF, thetaG)[0]


def theta_maps(space: HomSpace, data: AuslanderData, thetaF: Repn, thetaG: Repn) -> HomSpace:
    """theta of every map of ``space`` at once, as maps thetaF -> thetaG:
    the corner rows of the source followed by each map, in coordinates of
    the corner rows of the target."""
    rows_src = corner_rows(space.source, data)
    rows_tgt = corner_rows(space.target, data)
    k, a, b = len(space), rows_src.rows, rows_tgt.rows
    if a == 0 or b == 0:
        return HomSpace(thetaF, thetaG, Mat.zeros(data.lam.field, k, a * b))
    moved = space.after(rows_src).reshape(k * a, space.target.dim)
    return HomSpace(thetaF, thetaG, coords_in_rows(rows_tgt, moved).reshape(k, a * b))


def in_mod0(F: Repn, data: AuslanderData) -> bool:
    """Membership in the kernel of theta: F.e = 0."""
    return F.rho(data.e).is_zero()


# -- theta_rho: Hom(M, -) ------------------------------------------------------


@dataclass
class ThetaRho:
    module: Repn  # over tilde
    space: HomSpace  # Hom(M, N); its basis is the basis of ``module``


def theta_rho_data(N: Repn, data: AuslanderData) -> ThetaRho:
    space = hom_space(data.M, N)
    k, d, m = len(space), data.tilde.dim, data.M.dim
    # row t * d + j is f_t . phi_j, which applies phi_j first
    moved = space.after(data.end.flat.reshape(d * m, m)).reshape(k * d, m * N.dim)
    c = space.basis.coords(moved)
    act = c.permuted((k, d, k), (1, 0, 2), d, k * k)
    return ThetaRho(module=Repn(data.tilde, k, act), space=space)


def theta_rho(N: Repn, data: AuslanderData) -> Repn:
    return theta_rho_data(N, data).module


def theta_rho_maps(space: HomSpace, src: ThetaRho, tgt: ThetaRho) -> HomSpace:
    """theta_rho of every map g_t of ``space`` at once, as maps src.module ->
    tgt.module: postcomposition Hom(M,N) -> Hom(M,N') for ``src`` and ``tgt``
    the theta_rho data of N and N'.  Row s of block t is f_s followed by g_t,
    in coordinates of the basis of Hom(M,N')."""
    k, h, hh = len(space), len(src.space), len(tgt.space)
    if not (k and h and hh):
        return HomSpace(src.module, tgt.module, Mat.zeros(space.flat.field, k, h * hh))
    m, n = src.space.source.dim, space.target.dim
    # entry (s * m + i, t * n + j) is entry (i, j) of f_s followed by g_t
    prod = src.space.flat.reshape(h * m, space.source.dim) @ space.wide()
    moved = prod.permuted((h, m, k, n), (2, 0, 1, 3), k * h, m * n)
    return HomSpace(src.module, tgt.module, tgt.space.basis.coords(moved).reshape(k, h * hh))


def theta_rho_hom(g: ModHom, src: ThetaRho, tgt: ThetaRho) -> ModHom:
    """theta_rho on one morphism: ``theta_rho_maps`` of a one-map space."""
    return theta_rho_maps(HomSpace(g.source, g.target, g.mat.flatten_row()), src, tgt)[0]


def counit(N: Repn, data: AuslanderData, trd: ThetaRho) -> ModHom:
    """The natural isomorphism theta(theta_rho(N)) -> N, by evaluation at
    the image of the unit in the Lambda-summand; ``trd`` is the theta_rho
    data of N."""
    F = trd.module
    rows = corner_rows(F, data)
    thetaF = theta(F, data)
    u = data.lam.unit @ data.iota  # the element iota(1) of M
    # row t: the image of iota(1) under the t-th hom; row r of ``rows``
    # combines the homs, so one product evaluates them all
    return ModHom(thetaF, N, rows @ trd.space.after(u))


# -- theta_lambda: presentation cokernel ----------------------------------------


@dataclass
class ThetaLambda:
    module: Repn  # over tilde
    quotient: ModHom  # theta_rho(P0) -> module
    cover: ModHom  # P0 -> N over Lambda
    p0_data: ThetaRho


def theta_lambda_data(N: Repn, data: AuslanderData) -> ThetaLambda:
    res = projective_resolution(N, max_depth=1)
    cover = res.augmentation
    trd0 = theta_rho_data(cover.source, data)
    d = res.differential(1)  # P1 -> P0
    if d is None:
        # N projective: theta_lambda(N) = theta_rho(N) on the nose
        trdN = theta_rho_data(N, data)
        quotient = theta_rho_hom(cover, trd0, trdN)
        return ThetaLambda(module=trdN.module, quotient=quotient, cover=cover, p0_data=trd0)
    trd1 = theta_rho_data(d.source, data)
    lifted = theta_rho_hom(d, trd1, trd0)
    img = row_basis(lifted.mat)
    Q, proj = quotient_repn(trd0.module, img)
    return ThetaLambda(module=Q, quotient=proj, cover=cover, p0_data=trd0)


def theta_lambda(N: Repn, data: AuslanderData) -> Repn:
    return theta_lambda_data(N, data).module


def unit_on_module(N: Repn, data: AuslanderData, tld: ThetaLambda) -> ModHom:
    """The unit N -> theta(theta_lambda(N)) of the left adjunction, for
    ``tld`` the theta_lambda data of N.

    Built by factoring theta(quotient) o counit^(-1): P0 -> theta(theta_lambda N)
    through the cover P0 -> N; existence and uniqueness are theorems, and the
    construction solves the factorization exactly.
    """
    c0 = counit(tld.cover.source, data, tld.p0_data)
    # theta applied to the quotient map theta_rho(P0) -> theta_lambda(N)
    q = tld.quotient
    tq = theta_hom(q, data, theta(q.source, data), theta(q.target, data))
    # c0 is invertible; route P0 -> theta(theta_rho P0) via its inverse
    inv = solve(c0.mat, Mat.identity(N.field, c0.mat.rows))
    assert inv is not None and c0.mat.rows == tld.cover.source.dim
    u0 = inv @ tq.mat  # P0 -> theta(theta_lambda N)
    sol = solve(tld.cover.mat, u0)
    assert sol is not None, "unit factorization failed"
    return ModHom(N, tq.target, sol)


# -- four-term sequence -----------------------------------------------------------


@dataclass
class FourTermSeq:
    F: Repn
    F0: Repn
    f0_incl: ModHom
    alpha: ModHom  # F -> middle
    middle: Repn  # theta_rho(theta(F))
    F1: Repn
    f1_proj: ModHom
    theta_F: Repn
    middle_data: ThetaRho


def unit_psis(data: AuslanderData) -> Mat:
    """Row j: the endomorphism psi_j of M, "project to Lambda, then multiply
    m_j", flattened row-major.

    psi_j = pi @ m_hat_j, where row t of m_hat_j (Lambda -> M, lambda ->
    m_j . lambda) is row j of rho_M(b_t); so entry (i, j * m + k) of
    pi @ flat_action() is entry (i, k) of psi_j, and one product gives all.
    """
    m = data.M.dim
    prod = data.pi @ data.M.flat_action()
    return prod.permuted((m, m, m), (1, 0, 2), m, m * m)


def four_term_sequence(F: Repn, data: AuslanderData) -> FourTermSeq:
    """0 -> F0 -> F -> theta_rho(theta F) -> F1 -> 0 with mod0 ends.

    alpha sends v to the module map M -> F.e, m -> v . (project, multiply
    by m, include); exactly the corner-adjunction unit.
    """
    m = data.M.dim
    rows = corner_rows(F, data)
    thetaF = theta(F, data)
    trd = theta_rho_data(thetaF, data)
    middle = trd.module
    psi_coords = data.end.basis.coords(unit_psis(data))
    # block j, row k: the coordinates in F.e of v_k . psi_j
    moved = (psi_coords @ F.flat_action()).reshape(m * F.dim, F.dim)
    blocks = RowBasis(rows).coords(moved)
    # alpha(v_k) is the map g: M -> theta(F) whose row j is block j, row k
    g = blocks.permuted((m, F.dim, rows.rows), (1, 0, 2), F.dim, m * rows.rows)
    alpha_mat = trd.space.basis.coords(g)
    alpha = ModHom(F, middle, alpha_mat)
    F0, f0_incl = sub_repn(F, left_nullspace(alpha_mat))
    F1, f1_proj = quotient_repn(middle, row_basis(alpha_mat))
    return FourTermSeq(
        F=F,
        F0=F0,
        f0_incl=f0_incl,
        alpha=alpha,
        middle=middle,
        F1=F1,
        f1_proj=f1_proj,
        theta_F=thetaF,
        middle_data=trd,
    )


# -- adjunction checks ---------------------------------------------------------------


def adjunction_check(F: Repn, N: Repn, data: AuslanderData) -> dict:
    """Both module-level adjunctions with their explicit bijections.

    Right: Hom_tilde(F, theta_rho N) = Hom_Lambda(theta F, N) via
    g -> counit o theta(g).  Left: Hom_tilde(theta_lambda N, F) =
    Hom_Lambda(N, theta F) via h -> theta(h) o unit.
    """
    trdN = theta_rho_data(N, data)
    thetaF = theta(F, data)
    c = counit(N, data, trdN)

    left_homs = hom_space(F, trdN.module)
    right_homs = hom_space(thetaF, N)
    # g -> theta(g) then the counit, on every basis map at once
    phi = right_homs.basis.coords(theta_maps(left_homs, data, thetaF, c.source).then(c.mat))
    right_ok = len(left_homs) == len(right_homs) and rank(phi) == len(left_homs)

    tld = theta_lambda_data(N, data)
    unit = unit_on_module(N, data, tld)
    lam_homs = hom_space(N, thetaF)
    tilde_homs = hom_space(tld.module, F)
    # h -> the unit then theta(h)
    psi = lam_homs.basis.coords(theta_maps(tilde_homs, data, unit.target, thetaF).after(unit.mat))
    left_ok = len(tilde_homs) == len(lam_homs) and rank(psi) == len(tilde_homs)

    return {
        "right_dims": (len(left_homs), len(right_homs)),
        "right_bijective": right_ok,
        "left_dims": (len(tilde_homs), len(lam_homs)),
        "left_bijective": left_ok,
        "ok": right_ok and left_ok,
    }

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

``corner_rows(F)``, ``theta(F)``, ``theta_rho_data(N)``,
``theta_lambda_data(N)`` and ``counit(N)`` depend on the module's content
and the Auslander data, so ``_kept`` builds each once per (content, data)
and keeps it on the data (``AuslanderData.functor_values``), freed with
it; a module over another algebra than data.tilde (F) or data.lam (N)
raises ``ValueError``.  The coordinates of the psi_j of the four-term
sequence depend on the data alone and are kept there too.
``counit_natural(g)`` is the one test that the
counit commutes with a map g, for both loops of Step V.

On morphisms theta and theta_rho act on a whole ``HomSpace`` at once:
``theta_maps`` restricts every map of a space to the corners with one
product and one coordinate solve, and ``theta_rho_maps`` postcomposes the
basis of Hom(M, N) with every map the same way; both read the kept values
of the space's source and target.  ``theta_hom`` and ``theta_rho_hom``
are their one-map calls.

The independent oracle for the corner-restriction route, theta recomputed
from a projective presentation over tilde, lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .auslander import AuslanderData
from .homology import projective_resolution
from .linalg import Mat, RowBasis, coords_in_rows, rank, row_basis, solve
from .modules import (
    HomSpace,
    ModHom,
    Repn,
    hom_space,
    induced_action,
    quotient_repn,
    sub_repn,
)


def _kept(M: Repn, name: str, data: AuslanderData, build):
    """``build(M, data)``, kept on ``data`` under ``name`` and M's content,
    once M is shown to be over the data's algebra that the value takes."""
    over = "tilde" if name in ("corner_rows", "theta") else "lam"
    if M.algebra is not getattr(data, over):
        raise ValueError(f"{name}: the module is not over data.{over}")
    values, key = data.functor_values, (name, M.key)
    if key not in values:
        values[key] = build(M, data)
    return values[key]


# -- theta: corner restriction ------------------------------------------------


def corner_rows(F: Repn, data: AuslanderData) -> Mat:
    """Canonical basis (rref rows) of F.e inside F."""
    return _kept(F, "corner_rows", data, _corner_rows)


def _corner_rows(F: Repn, data: AuslanderData) -> Mat:
    return row_basis(F.rho(data.e))


def theta(F: Repn, data: AuslanderData) -> Repn:
    """F.e as a right module over Lambda, acting through the corner."""
    return _kept(F, "theta", data, _theta)


def _theta(F: Repn, data: AuslanderData) -> Repn:
    # Lambda acts on F through zeta: the flat action zeta(b_t), induced on
    # the corner rows
    rows = corner_rows(F, data)
    flat = data.lambda_to_tilde @ F.flat_action()
    return Repn(data.lam, rows.rows, induced_action(flat, rows))


def theta_hom(f: ModHom, data: AuslanderData) -> ModHom:
    """theta on one morphism: ``theta_maps`` of a one-map space."""
    return theta_maps(HomSpace(f.source, f.target, f.mat.flatten_row()), data)[0]


def theta_maps(space: HomSpace, data: AuslanderData) -> HomSpace:
    """theta of every map of ``space`` at once, as maps between theta of
    its source and target: the corner rows of the source followed by each
    map, in coordinates of the corner rows of the target."""
    thetaF, thetaG = theta(space.source, data), theta(space.target, data)
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
    """Hom(M, N) as a right tilde-module, with its Hom space."""
    return _kept(N, "theta_rho", data, _theta_rho_data)


def _theta_rho_data(N: Repn, data: AuslanderData) -> ThetaRho:
    space = hom_space(data.M, N)
    k, d, m = len(space), data.tilde.dim, data.M.dim
    # row t * d + j is f_t . phi_j, which applies phi_j first
    moved = space.after(data.end.flat.reshape(d * m, m)).reshape(k * d, m * N.dim)
    c = space.basis.coords(moved)
    act = c.permuted((k, d, k), (1, 0, 2), d, k * k)
    return ThetaRho(module=Repn(data.tilde, k, act), space=space)


def theta_rho(N: Repn, data: AuslanderData) -> Repn:
    return theta_rho_data(N, data).module


def theta_rho_maps(space: HomSpace, data: AuslanderData) -> HomSpace:
    """theta_rho of every map g_t: N -> N' of ``space`` at once:
    postcomposition Hom(M,N) -> Hom(M,N').  Row s of block t is f_s
    followed by g_t, in coordinates of the basis of Hom(M,N')."""
    src, tgt = theta_rho_data(space.source, data), theta_rho_data(space.target, data)
    k, h, hh = len(space), len(src.space), len(tgt.space)
    if not (k and h and hh):
        return HomSpace(src.module, tgt.module, Mat.zeros(space.flat.field, k, h * hh))
    m, n = src.space.source.dim, space.target.dim
    # row t * h + s is f_s followed by g_t
    moved = space.after(src.space.flat.reshape(h * m, space.source.dim)).reshape(k * h, m * n)
    return HomSpace(src.module, tgt.module, tgt.space.basis.coords(moved).reshape(k, h * hh))


def theta_rho_hom(g: ModHom, data: AuslanderData) -> ModHom:
    """theta_rho on one morphism: ``theta_rho_maps`` of a one-map space."""
    return theta_rho_maps(HomSpace(g.source, g.target, g.mat.flatten_row()), data)[0]


def counit(N: Repn, data: AuslanderData) -> ModHom:
    """The natural isomorphism theta(theta_rho(N)) -> N, by evaluation at
    the image of the unit in the Lambda-summand."""
    return _kept(N, "counit", data, _counit)


def _counit(N: Repn, data: AuslanderData) -> ModHom:
    trd = theta_rho_data(N, data)
    F = trd.module
    rows = corner_rows(F, data)
    thetaF = theta(F, data)
    u = data.lam.unit @ data.iota  # the element iota(1) of M
    # row t: the image of iota(1) under the t-th hom; row r of ``rows``
    # combines the homs, so one product evaluates them all
    return ModHom(thetaF, N, rows @ trd.space.after(u))


def counit_natural(g: ModHom, data: AuslanderData) -> bool:
    """Is theta(theta_rho(g)) then counit(N') equal to counit(N) then g,
    for g: N -> N'?"""
    back = theta_hom(theta_rho_hom(g, data), data)
    return back.mat @ counit(g.target, data).mat == counit(g.source, data).mat @ g.mat


# -- theta_lambda: presentation cokernel ----------------------------------------


@dataclass
class ThetaLambda:
    module: Repn  # over tilde
    quotient: ModHom  # theta_rho(P0) -> module
    cover: ModHom  # P0 -> N over Lambda


def theta_lambda_data(N: Repn, data: AuslanderData) -> ThetaLambda:
    """coker(Hom(M,P1) -> Hom(M,P0)) with its quotient map and the cover."""
    return _kept(N, "theta_lambda", data, _theta_lambda_data)


def _theta_lambda_data(N: Repn, data: AuslanderData) -> ThetaLambda:
    res = projective_resolution(N, max_depth=1)
    cover = res.augmentation
    d = res.differential(1)  # P1 -> P0
    if d is None:
        # N projective: theta_lambda(N) = theta_rho(N) on the nose
        quotient = theta_rho_hom(cover, data)
        return ThetaLambda(module=quotient.target, quotient=quotient, cover=cover)
    lifted = theta_rho_hom(d, data)
    Q, proj = quotient_repn(lifted.target, row_basis(lifted.mat))
    return ThetaLambda(module=Q, quotient=proj, cover=cover)


def theta_lambda(N: Repn, data: AuslanderData) -> Repn:
    return theta_lambda_data(N, data).module


def unit_on_module(N: Repn, data: AuslanderData) -> ModHom:
    """The unit N -> theta(theta_lambda(N)) of the left adjunction.

    Built by factoring theta(quotient) o counit^(-1): P0 -> theta(theta_lambda N)
    through the cover P0 -> N; existence and uniqueness are theorems, and the
    construction solves the factorization exactly.
    """
    tld = theta_lambda_data(N, data)
    c0 = counit(tld.cover.source, data)
    # theta applied to the quotient map theta_rho(P0) -> theta_lambda(N)
    tq = theta_hom(tld.quotient, data)
    # c0 is invertible; route P0 -> theta(theta_rho P0) via its inverse
    inv = solve(c0.mat, Mat.identity(N.field, c0.mat.rows))
    if inv is None or c0.mat.rows != tld.cover.source.dim:
        raise AssertionError("counit of the cover is not invertible")
    sol = solve(tld.cover.mat, inv @ tq.mat)  # inv @ tq.mat: P0 -> theta(theta_lambda N)
    if sol is None:
        raise AssertionError("unit factorization failed")
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


def _psi_coords(data: AuslanderData) -> Mat:
    """The psi_j in coordinates of the basis of End(M), kept on ``data``:
    they depend on the data alone."""
    values = data.functor_values
    if "psi_coords" not in values:
        values["psi_coords"] = data.end.basis.coords(unit_psis(data))
    return values["psi_coords"]


def four_term_sequence(F: Repn, data: AuslanderData) -> FourTermSeq:
    """0 -> F0 -> F -> theta_rho(theta F) -> F1 -> 0 with mod0 ends.

    alpha sends v to the module map M -> F.e, m -> v . (project, multiply
    by m, include); exactly the corner-adjunction unit.
    """
    m = data.M.dim
    rows = corner_rows(F, data)
    trd = theta_rho_data(theta(F, data), data)
    middle = trd.module
    psi_coords = _psi_coords(data)
    # block j, row k: the coordinates in F.e of v_k . psi_j
    moved = (psi_coords @ F.flat_action()).reshape(m * F.dim, F.dim)
    blocks = RowBasis(rows).coords(moved)
    # alpha(v_k) is the map g: M -> theta(F) whose row j is block j, row k
    g = blocks.permuted((m, F.dim, rows.rows), (1, 0, 2), F.dim, m * rows.rows)
    alpha_mat = trd.space.basis.coords(g)
    alpha = ModHom(F, middle, alpha_mat)
    # one factoring of alpha gives both its left kernel and its row space
    factored = RowBasis(alpha_mat)
    F0, f0_incl = sub_repn(F, factored.left_kernel())
    F1, f1_proj = quotient_repn(middle, row_basis(factored))
    return FourTermSeq(
        F=F, F0=F0, f0_incl=f0_incl, alpha=alpha, middle=middle, F1=F1, f1_proj=f1_proj
    )


# -- adjunction checks ---------------------------------------------------------------


def adjunction_check(F: Repn, N: Repn, data: AuslanderData) -> dict:
    """Both module-level adjunctions with their explicit bijections.

    Right: Hom_tilde(F, theta_rho N) = Hom_Lambda(theta F, N) via
    g -> counit o theta(g).  Left: Hom_tilde(theta_lambda N, F) =
    Hom_Lambda(N, theta F) via h -> theta(h) o unit.
    """
    thetaF = theta(F, data)
    c = counit(N, data)

    left_homs = hom_space(F, theta_rho(N, data))
    right_homs = hom_space(thetaF, N)
    # g -> theta(g) then the counit, on every basis map at once
    phi = right_homs.basis.coords(theta_maps(left_homs, data).then(c.mat))
    right_ok = len(left_homs) == len(right_homs) and rank(phi) == len(left_homs)

    unit = unit_on_module(N, data)
    lam_homs = hom_space(N, thetaF)
    tilde_homs = hom_space(theta_lambda(N, data), F)
    # h -> the unit then theta(h)
    psi = lam_homs.basis.coords(theta_maps(tilde_homs, data).after(unit.mat))
    left_ok = len(tilde_homs) == len(lam_homs) and rank(psi) == len(tilde_homs)

    return {
        "right_dims": (len(left_homs), len(right_homs)),
        "right_bijective": right_ok,
        "left_dims": (len(tilde_homs), len(lam_homs)),
        "left_bijective": left_ok,
        "ok": right_ok and left_ok,
    }

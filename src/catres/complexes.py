"""Bounded complexes, homotopy-category Hom, and the termwise lifted functors.

Cohomological indexing: a complex has terms in degrees lo..hi and
differentials d_i : term_i -> term_(i+1) with d d = 0.  Chain maps commute
degreewise; the homotopy category quotient is computed as (chain-map
solution space) / (image of the degree -1 homotopies).

The two lifts: ``db_theta`` applies the corner restriction termwise (its
value on a bounded complex represents the derived direct image, since the
restriction is exact); ``kb_theta_lambda_data`` applies Hom(M, -) termwise to a
complex of projectives, landing in projective modules over tilde.  Their
interplay (unit isomorphism, adjunction, four-term sequence, acyclicity
transfer) carries the categorical-resolution certificates.

The functor values of each term are kept on the Auslander data, by the
term's content (``functors._kept``), so the lifts, counits and lifted maps
below ask for them where they need them, and no term content is
restricted or lifted twice.

Exactness is read off ranks (``_is_exact``), on the terms in
``is_acyclic`` and on their corner rows in ``is_lambda_acyclic``.

``KbHom.induced_bijection(other, lift)`` checks that a linear functor on
chain maps, given by the images ``lift(i, space)`` of the basis maps of
each degree, induces a bijection on homotopy classes; each adjunction is
one call of it.  Step V tests the kept counit with ``_is_invertible`` and
``counit_natural`` alone.  No check here is an ``assert`` (``-O`` strips
those).
"""

from __future__ import annotations

from dataclasses import dataclass

from .auslander import AuslanderData
from .functors import (
    corner_rows,
    counit,
    counit_natural,
    four_term_sequence,
    theta,
    theta_hom,
    theta_maps,
    theta_rho,
    theta_rho_hom,
)
from .linalg import (
    Mat,
    RowBasis,
    coords_in_rows,
    nullspace,
    rank,
    row_basis,
    solve,
    solve_left,
)
from .modules import (
    ModHom,
    Repn,
    _is_invertible,
    direct_sum,
    hom_space,
    is_projective,
    zero_hom,
    zero_module,
)


class ComplexError(ValueError):
    pass


class BComplex:
    def __init__(self, algebra, lo: int, terms: list, diffs: list):
        """terms[k] sits in degree lo + k; diffs[k] : terms[k] -> terms[k+1]."""
        self.algebra = algebra
        self.lo = lo
        self.terms = terms
        self.diffs = diffs
        if len(diffs) != max(0, len(terms) - 1):
            raise ComplexError(f"{len(terms)} terms with {len(diffs)} differentials")

    @property
    def hi(self) -> int:
        return self.lo + len(self.terms) - 1

    def term(self, i: int) -> Repn:
        if self.lo <= i <= self.hi:
            return self.terms[i - self.lo]
        return zero_module(self.algebra)

    def diff(self, i: int) -> ModHom:
        if self.lo <= i < self.hi:
            return self.diffs[i - self.lo]
        return zero_hom(self.term(i), self.term(i + 1))

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def is_zero(self) -> bool:
        return all(t.dim == 0 for t in self.terms)

    def validate(self):
        """d o d = 0 and every differential intertwines; returns issues."""
        issues = []
        for i in self.degrees():
            d = self.diff(i)
            if d.source.dim and d.target.dim and not d.validate():
                issues.append(f"differential at degree {i} is not a module map")
            d2 = self.diff(i).mat @ self.diff(i + 1).mat
            if not d2.is_zero():
                issues.append(f"d o d != 0 at degree {i}")
        return issues

    def shift(self, k: int = 1) -> "BComplex":
        """C[k]: term_i = C_(i+k), differential scaled by (-1)^k."""
        sign = 1 if k % 2 == 0 else -1
        diffs = [ModHom(d.source, d.target, d.mat.scale(sign)) for d in self.diffs]
        return BComplex(self.algebra, self.lo - k, list(self.terms), diffs)

    def trim(self) -> "BComplex":
        """Drop zero terms at both ends."""
        terms, diffs, lo = self.terms, self.diffs, self.lo
        while terms and terms[0].dim == 0:
            terms = terms[1:]
            diffs = diffs[1:]
            lo += 1
        while terms and terms[-1].dim == 0:
            terms = terms[:-1]
            diffs = diffs[:-1]
        if not terms:
            return zero_complex(self.algebra)
        return BComplex(self.algebra, lo, terms, diffs)

    def __repr__(self):
        dims = [t.dim for t in self.terms]
        return f"BComplex([{self.lo}..{self.hi}], dims={dims})"


def zero_complex(algebra) -> BComplex:
    return BComplex(algebra, 0, [zero_module(algebra)], [])


def module_complex(M: Repn, degree: int = 0) -> BComplex:
    return BComplex(M.algebra, degree, [M], [])


class ChainMap:
    def __init__(self, source: BComplex, target: BComplex, comps: dict):
        """comps maps degree -> ModHom source.term(i) -> target.term(i);
        missing degrees are zero."""
        self.source = source
        self.target = target
        self.comps = comps

    def comp(self, i: int) -> ModHom:
        if i in self.comps:
            return self.comps[i]
        return zero_hom(self.source.term(i), self.target.term(i))

    def validate(self) -> bool:
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for i in range(lo, hi + 1):
            f_i = self.comp(i)
            if f_i.source.dim and f_i.target.dim and not f_i.validate():
                return False
            lhs = self.source.diff(i).mat @ self.comp(i + 1).mat
            rhs = f_i.mat @ self.target.diff(i).mat
            if lhs != rhs:
                return False
        return True


def direct_sum_complexes(parts: list) -> BComplex:
    algebra = parts[0].algebra
    lo = min(p.lo for p in parts)
    hi = max(p.hi for p in parts)
    terms = [direct_sum([p.term(i) for p in parts]) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        dmat = Mat.block_diag(algebra.field, [p.diff(i).mat for p in parts])
        diffs.append(ModHom(terms[i - lo], terms[i - lo + 1], dmat))
    return BComplex(algebra, lo, terms, diffs)


def cone(f: ChainMap) -> BComplex:
    """Mapping cone: cone(f)_i = source_(i+1) (+) target_i."""
    C, D = f.source, f.target
    algebra = C.algebra
    fld = algebra.field
    lo = min(C.lo - 1, D.lo)
    hi = max(C.hi - 1, D.hi)
    terms = [direct_sum([C.term(i + 1), D.term(i)]) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        a = C.term(i + 1).dim
        b = D.term(i).dim
        a2 = C.term(i + 2).dim
        b2 = D.term(i + 1).dim
        blocks = []
        if a and a2:
            blocks.append((0, 0, -C.diff(i + 1).mat))
        if a and b2:
            blocks.append((0, a2, f.comp(i + 1).mat))
        if b and b2:
            blocks.append((a, a2, D.diff(i).mat))
        m = Mat.from_blocks(fld, a + b, a2 + b2, blocks)
        diffs.append(ModHom(terms[i - lo], terms[i - lo + 1], m))
    return BComplex(algebra, lo, terms, diffs)


def _is_exact(dims: list, maps: list) -> bool:
    """Is 0 -> C_0 -> ... -> C_n -> 0 exact, with dim C_i = dims[i] and d_i =
    maps[i]?  It is exact at i iff rank d_(i-1) + rank d_i = dim C_i."""
    ranks = [0] + [rank(m) for m in maps] + [0]
    return all(ranks[i] + ranks[i + 1] == d for i, d in enumerate(dims))


def is_acyclic(C: BComplex) -> bool:
    return _is_exact([t.dim for t in C.terms], [d.mat for d in C.diffs])


# -- homotopy-category Hom ---------------------------------------------------


@dataclass
class KbHom:
    source: BComplex
    target: BComplex
    window: list
    spaces: dict  # degree -> HomSpace of the term maps
    offsets: dict  # degree -> slice start in the coordinate space
    total: int
    chain_rows: Mat  # rows: coordinates of a chain-map basis
    homotopy_rows: Mat  # rows: coordinates of null-homotopic chain maps
    dim: int

    def coords_to_chainmap(self, coords: Mat) -> ChainMap:
        comps = {}
        for i in self.window:
            space = self.spaces[i]
            if not space:
                continue
            off = self.offsets[i]
            part = coords.take_cols(slice(off, off + len(space)))
            acc = (part @ space.flat).reshape(space.source.dim, space.target.dim)
            comps[i] = ModHom(space.source, space.target, acc)
        return ChainMap(self.source, self.target, comps)

    def induced_bijection(self, other: "KbHom", lift) -> dict:
        """Does the linear map on chain maps that sends the basis maps of
        ``spaces[i]`` to the rows of ``lift(i, spaces[i])``, flattened maps
        of ``other.spaces[i]`` (zero where either space is empty), induce a
        bijection on homotopy classes?  Checks: null-homotopics land in
        null-homotopics; the images of a chain basis span other's chain
        space modulo homotopy in the full quotient dimension; and the two
        quotients have equal dimension.
        """
        fld = self.source.algebra.field
        placed = [
            (self.offsets[i], other.offsets[i],
             other.spaces[i].basis.coords(lift(i, self.spaces[i])))
            for i in self.window
            if self.spaces[i] and other.spaces[i]
        ]
        big = Mat.from_blocks(fld, self.total, other.total, placed)
        htp = other.homotopy_rows
        htp_ok = RowBasis(htp).contains(self.homotopy_rows @ big)
        induced_rank = rank((self.chain_rows @ big).vstack(htp)) - htp.rows
        return {
            "dims_equal": self.dim == other.dim,
            "homotopics_preserved": htp_ok,
            "induced_rank": induced_rank,
            "bijective": htp_ok and self.dim == other.dim and induced_rank == self.dim,
            "dims": (self.dim, other.dim),
        }


def kb_hom(C: BComplex, D: BComplex) -> KbHom:
    """Chain maps modulo null-homotopic ones, with explicit bases."""
    if C.algebra is not D.algebra:
        raise ComplexError("kb_hom: complexes over different algebras")
    fld = C.algebra.field
    lo = min(C.lo, D.lo)
    hi = max(C.hi, D.hi)
    window = list(range(lo, hi + 1))
    spaces = {i: hom_space(C.term(i), D.term(i)) for i in window}
    offsets = {}
    total = 0
    for i in window:
        offsets[i] = total
        total += len(spaces[i])
    # chain-map constraints: for each i, dC_i F_(i+1) - F_i dD_i = 0
    blocks = []
    for i in window[:-1]:
        rows_dim = C.term(i).dim * D.term(i + 1).dim
        if rows_dim == 0 or not (spaces[i] or spaces[i + 1]):
            continue
        # row offsets[i+1] + t: dC_i F_t; row offsets[i] + t: -F_t dD_i
        col_entries = [
            (offsets[i + 1], 0, spaces[i + 1].after(C.diff(i).mat)),
            (offsets[i], 0, -spaces[i].then(D.diff(i).mat)),
        ]
        blocks.append(Mat.from_blocks(fld, total, rows_dim, col_entries).T)
    if blocks:
        big = Mat.stack_rows(fld, blocks)
        ker = nullspace(big)  # columns = coordinate solutions
        chain_rows = ker.T
    else:
        chain_rows = Mat.identity(fld, total)
    # null-homotopic image: homotopies h_i : C_i -> D_(i-1)
    htp_rows = []
    for i in window:
        homotopies = hom_space(C.term(i), D.term(i - 1))
        if not homotopies:
            continue
        # row t: the boundary of the t-th homotopy h, h dD_(i-1) in degree i
        # and dC_(i-1) h in degree i - 1
        boundary = {i: homotopies.then(D.diff(i - 1).mat)}
        if i - 1 in window:
            boundary[i - 1] = homotopies.after(C.diff(i - 1).mat)
        try:
            placed = [(0, offsets[j], spaces[j].basis.coords(b)) for j, b in boundary.items()]
        except ValueError:
            raise AssertionError("homotopy boundary escaped the hom space") from None
        htp_rows.append(Mat.from_blocks(fld, len(homotopies), total, placed))
    homotopy_rows = (
        row_basis(Mat.stack_rows(fld, htp_rows)) if htp_rows else Mat.zeros(fld, 0, total)
    )
    dim = chain_rows.rows - homotopy_rows.rows
    return KbHom(
        source=C,
        target=D,
        window=window,
        spaces=spaces,
        offsets=offsets,
        total=total,
        chain_rows=chain_rows,
        homotopy_rows=homotopy_rows,
        dim=dim,
    )


# -- termwise lifts -----------------------------------------------------------


def db_theta(F: BComplex, data: AuslanderData) -> BComplex:
    """Termwise corner restriction with induced differentials."""
    diffs = [theta_hom(d, data) for d in F.diffs]
    return BComplex(data.lam, F.lo, [theta(t, data) for t in F.terms], diffs)


def kb_theta_lambda_data(P: BComplex, data: AuslanderData) -> BComplex:
    """Termwise Hom(M, -) on a bounded complex of projectives; the Hom(M, -)
    data of each term stays kept on the term of P."""
    for i, t in zip(P.degrees(), P.terms):
        if t.dim and not is_projective(t):
            raise ComplexError(f"kb_theta_lambda: term at degree {i} is not projective")
    terms = [theta_rho(t, data) for t in P.terms]
    out = BComplex(data.tilde, P.lo, terms, [theta_rho_hom(d, data) for d in P.diffs])
    for i, t in zip(P.degrees(), out.terms):
        if t.dim and not is_projective(t):
            raise ComplexError(f"kb_theta_lambda produced a non-projective term at {i}")
    return out


# -- Step V: the unit isomorphism, on the nose through the counit ----------------


@dataclass
class StepV:
    lifted: BComplex  # kb_theta_lambda_data(P)
    ok: bool
    detail: str


def step_v_unit(P: BComplex, data: AuslanderData) -> StepV:
    """db_theta(kb_theta_lambda(P)) equals P termwise through the counit:
    every counit is invertible and commutes with every differential of P
    (``counit_natural``).  The detail names the last degree with a
    singular counit, else the first differential that differs."""
    lifted = kb_theta_lambda_data(P, data)
    singular = [i for i in P.degrees() if not _is_invertible(counit(P.term(i), data).mat)]
    if singular:
        return StepV(lifted, False, f"counit not invertible at degree {singular[-1]}")
    for i, d in zip(P.degrees(), P.diffs):
        if not counit_natural(d, data):
            return StepV(lifted, False, f"transported differential differs at degree {i}")
    return StepV(lifted, True, "")


def step_v_naturality(u: ChainMap, data: AuslanderData) -> bool:
    """The unit is natural: the square with db_theta(kb_theta_lambda(u))
    commutes on the nose through the counits."""
    if not (step_v_unit(u.source, data).ok and step_v_unit(u.target, data).ok):
        return False
    # degrees without a component of u hold zero maps on both sides
    return all(counit_natural(u_i, data) for u_i in u.comps.values())


# -- the complex-level four-term sequence ---------------------------------------


@dataclass
class Prop31:
    F: BComplex
    F0: BComplex
    alpha: ChainMap  # F -> middle
    middle: BComplex
    F1: BComplex
    degreewise: dict  # degree -> FourTermSeq


def prop31_sequence(F: BComplex, data: AuslanderData) -> Prop31:
    """Degreewise four-term sequences assembled into complexes.

    The middle differential is the Hom(M,-) lift of the theta'd
    differential; uniqueness of the induced maps makes all squares commute,
    which is checked, not assumed: a failed check raises ``AssertionError``
    (also under ``python -O``).
    """
    fld = F.algebra.field
    seqs = {i: four_term_sequence(F.term(i), data) for i in F.degrees()}
    degs = list(F.degrees())
    mid_terms = [seqs[i].middle for i in degs]
    mid_diffs = []
    for i in degs[:-1]:
        delta = theta_rho_hom(theta_hom(F.diff(i), data), data)
        mid_diffs.append(delta)
        lhs = seqs[i].alpha.mat @ delta.mat
        rhs = F.diff(i).mat @ seqs[i + 1].alpha.mat
        if lhs != rhs:
            raise AssertionError(f"alpha square fails to commute at degree {i}")
    middle = BComplex(data.tilde, F.lo, mid_terms, mid_diffs)
    alpha = ChainMap(F, middle, {i: seqs[i].alpha for i in degs})

    f0_terms = [seqs[i].F0 for i in degs]
    f0_diffs = []
    for k, i in enumerate(degs[:-1]):
        moved = seqs[i].f0_incl.mat @ F.diff(i).mat
        c = solve_left(seqs[i + 1].f0_incl.mat, moved)
        if c is None:
            raise AssertionError("kernel complex differential failed to restrict")
        f0_diffs.append(ModHom(f0_terms[k], f0_terms[k + 1], c))
    F0 = BComplex(data.tilde, F.lo, f0_terms, f0_diffs)

    f1_terms = [seqs[i].F1 for i in degs]
    f1_diffs = []
    for k, i in enumerate(degs[:-1]):
        # unique induced map on the quotient: solve proj_i @ X = delta_i proj_(i+1)
        rhs = mid_diffs[k].mat @ seqs[i + 1].f1_proj.mat
        x = solve(seqs[i].f1_proj.mat, rhs)
        if x is None:
            raise AssertionError("cokernel complex differential failed to descend")
        f1_diffs.append(ModHom(f1_terms[k], f1_terms[k + 1], x))
    F1 = BComplex(data.tilde, F.lo, f1_terms, f1_diffs)
    return Prop31(F=F, F0=F0, alpha=alpha, middle=middle, F1=F1, degreewise=seqs)


def step_iv_adjunction(P: BComplex, F: BComplex, data: AuslanderData) -> dict:
    """Hom_Kb((-,P), F) = Hom_Kb(P, db_theta F) through the explicit map
    f -> counit^(-1) then db_theta(f), verified as a bijection on homotopy
    classes."""
    sv = step_v_unit(P, data)
    if not sv.ok:
        return {"ok": False, "detail": f"unit failed: {sv.detail}"}
    A = kb_hom(sv.lifted, F)
    B = kb_hom(P, db_theta(F, data))

    def lift(i, space):
        # f -> counit^(-1) then theta(f), on every basis map of the degree
        c = counit(P.term(i), data).mat
        return theta_maps(space, data).after(solve(c, Mat.identity(c.field, c.rows)))

    result = A.induced_bijection(B, lift)
    result["ok"] = result["bijective"]
    return result


def is_lambda_acyclic(F: BComplex, data: AuslanderData) -> bool:
    """Evaluation at the corner is exact: plain linear algebra on F.e,
    deliberately independent of db_theta."""
    rows = [corner_rows(t, data) for t in F.terms]
    maps = [coords_in_rows(rows[k + 1], rows[k] @ d.mat) for k, d in enumerate(F.diffs)]
    return _is_exact([r.rows for r in rows], maps)

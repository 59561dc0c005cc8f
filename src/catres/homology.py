"""Projective resolutions, Ext, global dimension, injectivity.

Resolutions are minimal: each walks the chain M, Omega^1, Omega^2, ... of
syzygies kept on the projective presentations (``Presentation.omega``), so
the resolutions, projective dimensions and Ext groups of a module all read
one chain, built once.  Periodicity is certified only in
``projective_dimension``: once some syzygy is isomorphic to M or to an
earlier syzygy, the minimal resolution can never terminate, and the
projective dimension is infinite.  Isomorphism is decided exactly, by
Krull-Schmidt (``modules.is_isomorphic``).

Ext is read off Hom dimensions down the same chain, by dimension shifting
(Auslander, Reiten and Smalo, Representation theory of Artin algebras).
Injectivity reads no chain: it is the dual of ``modules.is_projective``'s
count on the top, a count on the socle (``is_injective``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Algebra, SplitGiveUp
from .linalg import Mat, rank
from .modules import (
    ModHom,
    Repn,
    context,
    hom_space,
    is_isomorphic,
    projective_presentation,
    regular_module,
    socle_rows,
)


@dataclass
class ProjResolution:
    module: Repn
    modules: list  # P_0 .. P_d
    differentials: list  # d_i : P_i -> P_(i-1), entries for i = 1..d
    augmentation: ModHom  # P_0 -> M
    complete: bool  # the syzygy after P_d is zero: the resolution ends at P_d

    def differential(self, i: int) -> Optional[ModHom]:
        """d_i: P_i -> P_(i-1) when both exist, else None."""
        return self.differentials[i - 1] if 1 <= i < len(self.modules) else None


def projective_resolution(M: Repn, max_depth: int) -> ProjResolution:
    """The minimal resolution P_d -> ... -> P_0 -> M, down the syzygy chain
    of M until a syzygy vanishes or d = max_depth."""
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    pres = projective_presentation(M)
    aug = pres.cover
    modules, diffs = [aug.source], []
    while pres.syzygy.rows and len(diffs) < max_depth:
        omega, incl = pres.omega
        pres = projective_presentation(omega)
        diffs.append(pres.cover.then(incl))
        modules.append(pres.cover.source)
    return ProjResolution(M, modules, diffs, aug, complete=pres.syzygy.rows == 0)


@dataclass
class PdResult:
    kind: str  # "finite" | "infinite" | "unknown"
    value: Optional[int] = None
    period: Optional[int] = None
    offset: Optional[int] = None


def projective_dimension(M: Repn, max_depth: int) -> PdResult:
    """pd M, tri-state, from the syzygy chain of M.

    Finite, with value k, when Omega^(k+1) is the first zero syzygy and
    k <= max_depth.  Before that, each Omega^k is compared, in order, with
    M = Omega^0, Omega^1, ..., Omega^(k-1) of its dimension (a comparison
    that raises SplitGiveUp is skipped); an isomorphism with Omega^j
    certifies infinite pd with offset j and period k - j.  Unknown when
    neither happens within max_depth steps.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    seen = [M]  # M, Omega^1, ..., Omega^depth
    pres = projective_presentation(M)
    while pres.syzygy.rows:
        if len(seen) - 1 == max_depth:
            return PdResult(kind="unknown")
        omega = pres.omega[0]
        for j, prev in enumerate(seen):
            try:
                if prev.dim == omega.dim and is_isomorphic(omega, prev) is not None:
                    return PdResult(kind="infinite", period=len(seen) - j, offset=j)
            except SplitGiveUp:
                pass
        seen.append(omega)
        pres = projective_presentation(omega)
    return PdResult(kind="finite", value=len(seen) - 1)


def ext_dim(M: Repn, N: Repn, i: int) -> int:
    """dim Ext^i(M, N): dim Hom(M, N) for i = 0; for i >= 1, Ext^1(X, N) of
    X = Omega^(i-1) M, whose presentation 0 -> Omega X -> P -> X -> 0 gives
    0 -> Hom(X, N) -> Hom(P, N) -> Hom(Omega X, N) -> Ext^1(X, N) -> 0."""
    if i < 0:
        raise ValueError("ext degree must be >= 0")
    chain = [M]  # M, Omega M, ..., Omega^i M
    for _ in range(i):
        pres = projective_presentation(chain[-1])
        if not pres.syzygy.rows:
            return 0
        chain.append(pres.omega[0])
    if i == 0:
        return len(hom_space(M, N))
    # pres presents X = chain[-2] by P = pres.cover.source, with syzygy chain[-1]
    omega_x, p, x = (len(hom_space(Y, N)) for Y in (chain[-1], pres.cover.source, chain[-2]))
    return omega_x - p + x


@dataclass
class GldimResult:
    kind: str  # "finite" | "infinite" | "unknown"
    value: Optional[int] = None
    witness: Optional[int] = None  # index into the deduplicated simple list
    period: Optional[int] = None
    offset: Optional[int] = None
    bound: Optional[int] = None

    def to_json(self):
        return {k: v for k, v in vars(self).items() if v is not None}


def distinct_simples(A: Algebra) -> list:
    """Simple modules up to isomorphism (idempotents can repeat blocks):
    the simple of each ``context(A).representatives`` index."""
    ctx = context(A)
    return [ctx.simples[t] for t in ctx.representatives]


def default_max_depth(A: Algebra) -> int:
    return A.radical_chain().nilpotency_index + 2


def global_dimension(A: Algebra, max_depth: Optional[int] = None) -> GldimResult:
    """gldim as max projective dimension of the simples; tri-state."""
    if max_depth is None:
        max_depth = default_max_depth(A)
    values = []  # None where the pd is unknown
    for idx, s in enumerate(distinct_simples(A)):
        pd = projective_dimension(s, max_depth)
        if pd.kind == "infinite":
            return GldimResult(kind="infinite", witness=idx, period=pd.period, offset=pd.offset)
        values.append(pd.value)
    if None in values:
        return GldimResult(kind="unknown", bound=max_depth)
    return GldimResult(kind="finite", value=max(values, default=0))


def is_injective(M: Repn) -> bool:
    """Is M injective?  Its injective hull I(M) = I(soc M) contains M, so
    iff dim I(M) = dim M, and dim I(M) is read off the socle, the dual of
    ``modules.is_projective``'s count on the top:

        dim I(M) = sum_r dim(soc(M) e_r) * dim A e_r

    over the representatives e_r of ``context(A)``, A the algebra of M.
    S_r e_r is 1-dimensional (each primitive idempotent spans a corner of
    dimension 1 in A/J), so dim(soc(M) e_r) is the multiplicity of S_r in
    soc(M), and the injective hull of S_r is D(A e_r).
    """
    if M.dim == 0:
        return True
    ctx = context(M.algebra)
    soc, reps = socle_rows(M), ctx.representatives
    e = Mat.stack_rows(M.field, [ctx.idempotents[r] for r in reps])
    m = M.dim
    moved = soc @ (e @ M.flat_action()).permuted((len(reps), m, m), (1, 0, 2), m, len(reps) * m)
    blocks = [moved.take_cols(slice(i * m, (i + 1) * m)) for i in range(len(reps))]
    return m == sum(rank(b) * dim for b, dim in zip(blocks, ctx.injective_hull_dims))


def is_self_injective(A: Algebra) -> bool:
    return is_injective(regular_module(A))


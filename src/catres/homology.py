"""Projective resolutions, Ext, global dimension, injectivity.

Resolutions are minimal (iterated projective covers).  Infinite projective
dimension is certified by syzygy periodicity: once some syzygy is
isomorphic to an earlier one, the minimal resolution can never terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Algebra
from .linalg import rank
from .modules import (
    HomSpace,
    IsoInconclusive,
    ModHom,
    Repn,
    context,
    hom_space,
    is_isomorphic,
    projective_presentation,
    sub_repn,
    zero_module,
)


@dataclass
class ResStatus:
    kind: str  # "complete" | "truncated" | "periodic"
    length: Optional[int] = None
    depth: Optional[int] = None
    period: Optional[int] = None
    offset: Optional[int] = None
    note: str = ""


@dataclass
class ProjResolution:
    module: Repn
    modules: list  # P_0 .. P_d
    differentials: list  # d_i : P_i -> P_(i-1), entries for i = 1..d
    augmentation: ModHom  # P_0 -> M
    syzygies: list  # Omega^1, Omega^2, ... as Repn
    status: ResStatus

    def term(self, i: int) -> Repn:
        if 0 <= i < len(self.modules):
            return self.modules[i]
        return zero_module(self.module.algebra)

    def differential(self, i: int) -> Optional[ModHom]:
        """d_i: P_i -> P_(i-1) when both exist."""
        if 1 <= i < len(self.modules):
            return self.differentials[i - 1]
        return None


def projective_resolution(M: Repn, max_depth: int, halt_on_periodic: bool = True) -> ProjResolution:
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    pres = projective_presentation(M)
    aug = pres.cover
    modules = [aug.source]
    diffs = []
    syzygies = []
    omegas = [M]
    periodic: Optional[tuple] = None
    inconclusive = False
    ker_rows = pres.syzygy
    depth = 0
    while True:
        if ker_rows.rows == 0:
            if periodic is not None:
                raise AssertionError("resolution terminated despite a periodicity certificate")
            status = ResStatus(kind="complete", length=depth)
            break
        if depth == max_depth:
            if periodic is not None:
                status = ResStatus(kind="periodic", period=periodic[1], offset=periodic[0])
            else:
                note = "isomorphism search inconclusive" if inconclusive else ""
                status = ResStatus(kind="truncated", depth=depth, note=note)
            break
        omega, incl = sub_repn(modules[-1], ker_rows)
        syzygies.append(omega)
        if periodic is None:
            for j, prev in enumerate(omegas):
                try:
                    if prev.dim == omega.dim and is_isomorphic(omega, prev) is not None:
                        periodic = (j, len(omegas) - j)
                        break
                except IsoInconclusive:
                    inconclusive = True
        omegas.append(omega)
        if periodic is not None and halt_on_periodic:
            status = ResStatus(kind="periodic", period=periodic[1], offset=periodic[0])
            break
        # shared with the isomorphism tests of omega above
        pres = projective_presentation(omega)
        diffs.append(pres.cover.then(incl))
        modules.append(pres.cover.source)
        ker_rows = pres.syzygy
        depth += 1
    return ProjResolution(
        module=M,
        modules=modules,
        differentials=diffs,
        augmentation=aug,
        syzygies=syzygies,
        status=status,
    )


@dataclass
class PdResult:
    kind: str  # "finite" | "infinite" | "unknown"
    value: Optional[int] = None
    period: Optional[int] = None
    offset: Optional[int] = None


def projective_dimension(M: Repn, max_depth: int) -> PdResult:
    res = projective_resolution(M, max_depth)
    if res.status.kind == "complete":
        return PdResult(kind="finite", value=res.status.length)
    if res.status.kind == "periodic":
        return PdResult(kind="infinite", period=res.status.period, offset=res.status.offset)
    return PdResult(kind="unknown")


def _precompose_rank(d: Optional[ModHom], src: HomSpace, tgt: HomSpace) -> int:
    """Rank of Hom(P_i, N) -> Hom(P_(i+1), N), f -> d then f (0 without d)."""
    if d is None or not src or not tgt:
        return 0
    try:
        return rank(tgt.basis.coords(src.after(d.mat)))
    except ValueError:
        raise AssertionError("composite escaped the hom space") from None


def ext_dim(M: Repn, N: Repn, i: int, resolution: Optional[ProjResolution] = None) -> int:
    """dim Ext^i(M, N) from a minimal (or any) projective resolution of M."""
    if i < 0:
        raise ValueError("ext degree must be >= 0")
    res = resolution
    if res is None:
        res = projective_resolution(M, max_depth=i + 1, halt_on_periodic=False)
    if res.status.kind == "truncated" and len(res.modules) < i + 2:
        raise ValueError(f"resolution truncated before depth {i + 1}")
    homs = {j: hom_space(res.term(j), N) for j in (i - 1, i, i + 1) if j >= 0}
    # res.differential(j) is None for j < 1, so homs[j - 1] exists when read
    r_in = _precompose_rank(res.differential(i), homs.get(i - 1), homs[i])
    r_out = _precompose_rank(res.differential(i + 1), homs[i], homs[i + 1])
    return len(homs[i]) - r_out - r_in


@dataclass
class GldimResult:
    kind: str  # "finite" | "infinite" | "unknown"
    value: Optional[int] = None
    witness: Optional[int] = None  # index into the deduplicated simple list
    period: Optional[int] = None
    offset: Optional[int] = None
    bound: Optional[int] = None

    def to_json(self):
        out = {"kind": self.kind}
        for k in ("value", "witness", "period", "offset", "bound"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        return out


def distinct_simples(A: Algebra) -> list:
    """Simple modules up to isomorphism (idempotents can repeat blocks):
    the simple of each ``context(A).representatives`` index."""
    ctx = context(A)
    return [ctx.simples[t] for t in ctx.representatives]


def _simple_resolutions(A: Algebra) -> list:
    """The depth-2 minimal resolution of each distinct simple, all that
    ``ext_dim`` needs in degree 1; built once per algebra and memoised on
    ``context(A)``."""
    ctx = context(A)
    if ctx.simple_resolutions is None:
        ctx.simple_resolutions = [
            projective_resolution(s, max_depth=2, halt_on_periodic=False)
            for s in distinct_simples(A)
        ]
    return ctx.simple_resolutions


def default_max_depth(A: Algebra) -> int:
    return A.radical_chain().nilpotency_index + 2


def global_dimension(A: Algebra, max_depth: Optional[int] = None) -> GldimResult:
    """gldim as max projective dimension of the simples; tri-state."""
    if max_depth is None:
        max_depth = default_max_depth(A)
    per = []
    worst_unknown = None
    for idx, s in enumerate(distinct_simples(A)):
        pd = projective_dimension(s, max_depth)
        per.append(pd)
        if pd.kind == "infinite":
            return GldimResult(kind="infinite", witness=idx, period=pd.period, offset=pd.offset)
        if pd.kind == "unknown":
            worst_unknown = pd
    if worst_unknown is not None:
        return GldimResult(kind="unknown", bound=max_depth)
    return GldimResult(kind="finite", value=max((pd.value for pd in per), default=0))


def is_injective(A: Algebra, M: Repn) -> bool:
    """Injectivity via Ext^1 vanishing against every simple.

    Valid for finite-dimensional algebras: a module with Ext^1(S, M) = 0
    for all simples S has no proper essential extension, by induction on
    the length of the cokernel.
    """
    if M.dim == 0:
        return True
    return all(
        ext_dim(res.module, M, 1, resolution=res) == 0 for res in _simple_resolutions(A)
    )


def is_self_injective(A: Algebra) -> bool:
    from .modules import regular_module

    return is_injective(A, regular_module(A))


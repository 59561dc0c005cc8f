"""Deterministic sample generation for property suites.

Every sample is derived from (seed, suite, index) through a string-seeded
RNG, so results are identical across runs and platforms.
Modules are drawn from a fixed pool (simples, projectives, Hom-lifts of the
filtration summands), then combined by sums, random quotients and kernels;
complexes by shifted sums, cones, and truncated resolutions.
"""

from __future__ import annotations

import random

from .auslander import AuslanderData
from .complexes import BComplex, ChainMap, cone, direct_sum_complexes, kb_hom, module_complex
from .functors import in_mod0, theta_rho
from .homology import projective_resolution
from .linalg import Mat, left_nullspace, row_basis
from .modules import (
    ModHom,
    Repn,
    context,
    direct_sum,
    hom_combination,
    hom_space,
    quotient_repn,
    sub_repn,
    zero_module,
)


def rng_for(seed: int, suite: str, index: int) -> random.Random:
    return random.Random(f"catres:{seed}:{suite}:{index}")


def random_hom(rng: random.Random, M: Repn, N: Repn) -> ModHom:
    space = hom_space(M, N)
    return hom_combination(space, [M.field.random_scalar(rng, 2) for _ in range(len(space))])


def _pick_parts(rng: random.Random, pool: list, tries: int, max_dim: int, fallback: Repn) -> Repn:
    """The sum of up to ``tries`` random pool members that fit in
    ``max_dim`` together, or of ``fallback`` alone if none fits."""
    parts = []
    budget = max_dim
    for _ in range(rng.randint(1, tries)):
        cand = rng.choice(pool)
        if cand.dim <= budget:
            parts.append(cand)
            budget -= cand.dim
    return direct_sum(parts or [fallback])


def _smallest(pool: list) -> Repn:
    return min(pool, key=lambda m: m.dim)


class ModulePool:
    """Reusable building blocks over tilde and over Lambda."""

    def __init__(self, data: AuslanderData):
        self.data = data
        lam = data.lam
        tilde = data.tilde
        ctx_l = context(lam)
        ctx_t = context(tilde)
        self.lam_pool = [ctx_l.regular] + list(ctx_l.simples) + list(data.summands)
        self.lam_projectives = [p for p in ctx_l.projectives if p.dim]
        tilde_pool = [s for s in ctx_t.simples] + [p for p in ctx_t.projectives if p.dim]
        tilde_pool += [theta_rho(n, data) for n in [ctx_l.regular] + list(ctx_l.simples)]
        self.tilde_pool = [m for m in tilde_pool if m.dim]
        self.tilde_mod0 = [m for m in self.tilde_pool if in_mod0(m, data)]

    def random_tilde_module(self, rng: random.Random, max_dim: int) -> Repn:
        """Direct sums, then optionally a random quotient or submodule."""
        m = _pick_parts(rng, self.tilde_pool, 3, max_dim, _smallest(self.tilde_pool))
        move = rng.randrange(3)
        if move and m.dim > 1:
            other = rng.choice(self.tilde_pool)
            if move == 1:
                f = random_hom(rng, m, other)
                sub, _ = sub_repn(m, left_nullspace(f.mat))
                if 0 < sub.dim:
                    return sub
            else:
                f = random_hom(rng, other, m)
                q, _ = quotient_repn(m, row_basis(f.mat))
                if 0 < q.dim:
                    return q
        return m

    def random_mod0_module(self, rng: random.Random, max_dim: int) -> Repn:
        """A module killed by e: sums of mod0 pool members, then a random
        quotient (mod0 is closed under sums, subs and quotients)."""
        if not self.tilde_mod0:
            return zero_module(self.data.tilde)
        m = _pick_parts(rng, self.tilde_mod0, 3, max_dim, self.tilde_mod0[0])
        if rng.randrange(2):
            f = random_hom(rng, rng.choice(self.tilde_mod0), m)
            q, _ = quotient_repn(m, row_basis(f.mat))
            if q.dim:
                return q
        return m

    def random_lam_module(self, rng: random.Random, max_dim: int) -> Repn:
        return _pick_parts(rng, self.lam_pool, 2, max_dim, _smallest(self.lam_pool))

    def random_projective_lam_module(self, rng: random.Random, max_dim: int) -> Repn:
        return _pick_parts(
            rng, self.lam_projectives, 3, max_dim, _smallest(self.lam_projectives)
        )

    # -- complexes ------------------------------------------------------

    def _sum_of_shifts(self, rng, window: int, max_term_dim: int, module_picker):
        parts = []
        for _ in range(rng.randint(1, 3)):
            m = module_picker(rng, max_term_dim)
            parts.append(module_complex(m, rng.randrange(window)))
        return direct_sum_complexes(parts)

    def _random_cone(self, rng, window: int, max_term_dim: int, module_picker):
        """The cone of a random chain map between two sums of shifts."""
        a = self._sum_of_shifts(rng, max(1, window - 1), max_term_dim // 2 + 1, module_picker)
        b = self._sum_of_shifts(rng, max(1, window - 1), max_term_dim // 2 + 1, module_picker)
        return cone(self.random_chain_map(rng, a, b))

    def random_chain_map(self, rng, C, D):
        kb = kb_hom(C, D)
        if kb.chain_rows.rows == 0:
            return ChainMap(C, D, {})
        f = C.algebra.field
        coeffs = Mat.row(f, [f.random_scalar(rng, 2) for _ in range(kb.chain_rows.rows)])
        return kb.coords_to_chainmap(coeffs @ kb.chain_rows)

    def random_tilde_complex(self, rng, window: int, max_term_dim: int):
        """Shifted sums, cones of random chain maps, truncated resolutions."""
        kind = rng.randrange(4)
        if kind == 1:
            cn = self._random_cone(rng, window, max_term_dim, self.random_tilde_module)
            return cn.trim() if not cn.is_zero() else cn
        if kind == 2 and self.tilde_pool:
            m = rng.choice(self.tilde_pool)
            depth = rng.randint(1, max(1, window - 1))
            res = projective_resolution(m, max_depth=depth)
            # place P_j at degree -j: ... -> P_1 -> P_0
            terms = list(reversed(res.modules))
            diffs = list(reversed(res.differentials))
            cx = BComplex(m.algebra, -(len(terms) - 1), terms, diffs)
            return cx.shift(rng.randrange(window) - window // 2)
        return self._sum_of_shifts(rng, window, max_term_dim, self.random_tilde_module)

    def random_mod0_complex(self, rng, window: int, max_term_dim: int):
        """All terms killed by e: sums of shifted mod0 modules and cones of
        chain maps between them (cone terms are sums of mod0 terms)."""
        if rng.randrange(2) == 0:
            return self._sum_of_shifts(rng, window, max_term_dim, self.random_mod0_module)
        return self._random_cone(rng, window, max_term_dim, self.random_mod0_module)

    def random_projective_lam_complex(self, rng, window: int, max_term_dim: int):
        """Bounded complex with all terms in add(regular module)."""
        kind = rng.randrange(3)
        if kind == 0:
            return self._sum_of_shifts(
                rng, window, max_term_dim, self.random_projective_lam_module
            )
        if kind == 1:
            p = self.random_projective_lam_module(rng, max_term_dim)
            q = self.random_projective_lam_module(rng, max_term_dim)
            f = random_hom(rng, p, q)
            deg = rng.randrange(max(1, window - 1))
            return BComplex(p.algebra, deg, [p, q], [f])
        return self._random_cone(rng, window, max_term_dim, self.random_projective_lam_module)

import json
import random
from collections import Counter
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from catres import homology as hml
from catres import modules as mod
from catres.algebra import Algebra
from catres.corpus import (
    gentle_two_cycle,
    truncated_poly_algebra,
    two_fields,
    upper_triangular_2,
)
from catres.auslander import build_auslander
from catres.io_json import parse_algebra_or_quiver
from catres.linalg import FieldSpec, Mat, RowBasis, left_nullspace, rank
from catres.samples import ModulePool
from oracles import (
    ext_is_injective,
    iso_distinct_simples,
    loop_projective_resolution,
    resolution_ext_dim,
)
from test_modules import syzygy_chain

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

F2 = FieldSpec("prime", 2)
F3 = FieldSpec("prime", 3)
F5 = FieldSpec("prime", 5)
QQ = FieldSpec("rational")


@pytest.fixture(scope="module")
def x2():
    return truncated_poly_algebra(F2, 2)


@pytest.fixture(scope="module")
def t2():
    return upper_triangular_2(F3)


@pytest.fixture(scope="module")
def ss():
    return two_fields(F5)


def test_resolution_of_projective_has_length_zero(x2):
    reg = mod.regular_module(x2)
    res = hml.projective_resolution(reg, max_depth=3)
    assert res.complete and len(res.modules) - 1 == 0


def test_resolution_of_simple_is_periodic(x2):
    s = mod.context(x2).simples[0]
    pd = hml.projective_dimension(s, max_depth=6)
    assert pd.kind == "infinite"
    assert pd.period == 1 and pd.offset == 0


def test_resolution_t2_nonprojective_simple(t2):
    ctx = mod.context(t2)
    lengths = []
    for s in ctx.simples:
        res = hml.projective_resolution(s, max_depth=4)
        assert res.complete
        lengths.append(len(res.modules) - 1)
    assert sorted(lengths) == [0, 1]


def test_resolution_invariants_d_squared_and_exactness(t2):
    # over the gentle algebra too: d.d = 0, im = ker at interior spots,
    # minimality im(d_i) <= P_(i-1).J
    for a in [t2, gentle_two_cycle(F2), truncated_poly_algebra(F3, 3)]:
        ctx = mod.context(a)
        for s in ctx.simples:
            res = hml.projective_resolution(s, max_depth=4)
            maps = [res.augmentation] + res.differentials
            for i in range(1, len(maps)):
                comp = maps[i].mat @ maps[i - 1].mat
                assert comp.is_zero()
            for i in range(1, len(res.modules)):
                d = res.differentials[i - 1]
                prev = maps[i - 1]
                assert rank(d.mat) == prev.source.dim - rank(prev.mat) if i == 1 else True
                ker_prev = left_nullspace(prev.mat)
                assert rank(d.mat) == ker_prev.rows  # im d_i = ker d_(i-1)
                prad = mod.radical_rows(d.target)
                from catres.linalg import row_basis

                img = row_basis(d.mat)
                for r in range(img.rows):
                    assert RowBasis(prad).contains(img.row_at(r))


def test_ext_zero_is_hom(x2, t2):
    for a in (x2, t2):
        ctx = mod.context(a)
        for m in [ctx.regular] + list(ctx.simples):
            for n in [ctx.regular] + list(ctx.simples):
                assert hml.ext_dim(m, n, 0) == len(mod.hom_space(m, n))


def test_ext1_self_extension_of_simple(x2):
    s = mod.context(x2).simples[0]
    assert hml.ext_dim(s, s, 1) == 1


def test_ext_vanishes_on_projectives(x2, t2):
    for a in (x2, t2):
        ctx = mod.context(a)
        for p in ctx.projectives:
            for n in [ctx.regular] + list(ctx.simples):
                for i in (1, 2):
                    assert hml.ext_dim(p, n, i) == 0


def test_ext_independent_of_resolution(x2):
    # recompute with a non-minimal resolution: cover plus an extra projective
    rng = random.Random(5)
    ctx = mod.context(x2)
    algebras = [x2, upper_triangular_2(F3)]
    for a in algebras:
        c = mod.context(a)
        pool = list(c.simples) + [c.regular]
        for _ in range(10):
            m = rng.choice(pool)
            n = rng.choice(pool)
            i = rng.choice([0, 1, 2])
            expected = hml.ext_dim(m, n, i)
            padded = _padded_resolution(m, i + 1)
            assert resolution_ext_dim(m, n, i, padded) == expected


def _padded_resolution(m, depth):
    """Non-minimal resolution: direct-sum an extra projective with identity."""
    from catres.homology import ProjResolution

    ctx = mod.context(m.algebra)
    res = hml.projective_resolution(m, max_depth=depth)
    extra = ctx.projectives[0]
    if len(res.modules) < 2 or extra.dim == 0:
        return res

    def inclusions(first, total):
        """The row blocks of the two parts of a sum whose first part has dim first."""
        ident = Mat.identity(m.field, total)
        return ident.take_rows(range(first)), ident.take_rows(range(first, total))

    # splice P_extra with identity between spots 1 and 0's kernel: standard
    # trick: replace P_1 by P_1 + E and P_2 by P_2 + E with identity on E
    p1 = res.modules[1]
    new_p1 = mod.direct_sum([p1, extra])
    injs1 = inclusions(p1.dim, new_p1.dim)
    d1 = res.differentials[0]
    new_d1 = mod.ModHom(new_p1, res.modules[0], injs1[0].T @ d1.mat)
    modules = [res.modules[0], new_p1]
    diffs = [new_d1]
    if len(res.modules) > 2:
        p2 = res.modules[2]
        new_p2 = mod.direct_sum([p2, extra])
        injs2 = inclusions(p2.dim, new_p2.dim)
        d2 = res.differentials[1]
        m2 = injs2[0].T @ d2.mat @ injs1[0] + injs2[1].T @ injs1[1]
        diffs.append(mod.ModHom(new_p2, new_p1, m2))
        modules.append(new_p2)
        modules.extend(res.modules[3:])
        rest = list(res.differentials[2:])
        if rest:
            d3 = rest[0]
            rest[0] = mod.ModHom(d3.source, new_p2, d3.mat @ injs2[0])
        diffs.extend(rest)
    return ProjResolution(
        module=m,
        modules=modules,
        differentials=diffs,
        augmentation=res.augmentation,
        complete=res.complete,
    )


def test_global_dimension_semisimple(ss):
    g = hml.global_dimension(ss)
    assert g.kind == "finite" and g.value == 0


def test_global_dimension_x2_infinite(x2):
    g = hml.global_dimension(x2)
    assert g.kind == "infinite" and g.period == 1


def test_global_dimension_t2(t2):
    g = hml.global_dimension(t2)
    assert g.kind == "finite" and g.value == 1


def test_global_dimension_gentle_infinite_within_10():
    g = hml.global_dimension(gentle_two_cycle(F2), max_depth=10)
    assert g.kind == "infinite" and g.period == 2


def test_global_dimension_opposite_involution(t2, ss):
    # gldim(A^op) = gldim(A); the right table of A is the table of A^op
    for a in [t2, ss, truncated_poly_algebra(F3, 3)]:
        g1 = hml.global_dimension(a)
        op = Algebra(a.field, a.basis_labels, a.unit, a.right_table())
        g2 = hml.global_dimension(op)
        assert g1.kind == g2.kind and g1.value == g2.value


def test_self_injectivity(x2, t2, ss):
    assert hml.is_self_injective(x2)
    assert not hml.is_self_injective(t2)
    assert hml.is_self_injective(ss)
    assert hml.is_self_injective(truncated_poly_algebra(F3, 3))
    assert hml.is_self_injective(gentle_two_cycle(F2))


def test_simple_over_semisimple_is_injective(ss):
    s = mod.context(ss).simples[0]
    assert hml.is_injective(s)


def test_injective_module_detection_t2(t2):
    # over the path algebra of 1 -> 2 the injective indecomposables have
    # dimensions 1 and 2; P_2 (dim 1, the simple at the sink as a projective)
    # is injective, the 2-dim projective is not... check via Ext criterion
    ctx = mod.context(t2)
    injective_flags = sorted(hml.is_injective(p) for p in ctx.projectives)
    assert injective_flags == [False, True]


def _corpus_and_auslander_algebras():
    for path in sorted(CORPUS.glob("*.json")):
        lam = parse_algebra_or_quiver(json.loads(path.read_text()))
        yield path.stem, lam
        yield f"T({path.stem})", build_auslander(lam).tilde


def test_distinct_simples_match_isomorphism_route_on_corpus_and_auslander_algebras():
    repeated = set()
    for label, A in _corpus_and_auslander_algebras():
        fast = hml.distinct_simples(A)
        slow = iso_distinct_simples(A)
        assert [id(s) for s in fast] == [id(s) for s in slow], label
        if len(fast) < len(mod.context(A).simples):
            repeated.add(label)
    assert "T(t2_f3)" in repeated


def test_injectivity_resolves_each_simple_once(monkeypatch):
    # gldim, the injectivity test and later resolutions of a simple all walk
    # one syzygy chain: every module gets one presentation, and every
    # presentation one syzygy module
    built, alive = Counter(), []
    build = mod._build_presentation

    def counting(M):
        built[id(M)] += 1
        alive.append(M)  # keeps every id distinct
        return build(M)

    monkeypatch.setattr(mod, "_build_presentation", counting)
    rng = random.Random(3)
    for label, A in _corpus_and_auslander_algebras():
        ctx = mod.context(A)
        simples = hml.distinct_simples(A)
        hml.global_dimension(A)
        omegas = [mod.projective_presentation(s).omega for s in simples]
        pool = [ctx.regular] + list(ctx.simples) + list(ctx.projectives)
        for M in rng.sample(pool, min(4, len(pool))):
            fresh = [hml.ext_dim(s, M, 1) for s in simples]
            resolved = [hml.projective_resolution(s, max_depth=2) for s in simples]
            assert [resolution_ext_dim(r.module, M, 1, r) for r in resolved] == fresh, label
            assert hml.is_injective(M) == (not any(fresh)), label
        for s, omega in zip(simples, omegas):
            res = hml.projective_resolution(s, max_depth=4)
            assert mod.projective_presentation(s).omega is omega, label
            if len(res.modules) > 1:
                assert res.modules[1] is mod.projective_cover(omega[0]).source, label
        assert set(built.values()) == {1}, label


@cache
def _corpus_pool(name):
    """The ``ModulePool`` of the Auslander data of a corpus file."""
    return ModulePool(build_auslander(parse_algebra_or_quiver(json.loads((CORPUS / name).read_text()))))


CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.json"))


def test_socle_injectivity_matches_the_ext_route_on_the_module_pools():
    verdicts = Counter()
    for name in CORPUS_FILES:
        pool = _corpus_pool(name)
        for side, modules in (
            ("lam", pool.lam_pool + pool.lam_projectives),
            ("tilde", pool.tilde_pool + [mod.context(pool.data.tilde).regular]),
        ):
            for M in modules:
                verdict = hml.is_injective(M)
                assert verdict == ext_is_injective(M), (name, side, M.dim)
                verdicts[side, verdict] += 1
    assert set(verdicts) == {(side, v) for side in ("lam", "tilde") for v in (False, True)}


@settings(max_examples=40)
@given(st.sampled_from(CORPUS_FILES), st.sampled_from(["tilde", "mod0", "lam"]), st.integers(0, 2**32 - 1))
def test_socle_injectivity_matches_the_ext_route_on_random_modules(name, kind, seed):
    pool = _corpus_pool(name)
    rng = random.Random(seed)
    if kind == "lam":
        M = pool.random_lam_module(rng, 12)
    else:
        pick = pool.random_tilde_module if kind == "tilde" else pool.random_mod0_module
        M = pick(rng, 12)
    assert hml.is_injective(M) == ext_is_injective(M)


def test_ext_dim_matches_the_resolution_route_on_corpus_and_auslander_algebras():
    # dual route: the dimension shift down the syzygy chain against the
    # cohomology of Hom(P_*, N) on the minimal resolution
    for label, A in _corpus_and_auslander_algebras():
        ctx = mod.context(A)
        targets = [ctx.regular] + list(ctx.simples) + list(ctx.projectives)
        for s in hml.distinct_simples(A):
            res = hml.projective_resolution(s, max_depth=4)
            for n in targets:
                for i in range(4):
                    assert hml.ext_dim(s, n, i) == resolution_ext_dim(s, n, i, res), (label, i)


_LOOP_KIND = {"complete": "finite", "periodic": "infinite", "truncated": "unknown"}


def test_resolution_walk_matches_the_loop_route_on_corpus_and_auslander_algebras():
    # S + P(S) has the syzygies of S but is none of them: periodicity
    # there starts at offset 1
    seen = set()
    for label, A in _corpus_and_auslander_algebras():
        for s in hml.distinct_simples(A):
            padded = mod.direct_sum([s, mod.projective_cover(s).source])
            for M in [s] + [z for z in syzygy_chain(s, 2) if z.dim] + [padded]:
                for depth in range(7):
                    where = (label, M.dim, depth)
                    pd = hml.projective_dimension(M, depth)
                    loop = loop_projective_resolution(M, depth).status
                    assert pd.kind == _LOOP_KIND[loop.kind], where
                    assert (pd.value, pd.period, pd.offset) == (
                        loop.length,
                        loop.period,
                        loop.offset,
                    ), where
                    res = hml.projective_resolution(M, depth)
                    full = loop_projective_resolution(M, depth, halt_on_periodic=False)
                    assert [P.dim for P in res.modules] == [P.dim for P in full.modules], where
                    assert res.augmentation.mat == full.augmentation.mat, where
                    assert [d.mat for d in res.differentials] == [
                        d.mat for d in full.differentials
                    ], where
                    assert res.complete == (full.status.kind == "complete"), where
                    seen.add((pd.kind, pd.offset))
    assert {("finite", None), ("unknown", None), ("infinite", 0), ("infinite", 1)} <= seen


def test_infinite_projective_dimension_never_resolves():
    seen = 0
    for label, A in _corpus_and_auslander_algebras():
        for s in hml.distinct_simples(A):
            if hml.projective_dimension(s, 8).kind == "infinite":
                assert not hml.projective_resolution(s, 8).complete, label
                seen += 1
    assert seen


def test_negative_depth_is_rejected():
    s = mod.context(truncated_poly_algebra(F2, 2)).simples[0]
    with pytest.raises(ValueError, match="max_depth must be >= 0"):
        hml.projective_dimension(s, -1)
    with pytest.raises(ValueError, match="max_depth must be >= 0"):
        hml.projective_resolution(s, -1)

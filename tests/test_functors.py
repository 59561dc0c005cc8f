import gc
import json
import weakref
from pathlib import Path

import pytest

from catres import complexes as cx
from catres import functors
from catres import modules as mod
from catres.auslander import build_auslander
from catres.corpus import gentle_two_cycle, truncated_poly_algebra
from catres.functors import (
    adjunction_check,
    corner_rows,
    counit,
    four_term_sequence,
    in_mod0,
    theta,
    theta_hom,
    theta_lambda,
    theta_lambda_data,
    theta_rho,
    theta_rho_data,
    theta_rho_hom,
    theta_rho_maps,
    unit_on_module,
    unit_psis,
)
from catres.io_json import parse_algebra_or_quiver
from catres.linalg import FieldSpec, Mat, left_nullspace, rank, row_basis, solve_left
from catres.samples import ModulePool, random_hom, rng_for
from oracles import (
    loop_theta,
    loop_theta_rho_hom,
    loop_unit_psis,
    module_content,
    theta_via_presentation,
)
from test_modules import _cycle_quiver_f2, _dual_route_algebras

F2 = FieldSpec("prime", 2)
CORPUS = Path(__file__).resolve().parents[1] / "corpus"


@pytest.fixture(scope="module")
def data():
    return build_auslander(truncated_poly_algebra(F2, 2))


@pytest.fixture(scope="module")
def pool(data):
    return ModulePool(data)


def lam_ctx(data):
    return mod.context(data.lam)


def _same_module(a, b):
    return (a.algebra, a.dim) == (b.algebra, b.dim) and a.flat_action() == b.flat_action()


def _copy(M):
    """Another module object with M's content."""
    return mod.Repn(M.algebra, M.dim, M.flat_action())


def test_functor_values_are_kept_on_the_module(data, pool):
    # and shared with every module of the same content
    rng = rng_for(0, "kept", 0)
    F, N = pool.random_tilde_module(rng, 8), pool.random_lam_module(rng, 5)
    assert theta(F, data) is theta(F, data) is theta(_copy(F), data)
    assert corner_rows(F, data) is corner_rows(_copy(F), data)
    assert theta_rho_data(N, data) is theta_rho_data(N, data) is theta_rho_data(_copy(N), data)
    assert theta_lambda_data(N, data) is theta_lambda_data(_copy(N), data)


def test_kept_values_follow_the_auslander_data(data, pool):
    # each data keeps its own values: other data get their own value, asked
    # with F's copy over their own tilde, asking for the first data again
    # returns the first value, and a value is freed with its data
    rng = rng_for(0, "kept-data", 0)
    F, N = pool.random_tilde_module(rng, 8), pool.random_lam_module(rng, 5)
    first_theta, first_trd = theta(F, data), theta_rho_data(N, data)
    other = build_auslander(data.lam)
    F_other = mod.Repn(other.tilde, F.dim, F.flat_action())
    second_theta, second_trd = theta(F_other, other), theta_rho_data(N, other)
    assert second_theta is not first_theta and second_trd is not first_trd
    assert second_theta.flat_action() == first_theta.flat_action()
    assert second_trd.module.algebra is other.tilde
    assert second_trd.module.flat_action() == first_trd.module.flat_action()
    assert theta(F, data) is first_theta and theta_rho_data(N, data) is first_trd
    assert theta(F_other, other) is second_theta and theta_rho_data(N, other) is second_trd
    assert theta(_copy(F_other), other) is second_theta
    assert theta_rho_data(_copy(N), other) is second_trd
    freed = [weakref.ref(x) for x in (other, other.tilde, second_theta, second_trd)]
    del other, F_other, second_theta, second_trd
    gc.collect()
    assert [r() for r in freed] == [None] * len(freed)
    assert theta(F, data) is first_theta and theta_rho_data(N, data) is first_trd


def test_functor_values_refuse_a_module_over_another_algebra(data, pool):
    # a tilde-module over another data's tilde, and a Lambda-module where a
    # tilde-module belongs or the other way round, raise before anything
    # is built or kept
    rng = rng_for(0, "kept-data", 1)
    F, N = pool.random_tilde_module(rng, 8), pool.random_lam_module(rng, 5)
    other = build_auslander(data.lam)
    calls = [
        (theta, F, other, "theta: the module is not over data.tilde"),
        (corner_rows, N, data, "corner_rows: the module is not over data.tilde"),
        (theta_rho_data, F, data, "theta_rho: the module is not over data.lam"),
        (theta_lambda_data, F, data, "theta_lambda: the module is not over data.lam"),
        (counit, F, data, "counit: the module is not over data.lam"),
    ]
    kept = len(data.functor_values)
    for fn, M, d, message in calls:
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(M, d)
    assert other.functor_values == {} and len(data.functor_values) == kept


def test_kept_values_equal_a_fresh_build(data, pool):
    for i in range(10):
        rng = rng_for(0, "kept-fresh", i)
        F, N = pool.random_tilde_module(rng, 8), pool.random_lam_module(rng, 5)
        assert corner_rows(_copy(F), data) == row_basis(F.rho(data.e))
        assert _same_module(theta(F, data), functors._theta(F, data))
        kept, fresh = theta_rho_data(N, data), functors._theta_rho_data(N, data)
        assert _same_module(kept.module, fresh.module) and kept.space.flat == fresh.space.flat
        kept, fresh = theta_lambda_data(N, data), functors._theta_lambda_data(N, data)
        assert _same_module(kept.module, fresh.module)
        assert kept.quotient.mat == fresh.quotient.mat and kept.cover.mat == fresh.cover.mat


def test_step_v_builds_each_term_value_once(data, pool, monkeypatch):
    # fresh data, so no value kept by an earlier test is reused; values are
    # kept on the data by content, so each is built once per distinct content
    data = build_auslander(data.lam)
    built = {"_theta": [], "_theta_rho_data": []}
    for name, log in built.items():
        real = getattr(functors, name)

        def counted(M, d, real=real, log=log):
            log.append(M)
            return real(M, d)

        monkeypatch.setattr(functors, name, counted)
    terms = {"_theta": [], "_theta_rho_data": []}  # every term, kept alive
    for i in range(5):
        rng = rng_for(0, "kept-step-v", i)
        P = pool.random_projective_lam_complex(rng, 4, 12)
        start = {name: len(log) for name, log in built.items()}
        sv = cx.step_v_unit(P, data)
        assert sv.ok, (i, sv.detail)
        terms["_theta_rho_data"] += P.terms
        terms["_theta"] += sv.lifted.terms
        for name, new in (("_theta_rho_data", P.terms), ("_theta", sv.lifted.terms)):
            fresh = {module_content(M) for M in built[name][start[name]:]}
            assert fresh <= {module_content(t) for t in new}, (name, i)
    for name, log in built.items():
        contents = [module_content(M) for M in log]
        assert len(contents) == len(set(contents)), name  # no content built twice
        assert set(contents) == {module_content(t) for t in terms[name]}, name


def test_theta_rho_dims(data):
    ctx = lam_ctx(data)
    assert theta_rho(ctx.regular, data).dim == 3
    assert theta_rho(ctx.simples[0], data).dim == 2
    assert theta_rho(mod.zero_module(data.lam), data).dim == 0


def test_theta_of_theta_rho_is_counit_iso(data):
    ctx = lam_ctx(data)
    for n in [ctx.regular, ctx.simples[0]]:
        c = counit(n, data)
        assert c.validate()
        assert c.mat.rows == c.mat.cols == n.dim
        assert rank(c.mat) == n.dim


def test_counit_natural_on_random_modules(data, pool):
    # explicit iso produced and checked for 30 random N, naturality included
    for i in range(30):
        rng = rng_for(0, "counit-nat", i)
        n1 = pool.random_lam_module(rng, 6)
        n2 = pool.random_lam_module(rng, 6)
        g = random_hom(rng, n1, n2)
        c1 = counit(n1, data)
        c2 = counit(n2, data)
        assert rank(c1.mat) == n1.dim and rank(c2.mat) == n2.dim
        lifted = theta_rho_hom(g, data)
        back = theta_hom(lifted, data)
        assert back.mat @ c2.mat == c1.mat @ g.mat
        assert functors.counit_natural(g, data)


def _theta_rho_maps_match_the_loop(space, data):
    src, tgt = theta_rho_data(space.source, data), theta_rho_data(space.target, data)
    lifted = theta_rho_maps(space, data)
    assert (lifted.source, lifted.target) == (src.module, tgt.module)
    assert (lifted.flat.rows, lifted.flat.cols) == (len(space), src.module.dim * tgt.module.dim)
    for t, g in enumerate(space):
        assert lifted[t].mat == loop_theta_rho_hom(g, src, tgt).mat, t
        assert theta_rho_hom(g, data).mat == lifted[t].mat, t


@pytest.mark.parametrize("corpus_file", ["x2_f2", "x3_q"])
def test_theta_rho_maps_match_the_per_map_loop(corpus_file):
    lam = parse_algebra_or_quiver(json.loads((CORPUS / f"{corpus_file}.json").read_text()))
    data = build_auslander(lam)
    pool = ModulePool(data)
    zero = mod.zero_module(lam)
    for i in range(12):
        rng = rng_for(0, "theta-rho-maps", i)
        n1, n2 = pool.random_lam_module(rng, 6), pool.random_lam_module(rng, 6)
        _theta_rho_maps_match_the_loop(mod.hom_space(n1, n2), data)
    # an empty space, and one map into and one out of the zero module,
    # whose theta_rho is zero-dimensional
    reg = mod.context(lam).regular
    _theta_rho_maps_match_the_loop(mod.hom_space(zero, reg), data)
    for a, b in ((reg, zero), (zero, reg)):
        assert theta_rho(zero, data).dim == 0
        _theta_rho_maps_match_the_loop(mod.HomSpace(a, b, Mat.zeros(lam.field, 1, 0)), data)


def test_theta_and_theta_rho_maps_match_the_per_element_loops_on_corpus_and_group_algebras():
    seen = set()
    for label, lam in [*_dual_route_algebras(), ("cycle4", _cycle_quiver_f2(4))]:
        data = build_auslander(lam)
        pool = ModulePool(data)
        ctx = mod.context(data.tilde)
        rng = rng_for(0, "theta-loop", lam.dim)
        mods = [*ctx.simples, *ctx.projectives, ctx.regular, mod.zero_module(data.tilde)]
        mods += [pool.random_tilde_module(rng, 8) for _ in range(4)]
        for F in mods:
            assert _same_module(theta(F, data), loop_theta(F, data)), (label, F.dim)
        for _ in range(3):
            n1, n2 = pool.random_lam_module(rng, 6), pool.random_lam_module(rng, 6)
            space = mod.hom_space(n1, n2)
            _theta_rho_maps_match_the_loop(space, data)
            if len(space):
                seen.add(label)
    assert {"F2[S3]", "cycle4"} <= seen


def test_theta_on_mod0_simple_is_zero(data):
    ctx_t = mod.context(data.tilde)
    killed = [s for s in ctx_t.simples if in_mod0(s, data)]
    assert killed
    for s in killed:
        assert theta(s, data).dim == 0


def test_mod0_characterization_on_pool(data, pool):
    for f in pool.tilde_pool:
        assert in_mod0(f, data) == (theta(f, data).dim == 0)
        assert in_mod0(f, data) == (theta_via_presentation(f, data).dim == 0)


def test_theta_exactness_on_random_short_exact_sequences(data, pool):
    # restriction of a short exact sequence stays exact (20 samples)
    for i in range(20):
        rng = rng_for(0, "theta-exact", i)
        big = pool.random_tilde_module(rng, 10)
        other = pool.tilde_pool[rng.randrange(len(pool.tilde_pool))]
        f = random_hom(rng, other, big)
        sub, incl = mod.sub_repn(big, row_basis(f.mat))
        quot, proj = mod.quotient_repn(big, row_basis(f.mat))
        t_incl = theta_hom(incl, data)
        t_proj = theta_hom(proj, data)
        assert rank(t_incl.mat) == t_incl.source.dim  # still mono
        assert rank(t_proj.mat) == t_proj.target.dim  # still epi
        assert (t_incl.mat @ t_proj.mat).is_zero()
        assert t_incl.source.dim - t_incl.target.dim + t_proj.target.dim == 0


def test_theta_lambda_of_simple(data):
    ctx = lam_ctx(data)
    tl = theta_lambda(ctx.simples[0], data)
    assert tl.dim == 2 and tl.validate()


def test_theta_lambda_on_projective_matches_theta_rho(data):
    ctx = lam_ctx(data)
    tld = theta_lambda_data(ctx.regular, data)
    trd = theta_rho_data(ctx.regular, data)
    assert tld.module.dim == trd.module.dim
    assert (tld.module.action == trd.module.action).all()


def test_theta_lambda_independent_of_presentation(data, pool):
    # theta_lambda built from the minimal cover must agree (up to iso) with
    # the value on any other module isomorphic to N
    for i in range(10):
        rng = rng_for(0, "tl-pres", i)
        n = pool.random_lam_module(rng, 5)
        tl = theta_lambda(n, data)
        # recompute after permuting a direct-sum presentation of n
        m = mod.direct_sum([n])
        tl2 = theta_lambda(m, data)
        assert tl.dim == tl2.dim
        if tl.dim:
            assert mod.is_isomorphic(tl, tl2) is not None


def test_unit_on_module_is_iso(data, pool):
    for i in range(10):
        rng = rng_for(0, "unit-mod", i)
        n = pool.random_lam_module(rng, 5)
        u = unit_on_module(n, data)
        assert u.validate()
        assert u.mat.rows == u.mat.cols == n.dim
        assert rank(u.mat) == n.dim


def test_four_term_on_theta_rho_image(data):
    ctx = lam_ctx(data)
    for n in [ctx.regular, ctx.simples[0]]:
        seq = four_term_sequence(theta_rho(n, data), data)
        assert seq.F0.dim == 0 and seq.F1.dim == 0


def test_four_term_on_mod0_module(data):
    ctx_t = mod.context(data.tilde)
    s0 = [s for s in ctx_t.simples if in_mod0(s, data)][0]
    seq = four_term_sequence(s0, data)
    assert seq.F0.dim == s0.dim and seq.F1.dim == 0 and seq.middle.dim == 0


def test_four_term_fixture_cokernel_of_socle_postcomposition(data):
    # F = coker(Hom(M,S) -> Hom(M,Lambda)) along the socle inclusion
    ctx = lam_ctx(data)
    s, reg = ctx.simples[0], ctx.regular
    incl = next(h for h in mod.hom_space(s, reg) if not h.is_zero())
    lifted = theta_rho_hom(incl, data)
    F, _ = mod.quotient_repn(theta_rho(reg, data), row_basis(lifted.mat))
    assert F.dim == 1
    seq = four_term_sequence(F, data)
    assert seq.F0.dim == 0 and seq.F1.dim == 1
    assert in_mod0(seq.F1, data)


def test_unit_psis_match_the_loop_on_every_corpus_file():
    for path in sorted(CORPUS.glob("*.json")):
        data = build_auslander(parse_algebra_or_quiver(json.loads(path.read_text())))
        assert unit_psis(data) == loop_unit_psis(data), path.stem


def test_four_term_invariants_random(data, pool):
    for i in range(20):
        rng = rng_for(0, "ft-rand", i)
        F = pool.random_tilde_module(rng, 10)
        seq = four_term_sequence(F, data)
        assert seq.alpha.validate()
        assert in_mod0(seq.F0, data) and in_mod0(seq.F1, data)
        assert seq.F0.dim - seq.F.dim + seq.middle.dim - seq.F1.dim == 0
        assert (seq.f0_incl.mat @ seq.alpha.mat).is_zero()
        assert (seq.alpha.mat @ seq.f1_proj.mat).is_zero()
        # the kernel and the image of alpha, each from its own reduction
        F0, f0_incl = mod.sub_repn(F, left_nullspace(seq.alpha.mat))
        F1, f1_proj = mod.quotient_repn(seq.middle, row_basis(seq.alpha.mat))
        assert _same_module(seq.F0, F0) and seq.f0_incl.mat == f0_incl.mat
        assert _same_module(seq.F1, F1) and seq.f1_proj.mat == f1_proj.mat
        # theta applied to the sequence: middle map becomes an isomorphism
        t_alpha = theta_hom(seq.alpha, data)
        assert t_alpha.mat.rows == t_alpha.mat.cols
        assert rank(t_alpha.mat) == t_alpha.mat.rows


def test_remark_uniqueness_of_induced_map(data, pool):
    # the map between the Hom-lifts commuting with a given morphism through
    # the units is unique: the solution space of the linear system is a point
    for i in range(10):
        rng = rng_for(0, "uniq", i)
        F = pool.random_tilde_module(rng, 8)
        G = pool.random_tilde_module(rng, 8)
        sigma = random_hom(rng, F, G)
        sF = four_term_sequence(F, data)
        sG = four_term_sequence(G, data)
        homs = mod.hom_space(sF.middle, sG.middle)
        if not homs:
            assert (sigma.mat @ sG.alpha.mat).is_zero() or sF.middle.dim == 0
            continue
        target = sigma.mat @ sG.alpha.mat  # F -> middle_G
        # delta must satisfy alpha_F then delta = target
        rows = []
        for h in homs:
            rows.append((sF.alpha.mat @ h.mat).flatten_row())
        system = Mat.stack_rows(F.field, rows)
        sol = solve_left(system, target.flatten_row())
        assert sol is not None
        assert left_nullspace(system).rows == 0, "induced map is not unique"


def test_adjunction_check_cases(data, pool):
    ctx = lam_ctx(data)
    regT = mod.regular_module(data.tilde)
    cases = [
        (regT, ctx.regular),
        (regT, ctx.simples[0]),
        (theta_rho(ctx.simples[0], data), ctx.regular),
    ]
    for i in range(8):
        rng = rng_for(0, "adjcase", i)
        cases.append((pool.random_tilde_module(rng, 8), pool.random_lam_module(rng, 5)))
    for F, N in cases:
        r = adjunction_check(F, N, data)
        assert r["ok"], r


def test_adjunction_zero_cases(data):
    z_t = mod.zero_module(data.tilde)
    z_l = mod.zero_module(data.lam)
    r = adjunction_check(z_t, z_l, data)
    assert r["ok"]


def test_theta_presentation_oracle_30_random(data, pool):
    for i in range(30):
        rng = rng_for(0, "theta-oracle", i)
        F = pool.random_tilde_module(rng, 10)
        t1 = theta(F, data)
        t2 = theta_via_presentation(F, data)
        assert t1.dim == t2.dim
        if t1.dim:
            assert mod.is_isomorphic(t1, t2) is not None


def test_theta_presentation_oracle_other_base():
    d = build_auslander(gentle_two_cycle(F2))
    p = ModulePool(d)
    for i in range(10):
        rng = rng_for(0, "theta-oracle-g", i)
        F = p.random_tilde_module(rng, 8)
        t1 = theta(F, d)
        t2 = theta_via_presentation(F, d)
        assert t1.dim == t2.dim
        if t1.dim:
            assert mod.is_isomorphic(t1, t2) is not None

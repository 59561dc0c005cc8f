import json
from pathlib import Path

import pytest

from catres import complexes as cx
from catres import functors
from catres import modules as mod
from catres.auslander import build_auslander, corner_dim
from catres.certify import CertConfig, right_adjoint_sample, suite_results
from catres.corpus import truncated_poly_algebra
from catres.functors import in_mod0, theta_hom, theta_rho
from catres.io_json import parse_algebra_or_quiver
from catres.linalg import FieldSpec, Mat, rank
from catres.samples import ModulePool, rng_for
from oracles import (
    module_homology,
    resolution_ext_dim,
    roundtrip_adjunction,
    roundtrip_right_adjoint,
)

F2 = FieldSpec("prime", 2)
CORPUS = Path(__file__).resolve().parents[1] / "corpus"


@pytest.fixture(scope="module")
def data():
    return build_auslander(truncated_poly_algebra(F2, 2))


@pytest.fixture(scope="module")
def pool(data):
    return ModulePool(data)


@pytest.fixture(scope="module")
def reg(data):
    return mod.context(data.lam).regular


def test_validate_and_shift(data, reg):
    c = cx.BComplex(data.lam, 0, [reg, reg], [mod.ModHom(reg, reg, reg.action_mat(1))])
    assert c.validate() == []
    s = c.shift(1)
    assert s.lo == -1 and s.hi == 0
    assert s.validate() == []
    assert s.diff(-1).mat == c.diff(0).mat.scale(-1)


def test_cone_of_identity_is_acyclic(data, reg):
    c = cx.module_complex(reg)
    ident = mod.ModHom(reg, reg, Mat.identity(F2, reg.dim))
    cn = cx.cone(cx.ChainMap(c, c, {0: ident}))
    assert cn.validate() == []
    assert cx.is_acyclic(cn)


def test_cone_of_zero_is_sum_with_shift(data, reg):
    c = cx.module_complex(reg)
    cn = cx.cone(cx.ChainMap(c, c, {}))
    assert (cn.lo, cn.hi) == (-1, 0)
    assert [t.dim for t in cn.terms] == [2, 2]
    assert module_homology(cn) and all(h.dim == 2 for h in module_homology(cn))


def test_cone_of_x_multiplication(data, reg):
    c = cx.module_complex(reg)
    xmul = mod.ModHom(reg, reg, reg.action_mat(1))
    cn = cx.cone(cx.ChainMap(c, c, {0: xmul}))
    hs = module_homology(cn)
    assert [h.dim for h in hs] == [1, 1]  # the simple in two degrees


def test_homology_basics(data, reg):
    assert cx.is_acyclic(cx.zero_complex(data.lam))
    one = cx.module_complex(reg)
    assert [h.dim for h in module_homology(one)] == [2]
    T, piT = mod.quotient_repn(reg, mod.radical_rows(reg))
    two = cx.BComplex(data.lam, 0, [reg, T], [piT])
    assert [h.dim for h in module_homology(two)] == [1, 0]


def test_kb_hom_single_module(data, reg):
    c = cx.module_complex(reg)
    assert cx.kb_hom(c, c).dim == 2
    assert cx.kb_hom(c, c.shift(1)).dim == 0


def test_kb_hom_yoneda_at_projective(data, reg):
    f = theta_rho(reg, data)
    c = cx.module_complex(f)
    assert cx.kb_hom(c, c).dim == corner_dim(data)


def test_kb_hom_kills_homotopic(data, reg):
    # the two-term complex with identity differential is contractible, so
    # every chain map out of it is null-homotopic
    c = cx.BComplex(data.lam, 0, [reg, reg], [mod.ModHom(reg, reg, Mat.identity(F2, reg.dim))])
    d = cx.module_complex(reg)
    kb = cx.kb_hom(c, d)
    assert kb.dim == 0
    assert cx.kb_hom(c, c).dim == 0 or not cx.is_acyclic(c)


def test_db_theta_functoriality(data, pool):
    for i in range(10):
        rng = rng_for(0, "dbth", i)
        F = pool.random_tilde_complex(rng, 4, 10)
        G = pool.random_tilde_complex(rng, 4, 10)
        u = pool.random_chain_map(rng, F, G)
        tf = cx.db_theta(F, data)
        tg = cx.db_theta(G, data)
        tu = cx.ChainMap(tf, tg, {j: theta_hom(h, data) for j, h in u.comps.items()})
        assert tf.validate() == [] and tg.validate() == []
        assert tu.validate()


def test_db_theta_on_mod0_complex_vanishes(data, pool):
    rng = rng_for(0, "dbth0", 0)
    G = pool.random_mod0_complex(rng, 3, 8)
    assert cx.db_theta(G, data).is_zero()


def test_kb_theta_lambda_projective_terms(data, reg):
    p = cx.BComplex(data.lam, 0, [reg, reg], [mod.ModHom(reg, reg, reg.action_mat(1))])
    lifted = cx.kb_theta_lambda_data(p, data)
    assert [t.dim for t in lifted.terms] == [3, 3]
    assert lifted.validate() == []
    for t in lifted.terms:
        assert mod.is_projective(t)


def test_kb_theta_lambda_rejects_nonprojective(data):
    ctx = mod.context(data.lam)
    s = ctx.simples[0]
    c = cx.module_complex(s)
    with pytest.raises(cx.ComplexError):
        cx.kb_theta_lambda_data(c, data)


def test_step_v_on_100_random_projective_complexes(data, pool):
    for i in range(100):
        rng = rng_for(0, "stepv100", i)
        P = pool.random_projective_lam_complex(rng, 4, 12)
        sv = cx.step_v_unit(P, data)
        assert sv.ok, (i, sv.detail)


def test_step_v_naturality_20_chain_maps(data, pool):
    for i in range(20):
        rng = rng_for(0, "stepv-nat", i)
        P = pool.random_projective_lam_complex(rng, 4, 12)
        Q = pool.random_projective_lam_complex(rng, 4, 12)
        u = pool.random_chain_map(rng, P, Q)
        assert cx.step_v_naturality(u, data), i


def _x3_f3():
    return parse_algebra_or_quiver(json.loads((CORPUS / "x3_f3.json").read_text()))


def test_a_scaled_counit_fails_step_v(monkeypatch):
    # the counit scaled by 2 over F_3 on one term content stays invertible,
    # but no longer commutes with a nonzero map out of that term
    lam = _x3_f3()
    P = ModulePool(build_auslander(lam)).random_projective_lam_complex(
        rng_for(0, "unit_iso", 4), 4, 12
    )
    i, d = next((i, d) for i, d in zip(P.degrees(), P.diffs) if not d.mat.is_zero())
    assert d.source.key != d.target.key and cx.step_v_unit(P, build_auslander(lam)).ok
    real = functors._counit

    def scaled(N, data):
        c = real(N, data)
        return mod.ModHom(c.source, c.target, c.mat.scale(2)) if N.key == d.source.key else c

    monkeypatch.setattr(functors, "_counit", scaled)
    data = build_auslander(lam)  # fresh, so every counit it keeps is built scaled
    sv = cx.step_v_unit(P, data)
    assert (sv.ok, sv.detail) == (False, f"transported differential differs at degree {i}")
    naturality = suite_results("unit_naturality", range(10), data, ModulePool(data), CertConfig())
    assert not all(ok for ok, _ in naturality)


def test_bcomplex_refuses_a_wrong_number_of_differentials(data, reg):
    with pytest.raises(cx.ComplexError, match="^2 terms with 0 differentials$"):
        cx.BComplex(data.lam, 0, [reg, reg], [])


def test_yoneda_vanishing_mod0(data, pool):
    # Hom in the homotopy category from a lifted projective complex into a
    # corner-killed complex is zero
    for i in range(15):
        rng = rng_for(0, "yoneda0", i)
        P = pool.random_projective_lam_complex(rng, 4, 10)
        lifted = cx.kb_theta_lambda_data(P, data)
        G = pool.random_mod0_complex(rng, 3, 10)
        assert cx.kb_hom(lifted, G).dim == 0


def test_step_iv_adjunction_random_pairs(data, pool):
    for i in range(25):
        rng = rng_for(0, "stepiv", i)
        P = pool.random_projective_lam_complex(rng, 4, 10)
        F = pool.random_tilde_complex(rng, 4, 10)
        r = cx.step_iv_adjunction(P, F, data)
        assert r["ok"], (i, r)


def _adjunctions_match_the_round_trip(data, pool, stream, pairs, window, term_dim):
    """Both complex-level adjunction checks equal their ChainMap round trip
    on ``pairs`` random (P, F); returns how many had a nonzero Hom."""
    nonzero = 0
    for i in range(pairs):
        rng = rng_for(0, stream, i)
        P = pool.random_projective_lam_complex(rng, window, term_dim)
        F = pool.random_tilde_complex(rng, window, term_dim)
        left = cx.step_iv_adjunction(P, F, data)
        assert left == roundtrip_adjunction(P, F, data), (i, left)
        right = right_adjoint_sample(F, P, data)
        assert right == roundtrip_right_adjoint(F, P, data), (i, right)
        nonzero += left["dims"][0] > 0 and right["dims"][0] > 0
    return nonzero


def test_adjunction_checks_match_the_chainmap_round_trip(data, pool):
    assert _adjunctions_match_the_round_trip(data, pool, "roundtrip", 20, 4, 10) > 0


def test_adjunction_checks_match_the_chainmap_round_trip_over_q():
    lam = parse_algebra_or_quiver(json.loads((CORPUS / "x3_q.json").read_text()))
    data = build_auslander(lam)
    assert _adjunctions_match_the_round_trip(data, ModulePool(data), "roundtrip-q", 12, 2, 4) > 0


def test_a_lift_that_drops_a_basis_map_is_not_bijective(monkeypatch):
    # the lift of the first basis map of every degree sent to zero, on the
    # first ten pairs of the adjunction stream over F_3[x]/x^3
    lam = _x3_f3()
    data = build_auslander(lam)
    pool = ModulePool(data)
    pairs = []
    for i in range(10):
        rng = rng_for(0, "adjunction", i)
        P = pool.random_projective_lam_complex(rng, 4, 12)
        pairs.append((P, pool.random_tilde_complex(rng, 4, 12)))

    def verdicts():
        return [
            (cx.step_iv_adjunction(P, F, data), right_adjoint_sample(F, P, data)) for P, F in pairs
        ]

    honest = verdicts()
    assert all(left["bijective"] and right["bijective"] for left, right in honest)
    assert [left["dims"][0] for left, _ in honest] == [0, 2, 3, 2, 6, 0, 0, 0, 0, 1]
    real = cx.KbHom.induced_bijection

    def dropping(self, other, lift):
        def dropped(i, space):
            images = lift(i, space)
            return Mat.zeros(images.field, 1, images.cols).vstack(images.take_rows(slice(1, None)))

        return real(self, other, dropped)

    monkeypatch.setattr(cx.KbHom, "induced_bijection", dropping)
    mutated = [(left["bijective"], right["bijective"]) for left, right in verdicts()]
    # a pair with a zero homotopy Hom stays bijective; on pair 3 the
    # mutated right adjunction still happens to be bijective
    nonzero = [1, 2, 3, 4, 9]
    assert mutated == [(i not in nonzero, i not in nonzero or i == 3) for i in range(10)]


def test_prop31_assembly_and_mod0_ends(data, pool):
    for i in range(25):
        rng = rng_for(0, "p31", i)
        F = pool.random_tilde_complex(rng, 4, 10)
        p31 = cx.prop31_sequence(F, data)
        assert p31.F0.validate() == []
        assert p31.middle.validate() == []
        assert p31.F1.validate() == []
        assert p31.alpha.validate()
        for d in F.degrees():
            s = p31.degreewise[d]
            assert in_mod0(s.F0, data) and in_mod0(s.F1, data)
            assert s.F0.dim - s.F.dim + s.middle.dim - s.F1.dim == 0


def test_prop31_cone_of_alpha_lambda_acyclic(data, pool):
    for i in range(25):
        rng = rng_for(0, "p31cone", i)
        F = pool.random_tilde_complex(rng, 4, 10)
        p31 = cx.prop31_sequence(F, data)
        cn = cx.cone(p31.alpha)
        assert cx.is_lambda_acyclic(cn, data)


def test_cor32_equivalence_50_random(data, pool):
    for i in range(50):
        rng = rng_for(0, "cor32", i)
        F = pool.random_tilde_complex(rng, 4, 10)
        assert cx.is_lambda_acyclic(F, data) == cx.is_acyclic(cx.db_theta(F, data))


def test_lambda_acyclic_separates_kernels(data, pool):
    # nonzero corner-killed complex with zero differentials: evaluation at
    # the corner is acyclic while the complex itself is not acyclic
    s0 = pool.tilde_mod0[0]
    g = cx.BComplex(data.tilde, 0, [s0, s0], [mod.zero_hom(s0, s0)])
    assert cx.is_lambda_acyclic(g, data)
    assert not cx.is_acyclic(g)
    one = cx.module_complex(theta_rho(mod.context(data.lam).regular, data))
    assert not cx.is_lambda_acyclic(one, data)


def test_kb_hom_computes_ext_from_projective_resolutions(data):
    # dual route: homotopy Hom out of a resolution complex equals Ext
    from catres.homology import distinct_simples, ext_dim, projective_resolution

    tilde = data.tilde
    ctx_t = mod.context(tilde)
    targets = [ctx_t.simples[0], ctx_t.regular, ctx_t.simples[-1]]
    for s in distinct_simples(tilde):
        res = projective_resolution(s, max_depth=4)
        terms = list(reversed(res.modules))
        diffs = list(reversed(res.differentials))
        if len(terms) == 1:
            P = cx.module_complex(res.modules[0])
        else:
            P = cx.BComplex(tilde, -(len(terms) - 1), terms, diffs)
        for t in targets:
            for i in range(3):
                kb = cx.kb_hom(P, cx.module_complex(t).shift(i))
                expected = resolution_ext_dim(s, t, i, res)
                assert kb.dim == expected == ext_dim(s, t, i), (s.dim, t.dim, i)


def test_injectivity_bundle(data):
    from catres.homology import is_injective, is_self_injective

    assert is_self_injective(data.lam)
    assert is_injective(mod.context(data.lam).regular)


def _identity_cone(F):
    field = F.algebra.field
    return cx.cone(cx.ChainMap(F, F, {
        j: mod.ModHom(F.term(j), F.term(j), Mat.identity(field, F.term(j).dim))
        for j in F.degrees()
    }))


@pytest.mark.parametrize(
    "field", [F2, FieldSpec("prime", 3), FieldSpec("rational")], ids=["F2", "F3", "Q"]
)
def test_is_acyclic_matches_the_homology_modules(field):
    # dual route: exactness from ranks against each H_i built as a module,
    # on random complexes over tilde, their restrictions to Lambda and
    # complexes of projectives over Lambda, and on the cones of their
    # identities, which are acyclic
    data = build_auslander(truncated_poly_algebra(field, 2))
    pool = ModulePool(data)
    verdicts = []
    for i in range(4):
        rng = rng_for(0, "homology", i)
        tilde = [pool.random_tilde_complex(rng, 3, 8), pool.random_mod0_complex(rng, 3, 8)]
        lam = [cx.db_theta(F, data) for F in tilde]
        lam.append(pool.random_projective_lam_complex(rng, 3, 6))
        for F in tilde + lam:
            for C in (F, _identity_cone(F)):
                dims = [h.dim for h in module_homology(C)]
                ranks = [rank(C.diff(j).mat) for j in range(C.lo - 1, C.hi + 1)]
                counts = [t.dim - ranks[k] - ranks[k + 1] for k, t in enumerate(C.terms)]
                assert counts == dims, (field, i, C)
                verdicts.append(cx.is_acyclic(C))
                assert verdicts[-1] == (not any(dims)), (field, i, C)
    assert set(verdicts) == {True, False}


def test_acyclic_implies_lambda_acyclic(data, pool):
    for i in range(10):
        rng = rng_for(0, "acy", i)
        F = pool.random_tilde_complex(rng, 3, 8)
        idm = cx.ChainMap(F, F, {
            j: mod.ModHom(F.term(j), F.term(j), Mat.identity(F2, F.term(j).dim))
            for j in F.degrees()
        })
        cn = cx.cone(idm)
        assert cx.is_acyclic(cn)
        assert cx.is_lambda_acyclic(cn, data)

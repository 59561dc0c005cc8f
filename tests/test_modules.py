import gc
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catres import homology as hml
from catres import modules as mod
from catres.algebra import Algebra, QuiverSpec, SplitGiveUp, from_quiver, quotient_projection
from catres.auslander import build_auslander, verify_auslander
from catres.homology import (
    global_dimension,
    is_injective,
    projective_dimension,
    projective_resolution,
)
from catres.corpus import (
    gentle_two_cycle,
    truncated_poly_algebra,
    two_fields,
    upper_triangular_2,
)
from catres.io_json import parse_algebra_or_quiver
from catres.linalg import (
    FieldSpec,
    Mat,
    RowBasis,
    left_nullspace,
    rank,
    reverse_row_basis,
    row_basis,
    solve_left,
)
from catres.samples import random_hom
from oracles import (
    INCONCLUSIVE,
    augmented_solve,
    cover_is_projective,
    greedy_cover,
    kron_hom_space,
    loop_module_validate,
    module_content,
    naive_hom_dim,
    search_isomorphism,
)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

F2 = FieldSpec("prime", 2)
F3 = FieldSpec("prime", 3)
F5 = FieldSpec("prime", 5)
QQ = FieldSpec("rational")


@pytest.fixture(scope="module")
def x2():
    return truncated_poly_algebra(F5, 2)


@pytest.fixture(scope="module")
def x3():
    return truncated_poly_algebra(QQ, 3)


def test_regular_module_shapes(x2):
    reg = mod.regular_module(x2)
    assert reg.dim == 2 and reg.validate()
    # rho(x) is nilpotent of rank 1
    xi = reg.action_mat(1)
    assert rank(xi) == 1 and (xi @ xi).is_zero()


def test_regular_module_t2():
    a = upper_triangular_2(F3)
    reg = mod.regular_module(a)
    assert reg.dim == 3 and reg.validate()


def test_hom_yoneda_at_regular(x2, x3):
    for a in (x2, x3):
        reg = mod.regular_module(a)
        ctx = mod.context(a)
        for n in [reg, ctx.simples[0], mod.quotient_repn(reg, ctx.radical_rows(reg))[0]]:
            assert len(mod.hom_space(reg, n)) == n.dim


def test_hom_min_table(x3):
    reg = mod.regular_module(x3)
    ch = x3.radical_chain()
    quots = [mod.quotient_repn(reg, ch.power(i))[0] for i in (1, 2, 3)]
    for i in range(3):
        for j in range(3):
            assert len(mod.hom_space(quots[i], quots[j])) == min(i + 1, j + 1)


def test_hom_between_distinct_simples_is_zero():
    a = two_fields(F5)
    ctx = mod.context(a)
    s1, s2 = ctx.simples
    assert len(mod.hom_space(s1, s2)) == 0


def test_hom_dims_match_naive_oracle_on_corpus():
    algebras = [
        truncated_poly_algebra(F2, 2),
        truncated_poly_algebra(F5, 2),
        upper_triangular_2(F3),
        gentle_two_cycle(F2),
    ]
    for a in algebras:
        ctx = mod.context(a)
        pool = [ctx.regular] + list(ctx.simples) + list(ctx.projectives)
        for m in pool:
            for n in pool:
                if m.dim <= 6 and n.dim <= 6:
                    assert len(mod.hom_space(m, n)) == naive_hom_dim(m, n)


def test_factorization_zero_and_identity(x2):
    # kernels and cokernels are sub_repn on the left nullspace and
    # quotient_repn on the row space, as in functors.four_term_sequence
    reg = mod.regular_module(x2)
    ident = Mat.identity(reg.field, reg.dim)
    for f, ker_dim in ((mod.zero_hom(reg, reg).mat, reg.dim), (ident, 0)):
        K, _ = mod.sub_repn(reg, left_nullspace(f))
        I, _ = mod.sub_repn(reg, row_basis(f))
        C, _ = mod.quotient_repn(reg, row_basis(f))
        assert K.dim == ker_dim and I.dim == reg.dim - ker_dim and C.dim == ker_dim


def test_factorization_projection_kernel_is_socle(x2):
    reg = mod.regular_module(x2)
    ctx = mod.context(x2)
    _, pi = mod.quotient_repn(reg, ctx.radical_rows(reg))
    K, ki = mod.sub_repn(reg, left_nullspace(pi.mat))
    C, cp = mod.quotient_repn(pi.target, row_basis(pi.mat))
    assert K.dim == 1 and ki.validate()
    # kernel is the socle: x acts by zero
    assert K.action_mat(1).is_zero()
    # cokernel after an epi is zero, and coker . f = 0 in general
    assert C.dim == 0
    assert (pi.mat @ cp.mat).is_zero()


def test_factorization_rank_nullity_random():
    rng = random.Random(7)
    a = gentle_two_cycle(F2)
    ctx = mod.context(a)
    pool = [ctx.regular] + list(ctx.simples) + list(ctx.projectives)
    for _ in range(25):
        m = rng.choice(pool)
        n = rng.choice(pool)
        hs = mod.hom_space(m, n)
        if not hs:
            continue
        coeffs = [rng.randrange(2) for _ in hs]
        f = sum_mats(hs, coeffs)
        K, _ = mod.sub_repn(m, left_nullspace(f))
        I, _ = mod.sub_repn(n, row_basis(f))
        C, cp = mod.quotient_repn(n, row_basis(f))
        assert K.dim + I.dim == m.dim
        assert I.dim + C.dim == n.dim
        assert (f @ cp.mat).is_zero()


def sum_mats(homs, coeffs):
    acc = Mat.zeros(homs[0].field, homs[0].mat.rows, homs[0].mat.cols)
    for h, c in zip(homs, coeffs):
        if c:
            acc = acc + h.mat.scale(c)
    return acc


def test_direct_sum_edge_cases(x2):
    reg = mod.regular_module(x2)
    z = mod.zero_module(x2)
    s = mod.direct_sum([reg, z])
    assert s.dim == reg.dim
    assert mod.is_isomorphic(s, reg) is not None
    ctx = mod.context(x2)
    big = mod.direct_sum([ctx.simples[0], reg])
    assert big.dim == 3


def test_simples_and_projectives_local(x2):
    ctx = mod.context(x2)
    assert len(ctx.simples) == 1
    assert ctx.projectives[0].dim == 2 and ctx.simples[0].dim == 1


def test_simples_and_projectives_semisimple():
    ctx = mod.context(two_fields(F5))
    assert sorted(p.dim for p in ctx.projectives) == [1, 1]
    for s, p in zip(ctx.simples, ctx.projectives):
        assert s.dim == p.dim == 1


def test_simples_and_projectives_t2():
    ctx = mod.context(upper_triangular_2(F3))
    assert sorted(p.dim for p in ctx.projectives) == [1, 2]
    assert all(s.dim == 1 for s in ctx.simples)


def test_projective_cover_of_projective_is_identity_sized(x2):
    reg = mod.regular_module(x2)
    q = mod.projective_cover(reg)
    assert q.source.dim == reg.dim
    assert mod.is_projective(reg)


def test_projective_cover_of_simple(x2):
    ctx = mod.context(x2)
    q = mod.projective_cover(ctx.simples[0])
    assert q.source.dim == 2
    assert q.validate()
    # kernel = socle, contained in P.J
    from catres.linalg import left_nullspace

    ker = left_nullspace(q.mat)
    assert ker.rows == 1
    prad = ctx.radical_rows(q.source)
    assert RowBasis(prad).contains(ker.row_at(0))


def test_projective_cover_zero(x2):
    q = mod.projective_cover(mod.zero_module(x2))
    assert q.source.dim == 0 and q.target.dim == 0


def test_projective_cover_superfluity_random():
    rng = random.Random(11)
    from catres.linalg import left_nullspace

    for a in [gentle_two_cycle(F2), upper_triangular_2(F3)]:
        ctx = mod.context(a)
        pool = list(ctx.simples) + [ctx.regular] + list(ctx.projectives)
        for m in pool:
            q = mod.projective_cover(m)
            assert rank(q.mat) == m.dim
            ker = left_nullspace(q.mat)
            prad = ctx.radical_rows(q.source)
            for t in range(ker.rows):
                assert RowBasis(prad).contains(ker.row_at(t))


def test_is_isomorphic_self_and_dim_mismatch(x2):
    reg = mod.regular_module(x2)
    ctx = mod.context(x2)
    assert mod.is_isomorphic(reg, reg) is not None
    assert mod.is_isomorphic(reg, ctx.simples[0]) is None


def test_is_isomorphic_permuted_sums(x2):
    ctx = mod.context(x2)
    s = ctx.simples[0]
    reg = ctx.regular
    m1 = mod.direct_sum([s, reg])
    m2 = mod.direct_sum([reg, s])
    h = mod.is_isomorphic(m1, m2)
    assert h is not None and h.validate()
    # same dimension, non-isomorphic: S^3 vs S + Lambda over k[x]/x^2
    m3 = mod.direct_sum([s, s, s])
    assert mod.is_isomorphic(m3, m1) is None


def test_endomorphism_algebra_values(x2):
    ctx = mod.context(x2)
    reg = ctx.regular
    e_reg, _ = mod.endomorphism_algebra(reg)
    assert e_reg.dim == 2 and e_reg.validate().ok
    e_s, _ = mod.endomorphism_algebra(ctx.simples[0])
    assert e_s.dim == 1
    m = mod.direct_sum([mod.quotient_repn(reg, ctx.radical_rows(reg))[0], reg])
    e_m, space = mod.endomorphism_algebra(m)
    assert e_m.dim == 5 == len(space) and e_m.validate().ok


def test_endomorphism_action_axioms(x2):
    # Hom(M, N) as a right End(M)-module: (f.phi).psi = f.(phi psi)
    ctx = mod.context(x2)
    m = mod.direct_sum([ctx.simples[0], ctx.regular])
    E, space = mod.endomorphism_algebra(m)
    basis = [phi.mat for phi in space]
    n = ctx.regular
    homs = mod.hom_space(m, n)
    for i, phi in enumerate(basis):
        for j, psi in enumerate(basis):
            for h in homs:
                lhs = psi @ (phi @ h.mat)  # (h.phi).psi applies psi first
                prod = E.multiply(E.basis_element(i), E.basis_element(j))
                rhs = Mat.zeros(m.field, m.dim, n.dim)
                for t in range(E.dim):
                    c = prod.tolist()[0][t]
                    if c:
                        rhs = rhs + (basis[t] @ h.mat).scale(c)
                assert lhs == rhs


def test_modhoms_always_intertwine(x2):
    ctx = mod.context(x2)
    for m in [ctx.regular, ctx.simples[0]]:
        for n in [ctx.regular, ctx.simples[0]]:
            for h in mod.hom_space(m, n):
                assert h.validate()


def test_module_checks_raise_value_errors(x2):
    # explicit raises, so that ``python -O`` keeps them
    ctx = mod.context(x2)
    reg, s = ctx.regular, ctx.simples[0]
    sum_s = mod.direct_sum([s, s])  # the dimension of reg, another content
    f = mod.ModHom(reg, reg, Mat.identity(F5, 2))
    assert f.then(mod.ModHom(_untagged(reg), s, mod.hom_space(reg, s)[0].mat)).target is s
    with pytest.raises(ValueError, match="then"):
        f.then(mod.ModHom(sum_s, sum_s, Mat.identity(F5, 2)))
    with pytest.raises(ValueError, match="ModHom"):
        mod.ModHom(reg, s, Mat.identity(F5, 2))
    with pytest.raises(ValueError, match="HomSpace"):
        mod.HomSpace(reg, s, Mat.zeros(F5, 1, 4))
    with pytest.raises(ValueError, match="Repn"):
        mod.Repn(x2, 3, reg.flat_action())
    with pytest.raises(ValueError, match="Repn"):
        mod.Repn(x2, 2, Mat.zeros(F3, 2, 4))


def _random_modules(A, rng, count):
    """Sums of pool modules, then possibly a kernel or an image quotient."""
    ctx = mod.context(A)
    pool = [m for m in list(ctx.simples) + list(ctx.projectives) + [ctx.regular] if m.dim]
    out = []
    for _ in range(count):
        m = mod.direct_sum(rng.sample(pool, min(len(pool), rng.randint(1, 2))))
        other = rng.choice(pool)
        move = rng.randrange(3)
        if move == 1:
            m, _ = mod.sub_repn(m, left_nullspace(random_hom(rng, m, other).mat))
        elif move == 2:
            m, _ = mod.quotient_repn(m, row_basis(random_hom(rng, other, m).mat))
        out.append(m)
    return out


def _projectivity_algebras():
    """(label, A) for every corpus file and its T, F_2[S_3] and its T, and
    F_3[A_4]."""
    for name, lam in _dual_route_algebras():
        yield name, lam
        yield f"T({name})", build_auslander(lam).tilde
    yield "F3[A4]", f3_a4()


def test_is_projective_matches_cover_on_corpus_and_auslander_algebras():
    rng = random.Random(31)
    non_basic, fewer_representatives = set(), set()
    for label, A in _projectivity_algebras():
        ctx = mod.context(A)
        if len(ctx.representatives) < len(ctx.idempotents):
            fewer_representatives.add(label)
        for m in list(ctx.projectives) + [ctx.regular]:
            assert mod.is_projective(m) and cover_is_projective(m), label
        for m in list(ctx.simples) + _random_modules(A, rng, 6):
            assert mod.is_projective(m) == cover_is_projective(m), (label, m.dim)
        # conjugate primitive idempotents: two isomorphic indecomposable projectives
        projs = ctx.projectives
        if any(
            mod.is_isomorphic(projs[i], projs[j]) is not None
            for i in range(len(projs))
            for j in range(i + 1, len(projs))
            if projs[i].dim == projs[j].dim
        ):
            non_basic.add(label)
    assert {"T(t2_f3)", "F2[S3]", "T(F2[S3])", "F3[A4]"} <= non_basic
    # fewer representatives than idempotents exactly where projectives repeat
    assert fewer_representatives == non_basic


def test_validate_matches_the_per_pair_loop_on_random_actions():
    rng = random.Random(53)
    seen = Counter()
    names = ("x3_f3.json", "x3_q.json", "t2_f3.json", "kxk_f5.json", "gentle_two_cycle_f2.json")
    algebras = [parse_algebra_or_quiver(json.loads((CORPUS / n).read_text())) for n in names]
    algebras.append(build_auslander(algebras[0]).tilde)  # T of F_3[x]/x^3, dim 14
    for name, A in zip([*names, "T(x3_f3)"], algebras):
        f, d = A.field, A.dim
        ctx = mod.context(A)
        for M in [ctx.regular, *ctx.simples, *ctx.projectives, *_random_modules(A, rng, 3)]:
            n = M.dim
            if n == 0:
                continue
            rows = M.flat_action().tolist()
            # one entry of one action moved, and a whole random action
            i, k = rng.randrange(d), rng.randrange(n * n)
            rows[i][k] += 1
            noise = [[f.random_scalar(rng, 2) for _ in range(n * n)] for _ in range(d)]
            for flat in (M.flat_action(), Mat.from_rows(f, rows), Mat.from_rows(f, noise)):
                N = mod.Repn(A, n, flat)
                verdict = N.validate()
                assert verdict == loop_module_validate(N), name
                seen[verdict] += 1
    assert seen[True] >= 20 and seen[False] >= 20


def _conjugate(N, rng):
    """N in another basis: action S rho S^-1 for a random invertible S
    (with denominators over Q)."""
    f, n = N.field, N.dim

    def entry():
        if f.kind == "prime":
            return rng.randrange(f.p)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    while True:
        s = Mat.from_rows(f, [[entry() for _ in range(n)] for _ in range(n)])
        if rank(s) == n:
            break
    s_inv = solve_left(s, Mat.identity(f, n))
    act = [(s @ N.action_mat(i) @ s_inv).flatten_row() for i in range(N.algebra.dim)]
    return mod.Repn(N.algebra, n, Mat.stack_rows(f, act))


def permutation_group_algebra(field, gens):
    """k[G] for the permutation group G generated by ``gens``, on the basis
    of the group elements in order of discovery; (gh)(i) = g(h(i))."""
    ident = tuple(range(len(gens[0])))
    elems, index, frontier = [ident], {ident: 0}, [ident]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = tuple(g[i] for i in s)
                if h not in index:
                    index[h] = len(elems)
                    elems.append(h)
                    new.append(h)
        frontier = new
    d = len(elems)
    table = np.zeros((d, d, d), dtype=np.int64)
    for i, g in enumerate(elems):
        for j, h in enumerate(elems):
            table[i, j, index[tuple(g[k] for k in h)]] = 1
    unit = Mat.row(field, [1] + [0] * (d - 1))
    return Algebra(field, [f"g{i}" for i in range(d)], unit, Mat(field, table.reshape(d, d * d)))


def f2_s3():
    """F_2[S_3]: A/J = M_2(F_2) x F_2, so two of its three primitive
    idempotents give isomorphic projectives (not basic)."""
    return permutation_group_algebra(F2, [(1, 0, 2), (1, 2, 0)])


def f3_a4():
    """F_3[A_4]: A/J = M_3(F_3) x F_3, three isomorphic projectives of dim 3."""
    return permutation_group_algebra(F3, [(1, 2, 0, 3), (1, 0, 3, 2)])


def m2_units(field):
    """M_2(k) on the matrix units e_11, e_12, e_21, e_22: e_11 A and e_22 A
    act alike on their bases, so the two projectives share one content."""
    table = np.zeros((4, 4, 4), dtype=np.int64)
    for i, j, l in np.ndindex(2, 2, 2):
        table[2 * i + j, 2 * j + l, 2 * i + l] = 1  # e_ij e_jl = e_il
    unit = Mat.row(field, [1, 0, 0, 1])
    return Algebra(field, ["e11", "e12", "e21", "e22"], unit, Mat(field, table.reshape(4, 16)))


def _dual_route_algebras():
    """(label, Lambda) for every corpus file, and the non-basic F_2[S_3]."""
    for path in sorted(CORPUS.glob("*.json")):
        yield path.stem, parse_algebra_or_quiver(json.loads(path.read_text()))
    yield "F2[S3]", f2_s3()


@pytest.mark.parametrize("build,dim,parts", [(f2_s3, 6, 3), (f3_a4, 12, 4)])
def test_regular_module_of_non_basic_group_algebra_covers_by_itself(build, dim, parts):
    A = build()
    ctx = mod.context(A)
    assert len(ctx.representatives) < len(ctx.projectives)  # not basic
    pres = mod.projective_presentation(mod.regular_module(A))
    assert pres.cover.source.dim == dim == A.dim and pres.syzygy.rows == 0
    assert len(pres.parts) == parts and set(pres.parts) <= set(ctx.representatives)
    assert mod.is_projective(mod.regular_module(A))


def test_auslander_algebra_of_f2_s3_verifies():
    assert verify_auslander(build_auslander(f2_s3()))["ok"]


def test_yoneda_hom_space_matches_kronecker_route_on_corpus_and_auslander_algebras():
    rng = random.Random(47)
    seen = set()
    for name, lam in _dual_route_algebras():
        for label, A in ((name, lam), (f"T({name})", build_auslander(lam).tilde)):
            ctx = mod.context(A)
            projs = [p for p in ctx.projectives if p.dim]
            # sums with repeated summands too
            sources = projs + [
                mod.direct_sum([rng.choice(projs), rng.choice(projs)])
                for _ in range(2)
            ]
            targets = list(ctx.simples) + [ctx.regular] + _random_modules(A, rng, 3)
            targets += [_conjugate(n, rng) for n in targets[-3:] if n.dim]
            assert all("projective" in X.record for P in sources for X in P.summands or (P,)), label
            # Yoneda out of projectives and summed from them out of their sums
            pairs = [(P, N) for P in sources for N in targets]
            pairs += [(M, N) for M in targets[-3:] for N in targets[-3:]]
            for M, N in pairs:
                fast = [h.mat for h in mod.hom_space(M, N)]
                assert fast == kron_hom_space(M, N), (label, M.dim, N.dim)
                if A.field.kind == "rational" and any(
                    x.denominator != 1 for h in fast for row in h.tolist() for x in row
                ):
                    seen.add("rational with denominators")
            seen.add(A.field.kind)
            seen.add(label)
    assert {"prime", "rational", "rational with denominators", "F2[S3]", "T(F2[S3])"} <= seen


def _radical_quotient_sum(A):
    """The sum of the A/J^i over i = 1..n: the M of the Auslander algebra of A."""
    chain = A.radical_chain()
    reg = mod.regular_module(A)
    parts = [
        mod.quotient_repn(reg, chain.power(i))[0] for i in range(1, chain.nilpotency_index + 1)
    ]
    return mod.direct_sum(parts)


def _untagged(N):
    return mod.Repn(N.algebra, N.dim, N.flat_action())


def syzygy_chain(M, depth):
    """Omega^1(M), ..., Omega^depth(M), read off the presentations."""
    out = []
    for _ in range(depth):
        M = mod.projective_presentation(M).omega[0]
        out.append(M)
    return out


def test_presentation_hom_space_matches_kronecker_route_on_corpus_and_auslander_algebras():
    rng = random.Random(53)
    seen = set()
    for name, lam in _dual_route_algebras():
        data = build_auslander(lam)
        for label, A, M in (
            (name, lam, data.M),
            (f"T({name})", data.tilde, _radical_quotient_sum(data.tilde)),
        ):
            ctx = mod.context(A)
            simples = [s for s in ctx.simples if s.dim]
            syzygies = [z for s in simples for z in syzygy_chain(s, 2) if z.dim]
            s, z = rng.choice(simples), rng.choice(syzygies or simples)
            sources = [M, ctx.regular] + [_untagged(P) for P in ctx.projectives if P.dim]
            sources += simples + syzygies + [mod.direct_sum([s, s, z])]
            if A.field.kind == "rational":
                sources += [_conjugate(x, rng) for x in sources if x.dim <= 6]
            targets = simples + syzygies + [ctx.regular, M] + _random_modules(A, rng, 3)
            targets += [_conjugate(n, rng) for n in targets[-4:] if 0 < n.dim <= 6]
            for src in sources:
                for N in targets:
                    if src.dim * N.dim > 120:
                        continue
                    space = mod.hom_space(src, N)
                    fast = [h.mat for h in space]
                    assert fast == kron_hom_space(src, N), (label, src.dim, N.dim)
                    # the presentation route itself, also out of the contents
                    # of projectives, which hom_space takes by Yoneda
                    if not src.summands:
                        assert mod._presentation_homs(src, N) == space.flat, label
                    if src is M:
                        seen.add("M")
                    if not fast:
                        seen.add("Hom = 0")
                    if mod.projective_presentation(src).syzygy.rows == 0:
                        seen.add("untagged projective")
                    if A.field.kind == "rational" and any(
                        x.denominator != 1 for h in fast for row in h.tolist() for x in row
                    ):
                        seen.add("rational with denominators")
            seen.add(label)
    assert {"M", "Hom = 0", "untagged projective", "rational with denominators"} <= seen
    assert {"x3_q", "T(x3_q)", "T(t2_f3)", "T(gentle_two_cycle_f2)", "F2[S3]", "T(F2[S3])"} <= seen


def _layout_modules(A, rng):
    """Simples, the regular module, sums of projectives (the Yoneda route),
    random modules, conjugates of some of them (with denominators over Q)
    and the zero module (empty Hom spaces)."""
    ctx = mod.context(A)
    projs = [p for p in ctx.projectives if p.dim]
    mods = [s for s in ctx.simples if s.dim] + [ctx.regular, rng.choice(projs)]
    mods += _random_modules(A, rng, 2)
    mods += [_conjugate(n, rng) for n in mods[-3:] if 0 < n.dim <= 6]
    return mods + [mod.zero_module(A)]


def _random_mat(f, rows, cols, rng):
    def entry():
        if f.kind == "prime":
            return rng.randrange(f.p)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    if rows * cols == 0:
        return Mat.zeros(f, rows, cols)
    return Mat.from_rows(f, [[entry() for _ in range(cols)] for _ in range(rows)])


def _stacked(f, mats, rows, cols, side_by_side=False):
    """The mats stacked (or side by side), or the empty rows x cols matrix."""
    if not mats:
        return Mat.zeros(f, rows, cols)
    return Mat.stack_cols(f, mats) if side_by_side else Mat.stack_rows(f, mats)


def test_hom_space_layouts_match_its_maps_on_corpus_and_auslander_algebras():
    rng = random.Random(59)
    seen = set()
    for name, lam in _dual_route_algebras():
        for label, A in ((name, lam), (f"T({name})", build_auslander(lam).tilde)):
            f = A.field
            mods = _layout_modules(A, rng)
            for M in mods:
                for N in mods:
                    if M.dim * N.dim > 100:
                        continue
                    space = mod.hom_space(M, N)
                    maps = [h.mat for h in space]
                    k, m, n = len(maps), M.dim, N.dim
                    assert len(space) == k and all(space[t].mat == maps[t] for t in range(k))
                    flats = [x.flatten_row() for x in maps]
                    assert space.flat == _stacked(f, flats, 0, m * n), (label, m, n)
                    assert space.wide() == _stacked(f, maps, m, 0, side_by_side=True)
                    g = _random_mat(f, n, 2, rng)
                    then = [(x @ g).flatten_row() for x in maps]
                    assert space.then(g) == _stacked(f, then, 0, m * 2), (label, m, n)
                    d = _random_mat(f, 3, m, rng)
                    after = [(d @ x).flatten_row() for x in maps]
                    assert space.after(d) == _stacked(f, after, 0, 3 * n), (label, m, n)
                    assert space.basis.coords(space.flat) == Mat.identity(f, k)
                    seen.add("empty" if k == 0 else f.kind)
                    if space.flat.den > 1:
                        seen.add("rational with denominators")
            seen.add(label)
    assert {"empty", "prime", "rational", "rational with denominators"} <= seen
    assert {"x3_q", "T(x3_q)", "F2[S3]", "T(F2[S3])"} <= seen


def test_projective_cover_matches_greedy_route_on_corpus_and_auslander_algebras():
    rng = random.Random(61)
    seen = set()
    for name, lam in _dual_route_algebras():
        for label, A in ((name, lam), (f"T({name})", build_auslander(lam).tilde)):
            for M in _layout_modules(A, rng)[:-1]:
                pres = mod.projective_presentation(M)
                parts, cover = greedy_cover(M)
                assert pres.parts == parts, (label, M.dim)
                assert pres.cover.mat == cover, (label, M.dim)
                if len(set(parts)) < len(parts):
                    seen.add("multiplicity")
            seen.add(label)
    assert "multiplicity" in seen and {"T(t2_f3)", "F2[S3]", "T(F2[S3])"} <= seen


def test_presentation_kernel_from_the_cover_factoring_is_the_left_nullspace():
    rng = random.Random(67)
    seen = set()
    for name, lam in _dual_route_algebras():
        for label, A in ((name, lam), (f"T({name})", build_auslander(lam).tilde)):
            for M in _layout_modules(A, rng)[:-1]:
                pres = mod.projective_presentation(M)
                assert pres.syzygy == left_nullspace(pres.cover.mat), (label, M.dim)
                seen.add("kernel" if pres.syzygy.rows else "no kernel")
    assert seen == {"kernel", "no kernel"}


def test_kept_hom_bases_of_T_x3_q_are_factored_with_no_reduction(reductions):
    rng = random.Random(71)
    lam = parse_algebra_or_quiver(json.loads((CORPUS / "x3_q.json").read_text()))
    T = build_auslander(lam).tilde
    ctx = mod.context(T)
    pool = [m for m in _layout_modules(T, rng)[:-1] if m.dim <= 8]
    pool += [mod.direct_sum(pool[:2]), syzygy_chain(ctx.simples[-1], 1)[0]]
    seen = set()
    for X in pool:
        for Y in pool:
            space = mod.hom_space(X, Y)
            basis = space.flat
            if not basis.rows:
                continue
            reductions.clear()
            rb = RowBasis(basis)
            assert reductions == [] and rb.rank == basis.rows
            inside = _random_mat(T.field, 2, basis.rows, rng) @ basis
            for v in (inside, inside.vstack(_random_mat(T.field, 1, basis.cols, rng))):
                expected = augmented_solve(basis.T, v.T)
                assert rb.solve(v) == space.basis.solve(v)
                assert rb.solve(v) == (None if expected is None else expected.T)
            assert rb.left_kernel() == left_nullspace(basis)
            seen.add("denominators" if basis.den > 1 else "integral")
    assert seen == {"denominators", "integral"}


def _cycle_quiver_f2(vertices):
    """kQ/J^2 on the oriented cycle with ``vertices`` vertices over F_2."""
    names = [str(i + 1) for i in range(vertices)]
    return parse_algebra_or_quiver({
        "format": "catres-quiver-v1",
        "field": {"type": "prime", "p": 2},
        "vertices": names,
        "arrows": [
            {"name": f"a{i + 1}", "from": names[i], "to": names[(i + 1) % vertices]}
            for i in range(vertices)
        ],
        "relations": [],
        "length_bound": 2,
    })


def test_gldim_covers_match_the_unfiltered_greedy_route(monkeypatch):
    # every presentation global_dimension walks, over Lambda and T, against
    # greedy_cover, which solves Hom(P_i, M) for every representative P_i
    asked, skipped, solved = [], [], []
    build, present, hom = mod._build_presentation, mod.projective_presentation, mod.hom_space

    def building(M):
        before = len(solved)
        pres = build(M)
        sources = {P.record.get("projective") for P, N in solved[before:] if N is M}
        if len(sources) < len(mod.context(M.algebra).representatives):
            skipped.append(M)
        return pres

    def asking(M):
        asked.append(M)
        return present(M)

    def solving(M, N):
        solved.append((M, N))
        return hom(M, N)

    monkeypatch.setattr(mod, "_build_presentation", building)
    monkeypatch.setattr(hml, "projective_presentation", asking)
    monkeypatch.setattr(mod, "hom_space", solving)
    algebras = [lam for _, lam in _dual_route_algebras()] + [_cycle_quiver_f2(4)]
    for lam in algebras:
        T = build_auslander(lam).tilde
        asked.clear()
        global_dimension(T)
        global_dimension(lam)
        assert asked
        for M in asked:
            parts, cover = greedy_cover(M)
            pres = mod.projective_presentation(M)
            assert pres.parts == parts and pres.cover.mat == cover, M.dim
    assert skipped


def test_presentation_is_built_once_per_module(monkeypatch):
    # once per content: modules with equal actions share one presentation
    built, alive, asked = Counter(), [], []
    build, present = mod._build_presentation, mod.projective_presentation

    def counting(M):
        built[module_content(M)] += 1
        alive.append(M)  # keeps every record alive
        return build(M)

    def asking(M):
        asked.append(M)
        return present(M)

    monkeypatch.setattr(mod, "_build_presentation", counting)
    monkeypatch.setattr(mod, "projective_presentation", asking)
    monkeypatch.setattr(hml, "projective_presentation", asking)
    lam = parse_algebra_or_quiver(json.loads((CORPUS / "gentle_two_cycle_f2.json").read_text()))
    assert global_dimension(lam).kind == "infinite"
    assert is_injective(lam, mod.context(lam).regular)
    for s in mod.context(lam).simples:
        res = projective_resolution(s, max_depth=4)
        syzygies = syzygy_chain(s, 4)
        # the periodicity test takes Hom out of each syzygy, the next step
        # covers it: one presentation serves both, and the resolution walks
        # the syzygies that gldim built
        assert len(res.modules) == 5 and all(z.dim for z in syzygies)
        assert projective_dimension(s, 4).kind == "infinite"
        for z, P in zip([s] + syzygies, res.modules):
            assert built[module_content(z)] == 1
            assert mod.projective_cover(z).source is P
        assert mod.projective_presentation(s).omega is mod.projective_presentation(s).omega
        assert mod.projective_cover(s) is res.augmentation
        assert mod.projective_cover(s) is mod.projective_cover(s)
    # no content is built twice, and every content asked for is built once
    assert set(built.values()) == {1}
    assert sum(built.values()) == len({module_content(M) for M in asked})


def test_hom_space_rejects_a_false_projective_tag():
    A = upper_triangular_2(F3)
    ctx = mod.context(A)
    i = next(i for i, p in enumerate(ctx.projectives) if p.dim == 1)
    # a one-dimensional simple that is not P_i, its content marked as P_i's
    s = next(
        s for s in ctx.simples if s.dim == 1 and mod.is_isomorphic(s, ctx.projectives[i]) is None
    )
    fake = mod.Repn(A, 1, s.flat_action())
    fake.record["projective"] = i
    expected = r"^_yoneda_homs, dim 1 -> dim 3: hom basis vector \d+ of \d+ fails the intertwining"
    with pytest.raises(AssertionError, match=expected):
        mod.hom_space(fake, ctx.regular)


def _placed_blocks(S, T):
    """Every map of every kept Hom(X_a, Y_b) between the summands of S and
    T, placed in the rows of X_a and the columns of Y_b, flattened."""
    f, rows, r = S.field, [], 0
    for X in S.summands or (S,):
        c = 0
        for Y in T.summands or (T,):
            for h in mod.hom_space(X, Y):
                rows.append(Mat.from_blocks(f, S.dim, T.dim, [(r, c, h.mat)]).flatten_row())
            c += Y.dim
        r += X.dim
    return rows


def test_summed_hom_space_matches_kronecker_and_presentation_routes(monkeypatch):
    # sums with repeated, zero-dimensional and nested summands
    assembled = []
    real = mod._summed_homs
    monkeypatch.setattr(mod, "_summed_homs", lambda M, N: assembled.append(1) or real(M, N))
    rng = random.Random(73)
    seen = set()
    algebras = list(_dual_route_algebras())
    algebras.append(("T(x3_q)", build_auslander(dict(algebras)["x3_q"]).tilde))
    for label, A in algebras:
        ctx = mod.context(A)
        zero = mod.zero_module(A)
        a, b = (rng.choice([s for s in ctx.simples if s.dim]) for _ in range(2))
        c = rng.choice([m for m in _random_modules(A, rng, 2) + [ctx.projectives[-1]] if m.dim])
        if A.field.kind == "rational" and c.dim <= 6:
            c = _conjugate(c, rng)
        twice = mod.direct_sum([a, a])
        gapped = mod.direct_sum([b, zero, c])
        nested = mod.direct_sum([twice, mod.direct_sum([c, zero]), gapped])
        leaves, cs = nested.summands, [x.dim for x in c.summands or (c,)]
        assert [x.dim for x in leaves] == [a.dim, a.dim, *cs, b.dim, *cs], label
        assert all(x.summands is None for x in leaves) and leaves[:2] == (a, a), label
        sums = [twice, gapped, nested]
        pairs = [(S, T) for S in sums for T in sums] + [(a, nested), (nested, b), (c, twice)]
        # a sum of projectives, one per class and the last twice, which is
        # its own cover: its untagged copy shares a record with the cover
        reps = [ctx.projectives[r] for r in ctx.representatives]
        projs = mod.direct_sum(reps + reps[-1:])
        cover = mod.projective_cover(_untagged(projs)).source
        assert cover.record is projs.record and cover.summands == projs.summands, label
        pairs += [(projs, T) for T in (a, c, twice, projs)] + [(S, projs) for S in (a, c, gapped)]
        for S, T in pairs:
            if S.dim * T.dim > 150:
                continue
            assembled.clear()
            space = mod.hom_space(S, T)
            assert [h.mat for h in space] == kron_hom_space(S, T), (label, S.dim, T.dim)
            assert space.flat == mod._presentation_homs(_untagged(S), _untagged(T)), label
            placed = _placed_blocks(S, T)
            rng.shuffle(placed)
            if placed:
                assert reverse_row_basis(Mat.stack_rows(A.field, placed)) == space.flat, label
            seen.add("assembled" if assembled else "kept")
            if S is projs or T is projs:
                seen.add("projective source" if S is projs else "projective target")
            if space.flat.den > 1:
                seen.add("rational with denominators")
        seen.add(A.field.kind)
        seen.add(label)
    assert {"assembled", "prime", "rational", "rational with denominators"} <= seen
    assert {"projective source", "projective target", "x3_q", "T(x3_q)", "F2[S3]"} <= seen


@pytest.mark.parametrize("field", [F3, QQ])
def test_hom_space_rejects_a_false_summands_tag(field):
    A = truncated_poly_algebra(field, 3)
    ctx = mod.context(A)
    simple = next(s for s in ctx.simples if s.dim)
    chain = A.radical_chain()
    top_two = mod.quotient_repn(ctx.regular, chain.power(2))[0]
    # the indecomposable regular module, tagged as the top plus A/J^2
    for side in ("source", "target"):
        fake = _untagged(ctx.regular)
        fake.summands = (simple, top_two)
        M, N = (fake, simple) if side == "source" else (simple, fake)
        with pytest.raises(AssertionError, match="intertwining"):
            mod.hom_space(M, N)


def test_intertwining_check_fails_on_a_hom_wrong_only_by_a_denominator():
    A = truncated_poly_algebra(QQ, 3)
    N = _conjugate(mod.regular_module(A), random.Random(3))  # actions with denominators
    space = mod.hom_space(N, N)
    homs = [h.mat for h in space]
    assert N.flat_action().den > 1 and len(homs) == 3

    def first_failure(target, mats):
        flat = Mat.stack_rows(QQ, [x.flatten_row() for x in mats])
        return mod._first_non_intertwiner(mod.HomSpace(N, target, flat))

    assert first_failure(N, homs) is None
    # one entry p/q of a hom with denominators becomes p/(q+1)
    src = next(h for h in homs if h.den > 1)
    vals = src.tolist()
    i, j = next(
        (i, j) for i, row in enumerate(vals) for j, x in enumerate(row) if x.denominator > 1
    )
    x = vals[i][j]
    vals[i][j] = Fraction(x.numerator, x.denominator + 1)
    wrong = Mat.from_rows(QQ, vals)
    assert first_failure(N, homs + [wrong]) == 3
    assert not mod.ModHom(N, N, wrong).validate()
    # a scalar multiple of a hom is a hom: only the entry's own scale matters
    assert first_failure(N, homs + [Mat(QQ, src.a, src.den * 7)]) is None
    # a target whose action is N's numerators over twice N's denominator:
    # both products have the same numerators, and only the scale tells
    flat = N.flat_action()
    halved = mod.Repn(A, N.dim, Mat(QQ, flat.a, flat.den * 2))
    assert first_failure(halved, [Mat.identity(QQ, N.dim)]) == 0


def test_context_is_freed_with_its_algebra():
    A = truncated_poly_algebra(F3, 2)
    ctx = mod.context(A)
    assert mod.context(A) is ctx and ctx.projectives and ctx.simples
    alive = weakref.ref(A)
    del A, ctx
    gc.collect()
    assert alive() is None


def test_a_module_computes_nothing_of_its_algebra(monkeypatch):
    # every Repn asks for its algebra's context, so making one is free: no
    # radical, idempotents or projectives until a value asks for them; the
    # context keeps only the one zero module that ``zero_module`` made
    chains = []
    real = Algebra.radical_chain
    monkeypatch.setattr(Algebra, "radical_chain", lambda A: chains.append(A) or real(A))
    A = truncated_poly_algebra(F3, 3)
    M = mod.direct_sum([mod.regular_module(A), mod.zero_module(A)])
    ctx = mod.context(A)
    assert chains == [] and set(vars(ctx)) == {"algebra", "records", "zero"}
    assert mod.zero_module(A) is ctx.zero
    assert M.record is ctx.records[M.key] and mod.is_projective(M)
    assert chains == [A] and {"chain", "idempotents", "representatives"} <= set(vars(ctx))


# -- one record of kept values per module content ------------------------------


def _record_algebras():
    """(label, algebra) over F_2, F_3 and Q, with and without isomorphic
    projectives, and an Auslander algebra."""
    lams = {}
    for stem in ("x3_q", "t2_f3", "gentle_two_cycle_f2"):
        lams[stem] = parse_algebra_or_quiver(json.loads((CORPUS / f"{stem}.json").read_text()))
    lams["F2[S3]"] = f2_s3()
    yield from lams.items()
    yield "T(x3_q)", build_auslander(lams["x3_q"]).tilde


def _rebuilt(M):
    """M's content on a fresh carrier, read back from its scalars."""
    f = M.field
    return mod.Repn(M.algebra, M.dim, Mat.from_rows(f, M.flat_action().tolist()))


def test_equal_modules_share_one_record_and_distinct_ones_do_not():
    rng = random.Random(67)
    seen = set()
    for label, A in _record_algebras():
        mods = _layout_modules(A, rng)[:-1]
        mods += [_rebuilt(M) for M in mods]
        for M in mods:
            for N in mods:
                same = module_content(M) == module_content(N)
                assert (M.record is N.record) == same, (label, M.dim, N.dim)
                seen.add("shared" if same and M is not N else "apart")
            flat = M.flat_action()
            if A.field.kind == "rational" and not flat.is_zero():
                # the same numerators over twice the denominator: another content
                halved = mod.Repn(A, M.dim, Mat(QQ, flat.a, flat.den * 2))
                assert halved.record is not M.record, label
                seen.add("den")
        # equal contents over another algebra object have their own records
        B = Algebra(A.field, A.basis_labels, A.unit, A.table_matrix(), A.radical_hint)
        assert all(mod.Repn(B, M.dim, M.flat_action()).record is not M.record for M in mods)
        seen.add(label)
    assert {"shared", "apart", "den", "x3_q", "T(x3_q)", "F2[S3]"} <= seen


def _yoneda_block(ctx, i, N):
    """The reduced basis of Hom(P_i, N), flattened, from the basis of P_i
    inside A: row t of the product is rho_N(p_t)."""
    k, n = ctx.projectives[i].dim, N.dim
    rho = ctx.projective_rows[i] @ N.flat_action()
    return reverse_row_basis(rho.permuted((k, n, n), (1, 0, 2), n, k * n))


def test_the_projective_mark_is_on_the_content():
    # the index of P_i is kept on its content, so an untagged copy of P_i
    # and a sum of one P_i take Yoneda and share the maps kept for P_i,
    # over themselves; the Yoneda and the presentation builders agree, and
    # two P_i of one content give one basis
    seen = set()
    for label, A in [*_record_algebras(), ("M_2(F_3)", m2_units(F3))]:
        ctx = mod.context(A)
        targets = [s for s in ctx.simples if s.dim] + [ctx.regular]
        for i, P in enumerate(ctx.projectives):
            if not P.dim:
                continue
            untagged, summed = _untagged(P), mod.direct_sum([P])
            assert untagged.record is P.record and summed.record is P.record, label
            assert summed.summands is None, label
            mark = P.record["projective"]
            assert mark <= i and ctx.projectives[mark].record is P.record, label
            seen.add("shared content" if mark < i else "own content")
            for N in targets:
                kept = mod.hom_space(untagged, N)
                assert kept.flat == mod._presentation_homs(untagged, N), label
                assert kept.flat == mod._yoneda_homs(P, N) == _yoneda_block(ctx, i, N), label
                for X in (P, summed, untagged):
                    space = mod.hom_space(X, N)
                    assert space.flat is kept.flat and space.basis is kept.basis, label
                    assert space.source is X and space.target is N, label
        seen.add(label)
    assert {"own content", "shared content", "x3_q", "T(x3_q)", "F2[S3]"} <= seen


def test_hom_spaces_out_of_copies_of_projectives_are_built_once(monkeypatch):
    # the regular module asked for before the projectives exist, and an
    # untagged copy of each P_i, take the route of their content: each
    # (source content, target content) pair is built once
    built = Counter()
    real = mod._built_hom_space

    def counted(M, N):
        built[M.key, N.key] += 1
        return real(M, N)

    monkeypatch.setattr(mod, "_built_hom_space", counted)
    for path in sorted(CORPUS.glob("*.json")):
        lam = parse_algebra_or_quiver(json.loads(path.read_text()))
        ctx = mod.context(lam)
        assert "_simples_and_projectives" not in vars(ctx), path.stem
        built.clear()
        mod.hom_space(ctx.regular, ctx.regular)
        copies = [ctx.regular] + [_untagged(P) for P in ctx.projectives if P.dim]
        s = next(s for s in ctx.simples if s.dim)
        for V in copies:
            mod.hom_space(V, V)
            mod.hom_space(V, s)
        assert set(built.values()) == {1}, (path.stem, built.most_common(1))


def test_every_kept_value_equals_a_fresh_build():
    # each value is asked for through an equal copy first, then compared
    # with its builder on the module itself
    rng = random.Random(71)
    seen = set()
    for label, A in _record_algebras():
        ctx = mod.context(A)
        for M in _layout_modules(A, rng)[:-1]:
            copy = _rebuilt(M)
            kept = mod.projective_presentation(copy)
            fresh = mod._build_presentation(M)
            assert kept.parts == fresh.parts and kept.cover.mat == fresh.cover.mat, label
            assert kept.syzygy == fresh.syzygy and kept.section == fresh.section, label
            assert kept.cover.source.flat_action() == fresh.cover.source.flat_action()
            assert kept is mod.projective_presentation(M), label
            rad = mod._radical_rows(M, ctx.chain.radical)
            assert ctx.radical_rows(copy) == rad, label
            assert ctx.top_projection(copy) == quotient_projection(rad)[0], label
            projective = mod.is_projective(copy)
            assert projective == (mod.projective_cover(M).source.dim == M.dim), label
            seen.add("projective" if projective else "not projective")
            # the Yoneda block of every P_i, one product against the action
            for i, P in enumerate(ctx.projectives):
                if not P.dim:
                    continue
                block = _yoneda_block(ctx, i, M)
                assert mod.hom_space(P, copy).flat == block, (label, i)
                assert mod.hom_space(P, M).flat == block, (label, i)
        seen.add(label)
    assert {"projective", "not projective", "x3_q", "T(x3_q)", "F2[S3]"} <= seen


def test_module_records_live_with_their_algebra(monkeypatch):
    A = truncated_poly_algebra(F3, 3)
    alive = weakref.ref(A)
    s = next(s for s in mod.context(A).simples if s.dim)
    hml.global_dimension(A)
    # modules of contents that nothing else has, with their values kept
    sums = [mod.direct_sum([s] * k) for k in (4, 5)]
    for M in sums:
        mod.projective_presentation(M).omega
        mod.is_projective(M)
        mod.hom_space(M, mod.context(A).regular)
    records = mod.context(A).records
    assert all(records[M.key] is M.record for M in sums)
    kept = [(M.record, mod.projective_presentation(M)) for M in sums]
    count = len(records)
    del sums, M
    gc.collect()
    # equal modules made later, once the test holds none of the first ones,
    # find the kept values
    built = []
    real = mod._build_presentation
    monkeypatch.setattr(mod, "_build_presentation", lambda M: built.append(M) or real(M))
    again = [mod.direct_sum([s] * k) for k in (4, 5)]
    for M, (record, pres) in zip(again, kept):
        assert M.record is record and mod.projective_presentation(M) is pres
        assert mod.is_projective(M) is False
    assert built == [] and len(records) == count
    # the algebra frees its context and every record with it
    freed = [weakref.ref(mod.context(A))] + [weakref.ref(pres) for _, pres in kept]
    del A, s, again, M, record, pres, kept, records
    gc.collect()
    assert alive() is None and [r() for r in freed] == [None] * len(freed)


# -- isomorphism by Krull-Schmidt ----------------------------------------------


@cache
def _iso_pool(stem):
    """Pairwise non-isomorphic indecomposables over one corpus algebra: the
    Lambda/J^i of a local one, else the indecomposable projectives and the
    simples that are not projective, one per isomorphism class."""
    lam = parse_algebra_or_quiver(json.loads((CORPUS / f"{stem}.json").read_text()))
    ctx = mod.context(lam)
    if stem.startswith("x"):
        chain = lam.radical_chain()
        return [mod.quotient_repn(ctx.regular, chain.power(i))[0] for i in range(1, chain.nilpotency_index + 1)]
    pool = [ctx.projectives[i] for i in ctx.representatives]
    return pool + [ctx.simples[i] for i in ctx.representatives if not mod.is_projective(ctx.simples[i])]


@st.composite
def _iso_case(draw):
    """(stem, summands of M, summands of N, conjugation seed): the summands
    of N are those of M in another order, or another draw of the same
    total dimension."""
    stem = draw(st.sampled_from(["x2_f2", "x3_f3", "x3_q", "t2_f3", "gentle_two_cycle_f2"]))
    pool = _iso_pool(stem)
    m = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3))
    if draw(st.booleans()):
        n = draw(st.permutations(m))
    else:
        n, left = [], sum(pool[i].dim for i in m)
        while left:  # every pool has a member of dimension 1
            n.append(draw(st.sampled_from([i for i, X in enumerate(pool) if X.dim <= left])))
            left -= pool[n[-1]].dim
    return stem, m, n, draw(st.integers(0, 1 << 16))


def _assert_isomorphism(h, M, N):
    assert h.source is M and h.target is N
    assert h.validate() and mod._is_invertible(h.mat)


@settings(max_examples=30)
@given(_iso_case())
def test_is_isomorphic_decides_sums_of_indecomposables(case):
    stem, m, n, seed = case
    pool = _iso_pool(stem)
    M = mod.direct_sum([pool[i] for i in m])
    N = _conjugate(mod.direct_sum([pool[i] for i in n]), random.Random(seed))
    h = mod.is_isomorphic(M, N)
    # Krull-Schmidt: M and N are isomorphic iff the multisets agree
    assert (h is not None) == (Counter(m) == Counter(n))
    if h is not None:
        _assert_isomorphism(h, M, N)
    found = search_isomorphism(M, N)
    if found is not INCONCLUSIVE:
        assert (found is None) == (h is None)
    if found not in (None, INCONCLUSIVE):
        _assert_isomorphism(found, M, N)


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "Q"])
def test_is_isomorphic_decides_sums_the_search_gave_up_on(field):
    # over k[x]/x^2, S^3 + P^2 against S + P^3: the former budgeted search
    # found no isomorphism and could not refute one
    ctx = mod.context(truncated_poly_algebra(field, 2))
    S, P = ctx.simples[0], ctx.projectives[0]
    M = mod.direct_sum([S, S, S, P, P])
    assert mod.is_isomorphic(M, mod.direct_sum([S, P, P, P])) is None
    N = _conjugate(mod.direct_sum([P, S, P, S, S]), random.Random(5))
    homs = mod.hom_space(M, N)
    # no basis map is invertible, so the isomorphism is assembled from the
    # summands of M split off N
    assert len(homs) == 29 and not any(mod._is_invertible(h.mat) for h in homs)
    _assert_isomorphism(mod.is_isomorphic(M, N), M, N)


def _kronecker_band():
    """Over F_2, the Kronecker quiver 1 => 2 and its module X with a = I and
    b the companion matrix of t^2 + t + 1, whose End(X) is F_4."""
    K = from_quiver(QuiverSpec(F2, ["1", "2"], [("a", "1", "2"), ("b", "1", "2")], [], 2))
    blocks = {"e_1": ([[1, 0], [0, 1]], 0, 0), "e_2": ([[1, 0], [0, 1]], 2, 2),
              "a": ([[1, 0], [0, 1]], 0, 2), "b": ([[0, 1], [1, 1]], 0, 2)}
    rows = []
    for label in K.basis_labels:
        block, r, c = blocks[label]
        act = [[0] * 4 for _ in range(4)]
        for i in range(2):
            act[r + i][c : c + 2] = block[i]
        rows.append([x for row in act for x in row])
    X = mod.Repn(K, 4, Mat.from_rows(F2, rows))
    assert X.validate()
    return X


def test_is_isomorphic_raises_split_give_up_beyond_the_prime_field(monkeypatch):
    X = _kronecker_band()
    Y = _conjugate(X, random.Random(1))
    XX = mod.direct_sum([X, X])
    YY = _conjugate(XX, random.Random(1))
    # End(X + X) = M_2(F_4): no basis map is invertible, and its split
    # gives up, as the split of a non-split algebra does
    assert not any(mod._is_invertible(h.mat) for h in mod.hom_space(XX, YY))
    with pytest.raises(SplitGiveUp, match="beyond the prime field"):
        mod.is_isomorphic(XX, YY)
    # X is indecomposable: a basis map answers, and nothing is split
    monkeypatch.setattr(mod, "endomorphism_algebra", lambda M: pytest.fail("split an indecomposable"))
    _assert_isomorphism(mod.is_isomorphic(X, Y), X, Y)


def test_projective_dimension_skips_a_comparison_that_gives_up(monkeypatch):
    # the syzygy of the simple of k[x]/x^2 is the simple again: with every
    # comparison giving up, periodicity is never certified
    S = mod.context(truncated_poly_algebra(F3, 2)).simples[0]
    assert projective_dimension(S, 3).kind == "infinite"

    def give_up(M, N):
        raise SplitGiveUp("cannot split the center: division components beyond the prime field")

    monkeypatch.setattr(hml, "is_isomorphic", give_up)
    assert projective_dimension(S, 3).kind == "unknown"

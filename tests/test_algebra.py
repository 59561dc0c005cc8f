import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from catres import algebra
from catres.algebra import (
    Algebra,
    AlgebraError,
    QuiverSpec,
    _RANDOM_COMBINATIONS,
    SplitGiveUp,
    _corner_center_rows,
    _corner_rows,
    _divided_trace_gram,
    _is_ideal,
    _radical_by_traces,
    _with_random_combinations,
    from_quiver,
    primitive_idempotents,
    quotient_algebra,
)
from catres.auslander import build_auslander
from catres.corpus import (
    gentle_two_cycle,
    truncated_poly_algebra,
    two_fields,
    upper_triangular_2,
)
from catres.io_json import parse_algebra_or_quiver
from catres.linalg import (
    MAX_ROOT_SEARCH_PRODUCT,
    FieldSpec,
    Mat,
    RootSearchBound,
    RowBasis,
    _int64_fits,
    coords_in_rows,
    nullspace,
    power_traces,
    row_basis,
)
from oracles import (
    bigint_divided_trace_gram,
    corner_algebra,
    corner_split_idempotents,
    eager_random_combinations,
    generating_indices,
    int_matrix_power_trace,
    loop_is_ideal,
    loop_poly_roots,
    naive_product,
    trace_form_radical,
)
from test_modules import f2_s3, f3_a4

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

F2 = FieldSpec("prime", 2)
F3 = FieldSpec("prime", 3)
F5 = FieldSpec("prime", 5)
QQ = FieldSpec("rational")


def matrix_span_algebra(field, mats, labels):
    """Structure constants from a closed set of matrices (test helper)."""
    flat = Mat.from_rows(field, [np.array(m).flatten().tolist() for m in mats])
    d = len(mats)
    if field.kind == "prime":
        table = np.zeros((d, d, d), dtype=np.int64)
    else:
        table = np.empty((d, d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            prod = np.array(mats[i], dtype=object) @ np.array(mats[j], dtype=object)
            if field.kind == "prime":
                prod = prod % field.p
            row = Mat.from_rows(field, [prod.flatten().tolist()])
            table[i, j] = coords_in_rows(flat, row).tolist()[0]
    n = len(mats[0])
    unit = coords_in_rows(flat, Mat.from_rows(field, [np.eye(n, dtype=int).flatten().tolist()]))
    return Algebra(field, labels, unit, Mat.from_rows(field, table.reshape(d, d * d).tolist()))


# -- validate ------------------------------------------------------------


def test_validate_x2_table():
    a = truncated_poly_algebra(F5, 2)
    assert a.validate().ok


def test_validate_detects_broken_table():
    a = truncated_poly_algebra(F5, 2)
    table = np.array(a.table_matrix().tolist(), dtype=np.int64).reshape(2, 2, 2)
    table[1, 1] = [1, 0]  # x*x = 1 breaks associativity/unit structure here
    bad = Algebra(F5, a.basis_labels, a.unit, Mat(F5, table.reshape(2, 4)))
    rep = bad.validate()
    # x*x=1 makes this the group algebra of Z/2: still associative; force a
    # genuinely broken table instead
    table[0, 1] = [1, 0]
    worse = Algebra(F5, a.basis_labels, a.unit, Mat(F5, table.reshape(2, 4)))
    rep = worse.validate()
    assert not rep.ok and rep.violations


@pytest.mark.parametrize(
    "part, message",
    [
        ("table shape", r"table: a 2x3 matrix over .*, not 2x4 over"),
        ("table field", r"table: a 2x4 matrix over .*rational.*, not 2x4 over .*prime"),
        ("unit shape", r"unit: a 1x3 matrix over .*, not 1x2 over"),
    ],
)
def test_a_mis_shaped_table_or_unit_raises_value_error(part, message):
    # a ValueError, not an assert, so that ``python -O`` checks them too
    a = truncated_poly_algebra(F5, 2)
    unit, table = a.unit, a.table_matrix()
    if part == "table shape":
        table = table.take_cols(slice(0, 3))
    elif part == "table field":
        table = Mat.zeros(QQ, 2, 4)
    else:
        unit = Mat.zeros(F5, 1, 3)
    with pytest.raises(ValueError, match=message):
        Algebra(F5, a.basis_labels, unit, table)


def test_validate_one_dimensional():
    a = truncated_poly_algebra(QQ, 1)
    assert a.validate().ok and a.dim == 1


# -- quiver frontend -------------------------------------------------------


def test_quiver_loop_mod_square():
    spec = QuiverSpec(F5, ["1"], [("x", "1", "1")], [], length_bound=2)
    a = from_quiver(spec)
    assert a.dim == 2 and a.validate().ok
    # isomorphic to k[x]/(x^2): x*x = 0
    xi = a.basis_labels.index("x")
    prod = a.multiply(a.basis_element(xi), a.basis_element(xi))
    assert prod.is_zero()


def test_quiver_two_vertex_one_relation():
    spec = QuiverSpec(
        F5,
        ["1", "2"],
        [("a", "1", "2"), ("b", "2", "1")],
        [[(1, ["a", "b"])]],
        length_bound=3,
    )
    a = from_quiver(spec)
    assert a.dim == 5
    assert sorted(a.basis_labels) == sorted(["e_1", "e_2", "a", "b", "b*a"])
    assert a.validate().ok


def test_quiver_no_arrows_two_vertices():
    a = two_fields(F5)
    assert a.dim == 2 and a.validate().ok
    assert a.radical_chain().radical.rows == 0


def test_quiver_rejects_nonparallel_relation():
    with pytest.raises(AlgebraError):
        from_quiver(
            QuiverSpec(
                F5,
                ["1", "2"],
                [("a", "1", "2"), ("b", "2", "1")],
                [[(1, ["a", "b"]), (1, ["b", "a"])]],
                length_bound=3,
            )
        )


def test_quiver_requires_length_bound():
    with pytest.raises(AlgebraError):
        QuiverSpec(F5, ["1"], [("x", "1", "1")], [], length_bound=0)


def test_quiver_rejects_short_relation():
    with pytest.raises(AlgebraError):
        from_quiver(
            QuiverSpec(F5, ["1"], [("x", "1", "1")], [[(1, ["x"])]], length_bound=3)
        )


# -- radical ----------------------------------------------------------------


def test_radical_x2():
    a = truncated_poly_algebra(F5, 2)
    ch = a.radical_chain()
    assert ch.nilpotency_index == 2
    assert ch.radical.tolist() == [[0, 1]]


def test_radical_semisimple_product():
    a = two_fields(F5)
    ch = a.radical_chain()
    assert ch.nilpotency_index == 1 and ch.radical.rows == 0


def test_radical_x3_powers():
    a = truncated_poly_algebra(QQ, 3)
    ch = a.radical_chain()
    assert [p.rows for p in ch.powers] == [2, 1, 0]
    assert ch.nilpotency_index == 3


def test_radical_trace_form_fails_but_chain_succeeds_on_m2f2():
    mats = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]]
    a = matrix_span_algebra(F2, mats, ["E11", "E12", "E21", "E22"])
    assert a.validate().ok
    ch = a.radical_chain()
    assert ch.radical.rows == 0 and ch.nilpotency_index == 1


def test_radical_f4_is_zero():
    mats = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
    a = matrix_span_algebra(F2, mats, ["1", "w"])
    assert a.radical_chain().radical.rows == 0


def test_radical_deep_chain_f2x4():
    a = truncated_poly_algebra(F2, 4)
    ch = a.radical_chain()
    assert [p.rows for p in ch.powers] == [3, 2, 1, 0]


def group_algebra(field, n):
    """k[C_n] on the group basis g^0..g^(n-1); radical not basis-aligned."""
    import numpy as np

    table = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            table[i, j, (i + j) % n] = 1
    unit = Mat.from_rows(field, [[field.one] + [field.zero] * (n - 1)])
    return Algebra(field, [f"g{i}" for i in range(n)], unit, Mat(field, table.reshape(n, n * n)))


def test_radical_of_modular_group_algebras():
    # F_2[C_4] = F_2[x]/(x-1)^4: radical dim 3, nilpotency 4
    a = group_algebra(F2, 4)
    assert a.validate().ok
    ch = a.radical_chain()
    assert [p.rows for p in ch.powers] == [3, 2, 1, 0]
    # F_3[C_6] = F_3[u]/u^3 x F_3[u]/u^3: radical dim 4, A/J = F_3 x F_3
    b = group_algebra(F3, 6)
    ch = b.radical_chain()
    assert ch.radical.rows == 4 and ch.nilpotency_index == 3
    assert len(primitive_idempotents(b, ch)) == 2
    # F_5[C_4]: 4 invertible in F_5, semisimple (splits: x^4-1 has 4 roots)
    c = group_algebra(F5, 4)
    ch = c.radical_chain()
    assert ch.radical.rows == 0
    assert len(primitive_idempotents(c, ch)) == 4
    # Q[C_3]: semisimple, Q x Q(omega): splitting gives up on the quadratic
    # component but the radical itself is zero
    d = group_algebra(QQ, 3)
    assert d.radical_chain().radical.rows == 0


def with_radical_hint(a, rows):
    """A fresh copy of ``a`` that carries ``rows`` as its radical hint."""
    return Algebra(a.field, a.basis_labels, a.unit, a.table_matrix(), radical_hint=rows)


def test_radical_annotation_verified():
    a = truncated_poly_algebra(F5, 2)
    good = Mat.from_rows(F5, [[0, 1]])
    ch = with_radical_hint(a, good).radical_chain()
    assert ch.nilpotency_index == 2
    with pytest.raises(AlgebraError):
        with_radical_hint(a, Mat.from_rows(F5, [[1, 0]])).radical_chain()  # not nilpotent


def test_radical_annotation_checks_ideal_then_nilpotency_then_quotient():
    a = truncated_poly_algebra(F5, 3)  # basis 1, x, x^2
    with pytest.raises(AlgebraError, match="two-sided ideal"):
        # x * x leaves span(x)
        with_radical_hint(a, Mat.from_rows(F5, [[0, 1, 0]])).radical_chain()
    with pytest.raises(AlgebraError, match="not nilpotent"):
        with_radical_hint(a, Mat.identity(F5, 3)).radical_chain()  # the whole algebra
    with pytest.raises(AlgebraError, match="not semisimple"):
        with_radical_hint(a, Mat.from_rows(F5, [[0, 0, 1]])).radical_chain()  # J^2 only


def test_radical_elements_nilpotent_and_powers_nest():
    for a in [gentle_two_cycle(F2), upper_triangular_2(F3), truncated_poly_algebra(F3, 3)]:
        ch = a.radical_chain()
        j = ch.radical
        for r in range(j.rows):
            m = a.left_mult_matrix(j.row_at(r))
            power = m
            for _ in range(a.dim):
                power = power @ m
            assert power.is_zero()
        for i in range(len(ch.powers) - 1):
            for r in range(ch.powers[i + 1].rows):
                assert RowBasis(ch.powers[i]).contains(ch.powers[i + 1].row_at(r))
        # spot-check J^i * J^j <= J^(i+j)
        n = ch.nilpotency_index
        for i in range(1, n):
            for j_ in range(1, n - i + 1):
                a_rows = ch.power(i)
                b_rows = ch.power(j_)
                tgt = ch.power(min(i + j_, n))
                for r in range(a_rows.rows):
                    for s in range(b_rows.rows):
                        prod = a.multiply(a_rows.row_at(r), b_rows.row_at(s))
                        assert RowBasis(tgt).contains(prod) or prod.is_zero()


# -- quotients ---------------------------------------------------------------


def test_quotient_by_power_top_and_bottom():
    a = truncated_poly_algebra(QQ, 3)
    ch = a.radical_chain()
    top, _, _ = quotient_algebra(a, ch.power(1))
    assert top.dim == 1
    full, _, _ = quotient_algebra(a, ch.power(3))
    assert full.dim == 3 and full.validate().ok


def test_quotient_by_power_middle_is_x2():
    a = truncated_poly_algebra(QQ, 3)
    ch = a.radical_chain()
    mid, proj, _ = quotient_algebra(a, ch.power(2))
    assert mid.dim == 2 and mid.validate().ok
    # x has nonzero image with square zero
    ximg = a.basis_element(1) @ proj
    assert not ximg.is_zero()
    assert mid.multiply(ximg, ximg).is_zero()


# -- idempotents, and corners by the oracle route ------------------------------


_M2_BASIS = [[[1, 0], [0, 1]], [[2, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]]]


def block_diag_2(m, first):
    """The 4 x 4 matrix with the 2 x 2 block m in the first or second place."""
    out = np.zeros((4, 4), dtype=int)
    at = slice(0, 2) if first else slice(2, 4)
    out[at, at] = m
    return out.tolist()


def idempotent_inputs():
    """label -> builder of Lambda, for the inputs whose idempotents are
    pinned beyond the corpus.  M_2(k) on a basis of invertible matrices
    has no basis row that splits it: a random combination does.  In
    M_2(F_3) x M_2(F_3) the second factor needs one too, so its rows
    depend on where the first search left the rng stream."""
    arrows = [(f"a{i}", str(i), str((i + 1) % 4)) for i in range(4)]
    return {
        "kQ/J^2 on the 4-cycle over F_2": lambda: from_quiver(
            QuiverSpec(F2, list("0123"), arrows, [], 2)
        ),
        "F_2[S_3]": f2_s3,
        "F_3[C_6]": lambda: group_algebra(F3, 6),
        "F_5[C_4]": lambda: group_algebra(F5, 4),
        "F_3[x]/x^4": lambda: truncated_poly_algebra(F3, 4),
        "M_2(F_3)": lambda: matrix_span_algebra(F3, _M2_BASIS, ["I", "D", "U", "L"]),
        "M_2(F_5)": lambda: matrix_span_algebra(F5, _M2_BASIS, ["I", "D", "U", "L"]),
        "M_2(Q)": lambda: matrix_span_algebra(QQ, _M2_BASIS, ["I", "D", "U", "L"]),
        "M_2(F_3) x M_2(F_3)": lambda: matrix_span_algebra(
            F3, [block_diag_2(b, first) for first in (True, False) for b in _M2_BASIS],
            [f"{side}{x}" for side in "lr" for x in "IDUL"],
        ),
        "F_3[A_4]": f3_a4,
    }


def _split_dual_route_algebras():
    """(label, A): every corpus file and every pinned input, each with its
    Auslander algebra, except T of F_3[A_4] (dim 95)."""
    lams = [(p.stem, parse_algebra_or_quiver(json.loads(p.read_text())))
            for p in sorted(CORPUS.glob("*.json"))]
    lams += [(label, build()) for label, build in idempotent_inputs().items()]
    for label, lam in lams:
        yield label, lam
        if label != "F_3[A_4]":
            yield f"T({label})", build_auslander(lam).tilde


def test_split_routes_agree():
    seen = set()
    for label, a in _split_dual_route_algebras():
        ch = a.radical_chain()
        assert primitive_idempotents(a, ch) == corner_split_idempotents(a, ch), label
        seen.add(label)
    assert {"x3_q", "T(x3_q)", "M_2(Q)", "T(F_2[S_3])", "F_3[A_4]"} <= seen


# -- a quiver algebra's idempotents from its vertices ---------------------------


def _hint_route_idempotents(a, monkeypatch):
    """``context(a).idempotents`` with the split refused, so the hint
    route must give them."""
    from catres import modules

    def refused(*args):
        raise AssertionError("the split ran on an algebra with an idempotent hint")

    with monkeypatch.context() as patch:
        patch.setattr(modules, "primitive_idempotents", refused)
        return modules.context(a).idempotents


def _assert_hint_is_the_split(lam, vertices, monkeypatch):
    """The hint route and the split agree row for row, and the hint lists
    the trivial paths of ``vertices`` last first over F_p and first first
    over Q, as the split of A/J = k^n does."""
    hinted = _hint_route_idempotents(lam, monkeypatch)
    bare = with_radical_hint(lam, lam.radical_hint)  # no idempotent hint: the split
    assert hinted == primitive_idempotents(bare, bare.radical_chain())
    order = vertices if lam.field == QQ else vertices[::-1]
    assert [lam.basis_labels[int(np.argmax(e.tolist()[0]))] for e in hinted] == [
        f"e_{v}" for v in order
    ]


def _commutative_square(field):
    """1 -> 2 -> 4 and 1 -> 3 -> 4 with the relation ab = cd (dim 9)."""
    arrows = [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]
    relation = [(1, ["a", "b"]), (-1, ["c", "d"])]
    return QuiverSpec(field, ["1", "2", "3", "4"], arrows, [relation], 3)


def test_quiver_idempotent_hint_is_the_split_on_the_corpus_and_with_relations(monkeypatch):
    seen = set()
    for path in sorted(CORPUS.glob("*.json")):
        obj = json.loads(path.read_text())
        lam = parse_algebra_or_quiver(obj)
        if "vertices" not in obj:  # structure constants: no hint, the split
            assert lam.idempotent_hint is None, path.stem
            continue
        _assert_hint_is_the_split(lam, obj["vertices"], monkeypatch)
        seen.add(path.stem)
    for field in (F2, F3, F5, QQ):
        spec = _commutative_square(field)
        _assert_hint_is_the_split(from_quiver(spec), spec.vertices, monkeypatch)
        two_cycle = gentle_two_cycle(field)
        _assert_hint_is_the_split(two_cycle, ["1", "2"], monkeypatch)
        isolated = QuiverSpec(field, ["u", "v", "w"], [], [], 1)  # A/J = A = k^3
        _assert_hint_is_the_split(from_quiver(isolated), isolated.vertices, monkeypatch)
    assert {"gentle_two_cycle_f2", "kxk_f5", "t2_f3"} <= seen


@settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.sampled_from([F2, F3, F5, QQ]),
    st.integers(2, 4),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_cyclic_quiver_idempotent_hint_is_the_split_at_any_listing_order(
    monkeypatch, field, n, bound, rng
):
    # kQ/J^bound on the oriented n-cycle, its vertices and arrows listed in
    # a random order
    vertices = [str(v) for v in range(n)]
    arrows = [(f"a{v}", str(v), str((v + 1) % n)) for v in range(n)]
    rng.shuffle(vertices)
    rng.shuffle(arrows)
    lam = from_quiver(QuiverSpec(field, vertices, arrows, [], bound))
    _assert_hint_is_the_split(lam, vertices, monkeypatch)


@pytest.mark.parametrize("field", [F3, QQ])
def test_random_combinations_draw_every_coefficient_first(field):
    rows = Mat.from_rows(field, [[1, 2, 0, 1], [0, 1, 1, 0], [0, 0, 0, 1]])
    rng, drawn = random.Random(7), random.Random(7)
    candidates = _with_random_combinations(rows, rng)
    first = next(candidates)
    for _ in range(rows.rows * _RANDOM_COMBINATIONS):
        field.random_scalar(drawn, 3)
    assert rng.getstate() == drawn.getstate()
    assert [first, *candidates] == eager_random_combinations(rows, random.Random(7))


def test_split_gives_up_on_the_quaternions():
    # Hamilton's quaternions over Q: center Q, no zero divisor, so every
    # basis row and every random combination is tried and fails
    # b_x b_y = sign[x][y] b_(x xor y) on the basis 1, i, j, k
    sign = [[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]]
    table = np.zeros((4, 4, 4), dtype=np.int64)
    for x in range(4):
        for y in range(4):
            table[x, y, x ^ y] = sign[x][y]
    a = Algebra(QQ, ["1", "i", "j", "k"], Mat.row(QQ, [1, 0, 0, 0]), Mat(QQ, table.reshape(4, 16)))
    assert a.validate().ok
    message = "^no zero divisor found: division algebra of dimension > 1$"
    with pytest.raises(SplitGiveUp, match=message):
        primitive_idempotents(a, a.radical_chain())


def test_primitive_idempotents_local():
    a = truncated_poly_algebra(F2, 2)
    idems = primitive_idempotents(a, a.radical_chain())
    assert len(idems) == 1 and idems[0] == a.unit


def test_primitive_idempotents_kxk():
    a = two_fields(F5)
    idems = primitive_idempotents(a, a.radical_chain())
    assert len(idems) == 2
    assert sorted(e.tolist() for e in idems) == [[[0, 1]], [[1, 0]]]


def test_a_split_that_stops_early_is_refused(monkeypatch):
    # the split's output goes through the certificate a hint goes through
    monkeypatch.setattr(algebra, "_split_semisimple", lambda B, basis, unit, rng: [unit])
    a = two_fields(F5)
    with pytest.raises(AlgebraError, match=r"^idempotents: row 0 is not primitive"):
        primitive_idempotents(a, a.radical_chain())


def test_primitive_idempotents_t2():
    a = upper_triangular_2(F3)
    idems = primitive_idempotents(a, a.radical_chain())
    assert len(idems) == 2
    total = idems[0] + idems[1]
    assert total == a.unit
    for e in idems:
        assert a.multiply(e, e) == e


def test_primitive_idempotents_matrix_block():
    mats = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]]
    a = matrix_span_algebra(F2, mats, ["E11", "E12", "E21", "E22"])
    idems = primitive_idempotents(a, a.radical_chain())
    assert len(idems) == 2
    s = idems[0] + idems[1]
    assert s == a.unit


def test_split_gives_up_on_proper_division_component():
    # F_4 over F_2 is a division algebra of dimension 2 over the prime
    # field: the decomposition reports and aborts instead of guessing
    from catres.algebra import SplitGiveUp

    mats = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
    a = matrix_span_algebra(F2, mats, ["1", "w"])
    with pytest.raises(SplitGiveUp):
        primitive_idempotents(a, a.radical_chain())


def test_corner_identity_and_zero():
    a = truncated_poly_algebra(F5, 2)
    c, embed, degenerate = corner_algebra(a, a.unit)
    assert not degenerate and c.dim == a.dim
    # corner at 1 is isomorphic to a via the embedding rows
    for i in range(c.dim):
        for j in range(c.dim):
            lhs = a.multiply(embed.row_at(i), embed.row_at(j))
            rhs = coords_in_rows(embed, lhs)
            assert (rhs @ embed) == lhs
    z, _, degenerate = corner_algebra(a, Mat.zeros(F5, 1, 2))
    assert degenerate and z.dim == 0


def test_corner_t2_vertex():
    a = upper_triangular_2(F3)
    idems = primitive_idempotents(a, a.radical_chain())
    c, embed, deg = corner_algebra(a, idems[0])
    assert not deg and c.dim == 1 and c.validate().ok


def test_corner_rejects_non_idempotent():
    a = truncated_poly_algebra(F5, 2)
    with pytest.raises(AlgebraError):
        corner_algebra(a, a.basis_element(1))


# -- opposite and center --------------------------------------------------------
# The right table of A is the table of A^op.


def test_opposite_commutative_equal():
    a = truncated_poly_algebra(F5, 2)
    assert a.right_table() == a.table_matrix()


def test_opposite_t2_validates_and_involutes():
    a = upper_triangular_2(F3)
    op = Algebra(a.field, a.basis_labels, a.unit, a.right_table())
    assert op.validate().ok
    assert op.right_table() == a.table_matrix()
    assert op.table_matrix() != a.table_matrix()


def test_center_of_t2():
    a = upper_triangular_2(F3)
    z = _corner_center_rows(a, _corner_rows(a, a.unit))
    assert z == a.unit  # spanned by the unit


def test_generating_indices_small():
    a = truncated_poly_algebra(F5, 4)
    gens = generating_indices(a)
    assert len(gens) == 1  # x generates with the unit


# -- batched kernels against their pairwise routes ----------------------------

def _rescaled_cubic():
    """Q[x]/x^3 on the basis 1, 2x, 8x^2: (2x)(2x) = 1/2 (8x^2)."""
    table = np.empty((3, 3, 3), dtype=object)
    table[...] = Fraction(0)
    for j in range(3):
        table[0, j, j] = table[j, 0, j] = Fraction(1)
    table[1, 1, 2] = Fraction(1, 2)
    table = Mat.from_rows(QQ, table.reshape(3, 9).tolist())
    a = Algebra(QQ, ["1", "2x", "8x^2"], Mat.row(QQ, [1, 0, 0]), table)
    assert a.validate().ok
    return a


PRODUCT_ALGEBRAS = [
    truncated_poly_algebra(F3, 3),
    truncated_poly_algebra(QQ, 3),
    _rescaled_cubic(),
    upper_triangular_2(QQ),
    upper_triangular_2(F5),
    gentle_two_cycle(F2),
]


@st.composite
def _product_case(draw):
    a = draw(st.sampled_from(PRODUCT_ALGEBRAS))
    f = a.field

    def rows():
        count = draw(st.integers(0, 3))
        if f.kind == "prime":
            entry = st.integers(0, f.p - 1)
        else:
            entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
        return Mat.from_rows(f, [draw(st.lists(entry, min_size=a.dim, max_size=a.dim))
                                 for _ in range(count)]) if count else Mat.zeros(f, 0, a.dim)

    return a, rows(), rows()


@given(_product_case())
def test_products_match_pairwise_naive_products(case):
    a, u, v = case
    prods = a.products(u, v)
    assert (prods.rows, prods.cols) == (u.rows * v.rows, a.dim)
    for i in range(u.rows):
        for j in range(v.rows):
            expected = naive_product(a, u.tolist()[i], v.tolist()[j])
            assert prods.tolist()[i * v.rows + j] == expected
            assert a.multiply(u.row_at(i), v.row_at(j)) == prods.row_at(i * v.rows + j)


def _prime_corpus_and_auslander_algebras():
    for path in sorted(CORPUS.glob("*.json")):
        lam = parse_algebra_or_quiver(json.loads(path.read_text()))
        if lam.field.kind == "prime":
            yield path.stem, lam
            yield f"T({path.stem})", build_auslander(lam).tilde


def test_divided_trace_gram_matches_bigint_route():
    levels_seen = set()
    for label, a in _prime_corpus_and_auslander_algebras():
        p = a.field.p
        basis = Mat.identity(a.field, a.dim)
        q = 1
        while basis.rows and q <= a.dim:
            gram = _divided_trace_gram(a, basis, q)
            assert gram.tolist() == bigint_divided_trace_gram(a, basis, q), (label, q)
            levels_seen.add(q)
            basis = row_basis(nullspace(gram).T @ basis)
            q *= p
        assert basis == _radical_by_traces(a), label
    assert {1, 2, 4} <= levels_seen


def test_trace_route_matches_the_trace_form_reference_over_q():
    x3_q = parse_algebra_or_quiver(json.loads((CORPUS / "x3_q.json").read_text()))
    for label, a in (("x3_q", x3_q), ("Q[x]/x^5", truncated_poly_algebra(QQ, 5))):
        for name, b in ((label, a), (f"T({label})", build_auslander(a).tilde)):
            assert _radical_by_traces(b) == trace_form_radical(b), name


def q_times_q(n):
    """Q x Q on the basis (1, 1), (n, 0) as catres-algebra-v1 JSON: u = (n, 0)
    has minimal polynomial t^2 - n t, so the rational root search runs on
    the divisors of n."""
    return {
        "format": "catres-algebra-v1",
        "field": {"type": "rational"},
        "dim": 2,
        "basis": ["1", "u"],
        "unit": [1, 0],
        "mult": [[[1, 0], [0, 1]], [[0, 1], [0, n]]],
    }


def test_rational_root_search_under_its_bound_keeps_the_idempotents():
    a = parse_algebra_or_quiver(q_times_q(10**6))
    idems = primitive_idempotents(a, a.radical_chain())
    assert [e.to_json()[0] for e in idems] == [[0, "1/1000000"], [1, "-1/1000000"]]


def test_rational_root_search_gives_up_at_its_bound():
    n = MAX_ROOT_SEARCH_PRODUCT
    with pytest.raises(RootSearchBound, match=f"lowest coefficient -{n} times leading"):
        QQ.roots([Fraction(0), Fraction(-n), Fraction(1)])
    # the split of A/J gives up with the same message
    a = parse_algebra_or_quiver(q_times_q(n))
    with pytest.raises(SplitGiveUp, match=f"lowest coefficient -{n} times leading"):
        primitive_idempotents(a, a.radical_chain())


def test_poly_roots_over_q_with_a_denominator_beyond_int64():
    # (t - 1/d)(t - 1): the common denominator is d, but an int64 lcm loop
    # forms d * d on the way and wraps
    d = 2**32 + 15
    coeffs = [Fraction(1, d), -(1 + Fraction(1, d)), Fraction(1)]
    assert set(QQ.roots(coeffs)) == {Fraction(1, d), Fraction(1)}


@given(
    st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=6), max_size=3),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=2),
)
def test_poly_roots_over_q_match_the_loop_route(roots, low):
    coeffs = [*low, Fraction(1)]
    for r in roots:  # times (t - r)
        coeffs = [a - r * b for a, b in zip([Fraction(0), *coeffs], [*coeffs, Fraction(0)])]
    assert QQ.roots(coeffs) == loop_poly_roots(QQ, coeffs)


@given(st.sampled_from([2, 3, 5, 7]), st.lists(st.integers(0, 6), max_size=5))
def test_poly_roots_over_f_p_match_the_loop_route(p, low):
    field = FieldSpec("prime", p)
    coeffs = [c % p for c in low] + [1]
    assert field.roots(coeffs) == loop_poly_roots(field, coeffs)


def test_power_traces_match_bigint_traces_on_both_paths():
    rng = random.Random(5)
    z = np.array([[[rng.randrange(50) for _ in range(4)] for _ in range(4)] for _ in range(3)])
    flat = Mat(FieldSpec("prime", 53), z.reshape(3, 16))  # one matrix per row
    for k, modulus in ((1, 7), (5, 49), (8, 3**30), (9, 2**61 + 1)):
        traces = power_traces(flat, 4, k, modulus)
        assert traces.dtype == (np.int64 if _int64_fits(4, modulus - 1, modulus - 1) else object)
        assert [int(t) for t in traces] == [int_matrix_power_trace(m, k) % modulus for m in z]


def test_power_traces_headroom_boundary_without_allocation():
    modulus = 3_000_017
    limit = ((1 << 63) - 1) // (modulus - 1) ** 2  # largest n that fits
    assert _int64_fits(limit, modulus - 1, modulus - 1)
    assert not _int64_fits(limit + 1, modulus - 1, modulus - 1)
    # no rows of n x n matrices: the path shows in the dtype, nothing is allocated
    f3 = FieldSpec("prime", 3)
    fits = power_traces(Mat.zeros(f3, 0, limit * limit), limit, 2, modulus)
    wraps = power_traces(Mat.zeros(f3, 0, (limit + 1) ** 2), limit + 1, 2, modulus)
    assert fits.dtype == np.int64 and wraps.dtype == object


def test_is_ideal_matches_the_basis_loop_on_corpus_and_auslander_algebras():
    rng = random.Random(11)
    outcomes = set()
    for path in sorted(CORPUS.glob("*.json")):
        lam = parse_algebra_or_quiver(json.loads(path.read_text()))
        for label, a in ((path.stem, lam), (f"T({path.stem})", build_auslander(lam).tilde)):
            chain = a.radical_chain()
            cands = [p for p in chain.powers if p.rows]
            cands += [a.basis_element(i) for i in range(a.dim)]
            cands += [chain.radical.vstack(a.basis_element(i)) for i in range(a.dim)]
            cands += [
                Mat.from_rows(a.field, [[rng.randrange(3) for _ in range(a.dim)] for _ in range(2)])
                for _ in range(3)
            ]
            for rows in cands:
                fast = _is_ideal(a, rows)
                assert fast == loop_is_ideal(a, rows), (label, rows.tolist())
                outcomes.add(fast)
    assert outcomes == {True, False}

import dataclasses
import itertools
import json
import re
from pathlib import Path

import pytest

from catres import auslander, modules
from catres.algebra import (
    AlgebraError,
    QuiverSpec,
    _radical_by_traces,
    from_quiver,
    primitive_idempotents,
)
from catres.auslander import (
    build_auslander,
    check_corner_iso,
    corner_dim,
    hom_dim_sum,
    verify_auslander,
)
from catres.corpus import shipped_corpus, truncated_poly_algebra, two_fields
from catres.homology import global_dimension
from catres.io_json import parse_algebra_or_quiver
from catres.linalg import FieldSpec, Mat, RowBasis, rank, row_basis
from catres.modules import context, is_isomorphic
from oracles import corner_route_iso, idempotent_set_defect, loop_zeta, naive_hom_dim
from test_algebra import idempotent_inputs, with_radical_hint
from test_modules import f2_s3

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

F2 = FieldSpec("prime", 2)
F3 = FieldSpec("prime", 3)
F5 = FieldSpec("prime", 5)
F7 = FieldSpec("prime", 7)


@pytest.fixture(scope="module")
def data_x2():
    return build_auslander(truncated_poly_algebra(F5, 2))


@pytest.fixture(scope="module")
def data_x3():
    return build_auslander(truncated_poly_algebra(F7, 3))


def test_semisimple_base_gives_itself():
    lam = truncated_poly_algebra(F5, 1)
    d = build_auslander(lam)
    assert d.M.dim == 1 and d.tilde.dim == 1
    assert d.e == d.tilde.unit


def test_x2_dimensions(data_x2):
    assert data_x2.lam.radical_chain().nilpotency_index == 2
    assert data_x2.M.dim == 3
    assert data_x2.tilde.dim == 5
    assert corner_dim(data_x2) == 2


def test_x3_dimensions(data_x3):
    assert data_x3.M.dim == 6
    assert data_x3.tilde.dim == 14


def test_e_is_idempotent(data_x2, data_x3):
    for d in (data_x2, data_x3):
        t = d.tilde
        assert t.multiply(d.e, d.e) == d.e


def test_corner_iso_full_checks(data_x2, data_x3):
    for d in (data_x2, data_x3):
        ok, detail = check_corner_iso(d)
        assert ok, detail
        assert rank(d.lambda_to_tilde) == d.lam.dim


def test_dim_two_ways(data_x2, data_x3):
    # hom_dim_sum reads the kept blocks End(M) was assembled from, so the
    # second count is the dense solve of every block
    corpus = [build_auslander(lam) for lam in shipped_corpus().values()]
    for d in (data_x2, data_x3, *corpus):
        dense = sum(naive_hom_dim(a, b) for a in d.summands for b in d.summands)
        assert hom_dim_sum(d) == dense == d.tilde.dim


def test_tilde_is_valid_algebra(data_x2):
    assert data_x2.tilde.validate().ok


def test_verify_report_x2(data_x2):
    r = verify_auslander(data_x2)
    assert r["ok"]
    assert r["gldim_tilde"] == {"kind": "finite", "value": 2}
    assert r["corner_iso_ok"] and r["dim_sum_consistent"]


def test_verify_report_x3(data_x3):
    r = verify_auslander(data_x3)
    assert r["ok"] and r["gldim_tilde"] == {"kind": "finite", "value": 2}


def test_verify_reports_the_corner_certificate_of_the_build(monkeypatch):
    # the build checks zeta onto the corner once; the report reads that
    # check, and data made apart from the build is checked afresh
    d = build_auslander(truncated_poly_algebra(F3, 3))
    expected = verify_auslander(d)
    assert (expected["corner_dim"], expected["corner_iso_detail"]) == d.corner_iso == (3, "")
    calls = []
    monkeypatch.setattr(auslander, "corner_dim", lambda data: calls.append(data) or 3)
    assert verify_auslander(d) == expected and calls == []
    fresh = dataclasses.replace(d)
    assert fresh.corner_iso is None
    assert verify_auslander(fresh) == expected and calls == [fresh]


def test_corpus_gldim_tilde_always_finite():
    # the headline finiteness on every corpus member
    for name, lam in shipped_corpus().items():
        d = build_auslander(lam)
        r = verify_auslander(d)
        assert r["gldim_tilde_finite"], (name, r["gldim_tilde"])
        assert r["ok"], name


def test_semisimple_kxk_tilde_isomorphic_to_lambda():
    lam = two_fields(F5)
    d = build_auslander(lam)
    assert d.tilde.dim == lam.dim
    g = verify_auslander(d)
    assert g["gldim_tilde"] == {"kind": "finite", "value": 0}


def test_theta_of_regular_tilde_is_m(data_x2):
    # tilde . e as a Lambda-module recovers M
    from catres.functors import theta
    from catres.modules import regular_module

    t = theta(regular_module(data_x2.tilde), data_x2)
    assert t.dim == data_x2.M.dim
    assert is_isomorphic(t, data_x2.M) is not None


def _radical_dual_route_algebras():
    """(label, Lambda): every corpus file, F_2[S_3], F_3[x]/x^4 and kQ/J^2
    on the 4-cycle over F_2."""
    for path in sorted(CORPUS.glob("*.json")):
        yield path.stem, parse_algebra_or_quiver(json.loads(path.read_text()))
    yield "F2[S3]", f2_s3()
    yield "F3[x]/x^4", truncated_poly_algebra(F3, 4)
    arrows = [(f"a{i}", str(i), str((i + 1) % 4)) for i in range(4)]
    yield "kQ/J^2 on the 4-cycle", from_quiver(QuiverSpec(F2, list("0123"), arrows, [], 2))


def test_local_piece_radical_matches_the_field_route():
    fields = set()
    for label, lam in _radical_dual_route_algebras():
        tilde = build_auslander(lam).tilde
        expected = _radical_by_traces(tilde)
        assert row_basis(tilde.radical_hint) == expected, label
        assert tilde.radical_chain().radical == expected, label
        fields.add(tilde.field.kind)
    assert fields == {"prime", "rational"}


def test_zeta_matches_the_per_element_loop():
    for label, lam in _radical_dual_route_algebras():
        d = build_auslander(lam)
        assert d.lambda_to_tilde == loop_zeta(d), label


@pytest.mark.parametrize("name", ["x3_f3", "x3_q", "gentle_two_cycle_f2"])
def test_radical_annotation_missing_or_extra_row_is_rejected(name):
    lam = parse_algebra_or_quiver(json.loads((CORPUS / f"{name}.json").read_text()))
    tilde = build_auslander(lam).tilde
    rad = tilde.radical_chain().radical
    assert with_radical_hint(tilde, rad).radical_chain().radical == rad
    with pytest.raises(AlgebraError):
        with_radical_hint(tilde, rad.take_rows(range(rad.rows - 1))).radical_chain()
    outside = next(
        b for b in (tilde.basis_element(i) for i in range(tilde.dim))
        if not RowBasis(rad).contains(b)
    )
    with pytest.raises(AlgebraError):
        with_radical_hint(tilde, rad.vstack(outside)).radical_chain()


def test_corner_routes_agree():
    for label, lam in _radical_dual_route_algebras():
        d = build_auslander(lam)
        ok, detail = check_corner_iso(d)
        assert ok, (label, detail)
        assert corner_route_iso(d) == (ok, detail, corner_dim(d)), label


def _right_action(fields):
    """b -> (m -> m b) on M: an injective algebra map into tilde, as Lambda
    is commutative, but onto all of tilde, not onto the corner."""
    lam, M = fields["lam"], fields["M"]
    acts = [M.rho(lam.basis_element(t)).flatten_row() for t in range(lam.dim)]
    return fields["end"].basis.coords(Mat.stack_rows(lam.field, acts))


def _zero_rows(z, rows):
    """z with ``rows`` zeroed: keep.T @ keep is diagonal, 1 on the kept rows."""
    keep = Mat.identity(z.field, z.rows).take_rows([r for r in range(z.rows) if r not in rows])
    return keep.T @ keep @ z


# Mutants of zeta on F_3[x]/x^3 (basis 1, x, x^2), each caught by one of the
# three checks.  Scaling the row of x by 2 would not do: that is zeta after
# the automorphism x -> 2x, an isomorphism onto the corner that the corner
# route rejects (it pins zeta as the inverse of restriction).
ZETA_MUTANTS = {
    "rows of x and x^2 swapped": (
        lambda f: f["lambda_to_tilde"].take_rows([0, 2, 1]),
        "multiplicativity fails at basis pair (1, 1)",
    ),
    "row of x^2 zeroed": (
        lambda f: _zero_rows(f["lambda_to_tilde"], [2]),
        "multiplicativity fails at basis pair (1, 1)",
    ),
    "rows of x and x^2 zeroed": (
        lambda f: _zero_rows(f["lambda_to_tilde"], [1, 2]),
        "zeta is not injective",
    ),
    "right action on M": (_right_action, "corner dimension differs from dim Lambda"),
}


@pytest.mark.parametrize("mutant", sorted(ZETA_MUTANTS))
def test_mutant_zeta_fails_both_routes_and_the_build(monkeypatch, mutant):
    mutate, detail = ZETA_MUTANTS[mutant]
    lam = truncated_poly_algebra(F3, 3)
    d = build_auslander(lam)
    zeta = mutate(vars(d))
    bad = dataclasses.replace(d, lambda_to_tilde=zeta, e=lam.unit @ zeta)
    assert check_corner_iso(bad) == (False, detail)
    assert not corner_route_iso(bad)[0]

    real = auslander.AuslanderData

    def with_mutant(**fields):
        zeta = mutate(fields)
        fields.update(lambda_to_tilde=zeta, e=fields["lam"].unit @ zeta)
        return real(**fields)

    monkeypatch.setattr(auslander, "AuslanderData", with_mutant)
    with pytest.raises(AlgebraError, match=re.escape(f"corner isomorphism check failed: {detail}")):
        build_auslander(lam)


# -- T's primitive idempotents from its local pieces ----------------------------


def _hinted_copy(tilde, hint):
    """A fresh copy of ``tilde`` with its radical hint and ``hint`` as its
    idempotent hint."""
    copy = with_radical_hint(tilde, tilde.radical_hint)
    copy.idempotent_hint = hint
    return copy


def _dropped(tilde, rows):
    return Mat.stack_rows(tilde.field, rows[1:])


def _merged(tilde, rows):
    return Mat.stack_rows(tilde.field, [rows[0] + rows[1], *rows[2:]])


def _not_orthogonal(tilde, rows):
    """e_i replaced by e_i + u for some nonzero u = e_j b_k e_i, j != i: an
    idempotent (u e_i = u, e_i u = 0, u u = 0) with e_j (e_i + u) = u."""
    for i, j in itertools.permutations(range(len(rows)), 2):
        corner = tilde.products(tilde.left_mult_matrix(rows[j]), rows[i])  # row k: e_j b_k e_i
        k = next((k for k in range(corner.rows) if not corner.row_at(k).is_zero()), None)
        if k is not None:
            return Mat.stack_rows(
                tilde.field, [r + corner.row_at(k) if t == i else r for t, r in enumerate(rows)]
            )
    raise AssertionError("no two pieces with a map between them")


BROKEN_HINTS = {
    "one idempotent dropped": (_dropped, "the rows do not sum to the unit"),
    "two idempotents merged": (_merged, r"row 0 is not primitive"),
    "one replaced by a non-orthogonal idempotent": (_not_orthogonal, r"are not orthogonal"),
}


def _cyc4():
    arrows = [(f"a{i}", str(i), str((i + 1) % 4)) for i in range(4)]
    return from_quiver(QuiverSpec(F2, list("0123"), arrows, [], 2))


@pytest.mark.parametrize("broken", sorted(BROKEN_HINTS))
@pytest.mark.parametrize("name", ["x3_f3", "x3_q", "cyc4"])
def test_broken_idempotent_hint_is_rejected_before_any_module(name, broken):
    lam = _cyc4() if name == "cyc4" else parse_algebra_or_quiver(
        json.loads((CORPUS / f"{name}.json").read_text())
    )
    tilde = build_auslander(lam).tilde
    rows = context(tilde).idempotents
    assert context(_hinted_copy(tilde, tilde.idempotent_hint)).idempotents == rows
    breaker, message = BROKEN_HINTS[broken]
    ctx = context(_hinted_copy(tilde, breaker(tilde, rows)))
    with pytest.raises(AlgebraError, match=f"^idempotents: .*{message}"):
        ctx.projectives  # the simples and projectives follow the idempotents
    assert "_simples_and_projectives" not in vars(ctx)


def test_an_algebra_without_a_hint_takes_the_split_route(monkeypatch):
    routes = []
    for name, fn in (("split", modules.primitive_idempotents),
                     ("hint", modules.checked_idempotents)):
        monkeypatch.setattr(
            modules, fn.__name__, lambda *a, _fn=fn, _name=name: routes.append(_name) or _fn(*a)
        )
    lam = truncated_poly_algebra(F3, 3)
    tilde = build_auslander(lam).tilde  # takes Lambda's idempotents: one split
    assert lam.idempotent_hint is None and routes == ["split"]
    assert tilde.idempotent_hint is not None
    context(tilde).idempotents
    assert routes == ["split", "hint"]
    bare = with_radical_hint(tilde, tilde.radical_hint)
    assert bare.idempotent_hint is None
    assert context(bare).idempotents == primitive_idempotents(bare)
    assert routes == ["split", "hint", "split"]


def _piece_dual_route_algebras():
    """(label, Lambda): every corpus file and every input of
    ``idempotent_inputs`` but F_3[A_4] (dim T 95)."""
    for path in sorted(CORPUS.glob("*.json")):
        yield path.stem, parse_algebra_or_quiver(json.loads(path.read_text()))
    for label, build in idempotent_inputs().items():
        if label != "F_3[A_4]":
            yield label, build()


# the inputs where the split of T/J lists the pieces in the order of the
# hint; the pins of ``test_golden_reports.IDEMPOTENT_GOLDEN`` cover the others
SPLIT_ORDER_EQUALS_PIECE_ORDER = {
    "x3_f3", "kQ/J^2 on the 4-cycle over F_2", "F_3[C_6]", "F_3[x]/x^4",
}


def test_piece_idempotents_match_the_split_route():
    seen = set()
    for label, lam in _piece_dual_route_algebras():
        tilde = build_auslander(lam).tilde
        chain = tilde.radical_chain()
        hinted = context(tilde).idempotents
        split = primitive_idempotents(tilde)
        rows = [e.tolist()[0] for e in hinted]
        assert idempotent_set_defect(tilde, rows, chain.radical.tolist()) is None, label
        assert len(hinted) == len(split), label

        def dims(es):
            return sorted(rank(tilde.left_mult_matrix(e)) for e in es)

        assert dims(hinted) == dims(split), label
        bare = with_radical_hint(tilde, tilde.radical_hint)  # takes the split route
        assert context(bare).idempotents == split, label
        depth = lam.radical_chain().nilpotency_index + 2
        assert global_dimension(tilde, depth) == global_dimension(bare, depth), label
        if label in SPLIT_ORDER_EQUALS_PIECE_ORDER:
            assert hinted == split, label
        seen.add(label)
    assert SPLIT_ORDER_EQUALS_PIECE_ORDER | {"x3_q", "M_2(Q)", "F_2[S_3]"} <= seen


def test_idempotent_oracle_finds_each_defect():
    tilde = build_auslander(truncated_poly_algebra(F3, 3)).tilde
    rows = context(tilde).idempotents
    radical = tilde.radical_chain().radical.tolist()
    for broken, (breaker, _) in BROKEN_HINTS.items():
        bad = breaker(tilde, rows).tolist()
        assert idempotent_set_defect(tilde, bad, radical) is not None, broken

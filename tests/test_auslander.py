import dataclasses
import json
import re
from pathlib import Path

import pytest

from catres import auslander
from catres.algebra import AlgebraError, QuiverSpec, _radical_by_traces, from_quiver
from catres.auslander import (
    build_auslander,
    check_corner_iso,
    corner_dim,
    hom_dim_sum,
    verify_auslander,
)
from catres.corpus import shipped_corpus, truncated_poly_algebra, two_fields
from catres.io_json import parse_algebra_or_quiver
from catres.linalg import FieldSpec, Mat, RowBasis, rank, row_basis
from catres.modules import is_isomorphic
from oracles import corner_route_iso
from test_algebra import with_radical_hint
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
    for d in (data_x2, data_x3):
        assert hom_dim_sum(d) == d.tilde.dim


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

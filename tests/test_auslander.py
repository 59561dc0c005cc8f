import json
from pathlib import Path

import pytest

from catres.algebra import AlgebraError, QuiverSpec, _radical_by_traces, from_quiver
from catres.auslander import build_auslander, check_corner_iso, hom_dim_sum, verify_auslander
from catres.corpus import shipped_corpus, truncated_poly_algebra, two_fields
from catres.io_json import parse_algebra_or_quiver
from catres.linalg import FieldSpec, RowBasis, rank, row_basis
from catres.modules import is_isomorphic
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
    assert d.e.coords == d.tilde.unit


def test_x2_dimensions(data_x2):
    assert data_x2.chain.nilpotency_index == 2
    assert data_x2.M.dim == 3
    assert data_x2.tilde.dim == 5
    assert data_x2.corner.dim == 2


def test_x3_dimensions(data_x3):
    assert data_x3.M.dim == 6
    assert data_x3.tilde.dim == 14


def test_e_is_idempotent(data_x2, data_x3):
    for d in (data_x2, data_x3):
        t = d.tilde
        assert t.multiply(d.e.coords, d.e.coords) == d.e.coords


def test_corner_iso_full_checks(data_x2, data_x3):
    for d in (data_x2, data_x3):
        ok, detail = check_corner_iso(d)
        assert ok, detail
        assert rank(d.corner_to_lambda) == d.lam.dim


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

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from catres import modules as mod
from catres.algebra import MAX_QUIVER_PATHS, AlgebraError, QuiverSpec, from_quiver
from catres.auslander import build_auslander
from catres.cli import main
from catres.corpus import truncated_poly_algebra
from catres.functors import theta_rho
from catres import io_json
from catres.io_json import (
    MAX_DIM,
    ParseError,
    algebra_to_json,
    complex_to_json,
    module_to_json,
    parse_algebra,
    parse_algebra_or_quiver,
    parse_complex,
    parse_module,
)
from catres.linalg import FieldSpec
from test_algebra import q_times_q

F2 = FieldSpec("prime", 2)
F5 = FieldSpec("prime", 5)
QQ = FieldSpec("rational")

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "corpus"


def run_cli(*argv, expect=0, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "catres.cli", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr, proc.stdout)
    return proc


# -- parsing -----------------------------------------------------------------


def test_roundtrip_algebra_json():
    a = truncated_poly_algebra(F5, 2)
    obj = algebra_to_json(a)
    b = parse_algebra(obj)
    assert algebra_to_json(b) == obj


def test_roundtrip_rational_algebra():
    a = truncated_poly_algebra(QQ, 3)
    obj = algebra_to_json(a)
    b = parse_algebra(obj)
    assert algebra_to_json(b) == obj
    assert b.field.kind == "rational"


def test_roundtrip_corpus_files_normalize():
    for path in CORPUS.glob("*.json"):
        obj = json.loads(path.read_text())
        alg = parse_algebra_or_quiver(obj)
        if obj["format"] == "catres-algebra-v1":
            emitted = algebra_to_json(alg)
            again = algebra_to_json(parse_algebra(emitted))
            assert emitted == again


def test_rejects_unknown_fields():
    obj = algebra_to_json(truncated_poly_algebra(F5, 2))
    obj["extra"] = 1
    with pytest.raises(ParseError) as exc:
        parse_algebra(obj)
    assert "extra" in str(exc.value)


def test_rejects_wrong_mult_arity():
    obj = algebra_to_json(truncated_poly_algebra(F5, 2))
    obj["mult"][1] = [[0, 1]]  # one product vector missing
    with pytest.raises(ParseError) as exc:
        parse_algebra(obj)
    assert "mult[1]" in str(exc.value)


def test_rejects_missing_length_bound():
    quiver = json.loads((CORPUS / "t2_f3.json").read_text())
    del quiver["length_bound"]
    with pytest.raises(ParseError) as exc:
        parse_algebra_or_quiver(quiver)
    assert "length_bound" in str(exc.value)


def _two_loop_quiver(length_bound):
    return {
        "format": "catres-quiver-v1",
        "field": {"type": "prime", "p": 2},
        "vertices": ["v"],
        "arrows": [{"name": "a", "from": "v", "to": "v"}, {"name": "b", "from": "v", "to": "v"}],
        "relations": [],
        "length_bound": length_bound,
    }


def test_rejects_a_quiver_over_the_path_budget_before_building_it():
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_algebra_or_quiver(_two_loop_quiver(10**6))
    assert time.perf_counter() - start < 0.5
    assert exc.value.path == "$.length_bound"
    assert str(MAX_QUIVER_PATHS) in exc.value.reason


def test_rejects_an_algebra_dim_over_the_bound_before_reading_its_table():
    assert MAX_DIM == MAX_QUIVER_PATHS == 200
    obj = algebra_to_json(truncated_poly_algebra(F5, 2))
    # neither basis nor mult is read: both would fail their own checks
    obj.update(dim=MAX_DIM + 1, basis=None, mult=None)
    with pytest.raises(ParseError) as exc:
        parse_algebra(obj)
    assert exc.value.path == "$.dim"
    assert str(MAX_DIM) in exc.value.reason
    obj["dim"] = MAX_DIM  # at the bound the dim passes, and the basis is read
    with pytest.raises(ParseError) as exc:
        parse_algebra(obj)
    assert exc.value.path == "$.basis"


@pytest.mark.parametrize("dim", [-1, True, 1.0, MAX_DIM + 1])
def test_module_dim_is_checked_before_the_auslander_algebra_is_built(dim, monkeypatch):
    def refuse(lam):
        raise AssertionError("built the Auslander algebra for a module with a bad dim")

    monkeypatch.setattr(io_json, "build_auslander", refuse)
    obj = {
        "format": "catres-module-v1",
        "algebra": {"auslander_of": algebra_to_json(truncated_poly_algebra(F2, 2))},
        "dim": dim,
        "action": [],
    }
    with pytest.raises(ParseError) as exc:
        parse_module(obj)
    assert exc.value.path == "$.dim"


def test_cli_analyze_gives_up_on_an_oversized_rational_root_search(tmp_path, capsys):
    path = tmp_path / "qq.json"
    path.write_text(json.dumps(q_times_q(10**30)))
    start = time.perf_counter()
    assert main(["analyze", str(path), "--format", "json"]) == 1
    assert time.perf_counter() - start < 1.0
    assert f"lowest coefficient -{10**30} times leading" in capsys.readouterr().err


def test_path_count_sums_the_powers_of_the_adjacency_matrix():
    f2 = FieldSpec("prime", 2)
    loops = [("a", "v", "v"), ("b", "v", "v")]
    # 2**l paths of length l on two loops: 1 + 2 + ... + 64 = 127 below length 7
    assert QuiverSpec(f2, ["v"], loops, [], 7).path_count() == 127
    assert QuiverSpec(f2, ["v"], loops, [], 8).path_count() == 255
    cycle = [(f"a{i}", str(i), str((i + 1) % 3)) for i in range(3)]
    assert QuiverSpec(f2, list("012"), cycle, [], 3).path_count() == 9
    many = QuiverSpec(f2, [str(i) for i in range(10**4)], [], [], 2)
    assert many.path_count() > MAX_QUIVER_PATHS
    with pytest.raises(AlgebraError):
        from_quiver(QuiverSpec(f2, ["v"], loops, [], 8))


def test_rejects_invariant_violation():
    obj = algebra_to_json(truncated_poly_algebra(F5, 2))
    obj["unit"] = [0, 1]  # x is not a unit
    with pytest.raises(ParseError) as exc:
        parse_algebra(obj)
    assert "invariant" in str(exc.value)


@pytest.mark.parametrize("modulus", [7.9, "7", 7.0, True])
def test_rejects_a_field_modulus_that_is_not_a_json_integer(modulus):
    obj = algebra_to_json(truncated_poly_algebra(FieldSpec("prime", 7), 2))
    obj["field"]["p"] = modulus
    with pytest.raises(ParseError, match="integer") as exc:
        parse_algebra(obj)
    assert exc.value.path == "$.field"


def test_rejects_nonint_scalar_in_prime_field():
    obj = algebra_to_json(truncated_poly_algebra(F5, 2))
    obj["unit"] = ["1/2", 0]
    with pytest.raises(ParseError):
        parse_algebra(obj)


def test_module_roundtrip_and_validation():
    a = truncated_poly_algebra(F5, 2)
    ctx = mod.context(a)
    obj = module_to_json(ctx.regular)
    pm = parse_module(obj)
    assert pm.module.dim == 2 and pm.module.validate()
    obj_bad = json.loads(json.dumps(obj))
    obj_bad["action"][1][0][0] = 3  # breaks the unit/action compatibility
    with pytest.raises(ParseError):
        parse_module(obj_bad)


def test_module_auslander_of():
    a = truncated_poly_algebra(F2, 2)
    data = build_auslander(a)
    tr = theta_rho(mod.context(a).simples[0], data)
    obj = module_to_json(tr, algebra_obj={"auslander_of": algebra_to_json(a)})
    pm = parse_module(obj)
    assert pm.auslander is not None
    assert pm.module.dim == 2
    assert pm.base.dim == data.tilde.dim


def test_complex_roundtrip():
    from catres import complexes as cx

    a = truncated_poly_algebra(F5, 2)
    reg = mod.context(a).regular
    c = cx.BComplex(a, 0, [reg, reg], [mod.ModHom(reg, reg, reg.action_mat(1))])
    obj = complex_to_json(c)
    c2 = parse_complex(obj)
    assert c2.lo == 0 and c2.hi == 1
    assert complex_to_json(c2) == obj
    obj_bad = json.loads(json.dumps(obj))
    obj_bad["differentials"][0][0][0] = 1  # no longer a module map
    with pytest.raises(ParseError):
        parse_complex(obj_bad)


def _two_term_complex_json():
    from catres import complexes as cx

    a = truncated_poly_algebra(F5, 2)
    reg = mod.context(a).regular
    return complex_to_json(cx.BComplex(a, 0, [reg, reg], [mod.ModHom(reg, reg, reg.action_mat(1))]))


@pytest.mark.parametrize("key, value", [
    ("terms", 3),
    ("differentials", 5),
    ("lo", True),
])
def test_complex_rejects_malformed_containers_at_their_path(key, value):
    obj = _two_term_complex_json()
    obj[key] = value
    with pytest.raises(ParseError) as exc:
        parse_complex(obj)
    assert exc.value.path == f"$.{key}"


def test_rational_scalars_roundtrip_as_strings():
    a = truncated_poly_algebra(QQ, 2)
    obj = algebra_to_json(a)
    s = json.dumps(obj)
    assert '"1/2"' not in s  # integral table stays integral
    from fractions import Fraction

    assert QQ.scalar_from_json("2/3") == Fraction(2, 3)
    assert QQ.scalar_to_json(Fraction(2, 3)) == "2/3"
    assert QQ.scalar_to_json(Fraction(4, 2)) == 2


# -- CLI ------------------------------------------------------------------------


def test_cli_analyze_text_and_json():
    out = run_cli("analyze", "corpus/x2_f5.json").stdout
    assert "dimension 2" in out
    out = run_cli("analyze", "corpus/x2_f5.json", "--format", "json").stdout
    obj = json.loads(out)
    assert obj["dim"] == 2 and obj["nilpotency_index"] == 2


def test_cli_gldim_fixture():
    out = run_cli("gldim", "corpus/x2_f2.json", "--format", "json").stdout
    obj = json.loads(out)
    assert obj["kind"] == "infinite"
    # the Auslander algebra of k[x]/x^2 has gldim 2: build its JSON on the fly
    lam = truncated_poly_algebra(F2, 2)
    tilde = build_auslander(lam).tilde
    p = REPO / "tests" / "_tmp_tilde.json"
    p.write_text(json.dumps(algebra_to_json(tilde)))
    try:
        out = run_cli("gldim", str(p), "--format", "json").stdout
        assert json.loads(out) == {"kind": "finite", "value": 2}
    finally:
        p.unlink()


def test_cli_certify_exit_codes_and_determinism(tmp_path):
    out1 = run_cli("certify", "corpus/x2_f2.json", "--samples", "4", "--seed", "7")
    out2 = run_cli("certify", "corpus/x2_f2.json", "--samples", "4", "--seed", "7")
    assert out1.stdout == out2.stdout
    rep = json.loads(out1.stdout)
    assert rep["verdict"] == "pass"
    run_cli("certify", "corpus/kxk_f5.json", "--samples", "3", expect=2)


def test_cli_certify_across_hash_seeds(tmp_path):
    """The report does not depend on the interpreter's hash seed."""
    import os

    a, b = (
        run_cli(
            "certify", "corpus/x2_f2.json", "--samples", "4",
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        ).stdout
        for hash_seed in ("0", "1")
    )
    assert a == b
    assert json.loads(a)["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    ("certify", "--samples", "0"),
    ("certify", "--max-window", "0"),
    ("certify", "--max-term-dim", "-3"),
    ("certify", "--max-depth", "-1"),
    ("gldim", "--max-depth", "-1"),
])
def test_cli_rejects_out_of_range_flags_without_a_traceback(argv):
    verb, flag, value = argv
    proc = run_cli(verb, "corpus/x2_f2.json", flag, value, expect=2)
    assert flag in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_parse_error_paths():
    bad = REPO / "tests" / "_tmp_bad.json"
    obj = algebra_to_json(truncated_poly_algebra(F5, 2))
    obj["mult"][1] = [[0, 1]]
    bad.write_text(json.dumps(obj))
    try:
        proc = run_cli("analyze", str(bad), expect=1)
        assert "mult[1]" in proc.stderr
    finally:
        bad.unlink()


def _set(key, value):
    def edit(obj):
        obj[key] = value
    return edit


def _set_arrow_name(obj):
    obj["arrows"][0]["name"] = ["a"]


@pytest.mark.parametrize("source, edit, where", [
    ("gentle_two_cycle_f2", _set("arrows", 5), "$.arrows"),
    ("gentle_two_cycle_f2", _set("relations", 7), "$.relations"),
    ("gentle_two_cycle_f2", _set("relations", [{"terms": 3}]), "$.relations[0].terms"),
    ("gentle_two_cycle_f2", _set_arrow_name, "$.arrows[0].name"),
    ("gentle_two_cycle_f2", _set("length_bound", True), "$.length_bound"),
    ("x2_f2", _set("dim", True), "$.dim"),
])
def test_cli_malformed_input_is_a_parse_error_not_a_traceback(tmp_path, source, edit, where):
    obj = json.loads((CORPUS / f"{source}.json").read_text())
    edit(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    proc = run_cli("analyze", str(bad), expect=1)
    assert f"at {where}:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_module_dim_must_not_be_a_boolean(tmp_path):
    a = truncated_poly_algebra(F2, 2)
    obj = module_to_json(mod.context(a).simples[0], algebra_obj=algebra_to_json(a))
    assert obj["dim"] == 1
    obj["dim"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    proc = run_cli("functor", "theta-rho", str(bad), expect=1)
    assert "at $.dim:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_hom_and_functor(tmp_path):
    a = truncated_poly_algebra(F2, 2)
    ctx = mod.context(a)
    aj = algebra_to_json(a)
    m1 = tmp_path / "reg.json"
    m2 = tmp_path / "s.json"
    m1.write_text(json.dumps(module_to_json(ctx.regular, algebra_obj=aj)))
    m2.write_text(json.dumps(module_to_json(ctx.simples[0], algebra_obj=aj)))
    out = run_cli("hom", str(m1), str(m2), "--format", "json").stdout
    assert json.loads(out)["dim"] == 1
    out = run_cli("functor", "theta-rho", str(m2)).stdout
    assert json.loads(out)["dim"] == 2
    out = run_cli("functor", "theta-lambda", str(m2)).stdout
    assert json.loads(out)["dim"] == 2
    # theta on the lifted module round-trips through auslander_of
    lifted = tmp_path / "lifted.json"
    lifted.write_text(out)
    back = run_cli("functor", "theta", str(lifted)).stdout
    assert json.loads(back)["dim"] == 1


def test_cli_auslander_summary():
    out = run_cli("auslander", "corpus/x2_f5.json").stdout
    obj = json.loads(out)
    assert obj["dim_tilde"] == 5 and obj["gldim_tilde"] == {"kind": "finite", "value": 2}
    assert obj["e_coords"] == [0, 0, 0, 0, 1]


def test_corpus_files_match_generator():
    before = {p.name: p.read_text() for p in CORPUS.glob("*.json")}
    proc = subprocess.run(
        [sys.executable, "scripts/make_corpus.py"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0
    after = {p.name: p.read_text() for p in CORPUS.glob("*.json")}
    assert before == after, "shipped corpus files drifted from the generator"


def test_cli_hom_accepts_two_modules_over_a_quiver_or_auslander_of_spec(tmp_path):
    # the second file's algebra spec is compared as written: a quiver spec
    # or an auslander_of spec never equals the table the first one parses to
    quiver = {
        "format": "catres-quiver-v1",
        "field": {"type": "prime", "p": 2},
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}, {"name": "b", "from": "2", "to": "1"}],
        "relations": [],
        "length_bound": 2,
    }
    x2 = json.loads((CORPUS / "x2_f2.json").read_text())
    simple_q = mod.context(parse_algebra_or_quiver(quiver)).simples[0]
    simple_t = mod.context(build_auslander(parse_algebra_or_quiver(x2)).tilde).simples[0]
    cases = [
        ("q", module_to_json(simple_q, algebra_obj=quiver)),
        ("t", module_to_json(simple_t, algebra_obj={"auslander_of": x2})),
    ]
    for name, obj in cases:
        a, b = tmp_path / f"{name}1.json", tmp_path / f"{name}2.json"
        a.write_text(json.dumps(obj))
        b.write_text(json.dumps(obj, indent=1))
        out = run_cli("hom", str(a), str(b), "--format", "json").stdout
        assert json.loads(out)["dim"] == 1
    proc = run_cli("hom", str(tmp_path / "q1.json"), str(tmp_path / "t1.json"), expect=1)
    assert "different algebras" in proc.stderr

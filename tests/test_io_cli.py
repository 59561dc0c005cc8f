import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from catres import algebra
from catres import modules as mod
from catres.algebra import MAX_QUIVER_PATHS, AlgebraError, QuiverSpec, from_quiver
from catres.auslander import build_auslander
from catres.certify import CertConfig
from catres import cli
from catres.cli import main
from catres.corpus import shipped_corpus, truncated_poly_algebra
from catres.functors import theta_rho
from catres import io_json
from catres.io_json import (
    MAX_DIM,
    ParseError,
    algebra_to_json,
    module_to_json,
    parse_algebra,
    parse_algebra_or_quiver,
    parse_module,
)
from catres.linalg import FieldSpec, quoted
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


class _TableBuilt(Exception):
    """Raised in place of building the bounded path algebra."""


def test_from_quiver_enumerates_paths_up_to_its_bound(monkeypatch):
    f2 = FieldSpec("prime", 2)
    loop, two_loops = [("a", "v", "v")], [("a", "v", "v"), ("b", "v", "v")]
    # 2**l paths of length l on two loops: 1 + 2 + 4 + 8 + 16 = 31 below length 5
    assert from_quiver(QuiverSpec(f2, ["v"], two_loops, [], 5)).dim == 31
    cycle = [(f"a{i}", str(i), str((i + 1) % 3)) for i in range(3)]
    assert from_quiver(QuiverSpec(f2, list("012"), cycle, [], 3)).dim == 9
    # an acyclic quiver runs out of paths long before its bound, and the
    # enumeration stops there
    line = [("a", "1", "2"), ("b", "2", "3")]
    start = time.perf_counter()
    assert from_quiver(QuiverSpec(f2, list("123"), line, [], 10**9)).dim == 6
    assert time.perf_counter() - start < 5.0

    def table_built(field, labels, unit, table, radical_hint=None):
        raise _TableBuilt(len(labels))

    monkeypatch.setattr(algebra, "Algebra", table_built)
    # one loop has one path of each length 0..L-1
    with pytest.raises(_TableBuilt) as built:
        from_quiver(QuiverSpec(f2, ["v"], loop, [], MAX_QUIVER_PATHS))
    assert built.value.args == (MAX_QUIVER_PATHS,)
    for spec in (
        QuiverSpec(f2, ["v"], loop, [], MAX_QUIVER_PATHS + 1),
        QuiverSpec(f2, ["v"], two_loops, [], 10**9),
        QuiverSpec(f2, [str(i) for i in range(10**4)], [], [], 2),
    ):
        with pytest.raises(AlgebraError) as exc:
            from_quiver(spec)
        assert exc.value.at == ("length_bound",)


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


@pytest.mark.parametrize(
    "scalar", ["1.5", "1_000", " 7 ", "7\n", "+5", "1e3", "1E-2", ".5", "\u0663", "1e5000000"]
)
def test_rejects_a_rational_scalar_string_that_is_not_an_integer_or_p_over_q(scalar):
    obj = algebra_to_json(truncated_poly_algebra(QQ, 2))
    obj["mult"][1][0][1] = scalar
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_algebra(obj)
    assert time.perf_counter() - start < 0.5  # read no exponent before the check
    assert exc.value.path == "$.mult[1][0][1]"


def test_rational_scalar_strings_keep_their_reading():
    assert QQ.scalar_from_json("2/3") == Fraction(2, 3)
    assert QQ.scalar_from_json("-5") == -5
    obj = algebra_to_json(truncated_poly_algebra(QQ, 2))
    obj["mult"][1][0][1] = "1/0"
    with pytest.raises(ParseError) as exc:
        parse_algebra(obj)
    assert exc.value.path == "$.mult[1][0][1]"


def _relation_path(k, path):
    def edit(obj):
        obj["relations"][k]["terms"][0]["path"] = path
    return edit


def _add_antiparallel_term(obj):
    obj["relations"][0]["terms"].append({"coeff": 1, "path": ["b", "a"]})


def _arrow_to_unknown_vertex(obj):
    obj["arrows"][1]["to"] = "9"


def _zero_length_bound(obj):
    obj["length_bound"] = 0


@pytest.mark.parametrize("edit, where", [
    (_relation_path(1, ["b", "z"]), "$.relations[1].terms[0].path"),  # an unknown arrow
    (_relation_path(0, ["a"]), "$.relations[0].terms[0].path"),  # of length 1
    (_relation_path(1, ["a", "a"]), "$.relations[1].terms[0].path"),  # not composable
    (_add_antiparallel_term, "$.relations[0]"),
    (_arrow_to_unknown_vertex, "$.arrows[1]"),
    (_zero_length_bound, "$.length_bound"),
])
def test_quiver_errors_name_the_item_to_blame(edit, where):
    obj = json.loads((CORPUS / "gentle_two_cycle_f2.json").read_text())
    edit(obj)
    with pytest.raises(ParseError) as exc:
        parse_algebra_or_quiver(obj)
    assert exc.value.path == where


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


def test_rejects_a_module_whose_action_breaks_the_table():
    a = truncated_poly_algebra(FieldSpec("prime", 3), 3)  # basis 1, x, x^2
    obj = module_to_json(mod.context(a).regular)
    assert parse_module(obj).module.validate()
    obj["action"][2] = [[0, 0, 0]] * 3  # rho(1) stays the identity, rho(x^2) != rho(x)^2
    with pytest.raises(ParseError) as exc:
        parse_module(obj)
    assert exc.value.path == "$"
    assert exc.value.reason == "module invariant violated: action does not respect the table"


def test_module_auslander_of():
    a = truncated_poly_algebra(F2, 2)
    data = build_auslander(a)
    tr = theta_rho(mod.context(a).simples[0], data)
    obj = module_to_json(tr, algebra_obj={"auslander_of": algebra_to_json(a)})
    pm = parse_module(obj)
    assert pm.auslander is not None
    assert pm.module.dim == 2
    assert pm.base.dim == data.tilde.dim


def test_module_auslander_of_carries_the_piece_idempotents(tmp_path):
    # the path of ``catres functor theta``: a module file over
    # {"auslander_of": ...} parses to a T with its idempotents from the pieces
    lam = parse_algebra_or_quiver(json.loads((CORPUS / "gentle_two_cycle_f2.json").read_text()))
    data = build_auslander(lam)
    lifted = theta_rho(mod.context(lam).simples[1], data)
    path = tmp_path / "lifted.json"
    path.write_text(json.dumps(module_to_json(lifted, {"auslander_of": algebra_to_json(lam)})))
    pm = parse_module(json.loads(path.read_text()))
    assert pm.base is pm.auslander.tilde and pm.base.idempotent_hint is not None
    assert pm.base.idempotent_hint == data.tilde.idempotent_hint
    assert mod.context(pm.base).idempotents == mod.context(data.tilde).idempotents
    assert len(mod.context(pm.base).idempotents) == 4  # 2 vertices, 2 summands


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


def test_cli_certify_defaults_are_cert_config_defaults(monkeypatch, capsys):
    seen = []

    def record(alg, cfg):
        seen.append(cfg)
        return {"verdict": "pass"}

    monkeypatch.setattr(cli, "certify_resolution", record)
    path = str(CORPUS / "x2_f2.json")
    assert main(["certify", path]) == 0
    flags = ["--samples", "3", "--seed", "7", "--max-depth", "2", "--max-window", "5",
             "--max-term-dim", "6"]
    assert main(["certify", path, *flags]) == 0
    assert seen == [
        CertConfig(),
        CertConfig(seed=7, samples=3, max_degree_window=5, max_term_dim=6, max_resolution_depth=2),
    ]


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


def test_cli_reports_an_integer_over_the_digit_limit_as_invalid_json(tmp_path, capsys):
    text = json.dumps(algebra_to_json(truncated_poly_algebra(F5, 2)))
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"unit": [1, 0]', '"unit": [1' + "0" * 5000 + ", 0]"))
    assert main(["analyze", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: at {bad}: invalid JSON: ")


def test_cli_reports_deeply_nested_json_as_invalid_json(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000)
    assert main(["analyze", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: at {bad}: invalid JSON: ")


_HUGE = "x" * 1_000_000


def _set_unit(obj):
    obj["unit"][0] = _HUGE


def _set_format(obj):
    obj["format"] = _HUGE


def _set_field_type(obj):
    obj["field"]["type"] = _HUGE


def _add_huge_key(obj):
    obj[_HUGE] = 1


def _huge_basis_label(obj):
    obj["basis"][1] = _HUGE
    obj["mult"][1][2] = [1, 0, 0]  # x * x^2 = 1 but x^2 * x = 0: (x x) x != x (x x)


def _huge_arrow_name(obj):
    obj["relations"][1]["terms"][0]["path"] = ["b", _HUGE]


def _huge_arrow(obj):
    obj["arrows"][0]["name"] = _HUGE
    obj["arrows"][0]["to"] = "3"


def _huge_relation_path(obj):
    obj["relations"][0]["terms"][0]["path"] = ["a"] * 500_000


@pytest.mark.parametrize(
    "base, edit, path",
    [
        ("x3_q", _set_unit, "$.unit[0]"),
        ("x3_q", _set_format, "$.format"),
        ("x3_q", _set_field_type, "$.field"),
        ("x3_q", _add_huge_key, "$"),
        ("x3_q", _huge_basis_label, "$"),
        ("gentle_two_cycle_f2", _set_format, "$.format"),
        ("gentle_two_cycle_f2", _huge_arrow_name, "$.relations[1].terms[0].path"),
        ("gentle_two_cycle_f2", _huge_arrow, "$.arrows[0]"),
        ("gentle_two_cycle_f2", _huge_relation_path, "$.relations[0].terms[0].path"),
    ],
)
def test_errors_quote_a_bounded_prefix_of_a_huge_input(tmp_path, capsys, base, edit, path):
    obj = json.loads((CORPUS / f"{base}.json").read_text())
    edit(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: at {path}: ") and len(err.encode()) < 1024, err[:2000]
    assert re.search(r"\blength (1000000|500000)\)", err), err


@pytest.mark.parametrize("fmt", ["catres-algebra-v2", "v1...", "a...b", "x" * 28])
def test_quoted_values_stay_whole_when_short(fmt):
    # a short value is quoted whole, with no length, even if it holds "..."
    obj = json.loads((CORPUS / "x3_q.json").read_text())
    obj["format"] = fmt
    with pytest.raises(ParseError) as err:
        parse_algebra(obj)
    assert str(err.value) == f"at $.format: unsupported format {fmt!r}"


def test_quoted_names_the_length_exactly_when_cut():
    assert quoted("x" * 29) == "'xxxxxxxxxxxx...xxxxxxxxxxxxx' (length 29)"
    assert quoted([1, 2, 3, 4, 5, 6]) == "[1, 2, 3, 4, 5, 6]"
    assert quoted([1, 2, 3, 4, 5, 6, "..."]) == "[1, 2, 3, 4, 5, 6, ...] (length 7)"
    assert quoted(["..."] * 6) == repr(["..."] * 6)
    assert quoted(["a", "x" * 40]) == "['a', 'xxxxxxxxxxxx...xxxxxxxxxxxxx'] (item 1 has length 40)"
    assert quoted(dict.fromkeys("abcd", 1)) == repr(dict.fromkeys("abcd", 1))
    assert quoted(dict.fromkeys("abcde", 1)).endswith(", ...} (length 5)")
    assert quoted(None) == "None" and quoted(7) == "7"


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


@pytest.mark.parametrize("argv", [("auslander", "corpus/x2_f2.json"), ("functor", "theta", "m.json")])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_verbs_that_print_only_json_refuse_format(argv, fmt, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", fmt])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err


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


def test_shipped_corpus_builders_match_the_corpus_files_one_to_one():
    files = {p.stem: p for p in CORPUS.glob("*.json")}
    built = shipped_corpus()
    assert sorted(built) == sorted(files)
    for name, lam in built.items():
        parsed = parse_algebra_or_quiver(json.loads(files[name].read_text()))
        assert algebra_to_json(lam) == algebra_to_json(parsed), name


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

import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from catres import certify, linalg
from catres.certify import (
    CertConfig,
    certify_resolution,
    exit_code_for,
    report_to_json_str,
    weakly_crepant_check,
)
from catres.algebra import Algebra
from catres.auslander import AuslanderData, build_auslander, verify_auslander
from catres.corpus import (
    gentle_two_cycle,
    truncated_poly_algebra,
    two_fields,
    upper_triangular_2,
)
from catres.io_json import parse_algebra_or_quiver
from catres.linalg import FieldSpec, Mat
from catres import modules
from catres.modules import context
from catres.samples import ModulePool

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

F2 = FieldSpec("prime", 2)
F3 = FieldSpec("prime", 3)
F5 = FieldSpec("prime", 5)


@pytest.fixture(scope="module")
def flagship_report():
    lam = truncated_poly_algebra(F2, 2)
    return certify_resolution(lam, CertConfig(seed=0, samples=10))


def test_flagship_passes(flagship_report):
    rep = flagship_report
    assert rep["verdict"] == "pass"
    assert exit_code_for(rep) == 0
    assert rep["hypothesis"]["gldim_lambda"]["kind"] == "infinite"
    assert rep["regularity"]["gldim_tilde"] == {"kind": "finite", "value": 2}
    for name, suite in rep["conditions"].items():
        assert suite["passed"], name


def test_flagship_weakly_crepant_applicable(flagship_report):
    wc = flagship_report["conditions"]["weakly_crepant"]
    assert not wc.get("inapplicable")
    assert wc["lemma42_passed"]
    assert wc["mod0_vanishing"]["passed"]
    assert wc["right_adjoint"]["passed"]


def test_semisimple_is_degenerate_but_passes():
    rep = certify_resolution(two_fields(F5), CertConfig(seed=1, samples=5))
    assert rep["verdict"] == "degenerate"
    assert exit_code_for(rep) == 2
    assert rep["hypothesis"]["degenerate"]
    for name, suite in rep["conditions"].items():
        assert suite["passed"], name


def test_t2_degenerate_and_crepant_inapplicable():
    rep = certify_resolution(upper_triangular_2(F3), CertConfig(seed=0, samples=5))
    assert rep["verdict"] == "degenerate"
    assert rep["conditions"]["weakly_crepant"]["inapplicable"]


def test_gentle_two_cycle_passes_infinite():
    rep = certify_resolution(gentle_two_cycle(F2), CertConfig(seed=0, samples=6))
    assert rep["verdict"] == "pass"
    g = rep["hypothesis"]["gldim_lambda"]
    assert g["kind"] == "infinite" and g["period"] == 2
    assert not rep["conditions"]["weakly_crepant"].get("inapplicable")


def test_deeper_base_certifies():
    # the 14-dimensional Auslander algebra case, light sample count
    rep = certify_resolution(truncated_poly_algebra(F3, 3), CertConfig(seed=0, samples=2))
    assert rep["verdict"] == "pass"
    for name, suite in rep["conditions"].items():
        assert suite["passed"], name


def test_reports_byte_identical_across_runs():
    lam = truncated_poly_algebra(F2, 2)
    a = report_to_json_str(certify_resolution(lam, CertConfig(seed=3, samples=6)))
    b = report_to_json_str(certify_resolution(lam, CertConfig(seed=3, samples=6)))
    assert a == b


def test_sample_counts_per_suite():
    rep = certify_resolution(truncated_poly_algebra(F2, 2), CertConfig(seed=0, samples=7))
    conds = rep["conditions"]
    wc = conds.pop("weakly_crepant")
    counts = {suite: c["samples"] for suite, c in conds.items()}
    counts["wc_lemma44"] = wc["mod0_vanishing"]["samples"]
    counts["wc_right_adjoint"] = wc["right_adjoint"]["samples"]
    assert counts == {
        "unit_iso": 7,
        "unit_naturality": 1,
        "adjunction": 7,
        "four_term": 7,
        "density_witness": 7,
        "kernel_char": 7,
        "wc_lemma44": 4,
        "wc_right_adjoint": 7,
    }


def test_reports_change_with_seed():
    lam = truncated_poly_algebra(F2, 2)
    a = certify_resolution(lam, CertConfig(seed=0, samples=5))
    b = certify_resolution(lam, CertConfig(seed=1, samples=5))
    assert a["config"]["seed"] != b["config"]["seed"]
    assert a["verdict"] == b["verdict"] == "pass"


def test_report_is_valid_sorted_json(flagship_report):
    s = report_to_json_str(flagship_report)
    parsed = json.loads(s)
    assert parsed["format"] == "catres-certify-report-v1"
    assert "scope" in parsed and "quotient" in parsed["scope"]


def test_weakly_crepant_check_direct():
    lam = truncated_poly_algebra(F3, 3)
    data = build_auslander(lam)
    wc = weakly_crepant_check(lam, data, CertConfig(seed=0, samples=4), ModulePool(data))
    assert not wc["inapplicable"]
    assert wc["passed"]


def test_replay_reproduces_samples():
    from catres.certify import replay_sample

    lam = truncated_poly_algebra(F2, 2)
    cfg = CertConfig(seed=4, samples=3)
    for suite in [
        "unit_iso",
        "unit_naturality",
        "adjunction",
        "four_term",
        "density_witness",
        "kernel_char",
        "wc_lemma44",
        "wc_right_adjoint",
    ]:
        for idx in range(2):
            ok, detail = replay_sample(lam, cfg, suite, idx)
            assert ok, (suite, idx, detail)
    with pytest.raises(ValueError):
        replay_sample(lam, cfg, "nonsense", 0)


def test_replay_returns_each_suite_sample(monkeypatch):
    """Replaying any (suite, index) gives the (ok, detail) the suite recorded,
    also for failing samples, whose details the report keeps."""
    from catres import certify as ct

    lam = parse_algebra_or_quiver(json.loads((CORPUS / "x2_f2.json").read_text()))
    cfg = CertConfig(seed=2, samples=3)
    real_results, real_acyclic = ct.suite_results, ct.is_lambda_acyclic
    for forged in (False, True):
        recorded = {}

        def record(suite, n, data, pool, cfg):
            recorded[suite] = real_results(suite, n, data, pool, cfg)
            return recorded[suite]

        monkeypatch.setattr(ct, "suite_results", record)
        if forged:
            # corner-acyclicity lies: kernel_char and density_witness fail
            monkeypatch.setattr(ct, "is_lambda_acyclic", lambda F, data: not real_acyclic(F, data))
        certify_resolution(lam, cfg)
        monkeypatch.setattr(ct, "suite_results", real_results)
        assert set(recorded) == set(ct.SAMPLE_CHECKS)
        if forged:
            assert not any(ok for ok, _ in recorded["kernel_char"])
        for suite, results in recorded.items():
            for index, expected in enumerate(results):
                assert ct.replay_sample(lam, cfg, suite, index) == expected, (suite, index)


def test_assembly_failure_is_recorded_by_every_suite_that_assembles(monkeypatch):
    """A failed assertion in prop31_sequence becomes a recorded failure of
    four_term, density_witness and wc_right_adjoint, and each replays."""
    from catres import certify as ct

    def broken(F, data):
        raise AssertionError("forged")

    lam = parse_algebra_or_quiver(json.loads((CORPUS / "x2_f2.json").read_text()))
    cfg = CertConfig(seed=0, samples=2)
    recorded, real_results = {}, ct.suite_results

    def record(suite, n, data, pool, cfg):
        recorded[suite] = real_results(suite, n, data, pool, cfg)
        return recorded[suite]

    monkeypatch.setattr(ct, "suite_results", record)
    monkeypatch.setattr(ct, "prop31_sequence", broken)
    rep = certify_resolution(lam, cfg)
    assert rep["verdict"] == "fail"
    conds = rep["conditions"]
    for suite in (conds["four_term"], conds["density_witness"],
                  conds["weakly_crepant"]["right_adjoint"]):
        assert suite["failure_count"] == cfg.samples
    assert recorded["four_term"][0] == (False, "assembly failed: forged")
    for suite in ("four_term", "density_witness", "wc_right_adjoint"):
        for index, (ok, detail) in enumerate(recorded[suite]):
            assert not ok and "assembly failed: forged" in detail, (suite, index)
            assert ct.replay_sample(lam, cfg, suite, index) == (ok, detail), (suite, index)


# run under ``python -O``: a two-term complex T -> T (the identity) over the
# Auslander algebra of F_3[x]/x^3, whose alpha in degree 0 is forged to
# twice itself, so the alpha square at degree 0 no longer commutes
FORGED_ALPHA_UNDER_O = """
import sys
from collections import Counter
from catres import certify, complexes
from catres.auslander import build_auslander
from catres.corpus import truncated_poly_algebra
from catres.linalg import FieldSpec, Mat
from catres.modules import ModHom, Repn, context
from catres.samples import ModulePool

assert sys.flags.optimize
data = build_auslander(truncated_poly_algebra(FieldSpec("prime", 3), 3))
T = context(data.tilde).regular
G = Repn(T.algebra, T.dim, T.flat_action())
F = complexes.BComplex(data.tilde, 0, [G, T], [ModHom(G, T, Mat.identity(T.field, T.dim))])
real = complexes.four_term_sequence

def forged(M, d):
    s = real(M, d)
    if M is G:
        s.alpha = ModHom(s.alpha.source, s.alpha.target, s.alpha.mat.scale(2))
    return s

complexes.four_term_sequence = forged
pool = ModulePool(data)
pool.random_tilde_complex = lambda *args: F
for suite in ("four_term", "density_witness", "wc_right_adjoint"):
    print(suite, certify.suite_results(suite, 1, data, pool, certify.CertConfig())[0])
"""


def test_a_forged_alpha_is_recorded_under_python_o():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORGED_ALPHA_UNDER_O], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    detail = "assembly failed: alpha square fails to commute at degree 0"
    failure = {"bijective": False, "detail": detail}
    assert proc.stdout.splitlines() == [
        f"four_term {(False, detail)}",
        f"density_witness {(False, detail)}",
        f"wc_right_adjoint {(False, str(failure))}",
    ]


def test_failure_soundness_forged_counterexample(monkeypatch):
    """A reported counterexample must replay: forge a suite failure by
    corrupting one sampled complex and check the failure is recorded with
    a reproducible index."""
    from catres import certify as ct

    lam = truncated_poly_algebra(F2, 2)
    rep = certify_resolution(lam, CertConfig(seed=0, samples=3))
    assert rep["verdict"] == "pass"
    # now break the kernel_char suite by lying about acyclicity
    real = ct.is_lambda_acyclic

    def liar(F, data):
        return not real(F, data)

    monkeypatch.setattr(ct, "is_lambda_acyclic", liar)
    rep2 = certify_resolution(lam, CertConfig(seed=0, samples=3))
    assert rep2["verdict"] == "fail"
    assert exit_code_for(rep2) == 1
    failing = [k for k, v in rep2["conditions"].items() if not v["passed"]]
    assert failing
    suite = rep2["conditions"][failing[0]]
    assert suite["failures"] and "index" in suite["failures"][0]


@pytest.mark.parametrize("depth", [-1, True, 2.0])
def test_config_rejects_a_resolution_depth_that_is_not_a_non_negative_int(depth):
    # rejected before the Auslander algebra is built, not deep in a resolution
    with pytest.raises(ValueError, match="max_resolution_depth"):
        CertConfig(max_resolution_depth=depth)


def test_config_accepts_a_resolution_depth_of_zero_or_none():
    assert CertConfig(max_resolution_depth=0).max_resolution_depth == 0
    assert CertConfig().max_resolution_depth is None


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 1.5),
        ("seed", True),
        ("samples", 2.5),
        ("samples", True),
        ("max_degree_window", 2.0),
        ("max_degree_window", True),
        ("max_term_dim", 3.5),
        ("max_term_dim", True),
    ],
)
def test_config_rejects_a_value_that_is_not_an_int_in_range(field, value):
    # every case certified F_2[x]/x^2 (or failed only after the Auslander
    # build) before the check; now it is refused at construction
    with pytest.raises(ValueError, match=field):
        CertConfig(**{field: value})


def test_certify_x3_q_runs_every_product_on_int64_words(object_products):
    # the numerators of Q[x]/x^3, of T and of every sample stay far inside a
    # machine word, so no product of the set-up or the certificate falls
    # back to Python ints
    lam = parse_algebra_or_quiver(json.loads((CORPUS / "x3_q.json").read_text()))
    report = certify_resolution(lam, CertConfig(seed=0, samples=1))
    assert report["verdict"] == "pass" and object_products == []
    # the count is live: a product past the word-size bound is recorded
    qq = lam.field
    Mat.from_rows(qq, [[1 << 62, 1 << 62]]) @ Mat.from_rows(qq, [[2], [2]])
    assert object_products == [((1, 2), (2, 1))]


def test_certify_leaves_no_auslander_data_alive():
    # the functor values are kept on the data, not on Lambda, so a finished
    # run frees its data
    lam = truncated_poly_algebra(F3, 2)
    for seed in (0, 1):
        assert certify_resolution(lam, CertConfig(seed=seed, samples=2))["verdict"] == "pass"
        gc.collect()
        left = [x for x in gc.get_objects() if isinstance(x, AuslanderData) and x.lam is lam]
        assert left == [], seed


def _certify_x3_f3(after):
    """One 8-sample certify of x3_f3: its report, then ``after(lam)``."""
    lam = parse_algebra_or_quiver(json.loads((CORPUS / "x3_f3.json").read_text()))
    report = report_to_json_str(certify_resolution(lam, CertConfig(seed=0, samples=8)))
    return report, after(lam)


def _under_gc_modes(run, modes=("default", "eager", "never")):
    """``run()`` at the default threshold, at threshold 10 and with the
    cyclic collector off, in that order (those of ``modes``)."""
    threshold, enabled = gc.get_threshold(), gc.isenabled()
    out = []
    try:
        for mode in modes:
            gc.set_threshold(*((10,) if mode == "eager" else threshold))
            if mode == "never":
                gc.disable()
            out.append(run())
            gc.enable()
    finally:
        gc.set_threshold(*threshold)
        if not enabled:
            gc.disable()
    return out


def test_the_work_of_a_run_does_not_depend_on_the_garbage_collector(monkeypatch):
    # kept values live as long as what they depend on, so when the cyclic
    # collector runs changes neither the rref calls nor the records
    calls = []
    real = linalg._gauss_jordan
    monkeypatch.setattr(linalg, "_gauss_jordan", lambda *a: calls.append(1) or real(*a))

    def run():
        calls.clear()
        return _certify_x3_f3(lambda lam: (len(calls), len(context(lam).records)))

    default, eager, never = _under_gc_modes(run)
    assert default == eager == never


def test_each_hom_space_is_built_once_per_content_pair(monkeypatch):
    # a Hom space is kept on its source's record, so however often a run
    # asks for a (source content, target content) pair it is built once
    built = Counter()
    real = modules._built_hom_space

    def counted(M, N):
        built[M.algebra, M.key, N.key] += 1
        return real(M, N)

    monkeypatch.setattr(modules, "_built_hom_space", counted)

    def run():
        built.clear()
        return _certify_x3_f3(lambda lam: sorted(built.values()))

    default, never = _under_gc_modes(run, ("default", "never"))
    assert default == never
    assert set(default[1]) == {1} and len(default[1]) > 100


def _kept_mats(*roots):
    """Every Mat reachable from ``roots`` through containers and the
    attributes of kept objects, short of an algebra or its context."""
    seen, mats, todo = set(), [], list(roots)
    while todo:
        x = todo.pop()
        if id(x) in seen or isinstance(x, (Algebra, modules.ModuleContext, np.ndarray, str)):
            continue
        seen.add(id(x))
        if isinstance(x, Mat):
            mats.append(x)
        elif isinstance(x, dict):
            todo += [*x.keys(), *x.values()]
        elif isinstance(x, (list, tuple)):
            todo += x
        else:
            todo += vars(x).values() if hasattr(x, "__dict__") else []
            slots = (s for c in type(x).__mro__ for s in getattr(c, "__slots__", ()))
            todo += [getattr(x, s) for s in slots if hasattr(x, s)]
    return mats


def _pinned_bytes(m):
    """The bytes of the array that the entries of ``m`` are a view into."""
    root = m.a
    while isinstance(root.base, np.ndarray):
        root = root.base
    return root.nbytes


def test_kept_values_own_their_rows(monkeypatch):
    # a kept basis or kernel is copied out of its reduction when it has
    # fewer rows, so no kept Mat pins a buffer more than twice its bytes
    certified = []
    monkeypatch.setattr(
        certify, "build_auslander", lambda lam: certified.append(build_auslander(lam)) or certified[-1]
    )
    setup = build_auslander(truncated_poly_algebra(F3, 5))
    assert verify_auslander(setup)["ok"]
    _certify_x3_f3(lambda lam: None)
    for data in (setup, certified[0]):
        roots = [data.functor_values]
        for A in (data.lam, data.tilde):
            roots += [A.radical_chain(), context(A).records]
        mats = _kept_mats(*roots)
        fat = [(m.a.shape, _pinned_bytes(m)) for m in mats if _pinned_bytes(m) > 2 * m.a.nbytes]
        assert len(mats) > 100 and fat == [], fat[:3]

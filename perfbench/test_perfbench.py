"""Tests of the benchmark itself, on the smoke size of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return out


def _result(*args):
    out = _run(*args)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == list(tracing.metric_units())
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert units == tracing.metric_units()


@pytest.mark.parametrize(
    "workload,size,corpus_file",
    [
        ("certify-x3-f3", "full", "x3_f3.json"),
        ("certify-x3-f3", "smoke", "x2_f2.json"),
        ("certify-x3-q", "full", "x3_q.json"),
    ],
)
def test_seed0_is_the_corpus_presentation(workload, size, corpus_file):
    corpus = json.loads((ROOT / "corpus" / corpus_file).read_text())
    assert WORKLOADS[workload].algebra_json(size, 0) == corpus


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_the_presentation_only(name):
    from catres.io_json import parse_algebra_or_quiver

    w = WORKLOADS[name]
    a = w.algebra_json("full", 0)
    b = w.algebra_json("full", 5)
    assert a != b
    assert w.algebra_json("full", 5) == b
    assert parse_algebra_or_quiver(a).dim == parse_algebra_or_quiver(b).dim


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 3])
def test_smoke_run_is_correct(name, seed):
    r = _result("--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", "0",
                "--size", "smoke")
    assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
    assert list(r["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        assert r["metrics"][m["name"]]["unit"] == m["unit"]
        assert r["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_run_accounts_for_its_wall_time(name):
    r = _result("--workload", name, "--seed", "0", "--seconds", "0", "--trace", "1",
                "--size", "smoke")
    assert r["correct"] and r["failed"] == 0
    m = {k: v["value"] for k, v in r["metrics"].items()}
    assert list(m) == [x["name"] for x in BENCH["per_layer"]]
    self_total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_total + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["trace.unattributed_s"] >= 0
    assert m["linalg.rref.calls"] > 0 and m["certify.unit_iso.s"] > 0
    assert (ROOT / ".perfbench" / f"spans-{name}-smoke-seed0.npz").exists()


def test_tracer_restores_every_binding():
    import catres.certify
    import catres.linalg
    from catres.linalg import Mat

    before = (catres.certify.rng_for, catres.linalg.rref, Mat.__matmul__)
    t = tracing.Tracer()
    t.install()
    assert catres.linalg.rref is not before[1]
    assert catres.certify.rng_for is not before[0]
    t.uninstall()
    assert (catres.certify.rng_for, catres.linalg.rref, Mat.__matmul__) == before


def test_library_exception_fails_every_check(monkeypatch):
    import catres.certify

    def boom(lam, cfg):
        raise RuntimeError("injected")

    monkeypatch.setattr(catres.certify, "certify_resolution", boom)
    gate = run.Gate("certify-x3-f3", "smoke", 0)
    text = json.dumps(WORKLOADS["certify-x3-f3"].algebra_json("smoke", 0))
    run.measure(gate, text, 0.0)
    assert not gate.correct
    attempted, failed = gate.counts()
    assert attempted == failed >= 1


def test_wrong_digest_is_a_gate_failure():
    gate = run.Gate("certify-x3-f3", "smoke", 0)
    gate.expected = {"setup_sha256": "0" * 64}
    text = json.dumps(WORKLOADS["certify-x3-f3"].algebra_json("smoke", 0))
    with pytest.raises(run.GateError):
        gate.setup(run.run_setup(text))


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-x3-f3", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())

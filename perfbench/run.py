#!/usr/bin/env python3
"""catres benchmark: time to verdict of ``catres certify`` and of the
``catres auslander`` set-up, with a correctness gate on every result.

    python3 perfbench/run.py --workload certify-x3-f3 --seed 0 --seconds 30 --trace 0

Run from the root of a catres source tree; the library is imported from
``src/``.  With ``--trace 0`` the run alternates the two verbs on the workload's
input for ``--seconds`` seconds and reports:

* ``setup_s``: median of read -> parse -> ``build_auslander`` ->
  ``verify_auslander`` (the ``catres auslander`` verb);
* ``certify_s``: median of read -> parse -> ``certify_resolution`` (the
  ``catres certify`` verb);
* ``peak_rss_mb``: the peak resident set size of this process.

With ``--trace 1`` it makes one untraced and one traced pass of each verb,
checks that both give byte-identical reports, and prints the per-layer
metrics of ``tracing.py``; the spans go to ``.perfbench/`` under the root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` over
``attempted`` is the fraction of failed checks; a gate failure or an
exception counts every check of the run as failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


MIN_ROUNDS = 3


class GateError(Exception):
    """A result that differs from what the workload must produce."""


def report_digest(report: dict) -> str:
    from catres.certify import report_to_json_str

    canonical = {k: v for k, v in report.items() if k != "version"}
    return hashlib.sha256(report_to_json_str(canonical).encode()).hexdigest()


class Gate:
    """Checks every result of one run against the workload's expectations.

    Reports must be identical across repetitions; at seed 0 (the corpus
    presentation) their digests must equal the ones in expected.json."""

    def __init__(self, workload: str, size: str, seed: int):
        self.size = WORKLOADS[workload].sizes[size]
        recorded = json.loads((HERE / "expected.json").read_text())[workload][size]
        self.expected = recorded if seed == 0 else {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _digest(self, kind: str, report: dict):
        d = report_digest(report)
        want = self.expected.get(f"{kind}_sha256") or self.digests.get(kind)
        if want is not None and d != want:
            raise GateError(f"{kind} report digest {d} != {want}")
        self.digests[kind] = d

    def _regularity(self, rep: dict):
        for key, value in self.size.expect.items():
            if rep[key] != value:
                raise GateError(f"{key} = {rep[key]}, expected {value}")
        if not rep["ok"]:
            raise GateError(f"verify_auslander not ok: {rep}")

    def setup(self, rep: dict):
        self.attempted += 1
        self._regularity(rep)
        self._digest("setup", rep)

    def certify(self, report: dict):
        conds = report["conditions"]
        wc = conds["weakly_crepant"]
        if wc["inapplicable"]:
            raise GateError("weakly crepant suites inapplicable: the base is not self-injective")
        suites = [v for k, v in conds.items() if k != "weakly_crepant"]
        suites += [wc["mod0_vanishing"], wc["right_adjoint"]]
        lifts = wc["lemma_injective_lifts"]
        # the regularity verdict, every sampled check and every injective lift
        self.attempted += 1 + sum(s["samples"] for s in suites) + len(lifts)
        self.failed += not report["regularity"]["ok"]
        self.failed += sum(s["failure_count"] for s in suites)
        self.failed += sum(not lift["injective_lift"] for lift in lifts)
        self._regularity(report["regularity"])
        if report["verdict"] != "pass":
            raise GateError(f"certify verdict {report['verdict']!r}, expected 'pass'")
        if report["hypothesis"]["gldim_lambda"]["kind"] != "infinite":
            raise GateError("gldim of the base algebra is not infinite")
        self._digest("certify", report)

    def error(self, where: str, exc: BaseException):
        if not isinstance(exc, GateError):
            traceback.print_exc(file=sys.stderr)
        self.errors.append(f"{where}: {type(exc).__name__}: {exc}")

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0

    def counts(self):
        attempted = max(1, self.attempted)
        return attempted, (self.failed if self.correct else attempted)


# The verbs import catres names at call time, so that they call the
# wrappers while a Tracer is installed.
def run_setup(text: str):
    """The ``catres auslander`` verb on an input file's text."""
    from catres.auslander import build_auslander, verify_auslander
    from catres.io_json import parse_algebra_or_quiver

    return verify_auslander(build_auslander(parse_algebra_or_quiver(json.loads(text))))


def run_certify(text: str, cfg: dict):
    """The ``catres certify`` verb on an input file's text."""
    from catres.certify import CertConfig, certify_resolution
    from catres.io_json import parse_algebra_or_quiver

    return certify_resolution(parse_algebra_or_quiver(json.loads(text)), CertConfig(**cfg))


def timed(fn, *args):
    """(result, wall seconds) of one call, after a collection so that no
    garbage from an earlier call is collected inside this one."""
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def measure(gate: Gate, text: str, seconds: float) -> dict:
    """Alternate one set-up and one certify call, starting rounds for
    ``seconds`` seconds (at least MIN_ROUNDS rounds), and time the reference
    kernel between calls.  Alternating spreads both kinds of sample over
    the whole run; the reference cancels the slow and fast spells of a
    shared machine (calibrate.py)."""
    from calibrate import REF_S, Reference

    size = gate.size
    reference = Reference()
    refs = [reference.seconds()]
    raw = {"setup_s": [], "certify_s": []}
    scaled = {"setup_s": [], "certify_s": []}

    def record(metric, dt):
        refs.append(reference.seconds())
        raw[metric].append(dt)
        scaled[metric].append(dt * REF_S / ((refs[-2] + refs[-1]) / 2))

    try:
        start = time.perf_counter()
        while len(raw["certify_s"]) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            rep, dt = timed(run_setup, text)
            record("setup_s", dt)
            gate.setup(rep)
            report, dt = timed(run_certify, text, size.cert)
            record("certify_s", dt)
            gate.certify(report)
    except Exception as exc:  # recorded as failed checks; the result is still printed
        gate.error("measure", exc)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        name: (statistics.median(scaled[name]) if scaled[name] else 0.0, "s")
        for name in ("certify_s", "setup_s")
    }
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    for name, times in raw.items():
        print(f"# {name}: {len(times)} calls, wall {[round(t, 4) for t in times]} s", flush=True)
    print(f"# reference kernel {[round(t, 4) for t in refs]} s", flush=True)
    return metrics


def measure_traced(gate: Gate, text: str, out_path: Path) -> dict:
    from tracing import Tracer, metric_units

    size = gate.size
    tracer = Tracer()
    try:
        timed(run_setup, text)  # warm-up, so neither timed pass pays first-call costs
        rep, setup_plain = timed(run_setup, text)
        gate.setup(rep)
        report, certify_plain = timed(run_certify, text, size.cert)
        gate.certify(report)
        tracer.install()
        try:
            rep, setup_traced = timed(run_setup, text)
            report, certify_traced = timed(run_certify, text, size.cert)
        finally:
            tracer.uninstall()
        # the gate compares both digests with the untraced ones
        gate.setup(rep)
        gate.certify(report)
        metrics = tracer.metrics(setup_traced + certify_traced, setup_plain + certify_plain)
        out_path.parent.mkdir(exist_ok=True)
        tracer.save(out_path)
        print(f"# {len(tracer.span_start)} spans written to {out_path}", flush=True)
    except Exception as exc:
        gate.error("traced", exc)
        metrics = {name: (0.0, unit) for name, unit in metric_units().items()}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "catres" / "__init__.py").is_file():
        print(f"error: no catres source tree at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import catres.certify  # noqa: F401

    workload = WORKLOADS[args.workload]
    text = json.dumps(workload.algebra_json(args.size, args.seed), sort_keys=True)
    gate = Gate(args.workload, args.size, args.seed)
    if args.trace:
        out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.size}-seed{args.seed}.npz"
        metrics = measure_traced(gate, text, out)
    else:
        metrics = measure(gate, text, args.seconds)
    attempted, failed = gate.counts()
    for err in gate.errors:
        print(f"# FAILED {err}", flush=True)
    print(
        f"# {args.workload} ({workload.sizes[args.size].label}) seed {args.seed}: "
        f"fail_frac {failed}/{attempted} = {failed / attempted:.4g}; digests {gate.digests}",
        flush=True,
    )
    result = {
        "correct": gate.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

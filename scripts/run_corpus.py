#!/usr/bin/env python3
"""Run the certification suites over every corpus file and print a table.

Every file runs 30 samples at seed 0; --samples and --seed override them.

Each line carries the SHA-256 of the certify report without its
``version`` key, the digest perfbench uses, the same digest of the
``catres analyze --format json`` output (radical dimensions, primitive
idempotents, global dimensions) and one SHA-256 of the outputs of
``catres gldim --format json --max-depth d`` for d = 0..4 joined (the
depths where the global dimension turns from unknown to known); the wall
times go to stderr.  So a plain ``diff`` of the stdout of two checkouts
shows whether every report is byte-identical.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from catres.certify import CertConfig, certify_resolution, exit_code_for, report_to_json_str
from catres.cli import main as catres_main
from catres.io_json import parse_algebra_or_quiver

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def report_digest(report: dict) -> str:
    canonical = {k: v for k, v in report.items() if k != "version"}
    return hashlib.sha256(report_to_json_str(canonical).encode()).hexdigest()


def cli_output(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        catres_main(argv)
    return out.getvalue()


def analyze_digest(path: Path) -> str:
    return report_digest(json.loads(cli_output(["analyze", str(path), "--format", "json"])))


def gldim_digest(path: Path) -> str:
    outputs = [
        cli_output(["gldim", str(path), "--format", "json", "--max-depth", str(d)])
        for d in range(5)
    ]
    return hashlib.sha256("".join(outputs).encode()).hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    worst = 0
    for path in sorted(CORPUS.glob("*.json")):
        obj = json.loads(path.read_text())
        alg = parse_algebra_or_quiver(obj)
        t0 = time.time()
        report = certify_resolution(alg, CertConfig(seed=args.seed, samples=args.samples))
        dt = time.time() - t0
        code = exit_code_for(report)
        worst = max(worst, code)
        conds = " ".join(
            f"{k}={'ok' if v['passed'] else 'FAIL'}"
            for k, v in report["conditions"].items()
            if not v.get("inapplicable")
        )
        print(
            f"{path.name:28s} verdict={report['verdict']:10s} exit={code} "
            f"samples={args.samples:3d} sha256={report_digest(report)} "
            f"analyze={analyze_digest(path)} gldim={gldim_digest(path)}  {conds}",
            flush=True,
        )
        print(f"{path.name:28s} {dt:6.1f}s", file=sys.stderr, flush=True)
    return 1 if worst == 1 else 0


if __name__ == "__main__":
    sys.exit(main())

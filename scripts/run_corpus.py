#!/usr/bin/env python3
"""Run the certification suites over every corpus file and print a table.

Every file runs 30 samples at seed 0; --samples and --seed override them.

Each line carries the SHA-256 of the certify report without its
``version`` key, the digest perfbench uses, the same digest of the
``catres analyze --format json`` output (radical dimensions, primitive
idempotents, global dimensions) and one SHA-256 of the outputs of
``catres gldim --format json --max-depth d`` for d = 0..4 joined (the
depths where the global dimension turns from unknown to known).  The wall
time of each certify call (``time.perf_counter``) and the peak resident
set size of the process so far (``ru_maxrss``, in MB) go to stderr, and
a last stderr line gives the wall time of the whole run and its peak, so
a memory regression shows in the same run, and a plain ``diff`` of the
stdout of two checkouts shows whether every report is byte-identical.
Name corpus files (e.g. ``x3_q.json``) to run only those, one per
process to read each one's peak.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
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


def peak_rss_mb() -> float:
    """The peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("files", nargs="*", help="corpus file names to run (default: all)")
    args = ap.parse_args()

    paths = [CORPUS / name for name in args.files] or sorted(CORPUS.glob("*.json"))
    worst = 0
    start = time.perf_counter()
    for path in paths:
        obj = json.loads(path.read_text())
        alg = parse_algebra_or_quiver(obj)
        t0 = time.perf_counter()
        report = certify_resolution(alg, CertConfig(seed=args.seed, samples=args.samples))
        dt = time.perf_counter() - t0
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
        print(f"{path.name:28s} {dt:6.1f}s {peak_rss_mb():6.1f} MB", file=sys.stderr, flush=True)
    total = time.perf_counter() - start
    print(f"{'total':28s} {total:6.1f}s {peak_rss_mb():6.1f} MB peak", file=sys.stderr, flush=True)
    return 1 if worst == 1 else 0


if __name__ == "__main__":
    sys.exit(main())

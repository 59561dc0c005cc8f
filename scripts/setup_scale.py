#!/usr/bin/env python3
"""Time the set-ups where users wait, one child process per input.

Inputs:

* ``x4`` .. ``x7``: the set-up (``build_auslander`` + ``verify_auslander``,
  the ``catres auslander`` verb) of F_3[x]/x^n, dim T 30, 55, 91 and 140;
* ``q5`` .. ``q7``: the same set-up of Q[x]/x^n, dim T 55, 91 and 140;
* ``loops5`` .. ``loops7``: ``from_quiver`` on one vertex with two loops and
  no relations at length bound 5, 6 and 7 (31, 63 and 127 paths), which
  runs ``Algebra.validate`` on the path algebra.

For each input one line goes to stdout: the name, the wall time of the
timed call (``time.perf_counter``), the peak resident set size of its
process (``ru_maxrss``, in MB) and the SHA-256 of what it made, the
verification report without its ``version`` key for a set-up and the
algebra's JSON for a quiver, both as ``scripts/run_corpus.py`` digests
reports.  A plain ``diff`` of the digest columns of two checkouts shows
whether their results are byte-identical.  Name inputs to run only those.
Writes no file.

    python3 scripts/setup_scale.py [x6 loops7 ...]
"""

import argparse
import hashlib
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from catres.algebra import QuiverSpec, from_quiver
from catres.auslander import build_auslander, verify_auslander
from catres.certify import report_to_json_str
from catres.corpus import truncated_poly_algebra
from catres.io_json import algebra_to_json
from catres.linalg import FieldSpec

F3 = FieldSpec("prime", 3)
QQ = FieldSpec("rational")
POWERS = {**{f"x{n}": (F3, n) for n in range(4, 8)}, **{f"q{n}": (QQ, n) for n in range(5, 8)}}
LOOPS = {f"loops{bound}": bound for bound in range(5, 8)}


def digest(obj: dict) -> str:
    canonical = {k: v for k, v in obj.items() if k != "version"}
    return hashlib.sha256(report_to_json_str(canonical).encode()).hexdigest()


def run(name: str) -> tuple:
    """(wall seconds, digest) of one input, in this process."""
    if name in POWERS:
        lam = truncated_poly_algebra(*POWERS[name])
        t0 = time.perf_counter()
        report = verify_auslander(build_auslander(lam))
        return time.perf_counter() - t0, digest(report)
    spec = QuiverSpec(
        F3, vertices=["v"], arrows=[("a", "v", "v"), ("b", "v", "v")], relations=[],
        length_bound=LOOPS[name],
    )
    t0 = time.perf_counter()
    algebra = from_quiver(spec)
    return time.perf_counter() - t0, digest(algebra_to_json(algebra))


def main():
    names = [*POWERS, *LOOPS]
    ap = argparse.ArgumentParser()
    ap.add_argument("inputs", nargs="*", help=f"inputs to run, of {', '.join(names)} (default: all)")
    ap.add_argument("--child", choices=names, help=argparse.SUPPRESS)
    args = ap.parse_args()
    unknown = sorted(set(args.inputs) - set(names))
    if unknown:
        ap.error(f"unknown inputs {', '.join(unknown)}")
    if args.child:
        wall, sha = run(args.child)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{args.child:8s} {wall:8.3f}s {peak:7.1f} MB sha256={sha}", flush=True)
        return 0
    for name in args.inputs or names:
        subprocess.run([sys.executable, __file__, "--child", name], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

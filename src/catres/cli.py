"""Command-line interface.

Verbs: analyze, auslander, gldim, hom, functor, certify.  JSON output is
stable-ordered (sorted keys) so certification reports diff cleanly; exit
codes are 0 (pass), 1 (failure or error), 2 (certify's suites pass but the
infinite-global-dimension hypothesis is not established: gldim of the base
algebra is finite, or ``unknown`` within the resolution depth; the report
says ``degenerate`` either way).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .algebra import AlgebraError
from .auslander import build_auslander, verify_auslander
from .certify import CertConfig, certify_resolution, exit_code_for, report_to_json_str
from .functors import theta, theta_lambda, theta_rho
from .homology import global_dimension
from .io_json import (
    ParseError,
    algebra_to_json,
    module_to_json,
    parse_algebra_or_quiver,
    parse_module,
)
from .modules import context, hom_space


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(path, f"cannot read file: {exc}") from None
    # a JSONDecodeError, an int over Python's digit limit, or nesting past
    # the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(path, f"invalid JSON: {exc}") from None


def _emit(obj, fmt: str = "json", text_renderer=None):
    """Print ``obj`` as sorted JSON, or through ``text_renderer`` for text."""
    if fmt == "text":
        print(text_renderer(obj))
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


def cmd_analyze(args) -> int:
    alg = parse_algebra_or_quiver(_load(args.input))
    chain = alg.radical_chain()
    ctx = context(alg)
    out = {
        "dim": alg.dim,
        "field": alg.field.to_json(),
        "basis": alg.basis_labels,
        "radical_dims": [p.rows for p in chain.powers],
        "nilpotency_index": chain.nilpotency_index,
        "primitive_idempotents": [e.to_json()[0] for e in ctx.idempotents],
        "projective_dims": [p.dim for p in ctx.projectives],
        "simple_dims": [s.dim for s in ctx.simples],
    }

    def text(o):
        lines = [
            f"algebra of dimension {o['dim']} over {o['field']}",
            f"radical chain dims: {o['radical_dims']} (nilpotency index {o['nilpotency_index']})",
            f"{len(o['primitive_idempotents'])} primitive idempotent(s); "
            f"projectives {o['projective_dims']}, simples {o['simple_dims']}",
        ]
        return "\n".join(lines)

    _emit(out, args.format, text)
    return 0


def cmd_auslander(args) -> int:
    alg = parse_algebra_or_quiver(_load(args.input))
    data = build_auslander(alg)
    report = verify_auslander(data)
    _emit(report)
    return 0 if report["ok"] else 1


def cmd_gldim(args) -> int:
    alg = parse_algebra_or_quiver(_load(args.input))
    g = global_dimension(alg, args.max_depth)
    _emit(g.to_json(), args.format, lambda o: f"global dimension: {o}")
    return 0


def cmd_hom(args) -> int:
    obj1, obj2 = _load(args.module_a), _load(args.module_b)
    pm1 = parse_module(obj1)
    # the second module must be over the same algebra spec, as written (a
    # quiver or an auslander_of spec never equals the parsed table); the
    # parsed algebra is then reused
    spec2 = obj2.get("algebra") if isinstance(obj2, dict) else None
    if spec2 is not None and (
        json.dumps(obj1["algebra"], sort_keys=True) != json.dumps(spec2, sort_keys=True)
    ):
        print("error: modules are over different algebras", file=sys.stderr)
        return 1
    pm2 = parse_module(obj2, algebra=pm1.base)
    homs = hom_space(pm1.module, pm2.module)
    out = {
        "dim": len(homs),
        "basis": [h.mat.to_json() for h in homs],
    }
    _emit(out, args.format, lambda o: f"Hom dimension {o['dim']}")
    return 0


def cmd_functor(args) -> int:
    pm = parse_module(_load(args.module))
    if args.which == "theta":
        if pm.auslander is None:
            print(
                "error: theta needs a module over the Auslander algebra; "
                'use "algebra": {"auslander_of": ...} in the module file',
                file=sys.stderr,
            )
            return 1
        data = pm.auslander
        result = theta(pm.module, data)
        algebra_obj = algebra_to_json(data.lam)
    else:
        if pm.auslander is not None:
            print("error: theta-rho/theta-lambda expect a module over the base algebra", file=sys.stderr)
            return 1
        data = build_auslander(pm.base)
        fn = theta_rho if args.which == "theta-rho" else theta_lambda
        result = fn(pm.module, data)
        algebra_obj = {"auslander_of": algebra_to_json(data.lam)}
    _emit(module_to_json(result, algebra_obj=algebra_obj))
    return 0


def cmd_certify(args) -> int:
    alg = parse_algebra_or_quiver(_load(args.input))
    cfg = CertConfig(**{name: getattr(args, name) for name in CertConfig().to_json()})
    report = certify_resolution(alg, cfg)
    if args.format == "json":
        sys.stdout.write(report_to_json_str(report))
    else:
        lines = [
            f"verdict: {report['verdict']}",
            f"gldim(base): {report['hypothesis']['gldim_lambda']}",
            f"gldim(auslander algebra): {report['regularity']['gldim_tilde']}",
        ]
        for name, suite in report["conditions"].items():
            if suite.get("inapplicable"):
                lines.append(f"  {name}: inapplicable ({suite.get('reason')})")
            else:
                status = "pass" if suite["passed"] else "FAIL"
                lines.append(f"  {name}: {status} ({suite.get('samples', '?')} samples)")
        print("\n".join(lines))
    return exit_code_for(report)


def _int_at_least(low: int):
    """An argparse type: an int >= ``low``, else an argparse error (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="catres",
        description="Exact Auslander-algebra construction and categorical-resolution certification",
    )
    p.add_argument("--version", action="version", version=f"catres {__version__}")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_fmt(sp):
        sp.add_argument("--format", choices=["json", "text"], default="text")

    sp = sub.add_parser("analyze", help="radical chain and idempotent summary")
    sp.add_argument("input")
    add_fmt(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("auslander", help="build and verify the Auslander data")
    sp.add_argument("input")
    sp.set_defaults(fn=cmd_auslander)

    sp = sub.add_parser("gldim", help="tri-state global dimension")
    sp.add_argument("input")
    sp.add_argument("--max-depth", type=_non_negative_int, default=None)
    add_fmt(sp)
    sp.set_defaults(fn=cmd_gldim)

    sp = sub.add_parser("hom", help="Hom-space dimension and basis")
    sp.add_argument("module_a")
    sp.add_argument("module_b")
    add_fmt(sp)
    sp.set_defaults(fn=cmd_hom)

    sp = sub.add_parser("functor", help="apply theta / theta-rho / theta-lambda")
    sp.add_argument("which", choices=["theta", "theta-rho", "theta-lambda"])
    sp.add_argument("module")
    sp.set_defaults(fn=cmd_functor)

    sp = sub.add_parser("certify", help="run the categorical-resolution suites")
    sp.add_argument("input")
    sp.add_argument("--samples", type=_positive_int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--max-depth", type=_non_negative_int, dest="max_resolution_depth")
    sp.add_argument("--max-window", type=_positive_int, dest="max_degree_window")
    sp.add_argument("--max-term-dim", type=_positive_int)
    sp.add_argument("--format", choices=["json", "text"], default="json")
    # CertConfig owns the defaults of the certify flags
    sp.set_defaults(fn=cmd_certify, **CertConfig().to_json())
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

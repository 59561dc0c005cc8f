"""Strict JSON schemas for algebras, quivers, modules, and complexes.

Formats are versioned; unknown keys are rejected; every parse error names
a JSON-pointer-like path and the failing invariant.  Mathematical data is
never defaulted (only search budgets are).  Rational scalars round-trip as
ints or "p/q" strings; prime-field scalars as ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import MAX_QUIVER_PATHS, Algebra, AlgebraError, QuiverSpec, from_quiver
from .auslander import AuslanderData, build_auslander
from .complexes import BComplex
from .linalg import FieldSpec, Mat
from .modules import ModHom, Repn

ALGEBRA_FORMAT = "catres-algebra-v1"
QUIVER_FORMAT = "catres-quiver-v1"
MODULE_FORMAT = "catres-module-v1"
COMPLEX_FORMAT = "catres-complex-v1"

# the largest dim an algebra or module file may declare, checked before anything
# is built; the quiver frontend's path bound, so a table has at most 200**3 entries
MAX_DIM = MAX_QUIVER_PATHS


class ParseError(ValueError):
    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"at {path}: {reason}")


def _require_keys(obj: dict, path: str, required: set, optional: set = frozenset()):
    if not isinstance(obj, dict):
        raise ParseError(path, "expected an object")
    missing = required - set(obj)
    if missing:
        raise ParseError(path, f"missing required field(s) {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise ParseError(path, f"unknown field(s) {sorted(unknown)}")


def _list_at(x, path: str, what: str) -> list:
    if not isinstance(x, list):
        raise ParseError(path, f"expected a list of {what}")
    return x


def _is_int(x) -> bool:
    """A JSON integer: ``true`` and ``false`` are not numbers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_scalar(x, field: FieldSpec, path: str):
    try:
        return field.scalar_from_json(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(path, str(exc)) from None


def _check_vector(v, dim: int, path: str) -> list:
    if not isinstance(v, list) or len(v) != dim:
        raise ParseError(path, f"expected a list of {dim} scalars")
    return v


def _parse_vector(v, field: FieldSpec, dim: int, path: str) -> Mat:
    v = _check_vector(v, dim, path)
    return Mat.from_rows(field, [[_parse_scalar(x, field, f"{path}[{i}]") for i, x in enumerate(v)]])


def _parse_matrix(m, field: FieldSpec, rows: int, cols: int, path: str) -> Mat:
    if not isinstance(m, list) or len(m) != rows:
        raise ParseError(path, f"expected {rows} rows")
    out = []
    for i, row in enumerate(m):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{path}[{i}]", f"expected {cols} entries")
        out.append([_parse_scalar(x, field, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    if rows == 0:
        return Mat.zeros(field, 0, cols)
    return Mat.from_rows(field, out)


def _parse_dim(dim, path: str) -> int:
    if not _is_int(dim) or not 0 <= dim <= MAX_DIM:
        raise ParseError(path, f"dim must be an integer in 0..{MAX_DIM}")
    return dim


def _parse_field(obj, path: str) -> FieldSpec:
    try:
        return FieldSpec.from_json(obj)
    except (ValueError, TypeError, KeyError) as exc:
        raise ParseError(path, str(exc)) from None


def parse_algebra(obj: dict, path: str = "$") -> Algebra:
    _require_keys(
        obj, path, {"format", "field", "dim", "basis", "unit", "mult"}, {"radical"}
    )
    if obj["format"] != ALGEBRA_FORMAT:
        raise ParseError(f"{path}.format", f"unsupported format {obj['format']!r}")
    field = _parse_field(obj["field"], f"{path}.field")
    dim = _parse_dim(obj["dim"], f"{path}.dim")
    basis = obj["basis"]
    if not isinstance(basis, list) or len(basis) != dim or not all(isinstance(b, str) for b in basis):
        raise ParseError(f"{path}.basis", f"expected {dim} string labels")
    unit = _parse_vector(obj["unit"], field, dim, f"{path}.unit")
    mult = obj["mult"]
    if not isinstance(mult, list) or len(mult) != dim:
        raise ParseError(f"{path}.mult", f"expected {dim} rows of products")
    table = []  # row i: the products b_i * b_j for all j, side by side
    for i, row in enumerate(mult):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{path}.mult[{i}]", f"expected {dim} product vectors")
        table.append([
            _parse_scalar(x, field, f"{path}.mult[{i}][{j}][{k}]")
            for j, vec in enumerate(row)
            for k, x in enumerate(_check_vector(vec, dim, f"{path}.mult[{i}][{j}]"))
        ])
    table = Mat.from_rows(field, table)
    radical = None
    if "radical" in obj:
        rad = obj["radical"]
        if not isinstance(rad, list):
            raise ParseError(f"{path}.radical", "expected a list of coordinate vectors")
        radical = _parse_matrix(rad, field, len(rad), dim, f"{path}.radical")
    alg = Algebra(field, basis, unit, table, radical_hint=radical)
    rep = alg.validate()
    if not rep.ok:
        raise ParseError(path, f"algebra invariant violated: {rep.violations[0]}")
    return alg


def parse_quiver(obj: dict, path: str = "$") -> Algebra:
    _require_keys(
        obj, path, {"format", "field", "vertices", "arrows", "relations", "length_bound"}
    )
    if obj["format"] != QUIVER_FORMAT:
        raise ParseError(f"{path}.format", f"unsupported format {obj['format']!r}")
    field = _parse_field(obj["field"], f"{path}.field")
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError(f"{path}.vertices", "expected a list of vertex names")
    arrows = []
    for k, arr in enumerate(_list_at(obj["arrows"], f"{path}.arrows", "arrows")):
        _require_keys(arr, f"{path}.arrows[{k}]", {"name", "from", "to"})
        for key in ("name", "from", "to"):
            if not isinstance(arr[key], str):
                raise ParseError(f"{path}.arrows[{k}].{key}", "expected a string")
        arrows.append((arr["name"], arr["from"], arr["to"]))
    relations = []
    for k, rel in enumerate(_list_at(obj["relations"], f"{path}.relations", "relations")):
        _require_keys(rel, f"{path}.relations[{k}]", {"terms"})
        terms = []
        rel_terms = _list_at(rel["terms"], f"{path}.relations[{k}].terms", "terms")
        for t, term in enumerate(rel_terms):
            _require_keys(term, f"{path}.relations[{k}].terms[{t}]", {"coeff", "path"})
            coeff = _parse_scalar(term["coeff"], field, f"{path}.relations[{k}].terms[{t}].coeff")
            p = term["path"]
            if not isinstance(p, list) or not all(isinstance(a, str) for a in p):
                raise ParseError(
                    f"{path}.relations[{k}].terms[{t}].path", "expected a list of arrow names"
                )
            terms.append((coeff, p))
        relations.append(terms)
    lb = obj["length_bound"]
    if not _is_int(lb):
        raise ParseError(f"{path}.length_bound", "length_bound must be an integer")
    try:
        spec = QuiverSpec(field, vertices, arrows, relations, lb)
        if spec.path_count() > MAX_QUIVER_PATHS:
            raise ParseError(
                f"{path}.length_bound", f"more than {MAX_QUIVER_PATHS} paths of length < {lb}"
            )
        return from_quiver(spec)
    except AlgebraError as exc:
        raise ParseError(path, str(exc)) from None


@dataclass
class ParsedModule:
    module: Repn
    base: Algebra  # the algebra the module is over
    auslander: Optional[AuslanderData]  # set when "algebra" was auslander_of


def parse_module(obj: dict, path: str = "$", algebra: Optional[Algebra] = None) -> ParsedModule:
    _require_keys(obj, path, {"format", "algebra", "dim", "action"})
    if obj["format"] != MODULE_FORMAT:
        raise ParseError(f"{path}.format", f"unsupported format {obj['format']!r}")
    dim = _parse_dim(obj["dim"], f"{path}.dim")
    data = None
    if algebra is not None:
        base = algebra
    else:
        aspec = obj["algebra"]
        if isinstance(aspec, dict) and set(aspec) == {"auslander_of"}:
            lam = parse_algebra_or_quiver(aspec["auslander_of"], f"{path}.algebra.auslander_of")
            data = build_auslander(lam)
            base = data.tilde
        else:
            base = parse_algebra_or_quiver(aspec, f"{path}.algebra")
    action_obj = obj["action"]
    if not isinstance(action_obj, list) or len(action_obj) != base.dim:
        raise ParseError(f"{path}.action", f"expected {base.dim} action matrices")
    field = base.field
    action = [
        _parse_matrix(mat, field, dim, dim, f"{path}.action[{i}]").flatten_row()
        for i, mat in enumerate(action_obj)
    ]
    flat = Mat.stack_rows(field, action) if action else Mat.zeros(field, 0, dim * dim)
    module = Repn(base, dim, flat)
    if not module.validate():
        raise ParseError(path, "module invariant violated: action does not respect the table")
    return ParsedModule(module=module, base=base, auslander=data)


def parse_algebra_or_quiver(obj: dict, path: str = "$") -> Algebra:
    if not isinstance(obj, dict) or "format" not in obj:
        raise ParseError(path, "expected an object with a 'format' field")
    if obj["format"] == ALGEBRA_FORMAT:
        return parse_algebra(obj, path)
    if obj["format"] == QUIVER_FORMAT:
        return parse_quiver(obj, path)
    raise ParseError(f"{path}.format", f"unsupported format {obj['format']!r}")


def parse_complex(obj: dict, path: str = "$") -> BComplex:
    _require_keys(obj, path, {"format", "algebra", "lo", "hi", "terms", "differentials"})
    if obj["format"] != COMPLEX_FORMAT:
        raise ParseError(f"{path}.format", f"unsupported format {obj['format']!r}")
    base = parse_algebra_or_quiver(obj["algebra"], f"{path}.algebra")
    lo, hi = obj["lo"], obj["hi"]
    if not (_is_int(lo) and _is_int(hi) and lo <= hi):
        raise ParseError(f"{path}.lo", "need integers lo <= hi")
    count = hi - lo + 1
    term_objs = _list_at(obj["terms"], f"{path}.terms", "modules")
    diff_objs = _list_at(obj["differentials"], f"{path}.differentials", "matrices")
    if len(term_objs) != count:
        raise ParseError(f"{path}.terms", f"expected {count} terms")
    if len(diff_objs) != max(0, count - 1):
        raise ParseError(f"{path}.differentials", f"expected {count - 1} differentials")
    terms = []
    for k, t in enumerate(term_objs):
        pm = parse_module(t, f"{path}.terms[{k}]", algebra=base)
        terms.append(pm.module)
    diffs = []
    for k, d in enumerate(diff_objs):
        m = _parse_matrix(
            d, base.field, terms[k].dim, terms[k + 1].dim, f"{path}.differentials[{k}]"
        )
        h = ModHom(terms[k], terms[k + 1], m)
        if terms[k].dim and terms[k + 1].dim and not h.validate():
            raise ParseError(
                f"{path}.differentials[{k}]", "differential is not a module homomorphism"
            )
        diffs.append(h)
    cx = BComplex(base, lo, terms, diffs)
    issues = cx.validate()
    if issues:
        raise ParseError(path, f"complex invariant violated: {issues[0]}")
    return cx


# -- emission -------------------------------------------------------------------


def algebra_to_json(a: Algebra) -> dict:
    f = a.field
    d = a.dim
    mult = [[row[j * d : (j + 1) * d] for j in range(d)] for row in a.table_matrix().to_json()]
    out = {
        "format": ALGEBRA_FORMAT,
        "field": f.to_json(),
        "dim": a.dim,
        "basis": list(a.basis_labels),
        "unit": a.unit.to_json()[0],
        "mult": mult,
    }
    if a.radical_hint is not None:
        out["radical"] = a.radical_hint.to_json()
    return out


def module_to_json(m: Repn, algebra_obj: Optional[dict] = None) -> dict:
    if algebra_obj is None:
        algebra_obj = algebra_to_json(m.algebra)
    return {
        "format": MODULE_FORMAT,
        "algebra": algebra_obj,
        "dim": m.dim,
        "action": [m.action_mat(i).to_json() for i in range(m.algebra.dim)],
    }


def complex_to_json(c: BComplex, algebra_obj: Optional[dict] = None) -> dict:
    if algebra_obj is None:
        algebra_obj = algebra_to_json(c.algebra)
    f = c.algebra.field
    return {
        "format": COMPLEX_FORMAT,
        "algebra": algebra_obj,
        "lo": c.lo,
        "hi": c.hi,
        "terms": [module_to_json(t, algebra_obj=algebra_obj) for t in c.terms],
        "differentials": [d.mat.to_json() for d in c.diffs],
    }

"""The library defines no public entry point that only tests call.

Walks the AST of ``src/catres/*.py`` and lists the public module-level
functions and classes and the public methods of those classes.  A name is
used if it occurs as a name or an attribute anywhere in ``src/catres``, is
exported in ``catres.__all__``, or is one of the ``TARGETS`` that the span
tracer ``perfbench/tracing.py`` rebinds by string.  Every unused name must
be in ``ALLOWED_UNUSED`` with the reason it stays; a test-only helper
belongs in the tests (``tests/oracles.py`` for a second route), not in the
library.  Every tracer target must resolve the way ``Tracer.install`` reads
it, so a rename that breaks ``--trace 1`` fails here.

It also walks the same files for knobs: every defaulted parameter of a
public function or method, ``__init__`` of a public class included, must
be supplied, by keyword or by position, by some call in ``src/catres``, or
be in ``ALLOWED_KNOBS`` with the reason it stays.  Functions on
``ALLOWED_UNUSED`` are exempt: no library code calls them at all.

And it walks the same files for the matrix carrier: only ``linalg.py``
reads ``Mat.a``, ``Mat.den`` or ``Mat.with_array``, the pivots that
``row_basis`` marks its output with (``_Reduced._pivots``) or imports a
private name of ``linalg``, so that the storage of a matrix can change in
one file; the content key by which modules share their kept values,
``Mat.key``, is made there too.  Likewise only ``modules.py`` touches the
record of kept values that equal modules share (``Repn.record``), and only
``functors.py`` reads or writes the functor values kept on the Auslander
data (``AuslanderData.functor_values``), so that every caller asks
``modules`` and ``functors`` for them.  No file imports ``weakref``: a
kept value lives as long as the object that owns it, the algebra's
context or the Auslander data, never as long as the garbage collector
lets it.  No module of the library makes a check by ``assert``, which
``python -O`` strips.

And it walks them for the choice between F_p and Q: outside ``linalg.py``
no code compares a ``.kind`` attribute with "prime" or "rational" or
reads a ``.p`` attribute; ``FieldSpec`` answers for the field (its
``characteristic``, ``roots``, scalars and JSON form).  Inside
``linalg.py`` only ``FieldSpec`` and ``Mat`` do, so the one
row-reduction kernel, ``RowBasis`` and the solves read only the
characteristic.

And it walks them for owners: a value that depends only on a module or an
algebra takes that object alone.  No function or method has parameters
annotated with two of ``Algebra``, ``RadicalChain`` and ``Repn``, or with
both ``Algebra`` and ``AuslanderData`` (a module fixes its algebra, an
algebra its chain, the data its base algebra), and no ``ModuleContext``
method takes a ``Repn``, so no caller can hand a kept value a foreign owner.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import catres

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "catres"
TRACING = ROOT / "perfbench" / "tracing.py"

ALLOWED_UNUSED = {
    "functors.adjunction_check": "the module-level adjunctions theta_lambda -| theta -| theta_rho",
    "corpus.shipped_corpus": "the builders behind the shipped corpus files",
}


def traced_targets() -> list:
    """(module, attribute or Class.method) of every ``TARGETS`` entry of the
    tracer, read from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.TARGETS]


def public_definitions() -> dict:
    """Qualified name -> bare name of every public function, class and method."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs[f"{path.stem}.{node.name}"] = node.name
                for item in node.body if isinstance(node, ast.ClassDef) else []:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defs[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return defs


def used_names() -> set:
    names = set(catres.__all__)
    names.update(attr.split(".")[-1] for _, attr in traced_targets())
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_unused_public_name_is_allowlisted():
    used = used_names()
    unused = {q for q, name in public_definitions().items() if name not in used}
    assert unused - set(ALLOWED_UNUSED) == set(), "public names that no library code uses"


def test_every_traced_target_resolves():
    # as Tracer.install reads them: a method from its class __dict__, any
    # other target as a module attribute
    for module, attr in traced_targets():
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            assert cls is not None and meth in cls.__dict__, f"{module}.{attr}"
        else:
            assert callable(getattr(mod, attr, None)), f"{module}.{attr}"


def test_every_allowlisted_name_is_defined_and_unused():
    defs = public_definitions()
    used = used_names()
    for qualified in ALLOWED_UNUSED:
        assert qualified in defs, qualified
        assert defs[qualified] not in used, f"{qualified} is used now; drop it from the list"


ALLOWED_KNOBS = {
    "cli.main(argv)": "the console entry point: its script wrapper passes no argv",
}


def unsupplied_knobs() -> set:
    """'stem.Qualified.name(param)' of every defaulted parameter of a public
    function or method (the methods of a public class, ``__init__`` as the
    class) that no call in ``src/catres`` to a function of that bare name
    supplies."""
    defs = []  # (qualified name, the bare name it is called by, def node, bound args)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node.name, node, 0))
            for item in node.body if isinstance(node, ast.ClassDef) else []:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                if item.name == "__init__":
                    defs.append((f"{path.stem}.{node.name}.__init__", node.name, item, 1))
                elif not item.name.startswith("_"):
                    defs.append((f"{path.stem}.{node.name}.{item.name}", item.name, item, 1 - static))
    calls = {}  # bare name -> [(positional count or None for *args, keywords)]
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(x, ast.Starred) for x in node.args)
                count = None if starred else len(node.args)
                calls.setdefault(name, []).append((count, {k.arg for k in node.keywords}))
    found = set()
    for qualified, name, fn, bound in defs:
        if qualified in ALLOWED_UNUSED:
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        first_default = len(positional) - len(a.defaults)
        knobs = [(p.arg, i - bound) for i, p in enumerate(positional) if i >= first_default]
        knobs += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for param, at in knobs:
            if not any(
                param in kws or None in kws or (at is not None and (count is None or count > at))
                for count, kws in calls.get(name, [])
            ):
                found.add(f"{qualified}({param})")
    return found


def test_every_defaulted_parameter_is_supplied_by_some_library_call():
    assert unsupplied_knobs() - set(ALLOWED_KNOBS) == set(), "knobs that no library call turns"


def test_every_allowlisted_knob_is_still_unsupplied():
    assert set(ALLOWED_KNOBS) <= unsupplied_knobs()


# the canonical carrier and the pivots a ``row_basis`` output is marked with
CARRIER_ATTRIBUTES = {"a", "den", "with_array", "_pivots"}

# (file stem, Class.method) allowed to read the carrier outside linalg
CARRIER_READERS = {
    # the (dim A, dim M, dim M) view of the action numerators: the span
    # tracer keys its hom_space probe by module content through it, and no
    # library code reads it
    ("modules", "Repn.action"),
}


def attribute_uses(attributes: set, owner: str, readers: set) -> list:
    """``file:line`` of every use of one of ``attributes`` and every private
    import from ``owner`` in ``src/catres`` outside ``owner.py`` and the
    (file stem, Class.method) pairs of ``readers``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == owner:
            continue
        tree = ast.parse(path.read_text())
        allowed = set()
        for cls in tree.body:
            for fn in cls.body if isinstance(cls, ast.ClassDef) else []:
                if (path.stem, f"{cls.name}.{getattr(fn, 'name', '')}") in readers:
                    allowed.update(id(node) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in attributes:
                if id(node) not in allowed:
                    found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in (owner, f"catres.{owner}"):
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    return found


def carrier_reads() -> list:
    """``file:line`` of every carrier attribute and every private linalg
    import in ``src/catres`` outside ``linalg.py`` and ``CARRIER_READERS``."""
    return attribute_uses(CARRIER_ATTRIBUTES, "linalg", CARRIER_READERS)


def test_only_linalg_reads_the_matrix_carrier():
    assert carrier_reads() == []


def test_only_functors_reads_the_kept_functor_values():
    # auslander.py declares the field, which is no attribute use
    assert attribute_uses({"functor_values"}, "functors", set()) == []
    tree = ast.parse((SRC / "functors.py").read_text())
    assert any(isinstance(n, ast.Attribute) and n.attr == "functor_values" for n in ast.walk(tree))


# the files that touch ``Repn.record``: modules.py makes, shares and fills it
RECORD_READERS = {"modules"}


def test_only_modules_reads_the_module_record():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem not in RECORD_READERS
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "record"
    ]
    assert found == []
    for stem in RECORD_READERS:  # a reader that no longer reads it leaves the list
        tree = ast.parse((SRC / f"{stem}.py").read_text())
        assert any(isinstance(n, ast.Attribute) and n.attr == "record" for n in ast.walk(tree))


def test_no_library_file_imports_weakref():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "weakref" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "weakref"
    ]
    assert found == []


def test_the_library_checks_without_assert():
    # ``python -O`` strips an assert, and the check with it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_carrier_readers_exist_and_read_the_carrier():
    # an exception that no longer reads the carrier is dropped from the list
    for stem, qualified in CARRIER_READERS:
        cls_name, meth = qualified.split(".")
        tree = ast.parse((SRC / f"{stem}.py").read_text())
        cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls_name)
        fn = next(n for n in cls.body if getattr(n, "name", None) == meth)
        assert any(
            isinstance(n, ast.Attribute) and n.attr in CARRIER_ATTRIBUTES for n in ast.walk(fn)
        ), qualified



def idempotent_hint_uses() -> set:
    """(file stem, enclosing Class.method or function, "read" or "write") of
    every use of ``Algebra.idempotent_hint`` in ``src/catres``; the scope
    is None at module level."""
    uses = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        scope = {}  # id(node) -> the function or method around it
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    name = f"{top.name}.{getattr(item, 'name', '')}"
                    scope.update((id(node), name) for node in ast.walk(item))
            elif isinstance(top, ast.FunctionDef):
                scope.update((id(node), top.name) for node in ast.walk(top))
        uses.update(
            (path.stem, scope.get(id(node)), "write" if isinstance(node.ctx, ast.Store) else "read")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "idempotent_hint"
        )
    return uses


def test_only_auslander_and_from_quiver_write_and_only_algebra_and_the_context_read_the_idempotent_hint():
    # outside algebra.py and ModuleContext.idempotents only auslander.py uses
    # the hint, and only to write it; inside algebra.py only from_quiver
    # writes one, the trivial paths
    outside = attribute_uses({"idempotent_hint"}, "algebra", {("modules", "ModuleContext.idempotents")})
    assert outside and all(use.startswith("auslander.py:") for use in outside)
    uses = idempotent_hint_uses()
    assert {u for u in uses if u[2] == "write"} == {
        ("auslander", "build_auslander", "write"),
        ("algebra", "from_quiver", "write"),
        ("algebra", "Algebra.__init__", "write"),  # the default, None
    }
    assert {u for u in uses if u[0] not in ("algebra", "auslander")} == {
        ("modules", "ModuleContext.idempotents", "read"),
    }


def _names_a_field_kind(node) -> bool:
    """Is ``node`` the string "prime" or "rational", or a tuple, list or set
    that holds one?"""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_field_kind(x) for x in node.elts)
    return isinstance(node, ast.Constant) and node.value in ("prime", "rational")


def field_kind_branches(paths) -> list:
    """(file stem, enclosing function or Class.method, line) of every
    comparison of a ``.kind`` attribute with "prime" or "rational", and of
    every read of a ``.p`` attribute, in the files ``paths``; the scope is
    None at module level."""
    found = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text())
        scope = {}  # id(node) -> the function or method around it
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    name = f"{top.name}.{getattr(item, 'name', '')}"
                    scope.update((id(node), name) for node in ast.walk(item))
            elif isinstance(top, ast.FunctionDef):
                scope.update((id(node), top.name) for node in ast.walk(top))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "p":
                found.append((path.stem, scope.get(id(node)), node.lineno))
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Attribute) and x.attr == "kind" for x in operands) and any(
                _names_a_field_kind(x) for x in operands
            ):
                found.append((path.stem, scope.get(id(node)), node.lineno))
    return found


# the scopes of linalg.py that may branch on the field kind or read p: the
# field and the matrix carrier; the row reduction, RowBasis, the solves,
# the nullspaces and power_traces read only ``characteristic``
LINALG_FIELD_SCOPES = ("FieldSpec.", "Mat.")


def test_only_linalg_branches_on_the_field_kind():
    # one place owns the choice between F_p and Q: FieldSpec
    assert field_kind_branches(p for p in SRC.glob("*.py") if p.stem != "linalg") == []
    # the walk sees both kinds of branch where they are allowed
    scopes = {where for _, where, _ in field_kind_branches([SRC / "linalg.py"])}
    assert {"FieldSpec.roots", "FieldSpec.characteristic", "Mat.from_rows"} <= scopes
    assert sorted(s for s in scopes if not (s or "").startswith(LINALG_FIELD_SCOPES)) == []
    # and the one kernel is handed the characteristic
    rref = next(
        n for n in ast.parse((SRC / "linalg.py").read_text()).body
        if isinstance(n, ast.FunctionDef) and n.name == "rref"
    )
    assert any(isinstance(n, ast.Attribute) and n.attr == "characteristic" for n in ast.walk(rref))


# annotation sets that name an object and what it already fixes
OWNER_PAIRS = (
    {"Algebra", "RadicalChain"},
    {"Algebra", "Repn"},
    {"RadicalChain", "Repn"},
    {"Algebra", "AuslanderData"},
)


def _annotated_names(fn) -> set:
    """The names in the parameter annotations of ``fn``: ``Optional[Repn]``
    gives {"Optional", "Repn"}, a string annotation its identifiers."""
    a = fn.args
    found = set()
    for arg in a.posonlyargs + a.args + a.kwonlyargs:
        for node in ast.walk(arg.annotation) if arg.annotation is not None else ():
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.update(n.id for n in ast.walk(ast.parse(node.value)) if isinstance(n, ast.Name))
    return found


def foreign_owner_parameters() -> list:
    """``stem.name`` or ``stem.Class.method`` of every function or method in
    ``src/catres`` whose parameters name an owner beside what it fixes
    (``OWNER_PAIRS``), and of every ``ModuleContext`` method that takes a
    ``Repn``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            fns = [(top.name, top)] if isinstance(top, ast.FunctionDef) else []
            if isinstance(top, ast.ClassDef):
                fns = [(f"{top.name}.{f.name}", f) for f in top.body if isinstance(f, ast.FunctionDef)]
            for name, fn in fns:
                names = _annotated_names(fn)
                if any(pair <= names for pair in OWNER_PAIRS) or (
                    name.startswith("ModuleContext.") and "Repn" in names
                ):
                    found.append(f"{path.stem}.{name}")
    return found


def test_each_kept_value_takes_its_owner_alone():
    assert foreign_owner_parameters() == []
    # the walk reads the annotations it is meant to: these take one owner each
    tree = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    fn = next(n for n in tree["modules"].body if getattr(n, "name", None) == "radical_rows")
    assert _annotated_names(fn) == {"Repn"}
    fn = next(n for n in tree["certify"].body if getattr(n, "name", None) == "weakly_crepant_check")
    assert {"AuslanderData", "CertConfig", "ModulePool"} <= _annotated_names(fn)

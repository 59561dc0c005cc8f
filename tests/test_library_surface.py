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
    "io_json.parse_complex": "reads the complexes a replay verb will take",
    "io_json.complex_to_json": "writes the complexes a replay verb will take",
    "certify.replay_sample": "re-runs one sampled check from its (seed, suite, index)",
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

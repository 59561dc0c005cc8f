"""Span tracing of the catres layers from outside the library.

``Tracer.install`` rebinds the public functions of each layer to wrappers
that record one span per call (name, start, end, parent).  catres imports
names with ``from .x import f``, so every module-global binding of a
function object is rebound, not only the defining one; methods are patched
on their class.  ``uninstall`` restores the originals.

Certify samples run inside closures the library does not expose.  Each
one opens with ``samples.rng_for(seed, suite, index)``, so a sample span
starts at that call and ends at the next one, at the start of
``weakly_crepant_check`` or when the enclosing span ends.  The
``density_witness`` suite replays the ``four_term`` stream, so of the
``four_term`` streams opened in one ``certify_resolution`` call the first
``cfg.samples`` belong to ``four_term`` and the rest to
``density_witness``.

Spans are kept in flat arrays and aggregated once at the end.  A layer's
self time is the time of its spans minus the time of their child spans,
so the self times of all layers plus the unattributed remainder add up to
the traced wall time.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = [
    "io_json",
    "algebra",
    "linalg",
    "modules",
    "homology",
    "auslander",
    "functors",
    "complexes",
    "samples",
    "certify",
]

# (module, attribute or Class.method, span name); a span's layer is the
# first component of its name.
TARGETS = [
    ("catres.io_json", "parse_algebra_or_quiver", "io_json.parse"),
    ("catres.linalg", "rref", "linalg.rref"),
    ("catres.linalg", "solve", "linalg.solve"),
    ("catres.linalg", "nullspace", "linalg.nullspace"),
    ("catres.linalg", "coords_in_rows", "linalg.coords_in_rows"),
    ("catres.linalg", "Mat.__matmul__", "linalg.matmul"),
    ("catres.algebra", "Algebra.radical_chain", "algebra.radical_chain"),
    ("catres.algebra", "Algebra.multiply", "algebra.multiply"),
    ("catres.modules", "hom_space", "modules.hom_space"),
    ("catres.modules", "projective_cover", "modules.projective_cover"),
    ("catres.modules", "is_projective", "modules.is_projective"),
    ("catres.modules", "endomorphism_algebra", "modules.endomorphism_algebra"),
    ("catres.homology", "global_dimension", "homology.global_dimension"),
    ("catres.homology", "projective_resolution", "homology.projective_resolution"),
    ("catres.homology", "ext_dim", "homology.ext_dim"),
    ("catres.auslander", "build_auslander", "auslander.build_auslander"),
    ("catres.auslander", "verify_auslander", "auslander.verify_auslander"),
    ("catres.functors", "theta", "functors.theta"),
    ("catres.functors", "theta_rho_data", "functors.theta_rho_data"),
    ("catres.functors", "four_term_sequence", "functors.four_term_sequence"),
    ("catres.complexes", "kb_hom", "complexes.kb_hom"),
    ("catres.complexes", "kb_theta_lambda_data", "complexes.kb_theta_lambda_data"),
    ("catres.complexes", "cone", "complexes.cone"),
    ("catres.complexes", "prop31_sequence", "complexes.prop31_sequence"),
    ("catres.samples", "ModulePool.__init__", "samples.ModulePool"),
    ("catres.samples", "random_hom", "samples.random_hom"),
    ("catres.samples", "ModulePool.random_tilde_module", "samples.random_tilde_module"),
    ("catres.samples", "ModulePool.random_mod0_module", "samples.random_mod0_module"),
    ("catres.samples", "ModulePool.random_lam_module", "samples.random_lam_module"),
    ("catres.samples", "ModulePool.random_chain_map", "samples.random_chain_map"),
    ("catres.samples", "ModulePool.random_tilde_complex", "samples.random_tilde_complex"),
    ("catres.samples", "ModulePool.random_mod0_complex", "samples.random_mod0_complex"),
    (
        "catres.samples",
        "ModulePool.random_projective_lam_complex",
        "samples.random_projective_lam_complex",
    ),
    ("catres.certify", "certify_resolution", "certify.certify_resolution"),
    ("catres.certify", "weakly_crepant_check", "certify.weakly_crepant_check"),
]

# rng stream name -> reported suite name; density_witness has no stream of
# its own (it replays four_term) and is labelled by call order
SUITES = {
    "unit_iso": "unit_iso",
    "unit_naturality": "unit_naturality",
    "adjunction": "adjunction",
    "four_term": "four_term",
    "density_witness": "density_witness",
    "kernel_char": "kernel_char",
    "wc_lemma44": "wc_mod0_vanishing",
    "wc_right_adjoint": "wc_right_adjoint",
}

# span name -> the per-span aggregates reported for it
REPORTED = {
    "linalg.rref": ("calls", "s"),
    "linalg.coords_in_rows": ("calls", "s"),
    "linalg.solve": ("calls",),
    "linalg.nullspace": ("calls",),
    "linalg.matmul": ("calls", "s"),
    "algebra.radical_chain": ("calls", "s"),
    "algebra.multiply": ("calls",),
    "modules.hom_space": ("calls", "s"),
    "modules.projective_cover": ("calls", "s"),
    "modules.is_projective": ("calls", "s"),
    "modules.endomorphism_algebra": ("s",),
    "homology.global_dimension": ("s",),
    "homology.projective_resolution": ("calls", "s"),
    "homology.ext_dim": ("calls", "s"),
    "auslander.build_auslander": ("s",),
    "auslander.verify_auslander": ("s",),
    "samples.ModulePool": ("s",),
    "io_json.parse": ("s",),
    "functors.theta_rho_data": ("calls", "s"),
    "functors.four_term_sequence": ("calls", "s"),
    "functors.theta": ("calls", "s"),
    "complexes.kb_hom": ("calls", "s"),
    "complexes.kb_theta_lambda_data": ("calls", "s"),
    "complexes.prop31_sequence": ("calls", "s"),
    "complexes.cone": ("calls",),
}

# counters computed from call arguments: name -> unit
COUNTERS = {
    "linalg.rref.max_cells": "count",
    "linalg.coords_in_rows.distinct_basis_frac": "ratio",
    "modules.hom_space.max_unknowns": "count",
    "modules.hom_space.repeat_frac": "ratio",
}

UNITS = {"calls": "count", "s": "s"}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for span, aggs in REPORTED.items():
        for agg in aggs:
            units[f"{span}.{agg}"] = UNITS[agg]
    units.update(COUNTERS)
    for suite in SUITES.values():
        units[f"certify.{suite}.s"] = "s"
        units[f"certify.{suite}.sample_max_ms"] = "ms"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.unattributed_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def content_key(a: np.ndarray) -> bytes:
    """Digest of an array's shape and entries (object arrays hold Fractions,
    whose bytes are pointers, so they are keyed by their text)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(a.shape).encode())
    h.update(",".join(map(str, a.flat)).encode() if a.dtype == object else a.tobytes())
    return h.digest()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._is_sample: list[bool] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")  # no enclosing span of the same name
        self._active: list[int] = []
        self._stack: list[int] = []
        self._four_term_left = 0
        self.max_counts = {"linalg.rref.max_cells": 0, "modules.hom_space.max_unknowns": 0}
        self._keys = {"coords_in_rows": set(), "hom_space": set()}
        self._key_calls = {"coords_in_rows": 0, "hom_space": 0}
        self._undo: list = []

    # -- span recording -------------------------------------------------

    def _id(self, name: str, sample: bool = False) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._is_sample.append(sample)
            self._active.append(0)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.span_start)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self.span_end.append(0.0)
        stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def _finish(self, i: int, t: float):
        self.span_end[i] = t
        self._active[self.span_name[i]] -= 1

    def _close(self, i: int):
        t = time.perf_counter()
        stack = self._stack
        while stack[-1] != i:  # sample spans still open inside this one
            self._finish(stack.pop(), t)
        self._finish(stack.pop(), t)

    def _close_sample(self):
        stack = self._stack
        if stack and self._is_sample[self.span_name[stack[-1]]]:
            self._finish(stack.pop(), time.perf_counter())

    # -- probes: counters from call arguments ---------------------------

    def _probe_rref(self, m, *args, **kwargs):
        cells = m.rows * m.cols
        if cells > self.max_counts["linalg.rref.max_cells"]:
            self.max_counts["linalg.rref.max_cells"] = cells

    def _probe_coords(self, basis, *args, **kwargs):
        self._key_calls["coords_in_rows"] += 1
        self._keys["coords_in_rows"].add(content_key(basis.a))

    def _probe_hom(self, M, N, *args, **kwargs):
        unknowns = M.dim * N.dim
        if unknowns > self.max_counts["modules.hom_space.max_unknowns"]:
            self.max_counts["modules.hom_space.max_unknowns"] = unknowns
        self._key_calls["hom_space"] += 1
        self._keys["hom_space"].add(content_key(M.action) + content_key(N.action))

    def _probe_certify(self, lam, cfg, *args, **kwargs):
        self._four_term_left = cfg.samples

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        probe = {
            "linalg.rref": self._probe_rref,
            "linalg.coords_in_rows": self._probe_coords,
            "modules.hom_space": self._probe_hom,
            "certify.certify_resolution": self._probe_certify,
        }.get(name)
        closes_sample = name == "certify.weakly_crepant_check"
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(*args, **kwargs)
            if closes_sample:
                self._close_sample()
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_rng_for(self, fn):
        sample_ids = {
            stream: self._id(f"certify.{suite}", sample=True) for stream, suite in SUITES.items()
        }

        def rng_for(seed, suite, index):
            self._close_sample()
            label = suite
            if suite == "four_term":
                if self._four_term_left > 0:
                    self._four_term_left -= 1
                else:
                    label = "density_witness"
            self._open(sample_ids[label])
            return fn(seed, suite, index)

        rng_for.__wrapped__ = fn
        return rng_for

    def install(self):
        """Rebind every traced function in every loaded catres module."""
        modules = {name: importlib.import_module(name) for name in {t[0] for t in TARGETS}}
        importlib.import_module("catres.cli")
        replacements = []
        for mod_name, attr, span in TARGETS:
            mod = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, span))
                self._undo.append((cls, meth, original))
            else:
                original = getattr(mod, attr)
                replacements.append((original, self._wrap(original, span)))
        samples = modules["catres.samples"]
        replacements.append((samples.rng_for, self._wrap_rng_for(samples.rng_for)))
        # the originals stay alive in `replacements`, so their ids are unique
        wrappers = {id(orig): new for orig, new in replacements}
        for name, mod in list(sys.modules.items()):
            if name != "catres" and not name.startswith("catres."):
                continue
            for key, value in list(vars(mod).items()):
                new = wrappers.get(id(value))
                if new is not None:
                    setattr(mod, key, new)
                    self._undo.append((mod, key, value))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- aggregation ----------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
        return name, parent, start, end, outer

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        if self._stack:
            raise RuntimeError("metrics() called with spans still open")
        name, parent, start, end, outer = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name[outer], weights=dur[outer], minlength=n_names)
        self_by_name = np.bincount(name, weights=self_time, minlength=n_names)
        max_dur = np.zeros(n_names)
        np.maximum.at(max_dur, name, dur)

        def by_name(arr, span):
            nid = self._ids.get(span)
            return 0.0 if nid is None else float(arr[nid])

        units = metric_units()
        out = {}
        for span, aggs in REPORTED.items():
            for agg in aggs:
                value = int(by_name(calls, span)) if agg == "calls" else by_name(total, span)
                out[f"{span}.{agg}"] = value
        for key, value in self.max_counts.items():
            out[key] = value
        n = self._key_calls["coords_in_rows"]
        distinct = len(self._keys["coords_in_rows"])
        out["linalg.coords_in_rows.distinct_basis_frac"] = distinct / n if n else 0.0
        n = self._key_calls["hom_space"]
        distinct = len(self._keys["hom_space"])
        out["modules.hom_space.repeat_frac"] = 1.0 - distinct / n if n else 0.0
        for suite in SUITES.values():
            span = f"certify.{suite}"
            out[f"{span}.s"] = by_name(total, span)
            out[f"{span}.sample_max_ms"] = by_name(max_dur, span) * 1000.0
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, span in enumerate(self.names):
            layer_self[span.split(".")[0]] += float(self_by_name[nid])
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        top_level = float(dur[parent < 0].sum())
        out["trace.wall_s"] = traced_wall_s
        out["trace.unattributed_s"] = traced_wall_s - top_level
        out["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
        return {key: (out[key], unit) for key, unit in units.items()}

    def save(self, path):
        """Write the spans as a compressed numpy archive."""
        name, parent, start, end, _ = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=start,
            end=end,
        )

"""Top-level certification of the categorical-resolution conditions.

Runs, in order: the Auslander construction and its verification (the
regularity side), then per-condition sampled suites at complex level:

* unit_iso        : the unit on bounded projective complexes is the
                    identity through the counit, naturally;
* adjunction      : the lift is left adjoint to the restriction on
                    homotopy classes, by an explicit bijection;
* four_term       : the exact sequence with both ends killed by e;
* density_witness : the cone of the unit map evaluates acyclically at
                    the corner;
* kernel_char     : corner-acyclicity coincides with acyclicity of the
                    restricted complex, and vanishing of the restriction
                    is exactly corner-kill;
* weakly_crepant  : for self-injective inputs, the right-adjunction side
                    (injectivity of Hom-lifts of injectives, the mod0
                    vanishing, the explicit inverse bijection).

Quotient-category statements are certified only through these proof
surrogates; the report says so in its ``scope`` field.  Reports are
deterministic functions of (input, config): fixed sample streams keyed by
(seed, suite, index), stable key order, no timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .algebra import Algebra
from .auslander import AuslanderData, build_auslander, verify_auslander
from .complexes import (
    cone,
    db_theta,
    is_acyclic,
    is_lambda_acyclic,
    kb_hom,
    kb_theta_lambda_data,
    module_complex,
    prop31_sequence,
    step_iv_adjunction,
    step_v_naturality,
    step_v_unit,
)
from .functors import in_mod0, theta, theta_rho, theta_rho_maps
from .homology import global_dimension, is_injective, is_self_injective
from .modules import context
from .samples import ModulePool, rng_for


REPORT_FORMAT = "catres-certify-report-v1"
SCOPE_NOTE = (
    "condition (i) on the quotient category is certified through its proof "
    "ingredients only: degreewise four-term exactness with corner-killed ends, "
    "corner-acyclicity of the cone of the unit map, and the acyclicity "
    "transfer; no computable model of the quotient category is constructed"
)


@dataclass
class CertConfig:
    seed: int = 0
    samples: int = 50
    max_degree_window: int = 4
    max_term_dim: int = 12
    max_resolution_depth: Optional[int] = None

    def __post_init__(self):
        if type(self.seed) is not int:
            raise ValueError("seed must be an integer")
        for name in ("samples", "max_degree_window", "max_term_dim"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        depth = self.max_resolution_depth
        if depth is not None and (type(depth) is not int or depth < 0):
            raise ValueError("max_resolution_depth must be None or an integer >= 0")

    def to_json(self):
        return {
            "seed": self.seed,
            "samples": self.samples,
            "max_degree_window": self.max_degree_window,
            "max_term_dim": self.max_term_dim,
            "max_resolution_depth": self.max_resolution_depth,
        }


def _suite(results):
    failures = [
        {"index": i, "detail": detail} for i, (ok, detail) in enumerate(results) if not ok
    ]
    return {
        "passed": not failures,
        "samples": len(results),
        "failures": failures[:5],
        "failure_count": len(failures),
    }


# -- the sampled checks: check(data, pool, cfg, index) -> (ok, detail) ------


def unit_sample(data: AuslanderData, pool: ModulePool, cfg: CertConfig, i: int):
    rng = rng_for(cfg.seed, "unit_iso", i)
    P = pool.random_projective_lam_complex(rng, cfg.max_degree_window, cfg.max_term_dim)
    sv = step_v_unit(P, data)
    return sv.ok, sv.detail


def naturality_sample(data: AuslanderData, pool: ModulePool, cfg: CertConfig, i: int):
    rng = rng_for(cfg.seed, "unit_naturality", i)
    P = pool.random_projective_lam_complex(rng, cfg.max_degree_window, cfg.max_term_dim)
    Q = pool.random_projective_lam_complex(rng, cfg.max_degree_window, cfg.max_term_dim)
    u = pool.random_chain_map(rng, P, Q)
    return step_v_naturality(u, data), "naturality square broke"


def adjunction_sample(data: AuslanderData, pool: ModulePool, cfg: CertConfig, i: int):
    rng = rng_for(cfg.seed, "adjunction", i)
    P = pool.random_projective_lam_complex(rng, cfg.max_degree_window, cfg.max_term_dim)
    F = pool.random_tilde_complex(rng, cfg.max_degree_window, cfg.max_term_dim)
    r = step_iv_adjunction(P, F, data)
    return r["ok"], str({k: v for k, v in r.items() if k != "ok"}) if not r["ok"] else ""


def _assembled(F, data: AuslanderData):
    """``(prop31_sequence(F, data), "")``, or ``(None, detail)`` when the
    assembly fails one of the assertions it makes, so that every suite
    that assembles records the failure instead of aborting the run."""
    try:
        return prop31_sequence(F, data), ""
    except AssertionError as exc:
        return None, f"assembly failed: {exc}"


def four_term_sample(data: AuslanderData, pool: ModulePool, cfg: CertConfig, i: int):
    rng = rng_for(cfg.seed, "four_term", i)
    F = pool.random_tilde_complex(rng, cfg.max_degree_window, cfg.max_term_dim)
    p31, failure = _assembled(F, data)
    if p31 is None:
        return False, failure
    for d in F.degrees():
        s = p31.degreewise[d]
        if s.F0.dim - s.F.dim + s.middle.dim - s.F1.dim != 0:
            return False, f"dimension count fails at degree {d}"
        if not (s.f0_incl.mat @ s.alpha.mat).is_zero():
            return False, f"kernel does not compose to zero at degree {d}"
        if not (s.alpha.mat @ s.f1_proj.mat).is_zero():
            return False, f"image does not die in the cokernel at degree {d}"
        if not (in_mod0(s.F0, data) and in_mod0(s.F1, data)):
            return False, f"ends not killed by the corner at degree {d}"
    for cxp in (p31.F0, p31.middle, p31.F1):
        if cxp.validate():
            return False, "assembled complex invalid"
    if not p31.alpha.validate():
        return False, "unit map is not a chain map"
    return True, ""


def density_sample(data: AuslanderData, pool: ModulePool, cfg: CertConfig, i: int):
    rng = rng_for(cfg.seed, "four_term", i)  # same stream: same complexes
    F = pool.random_tilde_complex(rng, cfg.max_degree_window, cfg.max_term_dim)
    p31, failure = _assembled(F, data)
    if p31 is None:
        return False, failure
    return is_lambda_acyclic(cone(p31.alpha), data), "cone of the unit map is not corner-acyclic"


def kernel_sample(data: AuslanderData, pool: ModulePool, cfg: CertConfig, i: int):
    rng = rng_for(cfg.seed, "kernel_char", i)
    F = pool.random_tilde_complex(rng, cfg.max_degree_window, cfg.max_term_dim)
    lhs = is_lambda_acyclic(F, data)
    rhs = is_acyclic(db_theta(F, data))
    if lhs != rhs:
        return False, "corner-acyclic and restricted-acyclic disagree"
    m = pool.random_tilde_module(rng, cfg.max_term_dim)
    kills = in_mod0(m, data)
    restr = theta(m, data).dim == 0
    if kills != restr:
        return False, "corner-kill and zero restriction disagree"
    return True, ""


def wc_lemma44_sample(data: AuslanderData, pool: ModulePool, cfg: CertConfig, i: int):
    rng = rng_for(cfg.seed, "wc_lemma44", i)
    G = pool.random_mod0_complex(rng, cfg.max_degree_window, cfg.max_term_dim)
    N = pool.random_lam_module(rng, cfg.max_term_dim // 2 + 1)
    target = module_complex(theta_rho(N, data), rng.randrange(cfg.max_degree_window))
    kb = kb_hom(G, target)
    return kb.dim == 0, f"nonzero Hom from a corner-killed complex (dim {kb.dim})"


def wc_right_adjoint_sample(data: AuslanderData, pool: ModulePool, cfg: CertConfig, i: int):
    rng = rng_for(cfg.seed, "wc_right_adjoint", i)
    F = pool.random_tilde_complex(rng, cfg.max_degree_window, cfg.max_term_dim)
    P = pool.random_projective_lam_complex(rng, cfg.max_degree_window, cfg.max_term_dim)
    r = right_adjoint_sample(F, P, data)
    return r["bijective"], str(r) if not r["bijective"] else ""


def _every(n: int) -> int:
    return n


# suite -> (its check, its sample count as a function of cfg.samples), in
# run order; certify_resolution and replay_sample both run these checks,
# and each check draws from the rng stream keyed by (seed, stream, index).
# The wc_ suites run inside weakly_crepant_check, for self-injective inputs.
SAMPLE_CHECKS = {
    "unit_iso": (unit_sample, _every),
    "unit_naturality": (naturality_sample, lambda n: max(1, n // 5)),
    "adjunction": (adjunction_sample, _every),
    "four_term": (four_term_sample, _every),
    "density_witness": (density_sample, _every),
    "kernel_char": (kernel_sample, _every),
    "wc_lemma44": (wc_lemma44_sample, lambda n: max(1, 3 * n // 5)),
    "wc_right_adjoint": (wc_right_adjoint_sample, _every),
}


def suite_results(suite: str, n: int, data: AuslanderData, pool: ModulePool, cfg: CertConfig):
    """(ok, detail) of samples 0..n-1 of one suite."""
    check, _ = SAMPLE_CHECKS[suite]
    return [check(data, pool, cfg, i) for i in range(n)]


def _run_suite(suite: str, data: AuslanderData, pool: ModulePool, cfg: CertConfig) -> dict:
    _, count = SAMPLE_CHECKS[suite]
    return _suite(suite_results(suite, count(cfg.samples), data, pool, cfg))


def certify_resolution(lam: Algebra, cfg: CertConfig) -> dict:
    data = build_auslander(lam)
    depth = cfg.max_resolution_depth
    if depth is None:
        depth = max(10, lam.radical_chain().nilpotency_index + 2)
    regularity = verify_auslander(data)
    gl_lambda = global_dimension(lam, depth)
    degenerate = gl_lambda.kind != "infinite"

    pool = ModulePool(data)
    report_conditions = {
        suite: _run_suite(suite, data, pool, cfg)
        for suite in SAMPLE_CHECKS
        if not suite.startswith("wc_")
    }
    wc = weakly_crepant_check(lam, data, cfg, pool)
    report_conditions["weakly_crepant"] = wc

    applicable = [v for k, v in report_conditions.items() if not v.get("inapplicable")]
    all_pass = all(v["passed"] for v in applicable)
    verdict = "fail" if not all_pass else ("degenerate" if degenerate else "pass")
    return {
        "format": REPORT_FORMAT,
        "version": __version__,
        "algebra": {
            "dim": lam.dim,
            "field": lam.field.to_json(),
            "basis": lam.basis_labels,
        },
        "config": cfg.to_json(),
        "hypothesis": {
            "gldim_lambda": gl_lambda.to_json(),
            "infinite_gldim_hypothesis_met": not degenerate,
            "degenerate": degenerate,
        },
        "regularity": regularity,
        "conditions": report_conditions,
        "scope": SCOPE_NOTE,
        "verdict": verdict,
    }


def right_adjoint_sample(F, P, data: AuslanderData) -> dict:
    """Theorem-level right adjunction: Hom(db_theta F, P) = Hom(F, (-,P))
    through g -> (unit map, then Hom(M,-) of g), bijective on homotopy
    classes.  A failed assembly of the unit map gives ``bijective`` False
    and the failure as ``detail``."""
    lifted = kb_theta_lambda_data(P, data)
    thetaF = db_theta(F, data)
    B = kb_hom(thetaF, P)
    A = kb_hom(F, lifted.complex)
    p31, failure = _assembled(F, data)
    if p31 is None:
        return {"bijective": False, "detail": failure}
    # g -> alpha then theta_rho(g), on every basis map of each degree
    blocks = {}
    for i in B.window:
        if B.spaces[i] and A.spaces[i]:
            s = p31.degreewise[i]
            lifted_g = theta_rho_maps(B.spaces[i], s.middle_data, lifted.term_data[i])
            blocks[i] = A.spaces[i].basis.coords(lifted_g.after(s.alpha.mat))
    return B.induced_bijection(A, blocks)


def weakly_crepant_check(
    lam: Algebra, data: AuslanderData, cfg: CertConfig, pool: ModulePool
) -> dict:
    """Theorem-level check that the lift is also a right adjoint when the
    base algebra is self-injective; inapplicable otherwise."""
    if not is_self_injective(lam):
        return {
            "inapplicable": True,
            "passed": True,
            "reason": "base algebra is not self-injective",
            "samples": 0,
        }
    # injective indecomposables = projective indecomposables here
    ctx_l = context(lam)
    lemma_injective = []
    for p in ctx_l.projectives:
        if p.dim == 0:
            continue
        ok = is_injective(data.tilde, theta_rho(p, data))
        lemma_injective.append({"indecomposable_dim": p.dim, "injective_lift": ok})
    lemma42_ok = all(item["injective_lift"] for item in lemma_injective)

    lemma44 = _run_suite("wc_lemma44", data, pool, cfg)
    right_adj = _run_suite("wc_right_adjoint", data, pool, cfg)
    passed = lemma42_ok and lemma44["passed"] and right_adj["passed"]
    return {
        "inapplicable": False,
        "passed": passed,
        "lemma_injective_lifts": lemma_injective,
        "lemma42_passed": lemma42_ok,
        "mod0_vanishing": lemma44,
        "right_adjoint": right_adj,
        "samples": cfg.samples,
    }


def replay_sample(lam: Algebra, cfg: CertConfig, suite: str, index: int):
    """Re-execute a single sampled check in isolation.

    The per-sample RNG streams are keyed by (seed, suite, index) only, and
    the check is the one the suite runs, so a sample recorded in a report
    reproduces here exactly.  Returns (ok, detail)."""
    if suite not in SAMPLE_CHECKS:
        raise ValueError(f"unknown suite {suite!r}")
    check, _ = SAMPLE_CHECKS[suite]
    data = build_auslander(lam)
    return check(data, ModulePool(data), cfg, index)


def report_to_json_str(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def exit_code_for(report: dict) -> int:
    if report["verdict"] == "fail":
        return 1
    if report["verdict"] == "degenerate":
        return 2
    return 0

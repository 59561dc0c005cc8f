"""Workload definitions: the algebra each workload feeds the library, and how
it is certified.

The workload seed chooses a *presentation* of a fixed algebra: for
structure-constant algebras, where the unit sits in the basis list and the
sign of each basis vector; for quivers, the order in which the vertices
and arrows are listed.  Every matrix the library sees changes with the
seed; the isomorphism class, and so every dimension and verdict, does not.  Seed 0 is the plain presentation, equal
to the shipped corpus file, so its reports can be reproduced with the
``catres`` command line.

The certify sample stream (``CertConfig.seed``) is a per-workload constant.
Across sample seeds the sampled complexes differ in size so much (one
F_3[x]/x^3 sample took 2.0 s at one seed and 5.3 s at another) that no
regression bound could hold; with a fixed stream the work per call depends
on the algebra and the configuration only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALGEBRA_FORMAT = "catres-algebra-v1"
QUIVER_FORMAT = "catres-quiver-v1"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def truncated_poly(field: dict, n: int, rng: random.Random | None) -> dict:
    """k[x]/(x^n) as catres-algebra-v1 JSON.

    Without ``rng`` the basis is 1, x, ..., x^(n-1) exactly as in the
    corpus.  With it, basis vector i is sign_i * x^perm(i): the unit moves
    to a random place in the list, the powers of x keep their order and
    every vector gets a random sign.  (Listing x^2 before x would make
    ``Algebra.generating_indices`` pick two generators instead of one,
    which changes the size of every Hom-space system, so the work.)
    """
    perm = list(range(n))
    signs = [1] * n
    if rng is not None:
        perm.remove(0)
        perm.insert(rng.randrange(n), 0)
        signs = [rng.choice((1, -1)) for _ in range(n)]
    prime = field.get("p")
    if prime == 2:
        signs = [1] * n  # -1 = 1
    where = {power: i for i, power in enumerate(perm)}

    def scalar(c: int) -> int:
        return c % prime if prime else c

    mult = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            power = perm[i] + perm[j]
            if power < n:
                k = where[power]
                # b_i b_j = s_i s_j x^power = s_i s_j s_k b_k
                mult[i][j][k] = scalar(signs[i] * signs[j] * signs[k])
    unit = [0] * n
    unit[where[0]] = scalar(signs[where[0]])

    def label(i: int) -> str:
        power = perm[i]
        mono = "1" if power == 0 else ("x" if power == 1 else f"x^{power}")
        return mono if signs[i] == 1 else f"-{mono}"

    return {
        "basis": [label(i) for i in range(n)],
        "dim": n,
        "field": field,
        "format": ALGEBRA_FORMAT,
        "mult": mult,
        "unit": unit,
    }


def cyclic_nakayama(p: int, vertices: int, loewy: int, rng: random.Random | None) -> dict:
    """kQ/J^loewy on the oriented cycle with ``vertices`` vertices, as
    catres-quiver-v1 JSON.  ``rng`` permutes the listing order of the
    vertices and of the arrows."""
    names = [str(i + 1) for i in range(vertices)]
    arrows = [
        {"from": names[i], "name": f"a{i + 1}", "to": names[(i + 1) % vertices]}
        for i in range(vertices)
    ]
    if rng is not None:
        rng.shuffle(names)
        rng.shuffle(arrows)
    return {
        "arrows": arrows,
        "field": {"p": p, "type": "prime"},
        "format": QUIVER_FORMAT,
        "length_bound": loewy,
        "relations": [],
        "vertices": names,
    }


@dataclass(frozen=True)
class Size:
    """One size of a workload: its input and how it is measured."""

    label: str
    make: object  # (rng or None) -> JSON object
    cert: dict  # CertConfig fields: seed, samples, max_term_dim, max_degree_window
    expect: dict  # verify_auslander fields every presentation must reproduce


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict  # "full" / "smoke" -> Size

    def algebra_json(self, size: str, seed: int) -> dict:
        rng = None if seed == 0 else _rng(self.name, seed)
        return self.sizes[size].make(rng)


F3 = {"p": 3, "type": "prime"}
F2 = {"p": 2, "type": "prime"}
Q = {"type": "rational"}

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "certify-x3-f3",
            "certify F_3[x]/x^3: many small F_p solves, rref and coords_in_rows dominate",
            {
                "full": Size(
                    "F_3[x]/x^3, 1 sample, stream 0",
                    lambda rng: truncated_poly(F3, 3, rng),
                    {"seed": 0, "samples": 1, "max_term_dim": 12, "max_degree_window": 4},
                    {"dim_lambda": 3, "dim_m": 6, "dim_tilde": 14},
                ),
                "smoke": Size(
                    "F_2[x]/x^2, 1 sample, stream 0",
                    lambda rng: truncated_poly(F2, 2, rng),
                    {"seed": 0, "samples": 1, "max_term_dim": 12, "max_degree_window": 4},
                    {"dim_lambda": 2, "dim_m": 3, "dim_tilde": 5},
                ),
            },
        ),
        Workload(
            "certify-x3-q",
            "certify Q[x]/x^3: same layers as F_3 but Fraction matmul and rational rref dominate",
            {
                "full": Size(
                    "Q[x]/x^3, 1 sample, stream 1, term dim 4, window 2",
                    lambda rng: truncated_poly(Q, 3, rng),
                    {"seed": 1, "samples": 1, "max_term_dim": 4, "max_degree_window": 2},
                    {"dim_lambda": 3, "dim_m": 6, "dim_tilde": 14},
                ),
                "smoke": Size(
                    "Q[x]/x^2, 1 sample, stream 1, term dim 4, window 2",
                    lambda rng: truncated_poly(Q, 2, rng),
                    {"seed": 1, "samples": 1, "max_term_dim": 4, "max_degree_window": 2},
                    {"dim_lambda": 2, "dim_m": 3, "dim_tilde": 5},
                ),
            },
        ),
        Workload(
            "auslander-cyc4-f2",
            "quiver kQ/J^2 on the 4-cycle over F_2: radical of T, multi-vertex idempotents, gldim",
            {
                "full": Size(
                    "kQ/J^2 on the 4-cycle over F_2, certify 1 sample, term dim 1, window 1",
                    lambda rng: cyclic_nakayama(2, 4, 2, rng),
                    {"seed": 0, "samples": 1, "max_term_dim": 1, "max_degree_window": 1},
                    {"dim_lambda": 8, "dim_m": 12, "dim_tilde": 20},
                ),
                "smoke": Size(
                    "kQ/J^2 on the 2-cycle over F_2, certify 1 sample, term dim 1, window 1",
                    lambda rng: cyclic_nakayama(2, 2, 2, rng),
                    {"seed": 0, "samples": 1, "max_term_dim": 1, "max_degree_window": 1},
                    {"dim_lambda": 4, "dim_m": 6, "dim_tilde": 10},
                ),
            },
        ),
    ]
}

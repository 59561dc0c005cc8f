"""Builders for the small algebras the test corpus ships.

All are desk-scale: truncated polynomial algebras k[x]/(x^n), the
two-cycle gentle algebra with both composite relations, the upper
triangular 2x2 algebra, and a product of two copies of the base field.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, QuiverSpec, from_quiver
from .linalg import FieldSpec, Mat


def truncated_poly_algebra(field: FieldSpec, n: int) -> Algebra:
    """k[x]/(x^n) by structure constants, basis 1, x, ..., x^(n-1)."""
    if n < 1:
        raise ValueError("n must be positive")
    table = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i + j < n:
                table[i, j, i + j] = 1
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, n)]
    unit = Mat.from_rows(field, [[field.one] + [field.zero] * (n - 1)])
    return Algebra(field, labels, unit, Mat(field, table.reshape(n, n * n)))


def gentle_two_cycle(field: FieldSpec) -> Algebra:
    """kQ/(ab, ba) on the two-cycle quiver; 4-dimensional, self-injective,
    infinite global dimension (the two simples are syzygies of each other)."""
    spec = QuiverSpec(
        field,
        vertices=["1", "2"],
        arrows=[("a", "1", "2"), ("b", "2", "1")],
        relations=[[(field.one, ["a", "b"])], [(field.one, ["b", "a"])]],
        length_bound=3,
    )
    return from_quiver(spec)


def upper_triangular_2(field: FieldSpec) -> Algebra:
    """Path algebra of 1 -> 2, isomorphic to upper triangular 2x2 matrices."""
    spec = QuiverSpec(
        field,
        vertices=["1", "2"],
        arrows=[("a", "1", "2")],
        relations=[],
        length_bound=2,
    )
    return from_quiver(spec)


def two_fields(field: FieldSpec) -> Algebra:
    """k x k: two vertices, no arrows."""
    spec = QuiverSpec(field, vertices=["1", "2"], arrows=[], relations=[], length_bound=1)
    return from_quiver(spec)


def shipped_corpus() -> dict:
    """The fixed corpus every applicable certification suite must pass on."""
    return {
        "x2_f2": truncated_poly_algebra(FieldSpec("prime", 2), 2),
        "x2_f5": truncated_poly_algebra(FieldSpec("prime", 5), 2),
        "x3_f3": truncated_poly_algebra(FieldSpec("prime", 3), 3),
        "x3_f7": truncated_poly_algebra(FieldSpec("prime", 7), 3),
        "x3_q": truncated_poly_algebra(FieldSpec("rational"), 3),
        "gentle_two_cycle_f2": gentle_two_cycle(FieldSpec("prime", 2)),
        "t2_f3": upper_triangular_2(FieldSpec("prime", 3)),
        "kxk_f5": two_fields(FieldSpec("prime", 5)),
    }

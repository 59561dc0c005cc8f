"""Exact computer algebra for Auslander algebras of finite-dimensional algebras.

Builds the endomorphism algebra of the radical-filtration module, the
module-level and complex-level restriction/lifting functors between its
module category and the base category, and certifies the categorical
resolution axioms on desk-scale inputs.  All arithmetic is exact (prime
fields or rationals); there is no floating point anywhere.
"""

__version__ = "0.1.0"

from .algebra import Algebra, QuiverSpec, RadicalChain, from_quiver
from .auslander import AuslanderData, build_auslander, verify_auslander
from .certify import CertConfig, certify_resolution
from .linalg import FieldSpec, Mat

__all__ = [
    "Algebra",
    "AuslanderData",
    "CertConfig",
    "FieldSpec",
    "Mat",
    "QuiverSpec",
    "RadicalChain",
    "build_auslander",
    "certify_resolution",
    "from_quiver",
    "verify_auslander",
    "__version__",
]

"""Exact computation in finitely generated 2-step nilpotent groups.

Integer matrix normal forms with elementary-operation logs, Malcev
coordinates for free 2-step nilpotent groups, presentation normalization and
word-problem procedures, random-walk experiments, and a compiler from ring
equations to group equations witnessing equation-definability of the
integers.
"""

__version__ = "0.1.0"

from .nilpotent2 import MalcevElement, commutator, from_word, identity, inverse, multiply, power
from .presentation import (
    InconclusiveError,
    NilPresentation,
    NormalizedPresentation,
    RegimeReport,
    classify,
    express_in_normalized_basis,
    is_c_small,
    is_central_mod_torsion,
    is_trivial_in_G,
    is_trivial_mod_torsion,
    normalize,
    parse_presentation,
)
from .words import Word, format_word, parse_word
from .zmatrix import SmithDecomposition, smith_normal_form

__all__ = [
    "InconclusiveError",
    "MalcevElement",
    "NilPresentation",
    "NormalizedPresentation",
    "RegimeReport",
    "SmithDecomposition",
    "Word",
    "classify",
    "commutator",
    "express_in_normalized_basis",
    "format_word",
    "from_word",
    "identity",
    "inverse",
    "is_c_small",
    "is_central_mod_torsion",
    "is_trivial_in_G",
    "is_trivial_mod_torsion",
    "multiply",
    "normalize",
    "parse_presentation",
    "parse_word",
    "power",
    "smith_normal_form",
]

"""Exact arithmetic for the trefoil knot quandle and its realizations.

The same quandle is implemented three ways and the implementations are
cross-checked operation by operation: words over the presentation
{a, b | a*b*a = b, b*a*b = a} with a rewriting normalizer, the quandle of
fractions Q ∪ {1/0} under transvection, and PSL(2, Z) matrices acting on
the projective primitive pairs of Z⊕Z.  Continued fractions provide the
bijection between fractions and normal-form words.  A fourth structure,
the covering quandle of the long trefoil, is built over the braid group B3
with a decidable word problem.

Each value type is a frozen dataclass on slots, checked once, except
PFrac, an immutable pair on tuple, so that the fraction quandle's points
are built, hashed and unpacked in C.  Public constructors keep every check
and coerce nothing (a bool, float or str is not an int); values the
library builds from values valid by an argument stated where they are
built go through the class's one trusted builder and are never checked
again: `cls._trusted(*fields)`, generated by `_trusted.value_type`, or for
PFrac the C-level `PFrac._trusted((p, q))`, attached by
`_trusted.pair_type`.  A braid's Burau image at t = -1 and a covered
element's meridian conjugate x are fields set in closed form by each
operation, and a finite group's identity and inverses are fields its one
constructor, FiniteGroup(table), derives from the table; a finite
structure's size is read off its table.
"""

from .braid import (
    BraidElement,
    braid_eq,
    garside_eq,
    longitude,
    meridian,
    render_braid,
)
from .cfrac import ContinuedFraction, cf_eval, cf_expand, cf_validate
from .longknot import (
    CoveredElement,
    FiberMismatchError,
    covering_p,
    fiber_compare,
    lambda_act,
    pi1_act,
    qt_new,
    qt_op,
    qt_op_inv,
)
from .pfrac import (
    PF_INFINITY,
    PF_ZERO,
    IntPair,
    OrbitReport,
    PFrac,
    TransvectionMatrix,
    apply_matrix,
    orbit_bfs,
    pf_new,
    pf_op,
    pf_op_inv,
    pf_op_pow,
    projectivize,
    sympl_form,
    sympl_op,
    sympl_op_inv,
    transvection_matrix,
)
from .quandle import (
    AxiomReport,
    FiniteGroup,
    FiniteQuandle,
    LaurentQuotientRing,
    alexander_quandle,
    check_quandle,
    check_rack,
    conj_quandle,
    core_quandle,
    cyclic_group,
    dihedral_group,
    dihedral_quandle,
    klein_four_group,
    symmetric_group,
    transvection_quandle,
)
from .words import (
    NormalForm,
    QWord,
    frac_to_word,
    normal_form_valid,
    normalize,
    parse_word,
    word_op,
    word_op_inv,
    word_to_frac,
    words_equal,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BraidElement",
    "ContinuedFraction",
    "CoveredElement",
    "FiberMismatchError",
    "FiniteGroup",
    "FiniteQuandle",
    "IntPair",
    "LaurentQuotientRing",
    "NormalForm",
    "OrbitReport",
    "PFrac",
    "PF_INFINITY",
    "PF_ZERO",
    "QWord",
    "TransvectionMatrix",
    "alexander_quandle",
    "apply_matrix",
    "braid_eq",
    "cf_eval",
    "cf_expand",
    "cf_validate",
    "check_quandle",
    "check_rack",
    "conj_quandle",
    "core_quandle",
    "covering_p",
    "cyclic_group",
    "dihedral_group",
    "dihedral_quandle",
    "fiber_compare",
    "frac_to_word",
    "garside_eq",
    "klein_four_group",
    "lambda_act",
    "longitude",
    "meridian",
    "normal_form_valid",
    "normalize",
    "orbit_bfs",
    "parse_word",
    "pf_new",
    "pf_op",
    "pf_op_inv",
    "pf_op_pow",
    "pi1_act",
    "projectivize",
    "qt_new",
    "qt_op",
    "qt_op_inv",
    "render_braid",
    "symmetric_group",
    "sympl_form",
    "sympl_op",
    "sympl_op_inv",
    "transvection_matrix",
    "transvection_quandle",
    "word_op",
    "word_op_inv",
    "word_to_frac",
    "words_equal",
]

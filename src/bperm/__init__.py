"""
bperm: signed permutations, pattern avoidance, and exhaustive verification.

The central objects are signed permutations (windows of n signed integers
whose absolute values permute {1, ..., n}) together with two containment
orders: classical containment of signed patterns at positive positions, and
global containment of unsigned patterns anywhere in the 2n-letter mirror
word.  On top of these sit characterized families (vexillary, boolean, free,
smooth, Grassmannian), tableau-based counting, closed-form enumeration, and
a registry of desk-scale checks replaying the identities relating them.
"""
from .classes import (
    Not132AvoidingError,
    NotColayeredError,
    composition_of,
    is_bigrassmannian,
    is_boolean,
    is_colayered,
    is_free,
    is_grassmannian,
    is_smooth_B,
    is_smooth_BC,
    is_smooth_C,
    is_vexillary,
    signed_composition,
)
from .core import (
    DihedralSymmetry,
    InvalidOneLineError,
    InvalidWindowError,
    Permutation,
    SignedPermutation,
    signed_group_order,
    signed_permutations,
)
from .enumeration import (
    SizeCapExceededError,
    avoiders,
    count_gav_132_and_decreasing,
    count_gav_132_and_increasing,
    es_bound,
    es_extremal_count,
    fib_like,
    palindromic_composition_count,
    palindromic_compositions,
    sequence,
    unsigned_sequence,
)
from .harness import (
    Check,
    CheckReport,
    CheckRow,
    CHECKS,
    UnknownCheckError,
    run_all,
    run_check,
)
from .patterns import (
    PatternTooLargeError,
    classical_contains,
    count_global_occurrences,
    global_basis,
    global_contains,
    rc_reduce,
    unsigned_contains,
)
from .tableaux import (
    domino_count,
    domino_tableaux,
    is_domino_tileable,
    partitions,
    rs_shape,
    shape_of_signed,
    standard_tableaux,
    syt_count,
    two_core,
)

__version__ = "0.1.0"

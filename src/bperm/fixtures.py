"""
Versioned pattern-list and sequence fixtures.

The classical pattern lists below are the published characterizations of the
corresponding families of signed permutations; they are stored verbatim in
the shared text grammar so that tests can compare them against the bases
computed by `global_basis` instead of trusting either side.
"""
from __future__ import annotations

from .core import Permutation
from .patterns import parse_signed_patterns, parse_unsigned_patterns

# Classical signed patterns characterizing vexillary signed permutations
# (Billey-Lam); the matching global description is the single pattern 2143.
VEXILLARY_CLASSICAL = parse_signed_patterns(
    "2,1;"
    "-3,2,-1;"
    "2,-3,4,-1;"
    "-2,-3,4,-1;"
    "3,-4,-1,-2;"
    "-3,-4,1,-2;"
    "-3,-4,-1,-2;"
    "-4,1,-2,3;"
    "-4,-1,-2,3"
)
VEXILLARY_GLOBAL = parse_unsigned_patterns("2,1,4,3")

# Classical signed patterns characterizing boolean signed permutations
# (principal Bruhat order ideal a boolean lattice); globally: 321 and 3412.
BOOLEAN_CLASSICAL = parse_signed_patterns(
    "1,-2;"
    "-1,-2;"
    "-2,-1;"
    "3,2,1;"
    "3,2,-1;"
    "3,-2,1;"
    "-3,2,1;"
    "3,4,1,2;"
    "3,4,-1,2;"
    "-3,4,1,2"
)
BOOLEAN_GLOBAL = parse_unsigned_patterns("3,2,1;3,4,1,2")

# Classical signed patterns characterizing free signed permutations (all
# generators in reduced words commute); globally: 231, 312, 321.
FREE_CLASSICAL = parse_signed_patterns(
    "2,3,1;"
    "3,1,2;"
    "3,2,1;"
    "-2,1;"
    "-1,-2;"
    "-2,-1;"
    "2,-1;"
    "1,-2"
)
FREE_GLOBAL = parse_unsigned_patterns("2,3,1;3,1,2;3,2,1")

# Billey's classical patterns for signed permutations indexing smooth
# Schubert varieties of type B resp. type C (17 patterns each).
SMOOTH_B_CLASSICAL = parse_signed_patterns(
    "-2,-1;"
    "1,2,-3;"
    "1,-2,-3;"
    "-1,2,-3;"
    "2,-1,-3;"
    "-2,1,-3;"
    "3,-2,1;"
    "-2,-4,3,1;"
    "2,-4,3,1;"
    "3,4,1,2;"
    "3,4,-1,2;"
    "-3,4,1,2;"
    "4,1,3,-2;"
    "4,-1,3,-2;"
    "4,2,3,1;"
    "4,2,3,-1;"
    "-4,2,3,1"
)
SMOOTH_C_CLASSICAL = parse_signed_patterns(
    "1,-2;"
    "-2,-1,-3;"
    "3,-2,1;"
    "3,-2,-1;"
    "-3,2,-1;"
    "-3,-2,1;"
    "-3,-2,-1;"
    "-2,-4,3,1;"
    "3,4,1,2;"
    "3,4,-1,2;"
    "-3,4,1,2;"
    "-3,4,-1,2;"
    "-3,-4,-1,-2;"
    "4,-1,3,-2;"
    "4,2,3,1;"
    "4,2,3,-1;"
    "-4,2,3,1"
)

# Minimal-by-containment union of the two lists above: classical patterns
# characterizing the signed permutations smooth in both types at once;
# globally: 3412 and 4231.
SMOOTH_BC_CLASSICAL = parse_signed_patterns(
    "-2,-1;"
    "1,-2;"
    "3,-2,1;"
    "-2,-4,3,1;"
    "3,4,1,2;"
    "3,4,-1,2;"
    "-3,4,1,2;"
    "4,-1,3,-2;"
    "4,2,3,1;"
    "4,2,3,-1;"
    "-4,2,3,1"
)
SMOOTH_BC_GLOBAL = parse_unsigned_patterns("3,4,1,2;4,2,3,1")

# Conjectured global patterns for Grassmannian signed permutations (at most
# one descent); bigrassmannian adds the inverses of these.
GRASSMANNIAN_GLOBAL = parse_unsigned_patterns(
    "4,3,2,1;"
    "3,2,1,5,4;"
    "4,2,1,5,3;"
    "4,3,1,5,2;"
    "5,2,1,4,3;"
    "5,3,1,4,2;"
    "2,1,4,3,6,5;"
    "3,1,5,2,6,4;"
    "3,1,4,2,6,5;"
    "4,1,5,2,6,3"
)
BIGRASSMANNIAN_GLOBAL = tuple(
    sorted(
        {p for p in GRASSMANNIAN_GLOBAL}
        | {p.inverse() for p in GRASSMANNIAN_GLOBAL},
        key=lambda p: (p.size, p.oneline),
    )
)

# Gao-Hanni patterns characterizing 2-boolean permutations in the symmetric
# group (every generator at most twice in each reduced word); whether the
# same global patterns characterize the signed analogue is open.
TWO_BOOLEAN_GLOBAL = parse_unsigned_patterns(
    "3,4,2,1;"
    "4,3,1,2;"
    "4,3,2,1;"
    "4,5,6,1,2,3"
)

# Patterns whose unsigned avoidance characterizes smooth type-A Schubert
# varieties (Lakshmibai-Sandhya) and, avoided globally, smoothness in types
# B and C simultaneously.
SMOOTH_A_UNSIGNED = parse_unsigned_patterns("3,4,1,2;4,2,3,1")

# Unsigned colayered patterns: avoiding both is equivalent to being a
# sequence of increasing runs on strictly descending value blocks.
COLAYERED_UNSIGNED = parse_unsigned_patterns("1,3,2;2,1,3")

# Separable-pair patterns for the open-question sequence check below.
SEPARABLE_GLOBAL = parse_unsigned_patterns("2,4,1,3;3,1,4,2")

# Prefix of OEIS A115197 (offset 0) used by the "oq-a115197" check, which
# monitors whether that sequence enumerates the signed permutations globally
# avoiding {2413, 3142}.
#
# Provenance: entered by hand, without network access.  Terms for n <= 8
# equal the exhaustive enumeration of |GAV_n({2413, 3142})| carried out in
# this repository (tests recompute n <= 5 on every run); the identification
# of that count sequence with A115197 is exactly the open question being
# monitored.  Re-transcribe from the published b-file before raising the
# check's maximum size beyond the stored prefix.
A115197_PREFIX = (1, 2, 6, 22, 90, 394, 1806, 8558, 41586)

GAO_HANNI_LEFT = parse_unsigned_patterns("2,1,4,3")
GAO_HANNI_RIGHT = parse_unsigned_patterns("1,2,3,4")

PATTERN_132 = Permutation((1, 3, 2))

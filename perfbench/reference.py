"""
Reference values the benchmark checks bperm's outputs against.

Nothing here imports bperm: the formulas are recomputed in this file, and the
integers and check rows recorded from the commit that introduced the
benchmark are kept in this directory.  A program change that alters any of
them is a correctness failure of that operation, not a new baseline.
"""
from __future__ import annotations

import json
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Default caps of the 18 registered checks, and the status each must report.
# oq-two-boolean fails at n = 2 by design (documented in the project README):
# its conjectured pattern list is known to be incomplete.
CHECK_CAPS = {
    "conj-grassmannian": 5,
    "conj-smooth-count": 5,
    "cor-iota": 4,
    "lemma-symmetry": 4,
    "oq-a115197": 5,
    "oq-gao-hanni": 6,
    "oq-two-boolean": 4,
    "prop-es-signed": 6,
    "prop-es-unsigned": 6,
    "prop-gl-basis": 4,
    "thm-binomial-sum": 6,
    "thm-boolean": 4,
    "thm-central-binomial": 7,
    "thm-fib-like": 6,
    "thm-free": 5,
    "thm-greene-counts": 4,
    "thm-smooth-bc": 5,
    "thm-vexillary": 5,
}
EXPECTED_STATUS = {
    check: "pass" if check.startswith(("thm-", "prop-", "lemma-", "cor-"))
    else "conjecture-holds"
    for check in CHECK_CAPS
}
EXPECTED_STATUS["oq-two-boolean"] = "conjecture-fails"

# Every (n, expected, observed) row of `bperm verify` at default caps.
VERIFY_ROWS: dict[str, list[list]] = {
    check: entry["rows"]
    for check, entry in json.loads(
        (HERE / "verify_reference.json").read_text(encoding="utf-8")
    ).items()
}

# |GAV_n({3412, 4231})| for n = 1..7, which is also the number of signed
# permutations classically avoiding SMOOTH_BC_CLASSICAL below.
SMOOTH_BC_COUNTS = (2, 6, 22, 88, 366, 1552, 6652)

# The 11 classical patterns characterizing signed permutations smooth in
# types B and C at once (the count-dense workload's classical half).
SMOOTH_BC_CLASSICAL = (
    "-2,-1;1,-2;3,-2,1;-2,-4,3,1;3,4,1,2;3,4,-1,2;-3,4,1,2;"
    "4,-1,3,-2;4,2,3,1;4,2,3,-1;-4,2,3,1"
)


def central_binomial(n: int) -> int:
    """|GAV_n(321)| = |GAV_n(123)| = C(2n, n)."""
    return comb(2 * n, n)


def order_k_recurrence(k: int, i: int) -> int:
    """
    Term i (1-based) of the sequence that is 1 at index floor(k/2) + 1 and 0
    at the other indices up to k, then the sum of the previous k terms.
    """
    terms = [1 if index == k // 2 + 1 else 0 for index in range(1, k + 1)]
    while len(terms) < i:
        terms.append(sum(terms[-k:]))
    return terms[i - 1]


def fib_like_count(n: int) -> int:
    """|GAV_n({132, 123})|: the k = 2 recurrence at index n + 3."""
    return order_k_recurrence(2, n + 3)

"""
Acceptance suite: every criterion is exact (set equality or integer
equality, tolerance zero) and desk-scale.  One PASS/FAIL line is printed per
criterion; run with `pytest -s tests/test_acceptance.py` to see them live.
"""
from bperm.classes import (
    is_bigrassmannian,
    is_smooth_B,
    is_smooth_C,
    signed_composition,
)
from bperm.core import Permutation, SignedPermutation, signed_permutations
from bperm.enumeration import palindromic_composition_count, sequence
from bperm.harness import run_check
from bperm.patterns import global_contains


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _mismatches(report) -> str:
    return "; ".join(
        f"n={row.n}: expected {row.expected} observed {row.observed}"
        for row in report.rows
        if row.expected != row.observed
    )


def _criterion_from_check(name, check_id, max_n, expect_status):
    report = run_check(check_id, max_n)
    _report(
        name,
        report.status == expect_status,
        _mismatches(report) or f"{len(report.rows)} rows, {report.millis} ms",
    )
    return report


def test_criterion_01_vexillary_persistence():
    _criterion_from_check(
        "criterion-01 vexillary persistence (n <= 5)", "thm-vexillary", 5, "pass"
    )


def test_criterion_02_boolean_persistence():
    _criterion_from_check(
        "criterion-02 boolean persistence (n <= 4)", "thm-boolean", 4, "pass"
    )


def test_criterion_03_free_persistence():
    _criterion_from_check(
        "criterion-03 free persistence (n <= 5)", "thm-free", 5, "pass"
    )


def test_criterion_04_smooth_bc_persistence_and_witnesses():
    report = _criterion_from_check(
        "criterion-04 smooth B∩C persistence (n <= 5)", "thm-smooth-bc", 5, "pass"
    )
    assert any(row.expected == "witnesses-hold" for row in report.rows)
    w_c = SignedPermutation((-2, -1))
    w_b = SignedPermutation((1, -2))
    witnesses = (
        is_smooth_C(w_c)
        and global_contains(w_c, Permutation((3, 4, 1, 2)))
        and is_smooth_B(w_b)
        and global_contains(w_b, Permutation((4, 2, 3, 1)))
        and is_bigrassmannian(w_b)
        and global_contains(w_b, Permutation((3, 2, 1)))
    )
    _report("criterion-04b non-persistence witnesses", witnesses)


def test_criterion_05_central_binomial():
    report = _criterion_from_check(
        "criterion-05 central binomial (n <= 7)", "thm-central-binomial", 7, "pass"
    )
    count_rows = [row for row in report.rows if "B=" not in row.expected]
    observed = tuple(int(row.observed) for row in count_rows)
    _report(
        "criterion-05b counts are 2,6,20,70,252,924,3432",
        observed == (2, 6, 20, 70, 252, 924, 3432),
        str(observed),
    )
    domino_rows = [row for row in report.rows if "B=" in row.expected]
    _report(
        "criterion-05c two-row domino counts are binomials (n <= 5)",
        len(domino_rows) == 5
        and all(row.expected == row.observed for row in domino_rows),
    )


def test_criterion_06_greene_count_identities():
    _criterion_from_check(
        "criterion-06 squared-domino count identities (n <= 4)",
        "thm-greene-counts",
        4,
        "pass",
    )


def test_criterion_07_fibonacci_like():
    report = _criterion_from_check(
        "criterion-07 order-k recurrence counts (n <= 6, k <= 4)",
        "thm-fib-like",
        6,
        "pass",
    )
    fib_row = [row for row in report.rows if row.expected == "2,3,5,8,13,21"]
    _report("criterion-07b k=2 column is Fibonacci", len(fib_row) == 1)


def test_criterion_08_binomial_sums_and_palindromic_bijection():
    _criterion_from_check(
        "criterion-08 binomial-sum counts (n <= 6, k <= 5)",
        "thm-binomial-sum",
        6,
        "pass",
    )
    ok = all(
        count == palindromic_composition_count(2 * n) == 2**n
        for n, count in sequence([Permutation((1, 3, 2))], range(1, 7)).items()
    )
    _report("criterion-08b |GAV_n(132)| = palindromic compositions = 2^n", ok)


def test_criterion_09_erdos_szekeres():
    _criterion_from_check(
        "criterion-09a extremal monotone avoiders, unsigned (kj <= 6)",
        "prop-es-unsigned",
        6,
        "pass",
    )
    _criterion_from_check(
        "criterion-09b extremal monotone avoiders, signed (kj <= 6)",
        "prop-es-signed",
        6,
        "pass",
    )


def test_criterion_10_machinery():
    _criterion_from_check(
        "criterion-10a doubling embedding onto rc-invariants (n <= 4)",
        "cor-iota",
        4,
        "pass",
    )
    _criterion_from_check(
        "criterion-10b dihedral symmetry invariance, all P in S_3 (n <= 4)",
        "lemma-symmetry",
        4,
        "pass",
    )
    _criterion_from_check(
        "criterion-10c global classes are classical basis classes (n <= 4)",
        "prop-gl-basis",
        4,
        "pass",
    )


def test_criterion_11_conjecture_monitoring():
    _criterion_from_check(
        "criterion-11a grassmannian conjecture holds (n <= 5)",
        "conj-grassmannian",
        5,
        "conjecture-holds",
    )
    _criterion_from_check(
        "criterion-11b smooth-count conjecture holds (n <= 5)",
        "conj-smooth-count",
        5,
        "conjecture-holds",
    )
    _criterion_from_check(
        "criterion-11c |GAV_n(2143)| = |GAV_n(1234)| (n <= 6)",
        "oq-gao-hanni",
        6,
        "conjecture-holds",
    )
    _criterion_from_check(
        "criterion-11d A115197 prefix matches (n <= 5)",
        "oq-a115197",
        5,
        "conjecture-holds",
    )
    # The 2-boolean question is monitored but makes no claim either way; at
    # desk scale the answer is already negative (rank-2 longest element), and
    # that must be reported without failing the build.
    report = run_check("oq-two-boolean", 4)
    _report(
        "criterion-11e 2-boolean monitoring reports without breaking",
        report.status in ("conjecture-holds", "conjecture-fails"),
        report.status,
    )


def test_property_suite_greene_consistency_spot():
    # Statistic-level spine behind criterion 6, at one larger size.
    ok = True
    for w in signed_permutations(4):
        if global_contains(w, Permutation((1, 3, 2))):
            continue
        composition = signed_composition(w)
        if composition != tuple(reversed(composition)):
            ok = False
            break
    _report("property palindromic compositions at n=4", ok)

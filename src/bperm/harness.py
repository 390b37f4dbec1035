"""
The verification registry: each check replays one counting identity or set
equality across all sizes up to a cap, recording expected/observed pairs.
A check is one function `run(max_n, jobs) -> rows`, decorated with
`@_check(id, max_n, description)`, which enters it into `CHECKS`.

Checks whose id starts with "thm-", "prop-", "lemma-", or "cor-" verify
proved statements and report pass/fail; ids starting with "conj-" or "oq-"
monitor conjectures and open questions and report conjecture-holds or
conjecture-fails.  A conjecture failure is news, not an error: only theorem
failures make the command-line `verify` exit nonzero.

Rows come from shared builders: `_set_row` (a reference set against named
alternates), `_basis_row`, `_count_rows` (a reference count against a global
class's count) and `_formula_rows` (a closed form against brute force);
`_check_family` and `_check_es` each serve several checks.  The builders
share only the row format: each compared route is computed apart.  Every
signed count goes through `enumeration.sequence`, called once per pattern
set in a check for all the sizes that check needs, so each class is grown
once per check; `sequence` alone picks serial or pool, and no count is kept
between calls.  `lemma-symmetry` reads a per-size table of classes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, permutations as iter_permutations
from math import comb
from typing import Callable, Iterable, Sequence

from . import fixtures
from .classes import (
    is_bigrassmannian,
    is_boolean,
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
    Permutation,
    SignedPermutation,
    signed_group_order,
    signed_permutations,
)
from .enumeration import (
    MAX_SIGNED_SIZE,
    SizeCapExceededError,
    count_gav_132_and_decreasing,
    count_gav_132_and_increasing,
    es_bound,
    es_extremal_count,
    fib_like,
    palindromic_composition_count,
    sequence,
    unsigned_avoider_count,
)
from .patterns import (
    apply_symmetry_to_set,
    avoiders,
    classical_contains,
    format_pattern_set,
    global_basis,
    global_contains,
    rc_reduce,
    unsigned_contains,
)
from .tableaux import domino_count, is_domino_tileable, partitions


class UnknownCheckError(KeyError):
    """No check is registered under the given id."""


@dataclass(frozen=True)
class CheckRow:
    n: int
    expected: str
    observed: str


@dataclass(frozen=True)
class CheckReport:
    check: str
    status: str  # pass | fail | conjecture-holds | conjecture-fails
    max_n: int
    rows: tuple[CheckRow, ...]
    millis: int

    def ok(self) -> bool:
        return self.status in ("pass", "conjecture-holds")


@dataclass(frozen=True)
class Check:
    id: str
    description: str
    max_n: int
    run: Callable[[int, int], list[CheckRow]]

    @property
    def kind(self) -> str:
        return "conjecture" if self.id.startswith(("conj-", "oq-")) else "theorem"


CHECKS: dict[str, Check] = {}


def _check(check_id: str, max_n: int, description: str):
    """Register the decorated function as check `check_id`, with default cap `max_n`."""

    def register(run: Callable[[int, int], list[CheckRow]]):
        CHECKS[check_id] = Check(check_id, description, max_n, run)
        return run

    return register


def _set_row(n: int, reference: set, alternates: dict[str, set]) -> CheckRow:
    """A row whose expected and observed differ exactly when some set differs."""
    expected = str(len(reference))
    bad = {name: s for name, s in alternates.items() if s != reference}
    if not bad:
        return CheckRow(n, expected, expected)
    detail = ",".join(
        f"{name}:{len(s)}(delta={len(s ^ reference)})" for name, s in bad.items()
    )
    return CheckRow(n, expected, f"{expected} mismatch[{detail}]")


def _members(
    n: int, predicate: Callable[[SignedPermutation], bool]
) -> set[tuple[int, ...]]:
    """Windows of the size-n elements that satisfy `predicate`."""
    return {w.window for w in signed_permutations(n) if predicate(w)}


def _decreasing(m: int) -> Permutation:
    return Permutation(tuple(range(m, 0, -1)))


def _labelled(label: str, values: Iterable[int]) -> str:
    return f"{label}=" + ",".join(map(str, values))


def _count_rows(
    max_n: int,
    jobs: int,
    expected: Callable[[int], int],
    patterns: Sequence[Permutation],
) -> list[CheckRow]:
    """Per size 1..max_n, a reference count against the global class's count."""
    counts = sequence(patterns, range(1, max_n + 1), jobs=jobs)
    return [CheckRow(n, str(expected(n)), str(count)) for n, count in counts.items()]


def _canonical_pattern_text(patterns: Sequence[SignedPermutation]) -> str:
    return format_pattern_set(sorted(patterns, key=lambda q: (q.size, q.window)))


def _basis_row(
    reference: Sequence[SignedPermutation], computed: Sequence[SignedPermutation]
) -> CheckRow:
    return CheckRow(0, _canonical_pattern_text(reference), _canonical_pattern_text(computed))


def _check_family(
    global_patterns: Sequence[Permutation],
    classical_patterns: Sequence[SignedPermutation],
    structural: Callable[[SignedPermutation], bool],
    structural_name: str,
    max_n: int,
) -> list[CheckRow]:
    """A family's global class = its classical list = its structural criterion."""
    rows = [_basis_row(classical_patterns, global_basis(global_patterns))]
    for n in range(1, max_n + 1):
        reference = set(avoiders(n, global_patterns))
        alternates = {
            "classical": set(avoiders(n, classical_patterns)),
            structural_name: _members(n, structural),
        }
        rows.append(_set_row(n, reference, alternates))
    return rows


@_check("thm-boolean", 4, "global {321,3412} = classical 10-list = distinct-letter reduced words")
def _check_boolean(max_n: int, jobs: int) -> list[CheckRow]:
    return _check_family(
        fixtures.BOOLEAN_GLOBAL, fixtures.BOOLEAN_CLASSICAL, is_boolean, "reduced-words", max_n
    )


@_check("thm-free", 5, "global {231,312,321} = classical 8-list = sparse support")
def _check_free(max_n: int, jobs: int) -> list[CheckRow]:
    return _check_family(fixtures.FREE_GLOBAL, fixtures.FREE_CLASSICAL, is_free, "support", max_n)


@_check("thm-vexillary", 5, "global 2143-avoidance = classical 9-pattern list = computed basis")
def _check_vexillary(max_n: int, jobs: int) -> list[CheckRow]:
    # Vexillarity has no structural criterion: whole-group filters by the
    # predicate and the classical list meet the pruned walk in rows of their own.
    rows = [_basis_row(fixtures.VEXILLARY_CLASSICAL, global_basis(fixtures.VEXILLARY_GLOBAL))]
    predicate_rows = []
    for n in range(1, max_n + 1):
        reference = set(avoiders(n, fixtures.VEXILLARY_GLOBAL))
        classical = set(avoiders(n, fixtures.VEXILLARY_CLASSICAL))
        rows.append(_set_row(n, reference, {"classical": classical}))
        via_predicates = {
            "predicate-global": _members(n, is_vexillary),
            "predicate-classical": _members(
                n,
                lambda w: not any(
                    classical_contains(w, q) for q in fixtures.VEXILLARY_CLASSICAL
                ),
            ),
        }
        predicate_rows.append(_set_row(n, reference, via_predicates))
    return rows + predicate_rows


@_check("thm-smooth-bc", 5, "global {3412,4231} = classical 11-list = smooth in both types")
def _check_smooth_bc(max_n: int, jobs: int) -> list[CheckRow]:
    rows = _check_family(
        fixtures.SMOOTH_BC_GLOBAL, fixtures.SMOOTH_BC_CLASSICAL, is_smooth_BC, "B-and-C", max_n
    )
    # Smoothness in one type alone does not persist: each witness below is
    # smooth on one side yet globally contains a forbidden pattern.
    w_c = SignedPermutation((-2, -1))
    w_b = SignedPermutation((1, -2))
    witness = (
        is_smooth_C(w_c)
        and not is_smooth_B(w_c)
        and global_contains(w_c, Permutation((3, 4, 1, 2)))
        and is_smooth_B(w_b)
        and not is_smooth_C(w_b)
        and global_contains(w_b, Permutation((4, 2, 3, 1)))
        and is_bigrassmannian(w_b)
        and global_contains(w_b, Permutation((3, 2, 1)))
    )
    rows.append(CheckRow(2, "witnesses-hold", "witnesses-hold" if witness else "witnesses-fail"))
    return rows


@_check(
    "thm-central-binomial", 7, "|GAV_n(321)| = |GAV_n(123)| = C(2n,n), with two-row domino counts"
)
def _check_central_binomial(max_n: int, jobs: int) -> list[CheckRow]:
    rows = []
    sizes = range(1, max_n + 1)
    decreasing = sequence([_decreasing(3)], sizes, jobs=jobs)
    increasing = sequence([Permutation.identity(3)], sizes, jobs=jobs)
    for n in sizes:
        expected = str(comb(2 * n, n))
        c_dec, c_inc = decreasing[n], increasing[n]
        observed = str(c_dec) if c_dec == c_inc else f"321:{c_dec},123:{c_inc}"
        rows.append(CheckRow(n, expected, observed))
    for n in range(1, min(max_n, 5) + 1):
        binomials = [comb(n, k // 2) for k in range(n + 1)]
        counts = [
            domino_count((2 * n - k, k) if k else (2 * n,)) for k in range(n + 1)
        ]
        expected = _labelled("B", binomials) + f";sum={comb(2 * n, n)}"
        observed = _labelled("B", counts) + f";sum={sum(c * c for c in counts)}"
        rows.append(CheckRow(n, expected, observed))
    return rows


@_check("thm-greene-counts", 4, "monotone global avoiders counted by squared domino-tableau sums")
def _check_greene_counts(max_n: int, jobs: int) -> list[CheckRow]:
    # Avoiding 12..(k+1) bounds a shape's first row by k; avoiding
    # (j+1)..1 bounds its number of rows by j.
    # Each pattern is counted at the sizes n with k <= 2n, all in one sequence.
    sides = (("rows", Permutation.identity, lambda shape: shape[0]), ("cols", _decreasing, len))
    counts = {
        (label, k): sequence([monotone(k + 1)], range((k + 1) // 2, max_n + 1), jobs=jobs)
        for label, monotone, _ in sides
        for k in range(1, 2 * max_n + 1)
    }
    rows = []
    for n in range(1, max_n + 1):
        by_shape = {s: domino_count(s) for s in partitions(2 * n) if is_domino_tileable(s)}
        ks = range(1, 2 * n + 1)
        for label, _, extent in sides:
            observed = [counts[label, k][n] for k in ks]
            sums = [
                sum(c * c for shape, c in by_shape.items() if extent(shape) <= k)
                for k in ks
            ]
            rows.append(CheckRow(n, _labelled(label, sums), _labelled(label, observed)))
    return rows


def _closed_form(k: int, n: int) -> int:
    if 0 <= n <= k // 2:
        return 2**n
    return 2**n - 2 ** (n - k // 2 - 1)


def _formula_rows(
    max_n: int,
    jobs: int,
    formula: Callable[[int, int], int],
    monotone: Callable[[int], Permutation],
    ks: range,
) -> list[CheckRow]:
    """Per size 1..max_n, formula(n, k) against a brute-force count of {132, monotone(k+1)}."""
    sizes = range(1, max_n + 1)
    brutes = [sequence([fixtures.PATTERN_132, monotone(k + 1)], sizes, jobs=jobs) for k in ks]
    return [
        CheckRow(
            n,
            _labelled("formula", [formula(n, k) for k in ks]),
            _labelled("formula", [brute[n] for brute in brutes]),
        )
        for n in sizes
    ]


@_check("thm-fib-like", 6, "|GAV_n({132, 12..(k+1)})| satisfies the order-k recurrence")
def _check_fib_like(max_n: int, jobs: int) -> list[CheckRow]:
    rows = []
    for k in range(1, 11):
        expected = ",".join(str(_closed_form(k, i - k - 1)) for i in range(k + 1, 2 * k + 1))
        observed = ",".join(str(fib_like(k, i)) for i in range(k + 1, 2 * k + 1))
        rows.append(CheckRow(k, f"k={k}:{expected}", f"k={k}:{observed}"))
    rows += _formula_rows(
        max_n, jobs, count_gav_132_and_increasing, Permutation.identity, range(1, 5)
    )
    fib_expected = "2,3,5,8,13,21"
    fib_observed = ",".join(str(count_gav_132_and_increasing(n, 2)) for n in range(1, 7))
    rows.append(CheckRow(6, fib_expected, fib_observed))
    return rows


@_check(
    "thm-binomial-sum", 6, "|GAV_n({132, (k+1)k..1})| equals a binomial sum; 132-avoiders are 2^n"
)
def _check_binomial_sum(max_n: int, jobs: int) -> list[CheckRow]:
    rows = []
    formula_rows = _formula_rows(
        max_n, jobs, count_gav_132_and_decreasing, _decreasing, range(1, 6)
    )
    for n, formula_row in enumerate(formula_rows, start=1):
        rows.append(formula_row)
        pal = palindromic_composition_count(2 * n)
        members = [
            SignedPermutation(window) for window in avoiders(n, [fixtures.PATTERN_132])
        ]
        compositions = {signed_composition(w) for w in members}
        bijective = len(compositions) == len(members) and all(
            comp == tuple(reversed(comp)) for comp in compositions
        )
        expected = f"2^{n}={2**n}"
        observed = (
            f"2^{n}={pal}"
            if pal == len(members) and bijective
            else f"pal:{pal},gav:{len(members)},bijective:{bijective}"
        )
        rows.append(CheckRow(n, expected, observed))
    return rows


def _check_es(max_kj: int, jobs: int, signed: bool) -> list[CheckRow]:
    """Extremal {12..(k+1), (j+1)..1}-avoiders at the Erdős–Szekeres bound, none above."""
    rows = []
    for k in range(1, max_kj + 1):
        for j in range(1, max_kj // k + 1):
            patterns = [Permutation.identity(k + 1), _decreasing(j + 1)]
            bound = es_bound(k, j, signed=signed)
            extremal = es_extremal_count(k, j, signed=signed)
            sizes = (bound, bound + 1)
            if signed:
                counts = sequence(patterns, sizes, jobs=jobs)
            else:
                counts = {n: unsigned_avoider_count(n, patterns) for n in sizes}
            observed = f"{counts[bound]};{counts[bound + 1]}"
            rows.append(CheckRow(bound, f"k={k},j={j}:{extremal};0", f"k={k},j={j}:{observed}"))
    return rows


@_check(
    "prop-es-unsigned", 6, "extremal monotone avoiders in S_kj counted by squared rectangle tableaux"
)
def _check_es_unsigned(max_kj: int, jobs: int) -> list[CheckRow]:
    return _check_es(max_kj, jobs, signed=False)


@_check(
    "prop-es-signed", 6, "extremal monotone global avoiders counted by squared domino tableaux"
)
def _check_es_signed(max_kj: int, jobs: int) -> list[CheckRow]:
    return _check_es(max_kj, jobs, signed=True)


@_check("lemma-symmetry", 4, "dihedral symmetries preserve global avoidance counts")
def _check_symmetry(max_n: int, jobs: int) -> list[CheckRow]:
    s3 = [Permutation(p) for p in iter_permutations((1, 2, 3))]
    subsets = [frozenset(c) for r in range(1, len(s3) + 1) for c in combinations(s3, r)]
    expected = f"symmetric:{len(subsets) * len(DihedralSymmetry)};rc-stable:{len(subsets)}"
    rows = []
    for n in range(1, max_n + 1):
        # Each symmetric image and rc-reduction of a subset is again a subset, so
        # each side of a comparison is the class computed from its own pattern set.
        classes = {p: set(avoiders(n, p)) for p in subsets}
        symmetric_ok = sum(
            len(classes[apply_symmetry_to_set(p, symmetry)]) == len(classes[p])
            for p in subsets for symmetry in DihedralSymmetry
        )
        rc_ok = sum(classes[rc_reduce(p)] == classes[p] for p in subsets)
        rows.append(CheckRow(n, expected, f"symmetric:{symmetric_ok};rc-stable:{rc_ok}"))
    return rows


@_check("cor-iota", 4, "the doubling embedding hits exactly the rc-invariant permutations")
def _check_iota(max_n: int, jobs: int) -> list[CheckRow]:
    test_patterns = [Permutation(p) for p in iter_permutations((1, 2, 3))]
    test_patterns += [Permutation(p) for p in iter_permutations((1, 2, 3, 4))]
    rows = []
    for n in range(1, max_n + 1):
        image = {w.iota().oneline for w in signed_permutations(n)}
        rc_invariant = {
            word
            for word in iter_permutations(range(1, 2 * n + 1))
            if all(word[i] + word[2 * n - 1 - i] == 2 * n + 1 for i in range(n))
        }
        order = signed_group_order(n)
        transport_ok = all(
            global_contains(w, p) == unsigned_contains(w.iota(), p)
            for w in signed_permutations(n)
            for p in test_patterns
        )
        expected = f"image:{order};transport:ok"
        observed = (
            f"image:{len(image)};transport:{'ok' if transport_ok else 'broken'}"
            if image == rc_invariant
            else f"image:{len(image)}!=rc:{len(rc_invariant)};transport:-"
        )
        rows.append(CheckRow(n, expected, observed))
    return rows


_FEATURED_SETS: dict[str, tuple[Permutation, ...]] = {
    "2143": fixtures.VEXILLARY_GLOBAL,
    "321+3412": fixtures.BOOLEAN_GLOBAL,
    "231+312+321": fixtures.FREE_GLOBAL,
    "3412+4231": fixtures.SMOOTH_BC_GLOBAL,
}


@_check("prop-gl-basis", 4, "global classes equal classical classes of their computed bases")
def _check_gl_basis(max_n: int, jobs: int) -> list[CheckRow]:
    rows = []
    bases = {name: global_basis(patterns) for name, patterns in _FEATURED_SETS.items()}
    antichain_ok = all(
        not classical_contains(a, b)
        for basis in bases.values()
        for a in basis
        for b in basis
        if a != b
    )
    rows.append(
        CheckRow(0, "antichain", "antichain" if antichain_ok else "not-antichain")
    )
    for n in range(1, max_n + 1):
        names_bad = []
        sizes = []
        for name, patterns in _FEATURED_SETS.items():
            reference = set(avoiders(n, patterns))
            via_basis = set(avoiders(n, bases[name]))
            sizes.append(len(reference))
            if reference != via_basis:
                names_bad.append(name)
        expected = ",".join(map(str, sizes))
        observed = expected if not names_bad else expected + ";bad=" + ",".join(names_bad)
        rows.append(CheckRow(n, expected, observed))
    return rows


@_check("conj-grassmannian", 5, "(bi)grassmannian = global avoidance of the conjectured lists")
def _check_grassmannian(max_n: int, jobs: int) -> list[CheckRow]:
    rows = []
    for n in range(1, max_n + 1):
        group = list(signed_permutations(n))
        descents = {w.window for w in group if is_grassmannian(w)}
        bidescents = {w.window for w in group if is_bigrassmannian(w)}
        patterns = set(avoiders(n, fixtures.GRASSMANNIAN_GLOBAL))
        bipatterns = set(avoiders(n, fixtures.BIGRASSMANNIAN_GLOBAL))
        gr = _set_row(n, descents, {"global-patterns": patterns})
        bigr = _set_row(n, bidescents, {"global-patterns": bipatterns})
        expected = f"gr:{gr.expected};bigr:{bigr.expected}"
        rows.append(CheckRow(n, expected, f"gr:{gr.observed};bigr:{bigr.observed}"))
    return rows


@_check("conj-smooth-count", 5, "|GAV_n({3412,4231})| matches unsigned smooth counts one size up")
def _check_smooth_count(max_n: int, jobs: int) -> list[CheckRow]:
    expected = lambda n: unsigned_avoider_count(n + 1, fixtures.SMOOTH_A_UNSIGNED)
    return _count_rows(max_n, jobs, expected, fixtures.SMOOTH_BC_GLOBAL)


@_check("oq-gao-hanni", 6, "|GAV_n(2143)| = |GAV_n(1234)|")
def _check_gao_hanni(max_n: int, jobs: int) -> list[CheckRow]:
    left = sequence(fixtures.GAO_HANNI_LEFT, range(1, max_n + 1), jobs=jobs)
    return _count_rows(max_n, jobs, left.__getitem__, fixtures.GAO_HANNI_RIGHT)


@_check("oq-a115197", 5, "|GAV_n({2413,3142})| matches the stored OEIS A115197 prefix")
def _check_a115197(max_n: int, jobs: int) -> list[CheckRow]:
    # The stored prefix bounds the sizes compared, whatever max_n asks for.
    cap = min(max_n, len(fixtures.A115197_PREFIX) - 1)
    return _count_rows(cap, jobs, fixtures.A115197_PREFIX.__getitem__, fixtures.SEPARABLE_GLOBAL)


def _uses_each_generator_at_most_twice(w: SignedPermutation) -> bool:
    if w.length() > 2 * w.size:
        return False
    return all(
        max(word.count(letter) for letter in set(word)) <= 2 if word else True
        for word in w.all_reduced_words()
    )


@_check("oq-two-boolean", 4, "each-generator-at-most-twice vs global {3421,4312,4321,456123}")
def _check_two_boolean(max_n: int, jobs: int) -> list[CheckRow]:
    rows = []
    for n in range(1, max_n + 1):
        pattern_side = set(avoiders(n, fixtures.TWO_BOOLEAN_GLOBAL))
        word_side = _members(n, _uses_each_generator_at_most_twice)
        rows.append(_set_row(n, word_side, {"global-patterns": pattern_side}))
    return rows


def _valid_max_n(max_n: int) -> int:
    """`max_n` itself, if it is a size a check can run to; else ValueError."""
    if max_n < 0:
        raise ValueError(f"max_n {max_n} is negative")
    if max_n == 0:
        raise ValueError("max_n 0 checks nothing")
    if max_n > MAX_SIGNED_SIZE:
        raise SizeCapExceededError(f"max_n {max_n} exceeds cap {MAX_SIGNED_SIZE}")
    return max_n


def run_check(check_id: str, max_n: int | None = None, jobs: int = 1) -> CheckReport:
    """
    Run one registered check across sizes 1..max_n.  Mismatches are recorded,
    never raised; theorem checks report pass/fail and conjecture checks
    report conjecture-holds/conjecture-fails.  A check that raises fails with
    one row naming the exception; a bad id or max_n still raises.
    """
    try:
        check = CHECKS[check_id]
    except KeyError:
        raise UnknownCheckError(check_id) from None
    cap = _valid_max_n(check.max_n if max_n is None else max_n)
    start = time.perf_counter()
    try:
        rows = tuple(check.run(cap, jobs))
    except Exception as exc:  # a crashing check is a failed check, not bad input
        rows = (CheckRow(cap, "no error", f"{type(exc).__name__}: {exc}"),)
    millis = int((time.perf_counter() - start) * 1000)
    holds = all(row.expected == row.observed for row in rows)
    if check.kind == "theorem":
        status = "pass" if holds else "fail"
    else:
        status = "conjecture-holds" if holds else "conjecture-fails"
    return CheckReport(check_id, status, cap, rows, millis)


def run_all(max_n: int | None = None, jobs: int = 1) -> list[CheckReport]:
    """
    Run every registered check, ordered by id; each check runs at its own
    default cap, lowered to max_n when that is given.  Failures are collected,
    not fatal; a bad max_n raises before any check runs, as in `run_check`.
    """
    if max_n is not None:
        _valid_max_n(max_n)
    reports = []
    for check_id in sorted(CHECKS):
        check = CHECKS[check_id]
        cap = check.max_n if max_n is None else min(max_n, check.max_n)
        reports.append(run_check(check_id, cap, jobs))
    return reports


def any_theorem_failed(reports: Iterable[CheckReport]) -> bool:
    return any(report.status == "fail" for report in reports)

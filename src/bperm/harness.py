"""
The verification registry: each check replays one counting identity or set
equality across all sizes up to a cap, recording expected/observed pairs.
A check is one function `run(max_n) -> rows`, decorated with
`@_check(id, max_n, description)`, which enters it into `CHECKS`.

Checks whose id starts with "thm-", "prop-", "lemma-", or "cor-" verify
proved statements and report pass/fail; ids starting with "conj-" or "oq-"
monitor conjectures and open questions and report conjecture-holds or
conjecture-fails.  A conjecture failure is news, not an error: only theorem
failures make the command-line `verify` exit nonzero.

Each compared route is computed apart, as one per-size dict for all the
sizes its check needs.  A pattern route is one `enumeration.avoiders(patterns,
sizes)` call for its members or one `enumeration.sequence` call for its
counts, so each class is grown once per check.  A structural route is
generated from the family's definition (`classes.boolean_elements` and the
like) or, for a family with no generator, scanned: one `_members(sizes,
predicate)` call, which filters whole groups.  Rows are
built from those dicts by `_set_rows` (a reference set against named
alternates) and `_count_rows` (a reference count against an observed one);
`_basis_row` and `_formula_rows` (a closed form against brute force) serve
the rest, and `_check_family` and `_check_es` each serve several checks.
The builders share only the row format.  Nothing is kept between checks, so
`run_all` may spread whole checks over one pool; it alone starts processes,
and a check runs in the process that calls `run_check`.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, permutations as iter_permutations
from math import comb
from multiprocessing import Pool
from typing import Callable, Iterable, Sequence

from . import fixtures
from .classes import (
    bigrassmannian_elements,
    boolean_elements,
    free_elements,
    grassmannian_elements,
    is_bigrassmannian,
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
    avoiders,
    count_gav_132_and_decreasing,
    count_gav_132_and_increasing,
    es_bound,
    es_extremal_count,
    fib_like,
    palindromic_composition_count,
    sequence,
    unsigned_sequence,
)
from .patterns import (
    apply_symmetry_to_set,
    classical_contains,
    format_pattern_set,
    global_basis,
    global_contains,
    rc_reduce,
)
from .tableaux import domino_count, domino_tableaux, is_domino_tileable, partitions


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
    run: Callable[[int], list[CheckRow]]

    @property
    def kind(self) -> str:
        return "conjecture" if self.id.startswith(("conj-", "oq-")) else "theorem"


CHECKS: dict[str, Check] = {}


def _check(check_id: str, max_n: int, description: str):
    """Register the decorated function as check `check_id`, with default cap `max_n`."""

    def register(run: Callable[[int], list[CheckRow]]):
        CHECKS[check_id] = Check(check_id, description, max_n, run)
        return run

    return register


def _set_rows(reference: dict[int, set], alternates: dict[str, dict[int, set]]) -> list[CheckRow]:
    """Per size of `reference`, a row whose sides differ where some alternate's set differs."""
    rows = []
    for n, wanted in reference.items():
        expected = str(len(wanted))
        bad = {name: sets[n] for name, sets in alternates.items() if sets[n] != wanted}
        detail = ",".join(f"{name}:{len(s)}(delta={len(s ^ wanted)})" for name, s in bad.items())
        rows.append(CheckRow(n, expected, f"{expected} mismatch[{detail}]" if bad else expected))
    return rows


def _members(
    sizes: Iterable[int], predicate: Callable[[SignedPermutation], bool]
) -> dict[int, set[tuple[int, ...]]]:
    """Per size n, the windows of the elements of B_n that satisfy `predicate`."""
    return {n: {w.window for w in signed_permutations(n) if predicate(w)} for n in sizes}


def _decreasing(m: int) -> Permutation:
    return Permutation(tuple(range(m, 0, -1)))


def _labelled(label: str, values: Iterable[int]) -> str:
    return f"{label}=" + ",".join(map(str, values))


def _count_rows(reference: dict[int, int], observed: dict[int, int]) -> list[CheckRow]:
    """One row per size of `reference`: its count against the observed one."""
    return [CheckRow(n, str(count), str(observed[n])) for n, count in reference.items()]


def _canonical_pattern_text(patterns: Sequence[SignedPermutation]) -> str:
    return format_pattern_set(sorted(patterns, key=lambda q: (q.size, q.window)))


def _basis_row(
    reference: Sequence[SignedPermutation], computed: Sequence[SignedPermutation]
) -> CheckRow:
    return CheckRow(0, _canonical_pattern_text(reference), _canonical_pattern_text(computed))


def _check_family(
    global_patterns: Sequence[Permutation],
    classical_patterns: Sequence[SignedPermutation],
    structural_name: str,
    structural: dict[int, set[tuple[int, ...]]],
) -> list[CheckRow]:
    """A family's global class = its classical list = `structural`, at the latter's sizes."""
    rows = [_basis_row(classical_patterns, global_basis(global_patterns))]
    sizes = list(structural)
    reference = avoiders(global_patterns, sizes)
    alternates = {
        "classical": avoiders(classical_patterns, sizes),
        structural_name: structural,
    }
    return rows + _set_rows(reference, alternates)


@_check("thm-boolean", 4, "global {321,3412} = classical 10-list = distinct-letter reduced words")
def _check_boolean(max_n: int) -> list[CheckRow]:
    boolean = boolean_elements(range(1, max_n + 1))
    return _check_family(
        fixtures.BOOLEAN_GLOBAL, fixtures.BOOLEAN_CLASSICAL, "reduced-words", boolean
    )


@_check("thm-free", 5, "global {231,312,321} = classical 8-list = sparse support")
def _check_free(max_n: int) -> list[CheckRow]:
    free = free_elements(range(1, max_n + 1))
    return _check_family(fixtures.FREE_GLOBAL, fixtures.FREE_CLASSICAL, "support", free)


@_check("thm-vexillary", 5, "global 2143-avoidance = classical 9-pattern list = computed basis")
def _check_vexillary(max_n: int) -> list[CheckRow]:
    # Vexillarity has no structural criterion: whole-group filters by the
    # predicate and the classical list meet the grown classes in rows of their own.
    rows = [_basis_row(fixtures.VEXILLARY_CLASSICAL, global_basis(fixtures.VEXILLARY_GLOBAL))]
    sizes = range(1, max_n + 1)
    reference = avoiders(fixtures.VEXILLARY_GLOBAL, sizes)
    rows += _set_rows(reference, {"classical": avoiders(fixtures.VEXILLARY_CLASSICAL, sizes)})
    via_predicates = {
        "predicate-global": _members(sizes, is_vexillary),
        "predicate-classical": _members(
            sizes,
            lambda w: not any(classical_contains(w, q) for q in fixtures.VEXILLARY_CLASSICAL),
        ),
    }
    return rows + _set_rows(reference, via_predicates)


@_check("thm-smooth-bc", 5, "global {3412,4231} = classical 11-list = smooth in both types")
def _check_smooth_bc(max_n: int) -> list[CheckRow]:
    smooth = _members(range(1, max_n + 1), is_smooth_BC)
    rows = _check_family(
        fixtures.SMOOTH_BC_GLOBAL, fixtures.SMOOTH_BC_CLASSICAL, "B-and-C", smooth
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
def _check_central_binomial(max_n: int) -> list[CheckRow]:
    rows = []
    sizes = range(1, max_n + 1)
    decreasing = sequence([_decreasing(3)], sizes)
    increasing = sequence([Permutation.identity(3)], sizes)
    for n in sizes:
        expected = str(comb(2 * n, n))
        c_dec, c_inc = decreasing[n], increasing[n]
        observed = str(c_dec) if c_dec == c_inc else f"321:{c_dec},123:{c_inc}"
        rows.append(CheckRow(n, expected, observed))
    for n in range(1, min(max_n, 5) + 1):
        binomials = [comb(n, k // 2) for k in range(n + 1)]
        # Listed, not counted: the count is itself a binomial formula.
        shapes = [(2 * n - k, k) if k else (2 * n,) for k in range(n + 1)]
        counts = [sum(1 for _ in domino_tableaux(shape)) for shape in shapes]
        expected = _labelled("B", binomials) + f";sum={comb(2 * n, n)}"
        observed = _labelled("B", counts) + f";sum={sum(c * c for c in counts)}"
        rows.append(CheckRow(n, expected, observed))
    return rows


@_check("thm-greene-counts", 4, "monotone global avoiders counted by squared domino-tableau sums")
def _check_greene_counts(max_n: int) -> list[CheckRow]:
    # Avoiding 12..(k+1) bounds a shape's first row by k; avoiding
    # (j+1)..1 bounds its number of rows by j.
    # Each pattern is counted at the sizes n with k <= 2n, all in one sequence.
    sides = (("rows", Permutation.identity, lambda shape: shape[0]), ("cols", _decreasing, len))
    counts = {
        (label, k): sequence([monotone(k + 1)], range((k + 1) // 2, max_n + 1))
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
    formula: Callable[[int, int], int],
    monotone: Callable[[int], Permutation],
    ks: range,
) -> list[CheckRow]:
    """Per size 1..max_n, formula(n, k) against a brute-force count of {132, monotone(k+1)}."""
    sizes = range(1, max_n + 1)
    brutes = [sequence([fixtures.PATTERN_132, monotone(k + 1)], sizes) for k in ks]
    return [
        CheckRow(
            n,
            _labelled("formula", [formula(n, k) for k in ks]),
            _labelled("formula", [brute[n] for brute in brutes]),
        )
        for n in sizes
    ]


@_check("thm-fib-like", 6, "|GAV_n({132, 12..(k+1)})| satisfies the order-k recurrence")
def _check_fib_like(max_n: int) -> list[CheckRow]:
    rows = []
    for k in range(1, 11):
        expected = ",".join(str(_closed_form(k, i - k - 1)) for i in range(k + 1, 2 * k + 1))
        observed = ",".join(str(fib_like(k, i)) for i in range(k + 1, 2 * k + 1))
        rows.append(CheckRow(k, f"k={k}:{expected}", f"k={k}:{observed}"))
    rows += _formula_rows(max_n, count_gav_132_and_increasing, Permutation.identity, range(1, 5))
    fib_expected = "2,3,5,8,13,21"
    fib_observed = ",".join(str(count_gav_132_and_increasing(n, 2)) for n in range(1, 7))
    rows.append(CheckRow(6, fib_expected, fib_observed))
    return rows


@_check(
    "thm-binomial-sum", 6, "|GAV_n({132, (k+1)k..1})| equals a binomial sum; 132-avoiders are 2^n"
)
def _check_binomial_sum(max_n: int) -> list[CheckRow]:
    rows = []
    formula_rows = _formula_rows(max_n, count_gav_132_and_decreasing, _decreasing, range(1, 6))
    gav_132 = avoiders([fixtures.PATTERN_132], range(1, max_n + 1))
    for n, formula_row in enumerate(formula_rows, start=1):
        rows.append(formula_row)
        pal = palindromic_composition_count(2 * n)
        members = [SignedPermutation(window) for window in gav_132[n]]
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


def _check_es(max_kj: int, signed: bool) -> list[CheckRow]:
    """Extremal {12..(k+1), (j+1)..1}-avoiders at the Erdős–Szekeres bound, none above."""
    rows = []
    for k in range(1, max_kj + 1):
        for j in range(1, max_kj // k + 1):
            patterns = [Permutation.identity(k + 1), _decreasing(j + 1)]
            bound = es_bound(k, j, signed=signed)
            extremal = es_extremal_count(k, j, signed=signed)
            sizes = (bound, bound + 1)
            counts = sequence(patterns, sizes) if signed else unsigned_sequence(patterns, sizes)
            observed = f"{counts[bound]};{counts[bound + 1]}"
            rows.append(CheckRow(bound, f"k={k},j={j}:{extremal};0", f"k={k},j={j}:{observed}"))
    return rows


@_check(
    "prop-es-unsigned", 6, "extremal monotone avoiders in S_kj counted by squared rectangle tableaux"
)
def _check_es_unsigned(max_kj: int) -> list[CheckRow]:
    return _check_es(max_kj, signed=False)


@_check(
    "prop-es-signed", 6, "extremal monotone global avoiders counted by squared domino tableaux"
)
def _check_es_signed(max_kj: int) -> list[CheckRow]:
    return _check_es(max_kj, signed=True)


@_check("lemma-symmetry", 4, "dihedral symmetries preserve global avoidance counts")
def _check_symmetry(max_n: int) -> list[CheckRow]:
    s3 = [Permutation(p) for p in iter_permutations((1, 2, 3))]
    subsets = [frozenset(c) for r in range(1, len(s3) + 1) for c in combinations(s3, r)]
    expected = f"symmetric:{len(subsets) * len(DihedralSymmetry)};rc-stable:{len(subsets)}"
    rows = []
    sizes = range(1, max_n + 1)
    # Each symmetric image and rc-reduction of a subset is again a subset, so
    # each side of a comparison is the class computed from its own pattern set.
    classes = {p: avoiders(p, sizes) for p in subsets}
    images = [(p, apply_symmetry_to_set(p, s)) for p in subsets for s in DihedralSymmetry]
    reduced = [(p, rc_reduce(p)) for p in subsets]
    for n in sizes:
        symmetric_ok = sum(len(classes[image][n]) == len(classes[p][n]) for p, image in images)
        rc_ok = sum(classes[r][n] == classes[p][n] for p, r in reduced)
        rows.append(CheckRow(n, expected, f"symmetric:{symmetric_ok};rc-stable:{rc_ok}"))
    return rows


@_check("cor-iota", 4, "the doubling embedding hits exactly the rc-invariant permutations")
def _check_iota(max_n: int) -> list[CheckRow]:
    test_patterns = [Permutation(p) for p in iter_permutations((1, 2, 3))]
    test_patterns += [Permutation(p) for p in iter_permutations((1, 2, 3, 4))]
    zero_based = [(p, tuple(v - 1 for v in p.oneline)) for p in test_patterns]
    rows = []
    for n in range(1, max_n + 1):
        image, transport_ok = set(), True
        for w in signed_permutations(n):
            iota = w.iota().oneline
            image.add(iota)
            # iota(w)'s patterns of sizes 3 and 4, read off its index subsets
            # with 0-based ranks counted in place: not by the kernel, which the
            # global side uses, nor by rank_word, which builds iota.
            subsets = (s for k in (3, 4) for s in combinations(iota, k))
            in_iota = {tuple(map(sorted(s).index, s)) for s in subsets}
            transport_ok = transport_ok and all(
                global_contains(w, p) == (ranks in in_iota) for p, ranks in zero_based
            )
        # A word is rc-invariant iff its second half is the reversed complement
        # of its first: each is drawn from its first half, not from all of S_2n.
        rc_invariant = set()
        for head in iter_permutations(range(1, 2 * n + 1), n):
            word = head + tuple(2 * n + 1 - v for v in reversed(head))
            if len(set(word)) == 2 * n:
                rc_invariant.add(word)
        order = signed_group_order(n)
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
def _check_gl_basis(max_n: int) -> list[CheckRow]:
    bases = {name: global_basis(patterns) for name, patterns in _FEATURED_SETS.items()}
    antichain_ok = all(
        not classical_contains(a, b)
        for basis in bases.values()
        for a in basis
        for b in basis
        if a != b
    )
    rows = [CheckRow(0, "antichain", "antichain" if antichain_ok else "not-antichain")]
    sizes = range(1, max_n + 1)
    references = {name: avoiders(patterns, sizes) for name, patterns in _FEATURED_SETS.items()}
    via_bases = {name: avoiders(basis, sizes) for name, basis in bases.items()}
    for n in sizes:
        names_bad = [name for name in bases if references[name][n] != via_bases[name][n]]
        expected = ",".join(str(len(references[name][n])) for name in bases)
        observed = expected if not names_bad else expected + ";bad=" + ",".join(names_bad)
        rows.append(CheckRow(n, expected, observed))
    return rows


@_check("conj-grassmannian", 5, "(bi)grassmannian = global avoidance of the conjectured lists")
def _check_grassmannian(max_n: int) -> list[CheckRow]:
    sizes = range(1, max_n + 1)
    patterns = {"global-patterns": avoiders(fixtures.GRASSMANNIAN_GLOBAL, sizes)}
    gr = _set_rows(grassmannian_elements(sizes), patterns)
    bipatterns = {"global-patterns": avoiders(fixtures.BIGRASSMANNIAN_GLOBAL, sizes)}
    bigr = _set_rows(bigrassmannian_elements(sizes), bipatterns)
    return [
        CheckRow(g.n, f"gr:{g.expected};bigr:{b.expected}", f"gr:{g.observed};bigr:{b.observed}")
        for g, b in zip(gr, bigr)
    ]


@_check("conj-smooth-count", 5, "|GAV_n({3412,4231})| matches unsigned smooth counts one size up")
def _check_smooth_count(max_n: int) -> list[CheckRow]:
    unsigned = unsigned_sequence(fixtures.SMOOTH_A_UNSIGNED, range(2, max_n + 2))
    globally = sequence(fixtures.SMOOTH_BC_GLOBAL, range(1, max_n + 1))
    return _count_rows({n - 1: count for n, count in unsigned.items()}, globally)


@_check("oq-gao-hanni", 6, "|GAV_n(2143)| = |GAV_n(1234)|")
def _check_gao_hanni(max_n: int) -> list[CheckRow]:
    sizes = range(1, max_n + 1)
    left = sequence(fixtures.GAO_HANNI_LEFT, sizes)
    return _count_rows(left, sequence(fixtures.GAO_HANNI_RIGHT, sizes))


@_check("oq-a115197", 5, "|GAV_n({2413,3142})| matches the stored OEIS A115197 prefix")
def _check_a115197(max_n: int) -> list[CheckRow]:
    # The stored prefix bounds the sizes compared, whatever max_n asks for.
    sizes = range(1, min(max_n, len(fixtures.A115197_PREFIX) - 1) + 1)
    prefix = {n: fixtures.A115197_PREFIX[n] for n in sizes}
    return _count_rows(prefix, sequence(fixtures.SEPARABLE_GLOBAL, sizes))


def _uses_each_generator_at_most_twice(w: SignedPermutation) -> bool:
    if w.length() > 2 * w.size:
        return False
    return all(
        max(word.count(letter) for letter in set(word)) <= 2 if word else True
        for word in w.all_reduced_words()
    )


@_check("oq-two-boolean", 4, "each-generator-at-most-twice vs global {3421,4312,4321,456123}")
def _check_two_boolean(max_n: int) -> list[CheckRow]:
    sizes = range(1, max_n + 1)
    pattern_side = {"global-patterns": avoiders(fixtures.TWO_BOOLEAN_GLOBAL, sizes)}
    return _set_rows(_members(sizes, _uses_each_generator_at_most_twice), pattern_side)


def _valid_max_n(max_n: int) -> int:
    """`max_n` itself, if it is a size a check can run to; else ValueError."""
    if max_n < 0:
        raise ValueError(f"max_n {max_n} is negative")
    if max_n == 0:
        raise ValueError("max_n 0 checks nothing")
    if max_n > MAX_SIGNED_SIZE:
        raise SizeCapExceededError(f"max_n {max_n} exceeds cap {MAX_SIGNED_SIZE}")
    return max_n


def run_check(check_id: str, max_n: int | None = None) -> CheckReport:
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
        rows = tuple(check.run(cap))
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
    default cap, lowered to max_n when that is given.  With jobs > 1, whole
    checks run side by side on one pool of at most `jobs` processes, handed
    out one at a time in id order.  Failures are collected, not fatal; a bad
    max_n raises before any check runs, as in `run_check`.
    """
    if max_n is not None:
        _valid_max_n(max_n)
    caps = [
        (check_id, check.max_n if max_n is None else min(max_n, check.max_n))
        for check_id, check in sorted(CHECKS.items())
    ]
    if jobs <= 1:
        return [run_check(check_id, cap) for check_id, cap in caps]
    with Pool(processes=min(jobs, len(caps))) as pool:
        return pool.starmap(run_check, caps, chunksize=1)


def any_theorem_failed(reports: Iterable[CheckReport]) -> bool:
    return any(report.status == "fail" for report in reports)

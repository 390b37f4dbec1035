import functools
import gc
import types
from itertools import combinations, permutations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bperm.core import (
    DihedralSymmetry,
    Permutation,
    SignedPermutation,
    iter_windows,
    mirror_of_window,
    rank_word,
    signed_permutations,
)
from bperm.enumeration import palindromic_compositions, sequence
from bperm import patterns as patterns_module
from bperm.patterns import (
    PatternTooLargeError,
    _levels,
    apply_symmetry_to_set,
    avoiders,
    classical_contains,
    count_avoiders,
    count_global_occurrences,
    delete_window_entry,
    format_pattern_set,
    global_basis,
    global_contains,
    parse_signed_patterns,
    parse_unsigned_patterns,
    rc_reduce,
    signed_word_contains,
    unsigned_contains,
    word_contains,
)
from bperm.tableaux import domino_count, domino_tableaux, standard_tableaux
import bperm
from bperm import fixtures


def contains_oracle(word, pattern):
    """Exhaustive subsequence search: the independent containment oracle."""
    for subset in combinations(word, len(pattern)):
        if rank_word(subset) == tuple(pattern):
            return True
    return False


def signed_contains_oracle(window, pattern):
    k = len(pattern)
    for positions in combinations(range(len(window)), k):
        values = [window[i] for i in positions]
        if any((v > 0) != (p > 0) for v, p in zip(values, pattern)):
            continue
        if rank_word([abs(v) for v in values]) == tuple(abs(p) for p in pattern):
            return True
    return False


@st.composite
def word_and_pattern(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    k = draw(st.integers(min_value=1, max_value=6))
    word = draw(st.permutations(range(1, n + 1)))
    pattern = draw(st.permutations(range(1, k + 1)))
    return tuple(word), tuple(pattern)


def draw_signed_window(draw, n):
    values = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return tuple(s * v for s, v in zip(signs, values))


@st.composite
def window_and_signed_pattern(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.integers(min_value=1, max_value=5))
    return draw_signed_window(draw, n), draw_signed_window(draw, k)


@st.composite
def window_and_unsigned_pattern(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    k = draw(st.integers(min_value=1, max_value=5))
    return draw_signed_window(draw, n), tuple(draw(st.permutations(range(1, k + 1))))


class TestUnsignedContains:
    def test_examples(self):
        assert unsigned_contains(Permutation((4, 2, 3, 1)), Permutation((3, 2, 1)))
        assert not unsigned_contains(Permutation((3, 4, 1, 2)), Permutation((3, 2, 1)))

    @given(v=st.permutations(range(1, 7)))
    def test_self_containment(self, v):
        p = Permutation(tuple(v))
        assert unsigned_contains(p, p)

    @given(pair=word_and_pattern())
    @settings(max_examples=300)
    def test_matches_oracle(self, pair):
        word, pattern = pair
        assert word_contains(word, pattern) == contains_oracle(word, pattern)

    @pytest.mark.parametrize("contains, word, pattern, expected", [
        (word_contains, (2, 5, 1, 6, 3, 4), (3, 4, 1, 2), True),
        (word_contains, (4, 1, 3, 2), (2, 3, 1), False),
        (signed_word_contains, (-2, 5, 1, -6, 3, 4), (3, -4, 1, 2), True),
        (signed_word_contains, (-2, 5, 1, -6, 3, 4), (3, 4, 1, 2), False),
    ])
    def test_list_and_tuple_patterns_agree(self, contains, word, pattern, expected):
        # The mutation suite hands the kernels lists; plans are cached by tuple.
        assert contains(list(word), list(pattern)) == contains(word, pattern) == expected


class TestClassicalContains:
    def test_examples(self):
        w = SignedPermutation((-2, 1, 3, -4))
        assert classical_contains(w, SignedPermutation((-1, -2)))
        assert classical_contains(w, SignedPermutation((1, -2)))
        assert not classical_contains(SignedPermutation((1, 2, 3)), SignedPermutation((-1,)))

    @given(pair=window_and_signed_pattern())
    @example(pair=((2, -1), (1, 2, -3)))  # pattern longer than the window
    @example(pair=((3, -1, 2), (3, -1, 2)))  # as long as the window: equal
    @example(pair=((3, -1, 2), (2, -1, 3)))  # as long: the order differs
    @example(pair=((-1, 3, 2), (1, 3, 2)))  # as long: a sign differs
    @settings(max_examples=300)
    def test_matches_oracle(self, pair):
        window, pattern = pair
        assert classical_contains(
            SignedPermutation(window), SignedPermutation(pattern)
        ) == signed_contains_oracle(window, pattern)

    def test_matches_oracle_on_every_small_window(self):
        # Where the search may skip letters after a failure, a wrong skip
        # shows on a few percent of small cases: check all of them.
        patterns = [q for k in (1, 2, 3) for q in iter_windows(k)]
        for window in (w for n in range(5) for w in iter_windows(n)):
            for q in patterns:
                assert signed_word_contains(window, q) == signed_contains_oracle(window, q)


class TestProbeGarbage:
    def test_probes_leave_no_cyclic_garbage(self):
        # A recursive helper must not outlive its call in a reference cycle,
        # nor outlive a walk abandoned part way.
        smooth = [Permutation((3, 4, 1, 2)), Permutation((4, 2, 3, 1))]
        gc.collect()
        gc.disable()
        try:
            assert word_contains((2, 4, 1, 3), (2, 1))
            assert signed_word_contains((-2, 1, 3), (1, 2))
            assert len(SignedPermutation((-3, -2, -1)).all_reduced_words()) == 2
            assert count_avoiders(5, smooth) == 366
            assert next(avoiders(5, smooth)) == (-5, 1, 2, 3, 4)
            assert domino_count((4, 2, 2)) == len(list(domino_tableaux((4, 2, 2))))
            assert next(domino_tableaux((4, 2))) == ((1, 1, 2, 2), (3, 3))
            assert len(list(standard_tableaux((2, 1)))) == 2
            assert len(list(palindromic_compositions(4))) == 4
            window = next(iter_windows(5, first=-1, keep=lambda prefix: prefix[-1] > -5))
            assert window == (-1, -4, -3, -2, 5)
            assert next(standard_tableaux((3, 2))) == ((1, 2, 3), (4, 5))
            assert next(palindromic_compositions(6)) == (6,)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_no_nested_function_refers_to_itself(self):
        # A nested function that calls itself by name holds itself through its
        # closure cell, a reference cycle that outlives the call; recursive
        # walks are module-level functions instead.
        package = Path(bperm.__file__).parent
        stack = [compile(path.read_text(), path.name, "exec") for path in package.glob("*.py")]
        self_referring = []
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            if code.co_name in code.co_freevars:
                self_referring.append(f"{code.co_filename}:{code.co_firstlineno} {code.co_name}")
        assert self_referring == []


class TestGlobalContains:
    def test_running_example_contains_all_of_s3(self):
        w = SignedPermutation((-2, 1, 3, -4))
        for word in permutations((1, 2, 3)):
            assert global_contains(w, Permutation(word))

    def test_running_example_avoids_2143(self):
        assert not global_contains(SignedPermutation((-2, 1, 3, -4)), Permutation((2, 1, 4, 3)))

    def test_singleton(self):
        assert global_contains(SignedPermutation((1,)), Permutation((1, 2)))

    def test_every_element_contains_1(self):
        for w in signed_permutations(3):
            assert global_contains(w, Permutation((1,)))

    def test_agrees_with_iota_transport_exhaustive(self):
        # All elements of size <= 3 against every pattern up to the mirror length.
        for n in range(1, 4):
            patterns = [
                Permutation(word)
                for k in range(1, 2 * n + 1)
                for word in permutations(range(1, k + 1))
            ]
            for w in signed_permutations(n):
                image = w.iota()
                for p in patterns:
                    assert global_contains(w, p) == unsigned_contains(image, p)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_iota_transport_sampled_at_4(self, data):
        values = data.draw(st.permutations(range(1, 5)))
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4))
        w = SignedPermutation(tuple(s * v for s, v in zip(signs, values)))
        k = data.draw(st.integers(min_value=1, max_value=8))
        p = Permutation(tuple(data.draw(st.permutations(range(1, k + 1)))))
        assert global_contains(w, p) == unsigned_contains(w.iota(), p)

    def test_monotone_in_pattern_containment(self):
        # If p is contained in q, avoiding p is harder than avoiding q.
        smaller = [Permutation(w) for k in (2, 3) for w in permutations(range(1, k + 1))]
        larger = [Permutation(w) for k in (3, 4) for w in permutations(range(1, k + 1))]
        classes = {q: set(avoiders(3, [q])) for q in smaller + larger}
        for p in smaller:
            for q in larger:
                if p.size < q.size and unsigned_contains(q, p):
                    assert classes[p] <= classes[q]


class TestOccurrenceCounting:
    def test_counts_all_subsets(self):
        w = SignedPermutation((1,))
        assert count_global_occurrences(w, Permutation((1,))) == 2

    def test_monotone_count(self):
        w = SignedPermutation.identity(2)  # mirror word -2,-1,1,2
        assert count_global_occurrences(w, Permutation((1, 2))) == 6

    def test_zero_when_avoided(self):
        w = SignedPermutation((-2, 1, 3, -4))
        assert count_global_occurrences(w, Permutation((2, 1, 4, 3))) == 0

    @given(pair=window_and_unsigned_pattern())
    @settings(max_examples=300)
    def test_matches_subset_oracle(self, pair):
        window, pattern = pair
        w = SignedPermutation(window)
        p = Permutation(pattern)
        # Independent oracle: rank every index subset of the mirror word by sorting.
        mirror = w.mirror_word()
        expected = 0
        for subset in combinations(mirror, len(pattern)):
            order = sorted(subset)
            if tuple(order.index(v) + 1 for v in subset) == pattern:
                expected += 1
        count = count_global_occurrences(w, p)
        assert count == expected
        assert global_contains(w, p) == (count > 0)


class TestGav:
    def test_gav_132_at_size_two(self):
        members = set(avoiders(2, [Permutation((1, 3, 2))]))
        assert members == {(1, 2), (1, -2), (-1, -2), (-2, -1)}
        assert count_avoiders(2, [Permutation((1, 3, 2))]) == 4

    def test_gav_321_count(self):
        assert count_avoiders(3, [Permutation((3, 2, 1))]) == 20

    def test_gav_monotone_empty(self):
        assert list(avoiders(1, parse_unsigned_patterns("1,2;2,1"))) == []

    def test_streams_in_lexicographic_order(self):
        windows = list(avoiders(3, [Permutation((3, 2, 1))]))
        assert windows == sorted(windows)

    def test_gav_of_nothing_is_whole_group(self):
        assert count_avoiders(3, []) == 48


class TestClassicalAvoiders:
    def test_positive_windows_only(self):
        assert list(avoiders(1, [SignedPermutation((-1,))])) == [(1,)]

    def test_empty_pattern_set(self):
        assert sum(1 for _ in avoiders(2, [])) == 8

    def test_vexillary_classical_equals_global(self):
        lhs = set(avoiders(4, fixtures.VEXILLARY_CLASSICAL))
        rhs = set(avoiders(4, fixtures.VEXILLARY_GLOBAL))
        assert lhs == rhs


def _rank(values):
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def _signed_rank(values):
    """A signed subsequence as a signed pattern: its signs on its ranked absolute values."""
    ranks = _rank([abs(v) for v in values])
    return tuple(r if v > 0 else -r for r, v in zip(ranks, values))


def _mirror(window):
    return tuple(-v for v in reversed(window)) + tuple(window)


def _patterns_in(window, k, signed):
    """
    The size-k patterns a window contains, straight from the definitions
    (itertools plus ranking, no bperm kernel): unsigned ones among the
    subsequences of the mirror word, signed ones among the subsequences of the
    window, matching signs and ranked absolute values.
    """
    if signed:
        return {_signed_rank(sub) for sub in combinations(window, k)}
    return {_rank(sub) for sub in combinations(_mirror(window), k)}


def _group(n):
    return [
        tuple(sign * value for sign, value in zip(signs, values))
        for values in permutations(range(1, n + 1))
        for signs in product((1, -1), repeat=n)
    ]


@functools.lru_cache(maxsize=None)
def _group_patterns(n, k, signed):
    """For each window of size n, the size-k patterns it contains."""
    return {w: frozenset(_patterns_in(w, k, signed)) for w in _group(n)}


def avoiders_oracle(n, patterns):
    """The windows of the unpruned walk of size n avoiding every pattern, by `_group_patterns`."""
    words = [
        (p.window, _group_patterns(n, p.size, True)) if isinstance(p, SignedPermutation)
        else (p.oneline, _group_patterns(n, p.size, False))
        for p in patterns
    ]
    return [w for w in iter_windows(n) if not any(word in table[w] for word, table in words)]


@st.composite
def pattern_sets(draw):
    """Up to three patterns of size at most 4, all unsigned or all signed."""
    signed = draw(st.booleans())
    patterns = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        k = draw(st.integers(min_value=1, max_value=4))
        values = draw(st.permutations(range(1, k + 1)))
        if signed:
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
            patterns.append(SignedPermutation(tuple(s * v for s, v in zip(signs, values))))
        else:
            patterns.append(Permutation(tuple(values)))
    return patterns


class TestAvoidersOracle:
    # The examples pin the empty set and patterns too long to fit below size n
    # (longer than 2k globally, than k classically), beside ones that fit.
    @given(patterns=pattern_sets(), n=st.integers(min_value=0, max_value=5))
    @example(patterns=[], n=5)
    @example(patterns=[Permutation((3, 2, 1)), Permutation((1, 2, 3, 4, 5, 6))], n=4)
    @example(patterns=[Permutation((2, 1, 3, 4))], n=1)
    @example(patterns=[SignedPermutation((1, -2, 3, -4, 5))], n=4)
    @example(patterns=[SignedPermutation((-2, 1)), SignedPermutation((2, -1, 3, 4))], n=5)
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_in_both_orders(self, patterns, n):
        expected = avoiders_oracle(n, patterns)
        assert list(avoiders(n, patterns)) == sorted(expected)
        assert count_avoiders(n, patterns) == len(expected)
        if n:
            branches = [f for f in range(-n, n + 1) if f != 0]
            assert sum(count_avoiders(n, patterns, first=f) for f in branches) == len(expected)
        else:  # size 0 has no first entry, so no branch holds its one window
            assert count_avoiders(0, patterns, first=1) == 0

    def test_empty_set_is_whole_group(self):
        for n in range(5):
            assert count_avoiders(n, []) == 2**n * factorial(n)

    def test_no_level_is_stored_or_standardized_where_no_pattern_fits(self, monkeypatch):
        def standardize(prefix):
            raise AssertionError(f"standardized {prefix}")

        monkeypatch.setattr(patterns_module, "_standardize", standardize)
        assert _levels((), 6) == [None] * 6
        assert sequence([], range(6)) == {n: 2**n * factorial(n) for n in range(6)}
        assert count_avoiders(5, []) == 3840
        # A global pattern of size 5 first fits at size 3, a classical one of size 3 at 3.
        for patterns in [(Permutation((1, 2, 3, 4, 5)),), (SignedPermutation((1, -2, 3)),)]:
            assert _levels(patterns, 3) == [None] * 3
            assert count_avoiders(3, patterns) == len(avoiders_oracle(3, patterns))

    def test_mixed_types_rejected(self):
        mixed = [Permutation((2, 1)), SignedPermutation((-1,))]
        with pytest.raises(ValueError):
            avoiders(2, mixed)
        with pytest.raises(ValueError):
            count_avoiders(2, mixed)
        with pytest.raises(ValueError):
            sequence(mixed, range(1, 3))


class TestPrunedWalk:
    """`iter_windows` with a prefix test walks exactly the windows a filter keeps."""

    @pytest.mark.parametrize(
        "keep",
        [
            lambda prefix: (2, 1, 3) not in _patterns_in(prefix, 3, signed=False),
            lambda prefix: not _patterns_in(prefix, 4, signed=False) & {(3, 4, 1, 2), (4, 2, 3, 1)},
            lambda prefix: (-2, 1) not in _patterns_in(prefix, 2, signed=True),
            lambda prefix: not {(1, -2, 3), (-1, -2, -3)} & _patterns_in(prefix, 3, signed=True),
            lambda prefix: False,
        ],
        ids=["global-213", "global-3412-4231", "classical-(-2,1)", "classical-pair", "none"],
    )
    def test_pruning_equals_filtering(self, keep):
        for n in range(5):
            for first in [None, *range(-n - 1, n + 2)]:
                pruned = list(iter_windows(n, first, keep))
                assert pruned == list(filter(keep, iter_windows(n, first)))


class TestDeleteEntry:
    def test_reranks_and_keeps_signs(self):
        assert delete_window_entry((-2, 1, 3, -4), 2) == (-2, 1, -3)
        assert delete_window_entry((3, -1, 2), 0) == (-1, 2)

    @given(pair=window_and_signed_pattern())
    def test_deletion_is_classically_contained(self, pair):
        window, _ = pair
        for j in range(len(window)):
            smaller = delete_window_entry(window, j)
            assert signed_contains_oracle(window, smaller)


class TestGlobalBasis:
    def test_vexillary_basis_matches_published_list(self):
        basis = global_basis(fixtures.VEXILLARY_GLOBAL)
        assert set(basis) == set(fixtures.VEXILLARY_CLASSICAL)

    def test_boolean_basis_matches_published_list(self):
        basis = global_basis(fixtures.BOOLEAN_GLOBAL)
        assert set(basis) == set(fixtures.BOOLEAN_CLASSICAL)

    def test_free_basis_matches_published_list(self):
        basis = global_basis(fixtures.FREE_GLOBAL)
        assert set(basis) == set(fixtures.FREE_CLASSICAL)

    def test_smooth_bc_basis_matches_published_list(self):
        basis = global_basis(fixtures.SMOOTH_BC_GLOBAL)
        assert set(basis) == set(fixtures.SMOOTH_BC_CLASSICAL)

    def test_output_sorted_by_size_then_window(self):
        basis = global_basis(fixtures.BOOLEAN_GLOBAL)
        keys = [(q.size, q.window) for q in basis]
        assert keys == sorted(keys)

    def test_basis_is_antichain(self):
        for patterns in (fixtures.VEXILLARY_GLOBAL, fixtures.FREE_GLOBAL):
            basis = global_basis(patterns)
            for a in basis:
                for b in basis:
                    if a != b:
                        assert not classical_contains(a, b)

    def test_basis_members_globally_contain_a_pattern(self):
        basis = global_basis(fixtures.BOOLEAN_GLOBAL)
        for q in basis:
            assert any(
                contains_oracle(mirror_of_window(q.window), p.oneline)
                for p in fixtures.BOOLEAN_GLOBAL
            )

    def test_avoidance_classes_agree_for_every_featured_set(self):
        featured = [
            fixtures.VEXILLARY_GLOBAL,
            fixtures.BOOLEAN_GLOBAL,
            fixtures.FREE_GLOBAL,
            fixtures.SMOOTH_BC_GLOBAL,
            parse_unsigned_patterns("1,3,2"),
        ]
        for patterns in featured:
            basis = global_basis(patterns)
            for n in range(6):
                assert set(avoiders(n, patterns)) == set(avoiders(n, basis))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_avoidance_classes_agree_for_random_sets(self, data):
        count = data.draw(st.integers(min_value=1, max_value=3))
        patterns = []
        for _ in range(count):
            k = data.draw(st.integers(min_value=2, max_value=4))
            patterns.append(Permutation(tuple(data.draw(st.permutations(range(1, k + 1))))))
        basis = global_basis(patterns)
        for n in range(4):
            assert set(avoiders(n, patterns)) == set(avoiders(n, basis))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            global_basis([])

    def test_size_cap(self):
        with pytest.raises(PatternTooLargeError):
            global_basis([Permutation(tuple(range(1, 10)))])


class TestSymmetries:
    def test_symmetry_class_counts_equal(self):
        pats = [Permutation((1, 3, 2))]
        for symmetry in DihedralSymmetry:
            image = apply_symmetry_to_set(pats, symmetry)
            assert count_avoiders(3, image) == count_avoiders(3, pats)

    def test_complement_of_12(self):
        pats = [Permutation((1, 2))]
        image = apply_symmetry_to_set(pats, DihedralSymmetry.COMPLEMENT)
        assert (count_avoiders(2, pats), count_avoiders(2, image)) == (1, 1)

    def test_all_s3_s4_patterns_all_symmetries(self):
        patterns = [Permutation(p) for p in permutations((1, 2, 3))]
        patterns += [Permutation(p) for p in permutations((1, 2, 3, 4))]
        for n in range(1, 5):
            for p in patterns:
                base = count_avoiders(n, [p])
                for symmetry in DihedralSymmetry:
                    assert count_avoiders(n, [p.apply_symmetry(symmetry)]) == base

    def test_rc_identified_sets_have_equal_classes(self):
        # 123 and its rc are literally equal; 132's rc is 213.
        p132 = Permutation((1, 3, 2))
        p213 = Permutation((2, 1, 3))
        for n in range(4):
            assert set(avoiders(n, [p132])) == set(avoiders(n, [p213, p132]))


class TestRcReduce:
    def test_drops_rc_partner(self):
        reduced = rc_reduce(parse_unsigned_patterns("2,3,1;3,1,2"))
        assert reduced == {Permutation((2, 3, 1))}

    def test_rc_invariant_pattern_kept(self):
        reduced = rc_reduce([Permutation((3, 2, 1))])
        assert reduced == {Permutation((3, 2, 1))}

    def test_mixed_set(self):
        reduced = rc_reduce(parse_unsigned_patterns("1,3,2;2,1,3;3,2,1"))
        assert reduced == {Permutation((1, 3, 2)), Permutation((3, 2, 1))}

    def test_reduction_preserves_avoidance_class(self):
        patterns = parse_unsigned_patterns("2,3,1;3,1,2;2,1,4,3")
        reduced = rc_reduce(patterns)
        for n in range(5):
            assert set(avoiders(n, patterns)) == set(avoiders(n, reduced))


class TestTextGrammar:
    def test_parse_unsigned(self):
        pats = parse_unsigned_patterns("3,4,1,2;4,2,3,1")
        assert [p.oneline for p in pats] == [(3, 4, 1, 2), (4, 2, 3, 1)]

    def test_parse_signed(self):
        pats = parse_signed_patterns("-2,1;-1,-2")
        assert [q.window for q in pats] == [(-2, 1), (-1, -2)]

    def test_format_round_trip(self):
        text = "-2,1;-1,-2"
        assert format_pattern_set(parse_signed_patterns(text)) == text

import functools
import gc
import os
import subprocess
import sys
import types
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from bperm.core import (
    DihedralSymmetry,
    Permutation,
    SignedPermutation,
    grown,
    iter_windows,
    mirror_of_window,
    rank_word,
    signed_permutations,
)
from bperm import enumeration
from bperm.enumeration import _levels, avoiders, palindromic_compositions, sequence
from bperm import patterns as patterns_module
from bperm.patterns import (
    PatternTooLargeError,
    apply_symmetry_to_set,
    classical_contains,
    count_global_occurrences,
    delete_window_entry,
    format_pattern_set,
    global_basis,
    global_contains,
    parse_signed_patterns,
    parse_unsigned_patterns,
    rc_reduce,
    signed_word_contains,
    signed_word_contains_at_end,
    unsigned_contains,
    word_contains,
    word_contains_at_ends,
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


def signed_occurrence_oracle(window, pattern):
    """Exhaustive count of the position subsets matching `pattern` in order and sign."""
    count = 0
    for positions in combinations(range(len(window)), len(pattern)):
        values = [window[i] for i in positions]
        if any((v > 0) != (p > 0) for v, p in zip(values, pattern)):
            continue
        if rank_word([abs(v) for v in values]) == tuple(abs(p) for p in pattern):
            count += 1
    return count


@pytest.fixture(params=[1, 2, 3, None], ids=lambda size: f"nested-{size or 'default'}")
def nested(request, monkeypatch):
    """
    At most `size` pattern entries per generated search function (the
    default when None), so that small patterns cross the boundaries where
    one function hands the later entries to the next.
    """
    patterns_module._compiled.cache_clear()
    patterns_module._rotated.cache_clear()
    if request.param:
        monkeypatch.setattr(patterns_module, "_NESTED", request.param)
    yield request.param
    patterns_module._compiled.cache_clear()
    patterns_module._rotated.cache_clear()


# `nested` holds for every example of a test, so its function scope is meant.
oracle_settings = settings(
    max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


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
    @oracle_settings
    def test_matches_oracle(self, nested, pair):
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
    @oracle_settings
    def test_matches_oracle(self, nested, pair):
        window, pattern = pair
        assert classical_contains(
            SignedPermutation(window), SignedPermutation(pattern)
        ) == (signed_occurrence_oracle(window, pattern) > 0)

    def test_matches_oracle_on_every_small_window(self, nested):
        # Where the search may skip letters after a failure, a wrong skip
        # shows on a few percent of small cases: check all of them, deciding
        # and counting.
        patterns = [q for k in (1, 2, 3) for q in iter_windows(k)]
        for window in (w for n in range(5) for w in iter_windows(n)):
            for q in patterns:
                count = signed_occurrence_oracle(window, q)
                assert patterns_module._search(window, q, True, None) == count
                assert signed_word_contains(window, q) == (count > 0)


class TestProbeGarbage:
    def test_probes_leave_no_cyclic_garbage(self):
        # A recursive helper must not outlive its call in a reference cycle,
        # nor outlive a walk abandoned part way, and a compiled search must
        # be freed with its cache entry.
        smooth = [Permutation((3, 4, 1, 2)), Permutation((4, 2, 3, 1))]
        caches = [patterns_module._compiled, patterns_module._rotated]
        gc.collect()
        gc.disable()
        try:
            for cache in caches:
                cache.cache_clear()
            assert word_contains((2, 4, 1, 3), (2, 1))
            assert signed_word_contains((-2, 1, 3), (1, 2))
            assert len(SignedPermutation((-3, -2, -1)).all_reduced_words()) == 2
            assert min(avoiders(smooth, [5])[5]) == (-5, 1, 2, 3, 4)
            assert next(_levels(tuple(smooth), 4)) is None  # a generator left part way
            assert domino_count((4, 2, 2)) == len(list(domino_tableaux((4, 2, 2))))
            assert next(domino_tableaux((4, 2))) == ((1, 1, 2, 2), (3, 3))
            assert len(list(standard_tableaux((2, 1)))) == 2
            assert len(list(palindromic_compositions(4))) == 4
            assert next(grown(None, 5)) == (-5, -4, -3, -2, 1)
            assert next(standard_tableaux((3, 2))) == ((1, 2, 3), (4, 5))
            assert next(palindromic_compositions(6)) == (6,)
            assert patterns_module._search(tuple(range(1, 33)), range(1, 32), False, None) == 32
            for cache in caches:
                cache.cache_clear()
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
        classes = {q: avoiders([q], [3])[3] for q in smaller + larger}
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
    @oracle_settings
    def test_matches_subset_oracle(self, nested, pair):
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


class TestLongestPatterns:
    # The search nests one loop per pattern entry, at most `_NESTED` to a
    # generated function: patterns as long as a mirror word (32 letters)
    # span two functions, in both orders and both modes.
    def test_global_count_at_depth_32(self):
        w = SignedPermutation.identity(16)  # mirror word -16..-1, 1..16
        assert count_global_occurrences(w, Permutation.identity(32)) == 1
        assert count_global_occurrences(w, Permutation.identity(31)) == 32

    def test_unsigned_decide_at_depth_32(self):
        word = tuple(range(1, 33))
        assert word_contains(word, word)
        assert not word_contains(word, word[::-1])

    def test_signed_at_depth_16(self):
        window = SignedPermutation.identity(16).window
        assert signed_word_contains(window, window)
        assert patterns_module._search(window, window, True, None) == 1
        assert not signed_word_contains(window, tuple(-v for v in window))


class TestCompiledLoops:
    def test_importing_and_help_compile_no_pattern(self):
        # A fresh interpreter, as the cache lives as long as the process.
        code = (
            "import contextlib, io\n"
            "import bperm.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            "    bperm.cli.main(['--help'])\n"
            "print(bperm.patterns._compiled.cache_info().currsize)\n"
        )
        src = str(Path(bperm.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True)
        assert run.stdout == "0\n"

    @pytest.mark.parametrize(
        "patterns", [fixtures.SMOOTH_BC_GLOBAL, fixtures.SMOOTH_BC_CLASSICAL],
        ids=["global", "classical"],
    )
    def test_a_repeated_count_compiles_nothing_more(self, patterns):
        sequence(patterns, range(1, 6))
        compiled = patterns_module._compiled.cache_info()
        rotated = patterns_module._rotated.cache_info()
        assert compiled.currsize > 0 and rotated.currsize > 0
        sequence(patterns, range(1, 6))
        assert patterns_module._compiled.cache_info().misses == compiled.misses
        assert patterns_module._rotated.cache_info().misses == rotated.misses


class TestGav:
    def test_gav_132_at_size_two(self):
        members = avoiders([Permutation((1, 3, 2))], [2])
        assert members == {2: {(1, 2), (1, -2), (-1, -2), (-2, -1)}}

    def test_gav_321_count(self):
        assert len(avoiders([Permutation((3, 2, 1))], [3])[3]) == 20

    def test_gav_monotone_empty(self):
        assert avoiders(parse_unsigned_patterns("1,2;2,1"), [1]) == {1: frozenset()}

    def test_sizes_come_in_ascending_order(self):
        assert list(avoiders([Permutation((3, 2, 1))], [3, 1, 2, 1])) == [1, 2, 3]

    def test_gav_of_nothing_is_whole_group(self):
        assert len(avoiders([], [3])[3]) == 48


class TestClassicalAvoiders:
    def test_positive_windows_only(self):
        assert avoiders([SignedPermutation((-1,))], [1]) == {1: {(1,)}}

    def test_empty_pattern_set(self):
        assert len(avoiders([], [2])[2]) == 8

    def test_vexillary_classical_equals_global(self):
        lhs = avoiders(fixtures.VEXILLARY_CLASSICAL, range(5))
        rhs = avoiders(fixtures.VEXILLARY_GLOBAL, range(5))
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
    """The windows of size n avoiding every pattern, filtered from B_n by `_group_patterns`."""
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


# Unsorted size lists with repeats, each holding 0.
size_lists = st.lists(st.integers(min_value=0, max_value=5), max_size=4).flatmap(
    lambda sizes: st.permutations([0, *sizes])
)


class TestAvoidersOracle:
    # The examples pin the empty set and patterns too long to fit below some
    # size (longer than 2k globally, than k classically), beside ones that fit.
    @given(patterns=pattern_sets(), sizes=size_lists)
    @example(patterns=[], sizes=[5, 0, 5])
    @example(patterns=[Permutation((3, 2, 1)), Permutation((1, 2, 3, 4, 5, 6))], sizes=[4, 0, 2])
    @example(patterns=[Permutation((2, 1, 3, 4))], sizes=[1, 0, 1])
    @example(patterns=[SignedPermutation((1, -2, 3, -4, 5))], sizes=[4, 4, 0])
    @example(patterns=[SignedPermutation((-2, 1)), SignedPermutation((2, -1, 3, 4))], sizes=[5, 0])
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_in_both_orders(self, patterns, sizes):
        members = avoiders(patterns, sizes)
        counts = sequence(patterns, sizes)
        assert list(members) == sorted(set(sizes))
        for n, windows in members.items():
            assert windows == frozenset(avoiders_oracle(n, patterns))
            assert len(windows) == counts[n]

    def test_empty_set_is_whole_group(self):
        orders = {n: 2**n * factorial(n) for n in range(5)}
        assert {n: len(windows) for n, windows in avoiders([], range(5)).items()} == orders
        assert sequence([], range(5)) == orders

    def test_nothing_is_grown_where_no_pattern_fits(self, monkeypatch):
        def no_growth(previous, k):
            raise AssertionError(f"grew size {k}")

        monkeypatch.setattr(enumeration, "grown", no_growth)
        assert list(_levels((), 6)) == [None] * 6
        assert sequence([], range(6)) == {n: 2**n * factorial(n) for n in range(6)}
        assert len(avoiders([], [5])[5]) == 3840
        # A global pattern of size 5 first fits at size 3, a classical one of size 3 at 3.
        for patterns in [(Permutation((1, 2, 3, 4, 5)),), (SignedPermutation((1, -2, 3)),)]:
            assert list(_levels(patterns, 3)) == [None] * 3
        monkeypatch.undo()
        for patterns in [(Permutation((1, 2, 3, 4, 5)),), (SignedPermutation((1, -2, 3)),)]:
            assert avoiders(patterns, [3])[3] == frozenset(avoiders_oracle(3, patterns))

    def test_the_empty_pattern_is_in_every_window(self):
        # The one pattern that fits at size 0: A_0 is grown from the empty
        # B_(-1), and that is right, as no window avoids it.
        for empty in [Permutation(()), SignedPermutation(())]:
            assert avoiders([empty], range(4)) == dict.fromkeys(range(4), frozenset())
        assert sequence([Permutation(())], range(4)) == dict.fromkeys(range(4), 0)

    def test_mixed_types_rejected(self):
        mixed = [Permutation((2, 1)), SignedPermutation((-1,))]
        for sizes in ([2], []):
            with pytest.raises(ValueError):
                avoiders(mixed, sizes)
            with pytest.raises(ValueError):
                sequence(mixed, sizes)

    @pytest.mark.parametrize("engine", [avoiders, sequence])
    @pytest.mark.parametrize(
        "sizes, error",
        [([-1], ValueError), ([3, -1, 2], ValueError),
         ([9], bperm.SizeCapExceededError), ([2, 9, 1], bperm.SizeCapExceededError)],
    )
    def test_bad_sizes_are_rejected_before_any_growth(self, monkeypatch, engine, sizes, error):
        def no_growth(previous, k):
            raise AssertionError(f"grew size {k}")

        monkeypatch.setattr(enumeration, "grown", no_growth)
        with pytest.raises(error, match="sizes"):
            engine([Permutation((2, 1))], sizes)
        assert bperm.SizeCapExceededError is enumeration.SizeCapExceededError

    @pytest.mark.parametrize(
        "patterns",
        [[], [Permutation(tuple(range(1, 18)))], [SignedPermutation(tuple(range(1, 10)))]],
    )
    def test_the_whole_top_group_is_refused_before_anything_is_built(self, monkeypatch, patterns):
        # Where no pattern fits at MAX_SIGNED_SIZE, the members there are all
        # 10,321,920 windows of B_8: `avoiders` refuses them, `sequence` counts them.
        def build(*args):
            raise AssertionError("built windows")

        monkeypatch.setattr(enumeration, "iter_windows", build)
        monkeypatch.setattr(enumeration, "grown", build)
        with pytest.raises(bperm.SizeCapExceededError, match="all of B_8.*`sequence` counts"):
            avoiders(patterns, [2, enumeration.MAX_SIGNED_SIZE])
        assert sequence(patterns, [8]) == {8: 10321920}


class TestPrunedWalk:
    """
    Growth from the windows of size k - 1 passing a test, a test that holds
    for a window's first k - 1 entries re-ranked whenever it holds for the
    window, then filtered by the test, gives exactly the size-k windows a
    filter of B_k keeps, each once.
    """

    @pytest.mark.parametrize(
        "test",
        [
            lambda window: (2, 1, 3) not in _patterns_in(window, 3, signed=False),
            lambda window: not _patterns_in(window, 4, signed=False) & {(3, 4, 1, 2), (4, 2, 3, 1)},
            lambda window: (-2, 1) not in _patterns_in(window, 2, signed=True),
            lambda window: not {(1, -2, 3), (-1, -2, -3)} & _patterns_in(window, 3, signed=True),
            lambda window: False,
        ],
        ids=["global-213", "global-3412-4231", "classical-(-2,1)", "classical-pair", "none"],
    )
    def test_pruning_equals_filtering(self, test):
        test = functools.lru_cache(maxsize=None)(test)  # each window is tested up to three times
        for k in range(1, 6):
            filtered = list(filter(test, iter_windows(k)))
            below = list(filter(test, iter_windows(k - 1)))
            # Sorting keeps repeats, so a window grown twice fails the comparison.
            assert sorted(filter(test, grown(below, k))) == filtered
            assert sorted(filter(test, grown(None, k))) == filtered


@st.composite
def grown_child_and_pattern(draw):
    """
    (signed, parent, child, pattern): a pattern, unsigned or signed, a window
    of size at most 3 avoiding it (by `_patterns_in`, no bperm kernel), and
    one of the parent's children from `grown`.
    """
    signed = draw(st.booleans())
    size = draw(st.integers(min_value=1, max_value=5 if signed else 6))
    pattern = (draw_signed_window(draw, size) if signed
               else tuple(draw(st.permutations(range(1, size + 1)))))
    k = draw(st.integers(min_value=1, max_value=4))
    parents = [w for w in iter_windows(k - 1) if pattern not in _patterns_in(w, size, signed)]
    assume(parents)
    parent = draw(st.sampled_from(parents))
    return signed, parent, draw(st.sampled_from(list(grown([parent], k)))), pattern


class TestAnchoredSearch:
    """
    A child from `grown` of an avoiding window contains a pattern only
    through its appended entry, so the anchored kernels, which search only
    the occurrences using that entry, answer as the whole-word ones do.
    """

    @given(case=grown_child_and_pattern())
    # Every occurrence uses both mirror ends, -w(k) and w(k): one, then two.
    @example(case=(False, (-2, 1), (-2, 1, 3), (1, 2, 4, 3, 5)))
    @example(case=(False, (-3, -2, -1), (-3, -2, -1, 4), (1, 2, 3, 4, 5)))
    # Patterns longer than the child's mirror word, or than the child.
    @example(case=(False, (), (-1,), (2, 1, 3)))
    @example(case=(True, (1,), (1, -2), (1, -2, 3)))
    @settings(oracle_settings, deadline=None)
    def test_anchored_equals_whole_on_grown_children(self, nested, case):
        signed, parent, child, pattern = case
        assert pattern not in _patterns_in(parent, len(pattern), signed)
        assert child in set(grown([parent], len(child)))
        if signed:
            assert signed_word_contains_at_end(child, pattern) == signed_word_contains(child, pattern)
        else:
            mirror = mirror_of_window(child)
            assert word_contains_at_ends(mirror, pattern) == word_contains(mirror, pattern)

    @given(pair=word_and_pattern())
    @oracle_settings
    def test_global_anchor_finds_the_occurrences_through_an_end(self, nested, pair):
        word, pattern = pair
        occurrences = Counter(rank_word(sub) for sub in combinations(word, len(pattern)))
        inner = Counter(rank_word(sub) for sub in combinations(word[1:-1], len(pattern)))
        assert word_contains_at_ends(word, pattern) == (occurrences[pattern] > inner[pattern])

    @given(pair=window_and_signed_pattern())
    @oracle_settings
    def test_classical_anchor_finds_the_occurrences_through_the_last_entry(self, nested, pair):
        window, pattern = pair
        through_last = (signed_occurrence_oracle(window, pattern)
                        - signed_occurrence_oracle(window[:-1], pattern))
        assert signed_word_contains_at_end(window, pattern) == (through_last > 0)

    def test_the_empty_pattern_occurs_at_the_ends_of_every_word(self):
        for word in [(), (1,), (-1, 1), (2, -1, 1, -2)]:
            assert word_contains_at_ends(word, ())
            assert signed_word_contains_at_end(word, ())

    @pytest.mark.parametrize(
        "patterns",
        [fixtures.SMOOTH_BC_GLOBAL, fixtures.SMOOTH_BC_CLASSICAL,
         [Permutation((1, 2, 3, 4, 5))], [SignedPermutation((2, -3, 1))]],
        ids=["smooth-global", "smooth-classical", "12345", "(2,-3,1)"],
    )
    def test_only_children_of_filtered_levels_are_searched_anchored(self, monkeypatch, patterns):
        # The children of B_(k-1), where no pattern fits at k - 1 (a None
        # level, and the first sizes of global_basis), are searched whole.
        patterns = tuple(patterns)
        globally = isinstance(patterns[0], Permutation)
        anchored = {"word_contains_at_ends", "signed_word_contains_at_end"}
        seen = set()
        for kernel in patterns_module.KERNELS:
            def recorded(word, pattern, original=kernel):
                size = len(word) // 2 if globally else len(word)
                seen.add((original.__name__ in anchored, size))
                return original(word, pattern)

            monkeypatch.setattr(patterns_module, kernel.__name__, recorded)
        sequence(patterns, range(7))
        avoiders(patterns, [5])
        if globally:
            global_basis(patterns)
        assert {anchored for anchored, _ in seen} == {False, True}
        assert all(anchored == patterns_module._fits(patterns, size - 1) for anchored, size in seen)


class TestDeleteEntry:
    def test_reranks_and_keeps_signs(self):
        assert delete_window_entry((-2, 1, 3, -4), 2) == (-2, 1, -3)
        assert delete_window_entry((3, -1, 2), 0) == (-1, 2)

    @given(pair=window_and_signed_pattern())
    def test_deletion_is_classically_contained(self, pair):
        window, _ = pair
        for j in range(len(window)):
            smaller = delete_window_entry(window, j)
            assert signed_occurrence_oracle(window, smaller) > 0


def basis_by_scan(patterns):
    """
    The whole-group definition of the basis: the windows of B_1..B_m (m the
    largest pattern size) that globally contain a pattern, and whose
    single-entry deletions all avoid every pattern.
    """
    m = max(p.size for p in patterns)
    members = {
        window
        for size in range(1, m + 1)
        for window in iter_windows(size)
        if any(word_contains(mirror_of_window(window), p.oneline) for p in patterns)
    }
    return tuple(
        SignedPermutation(window)
        for window in sorted(members, key=lambda w: (len(w), w))
        if all(delete_window_entry(window, j) not in members for j in range(len(window)))
    )


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
            assert avoiders(patterns, range(6)) == avoiders(basis, range(6))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_avoidance_classes_agree_for_random_sets(self, data):
        count = data.draw(st.integers(min_value=1, max_value=3))
        patterns = []
        for _ in range(count):
            k = data.draw(st.integers(min_value=2, max_value=4))
            patterns.append(Permutation(tuple(data.draw(st.permutations(range(1, k + 1))))))
        basis = global_basis(patterns)
        assert avoiders(patterns, range(4)) == avoiders(basis, range(4))

    @pytest.mark.parametrize(
        "patterns",
        [fixtures.VEXILLARY_GLOBAL, fixtures.BOOLEAN_GLOBAL, fixtures.FREE_GLOBAL,
         fixtures.SMOOTH_BC_GLOBAL, fixtures.GRASSMANNIAN_GLOBAL],
        ids=["2143", "321+3412", "231+312+321", "3412+4231", "grassmannian"],
    )
    def test_growth_equals_the_whole_group_scan(self, patterns):
        assert global_basis(patterns) == basis_by_scan(patterns)

    @given(
        words=st.lists(
            st.integers(1, 4).flatmap(lambda k: st.permutations(range(1, k + 1))),
            min_size=1,
            max_size=2,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_growth_equals_the_whole_group_scan_for_random_sets(self, words):
        patterns = [Permutation(tuple(w)) for w in words]
        assert global_basis(patterns) == basis_by_scan(patterns)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            global_basis([])

    def test_size_cap(self):
        with pytest.raises(PatternTooLargeError):
            global_basis([Permutation(tuple(range(1, 10)))])

    def test_size_8_is_rejected_before_any_window(self, monkeypatch):
        # Growing the class to size 8 would take minutes.
        def no_growth(previous, k):
            raise AssertionError("global_basis grew windows")

        monkeypatch.setattr(patterns_module, "grown", no_growth)
        with pytest.raises(PatternTooLargeError, match="size 8 exceeds basis cap 7"):
            global_basis([Permutation(tuple(range(1, 9)))])


class TestSymmetries:
    def test_symmetry_class_counts_equal(self):
        pats = [Permutation((1, 3, 2))]
        for symmetry in DihedralSymmetry:
            image = apply_symmetry_to_set(pats, symmetry)
            assert sequence(image, [3]) == sequence(pats, [3])

    def test_complement_of_12(self):
        pats = [Permutation((1, 2))]
        image = apply_symmetry_to_set(pats, DihedralSymmetry.COMPLEMENT)
        assert sequence(pats, [2]) == sequence(image, [2]) == {2: 1}

    def test_all_s3_s4_patterns_all_symmetries(self):
        patterns = [Permutation(p) for p in permutations((1, 2, 3))]
        patterns += [Permutation(p) for p in permutations((1, 2, 3, 4))]
        for p in patterns:
            base = sequence([p], range(1, 5))
            for symmetry in DihedralSymmetry:
                assert sequence([p.apply_symmetry(symmetry)], range(1, 5)) == base

    def test_rc_identified_sets_have_equal_classes(self):
        # 123 and its rc are literally equal; 132's rc is 213.
        p132 = Permutation((1, 3, 2))
        p213 = Permutation((2, 1, 3))
        assert avoiders([p132], range(4)) == avoiders([p213, p132], range(4))


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
        assert avoiders(patterns, range(5)) == avoiders(reduced, range(5))


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

import functools
import gc
import os
import subprocess
import sys
import types
from collections import Counter
from itertools import combinations, cycle, islice, permutations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from bperm.core import (
    DihedralSymmetry,
    Permutation,
    SignedPermutation,
    grown_at,
    iter_windows,
    mirror_of_window,
    rank_word,
    signed_permutations,
    walk,
)
from bperm import enumeration
from bperm.enumeration import avoiders, palindromic_compositions, sequence
from bperm import patterns as patterns_module
from bperm.patterns import (
    PatternTooLargeError,
    apply_symmetry_to_set,
    classical_contains,
    count_global_occurrences,
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
from growth import every_child, every_site


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
    if request.param:
        monkeypatch.setattr(patterns_module, "_NESTED", request.param)
    yield request.param
    patterns_module._compiled.cache_clear()


def count_matches(word, pattern, signed):
    """The compiled search's count of the index subsets of `word` matching `pattern`."""
    return patterns_module._compiled(tuple(pattern), signed, 0, True)(word, 0, len(word))


TOP = str(sys.maxsize)  # the ceiling in generated sources

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
                assert count_matches(window, q, True) == count
                assert signed_word_contains(window, q) == (count > 0)


class TestProbeGarbage:
    def test_probes_leave_no_cyclic_garbage(self):
        # A recursive helper must not outlive its call in a reference cycle,
        # nor outlive a walk abandoned part way, and a compiled search must
        # be freed with its cache entry.
        smooth = [Permutation((3, 4, 1, 2)), Permutation((4, 2, 3, 1))]
        gc.collect()
        gc.disable()
        try:
            patterns_module._compiled.cache_clear()
            assert word_contains((2, 4, 1, 3), (2, 1))
            assert signed_word_contains((-2, 1, 3), (1, 2))
            assert len(SignedPermutation((-3, -2, -1)).all_reduced_words()) == 2
            assert min(avoiders(smooth, [5])[5]) == (-5, 1, 2, 3, 4)
            whole, anchored = (patterns_module._avoidance_test(smooth, anchored=a)
                               for a in (False, True))
            assert len(list(islice(walk(1, 4, whole, anchored), 10))) == 10  # a walk left part way
            assert anchored((1, 2), [3, -3]) == whole((1, 2), [3, -3]) == [3]
            assert domino_count((4, 2, 2)) == len(list(domino_tableaux((4, 2, 2))))
            assert next(domino_tableaux((4, 2))) == ((1, 1, 2, 2), (3, 3))
            assert len(list(standard_tableaux((2, 1)))) == 2
            assert len(list(palindromic_compositions(4))) == 4
            assert next(iter_windows(4)) == (-1, -2, -3, -4)
            assert next(standard_tableaux((3, 2))) == ((1, 2, 3), (4, 5))
            assert next(palindromic_compositions(6)) == (6,)
            assert count_matches(tuple(range(1, 33)), range(1, 32), False) == 32
            patterns_module._compiled.cache_clear()
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
        assert count_matches(window, window, True) == 1
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
        assert compiled.currsize > 0
        sequence(patterns, range(1, 6))
        assert patterns_module._compiled.cache_info().misses == compiled.misses

    @pytest.mark.parametrize(
        "patterns", [fixtures.SMOOTH_BC_GLOBAL, fixtures.SMOOTH_BC_CLASSICAL],
        ids=["global", "classical"],
    )
    def test_a_built_test_probes_without_the_cache(self, patterns):
        # Each node test holds its searches, so an evicted entry costs
        # nothing to a test already built.
        test = patterns_module._avoidance_test(patterns, anchored=True)
        avoiding = sorted(avoiders(patterns, [4])[4])
        before = patterns_module._compiled.cache_info()
        for window in islice(cycle(avoiding), 100):  # 1,000 children
            test(window, every_site(window))
        assert patterns_module._compiled.cache_info() == before

    def test_the_caches_are_bounded(self):
        # More distinct patterns than the bound: every signed one of size 1..5.
        bound = patterns_module._CACHE_SIZE
        patterns = [q for k in range(1, 6) for q in iter_windows(k)]
        assert len(patterns) > bound
        for q in patterns:
            signed_word_contains((2, -3, 1), q)
        assert patterns_module._compiled.cache_info().currsize <= bound

    # No result shows the cuts: a search without them finds the same
    # matches, only more slowly.  So the generated source itself is pinned,
    # a chained search listed after the one it hands its later entries to.
    @pytest.mark.parametrize(
        "key, nested, sources",
        [
            (((2, -3, 1), True, 0, False), None, [[
                "def f(word, start, end):",
                f" lo0, hi0 = 0, {TOP}",
                " for i0 in range(start, end - 2):",
                "  v0 = word[i0]",
                "  if lo0 < v0 < hi0:",
                f"   lo1, hi1 = -{TOP}, -v0",
                "   for i1 in range(i0 + 1, end - 1):",
                "    v1 = word[i1]",
                "    if lo1 < v1 < hi1:",
                "     lo2, hi2 = 0, v0",
                "     for i2 in range(i1 + 1, end):",
                "      v2 = word[i2]",
                "      if lo2 < v2 < hi2:",
                "       return True",
                "     lo1 = v1; hi1 = v1",
                " return False",
            ]]),
            (((-2, 3, -1, 4), True, 0, True), None, [[
                "def f(word, start, end):",
                " found = 0",
                f" lo0, hi0 = -{TOP}, 0",
                " for i0 in range(start, end - 3):",
                "  v0 = word[i0]",
                "  if lo0 < v0 < hi0:",
                f"   lo1, hi1 = -v0, {TOP}",
                "   for i1 in range(i0 + 1, end - 2):",
                "    v1 = word[i1]",
                "    if lo1 < v1 < hi1:",
                "     c1 = found",
                "     lo2, hi2 = v0, 0",
                "     for i2 in range(i1 + 1, end - 1):",
                "      v2 = word[i2]",
                "      if lo2 < v2 < hi2:",
                "       c2 = found",
                f"       lo3, hi3 = v1, {TOP}",
                "       for i3 in range(i2 + 1, end):",
                "        v3 = word[i3]",
                "        if lo3 < v3 < hi3:",
                "         found += 1",
                "       if found == c2: lo2 = v2; hi2 = v2",
                "     if found == c1: hi1 = v1",
                " return found",
            ]]),
            (((1, 3, 2), False, 1, False), None, [[
                "def f(v0, word, start, end):",
                f" lo1, hi1 = v0, {TOP}",
                " for i1 in range(start, end - 1):",
                "  v1 = word[i1]",
                "  if lo1 < v1 < hi1:",
                "   lo2, hi2 = v0, v1",
                "   for i2 in range(i1 + 1, end):",
                "    v2 = word[i2]",
                "    if lo2 < v2 < hi2:",
                "     return True",
                "   lo1 = v1",
                " return False",
            ]]),
            # 2143's search through its last two entries, the later pinned one guarded.
            (((3, 4, 2, 1), False, 2, False), None, [[
                "def f(v0, v1, word, start, end):",
                f" if not v0 < v1 < {TOP}: return False",
                f" lo2, hi2 = -{TOP}, v0",
                " for i2 in range(start, end - 1):",
                "  v2 = word[i2]",
                "  if lo2 < v2 < hi2:",
                f"   lo3, hi3 = -{TOP}, v2",
                "   for i3 in range(i2 + 1, end):",
                "    v3 = word[i3]",
                "    if lo3 < v3 < hi3:",
                "     return True",
                "   lo2 = v2",
                " return False",
            ]]),
            (((1, 2, 3, 4), False, 0, True), 2, [[
                "def f(word, start, end, v0, v1):",
                " found = 0",
                f" lo2, hi2 = v1, {TOP}",
                " for i2 in range(start, end - 1):",
                "  v2 = word[i2]",
                "  if lo2 < v2 < hi2:",
                "   c2 = found",
                f"   lo3, hi3 = v2, {TOP}",
                "   for i3 in range(i2 + 1, end):",
                "    v3 = word[i3]",
                "    if lo3 < v3 < hi3:",
                "     found += 1",
                "   if found == c2: hi2 = v2",
                " return found",
            ], [
                "def f(word, start, end):",
                " found = 0",
                f" lo0, hi0 = -{TOP}, {TOP}",
                " for i0 in range(start, end - 3):",
                "  v0 = word[i0]",
                "  if lo0 < v0 < hi0:",
                "   c0 = found",
                f"   lo1, hi1 = v0, {TOP}",
                "   for i1 in range(i0 + 1, end - 2):",
                "    v1 = word[i1]",
                "    if lo1 < v1 < hi1:",
                "     c1 = found",
                "     found += g(word, i1 + 1, end, v0, v1)",
                "     if found == c1: hi1 = v1",
                "   if found == c0: hi0 = v0",
                " return found",
            ]]),
        ],
        ids=["signed-decide", "signed-count", "unsigned-pinned", "unsigned-two-pins",
             "unsigned-count-chained"],
    )
    def test_the_generated_source_is_pinned(self, monkeypatch, key, nested, sources):
        captured = []

        def exec_(source, namespace):
            captured.append(source)
            exec(source, namespace)

        monkeypatch.setattr(patterns_module, "exec", exec_, raising=False)
        if nested:
            monkeypatch.setattr(patterns_module, "_NESTED", nested)
        patterns_module._compiled.cache_clear()
        try:
            patterns_module._compiled(*key)
        finally:
            patterns_module._compiled.cache_clear()
        assert captured == ["\n".join(lines) for lines in sources]


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
        def no_walk(*args):
            raise AssertionError("walked a class")

        monkeypatch.setattr(enumeration, "walk", no_walk)
        assert sequence([], range(6)) == {n: 2**n * factorial(n) for n in range(6)}
        assert len(avoiders([], [5])[5]) == 3840
        # A global pattern of size 5 first fits at size 3, a classical one of size 3 at 3.
        for patterns in [(Permutation((1, 2, 3, 4, 5)),), (SignedPermutation((1, -2, 3)),)]:
            assert avoiders(patterns, range(3)) == {n: frozenset(iter_windows(n)) for n in range(3)}
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
        def no_walk(*args):
            raise AssertionError("walked a class")

        monkeypatch.setattr(enumeration, "walk", no_walk)
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
        monkeypatch.setattr(enumeration, "walk", build)
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
            filtered = sorted(filter(test, iter_windows(k)))
            below = filter(test, iter_windows(k - 1))
            # Sorting keeps repeats, so a window grown twice fails the comparison.
            assert sorted(filter(test, (c for w in below for c in every_child(w)))) == filtered


@functools.lru_cache(maxsize=None)  # the tests rank windows of at most 5 entries
def _ranked_patterns_in(window, k, signed):
    return _patterns_in(window, k, signed)


def _holds_any(window, patterns):
    """Whether `window` contains one of `patterns`, by `_patterns_in` (no bperm kernel)."""
    ranked = _signed_rank(window)  # a gap in the values changes no pattern
    return any((p.window if isinstance(p, SignedPermutation) else p.oneline)
               in _ranked_patterns_in(ranked, p.size, isinstance(p, SignedPermutation))
               for p in patterns)


def _anchorable(patterns, window, sites):
    """
    The anchored node test's precondition, by brute force: `window` is
    nonempty and avoids every pattern, and so does the child at each site
    with the window's last entry deleted, as in a walk of the class.
    """
    return bool(window) and not _holds_any(window, patterns) and not any(
        _holds_any(child[:-2] + child[-1:], patterns) for child in grown_at(window, sites))


def _anchorable_sites(patterns, window):
    """The sites of `window` that meet the anchored test's precondition."""
    if not window or _holds_any(window, patterns):
        return []
    return [site for site in every_site(window) if _anchorable(patterns, window, [site])]


@st.composite
def grown_child_and_pattern(draw):
    """
    (signed, parent, child, pattern): a pattern, unsigned or signed, a
    nonempty window of size at most 3 and one of its children, at a site
    meeting the anchored test's precondition for the pattern (`_anchorable`).
    """
    signed = draw(st.booleans())
    size = draw(st.integers(min_value=1, max_value=5 if signed else 6))
    pattern = (draw_signed_window(draw, size) if signed
               else tuple(draw(st.permutations(range(1, size + 1)))))
    patterns = [SignedPermutation(pattern) if signed else Permutation(pattern)]
    k = draw(st.integers(min_value=2, max_value=4))
    nodes = [(w, sites) for w in iter_windows(k - 1) if (sites := _anchorable_sites(patterns, w))]
    assume(nodes)
    parent, sites = draw(st.sampled_from(nodes))
    return signed, parent, next(grown_at(parent, [draw(st.sampled_from(sites))])), pattern


def _contains_any(window, patterns):
    """Whether `window` contains a pattern, by the whole-window kernels."""
    return any(signed_word_contains(window, q.window) if isinstance(q, SignedPermutation)
               else word_contains(mirror_of_window(window), q.oneline) for q in patterns)


@st.composite
def patterns_and_node(draw):
    """
    (patterns, window, sites): one to three patterns, all unsigned of size 2
    to 4 or all signed of size 1 to 4, a window of size 1 to 4 reached by a
    descent through avoiders, and some of its sites, each meeting the
    anchored test's precondition (`_anchorable`), in any order.  No window
    meets it for the empty pattern, nor for an unsigned one of size 1.
    """
    signed = draw(st.booleans())
    sizes = draw(st.lists(st.integers(min_value=1 if signed else 2, max_value=4),
                          min_size=1, max_size=3))
    patterns = tuple(SignedPermutation(draw_signed_window(draw, n)) if signed
                     else Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
                     for n in sizes)
    window = ()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        children = [child for child in every_child(window) if not _holds_any(child, patterns)]
        assume(children)
        window = draw(st.sampled_from(children))
    sites = _anchorable_sites(patterns, window)
    assume(sites)
    return patterns, window, draw(st.lists(st.sampled_from(sites), min_size=1, unique=True))


class TestNodeTest:
    """
    A node test takes a window and its sites to the sites whose child
    avoids.  On the inputs the anchored form accepts (`_anchorable`), both
    forms must open exactly the sites whose `grown_at` child the whole
    kernels find avoiding; the whole form also at every site.
    """

    @given(case=patterns_and_node())
    @settings(oracle_settings, deadline=None)
    def test_open_sites_are_those_of_the_avoiding_children(self, nested, case):
        patterns, parent, sites = case
        for anchored, sites in ((True, sites), (False, sites), (False, every_site(parent))):
            expected = [child[-1] for child in grown_at(parent, sites)
                        if not _contains_any(child, patterns)]
            assert patterns_module._avoidance_test(patterns, anchored)(parent, sites) == expected

    @pytest.mark.parametrize(
        "patterns", [fixtures.SMOOTH_BC_GLOBAL, fixtures.SMOOTH_BC_CLASSICAL],
        ids=["global", "classical"],
    )
    def test_each_probe_sees_the_doubled_child(self, probes, patterns):
        # Each pinned search gets a word of the child's length, in the order
        # and signs of the child's mirror word (globally) or of the child.
        globally = isinstance(patterns[0], Permutation)
        whole, opens = (patterns_module._avoidance_test(patterns, a) for a in (False, True))
        for parent, sites, _, _ in walk(1, 3, whole, opens):
            if len(parent) < 3:
                continue
            for child in grown_at(parent, sites):
                probes.clear()
                opens(parent, [child[-1]])
                word = mirror_of_window(child) if globally else child
                assert probes
                for _, seen in probes:
                    assert rank_word(seen) == rank_word(word)
                    assert [v > 0 for v in seen] == [v > 0 for v in word]

    @given(case=patterns_and_node(), data=st.data())
    @settings(oracle_settings, deadline=None)
    def test_a_deletion_is_decided_as_a_node_with_a_gap(self, nested, case, data):
        # global_basis decides a deletion d of a child of a walk's member,
        # other than of the member's last entry, as the node
        # (d[:-1], [d[-1]]), whose values skip the deleted one.
        patterns, parent, sites = case
        assume(len(parent) > 1)
        child = next(grown_at(parent, [data.draw(st.sampled_from(sites))]))
        j = data.draw(st.integers(min_value=0, max_value=len(parent) - 2))
        deletion = child[:j] + child[j + 1:]
        assert _anchorable(patterns, deletion[:-1], deletion[-1:])
        opens = patterns_module._avoidance_test(patterns, anchored=True)
        expected = [] if _contains_any(deletion, patterns) else [deletion[-1]]
        assert opens(deletion[:-1], deletion[-1:]) == expected

    @pytest.mark.parametrize(
        "patterns",
        [fixtures.SMOOTH_BC_GLOBAL, fixtures.SMOOTH_BC_CLASSICAL, [Permutation((2, 1, 4, 3))],
         [Permutation((1, 3, 2))], [Permutation((1, 2, 3, 4, 5))],
         [SignedPermutation((2, -3, 1))], [SignedPermutation((-1,)), SignedPermutation((2, 1))]],
        ids=["smooth-global", "smooth-classical", "2143", "132", "12345", "(2,-3,1)",
             "unsigned-21"],
    )
    def test_the_walk_meets_the_anchored_precondition(self, patterns):
        # Below its roots, every node a walk hands its anchored test meets the
        # precondition, checked by brute force.
        patterns = tuple(patterns)
        m = next(k for k in range(6) if patterns_module._fits(patterns, k))
        whole, anchored = (patterns_module._avoidance_test(patterns, a) for a in (False, True))
        nodes = 0
        for window, sites, test, _ in walk(m - 1, 5, whole, anchored):
            assert (test is anchored) == (len(window) > m - 1)
            if test is anchored:
                assert _anchorable(patterns, window, sites)
                nodes += 1
        assert nodes


class TestAnchoredSearch:
    """
    A node of a walk below its roots holds an avoider whose children, without
    its last entry w(k), avoid at the sites it is asked about, so a pattern
    occurs in such a child only through the appended entry z and through
    w(k) (or, in the mirror word, their negatives).  An anchored node test,
    which finds only those occurrences on the doubled parent, answers as the
    whole-word kernels do on the child.  Its global half searches the
    occurrences through -z as those of the reverse-complements through z,
    which holds on mirror words, so it is checked on the mirror words of
    grown children, the only words it is given; the pinned searches it calls
    are checked on arbitrary words.
    """

    @given(case=grown_child_and_pattern())
    # Every occurrence uses both mirror ends, -z and z: one, then two.
    @example(case=(False, (-2, 1), (-2, 1, 3), (1, 2, 4, 3, 5)))
    @example(case=(False, (-3, -2, -1), (-3, -2, -1, 4), (1, 2, 3, 4, 5)))
    # Patterns longer than the child's mirror word, or than the child.
    @example(case=(False, (1,), (1, 2), (2, 1, 3, 4, 5)))
    @example(case=(True, (1,), (1, -2), (1, -2, 3)))
    @settings(oracle_settings, deadline=None)
    def test_anchored_equals_whole_on_grown_children(self, nested, case):
        signed, parent, child, pattern = case
        patterns = [SignedPermutation(pattern) if signed else Permutation(pattern)]
        assert _anchorable(patterns, parent, child[-1:])
        assert child in set(every_child(parent))
        opens = patterns_module._avoidance_test(patterns, anchored=True)
        avoids = opens(parent, [child[-1]]) == [child[-1]]
        if signed:
            assert avoids == (not signed_word_contains(child, pattern))
        else:
            assert avoids == (not word_contains(mirror_of_window(child), pattern))

    @given(pair=word_and_pattern())
    @oracle_settings
    def test_global_anchor_finds_the_occurrences_through_an_end(self, nested, pair):
        word, pattern = pair
        assume(word)

        def occurrences(word):
            return Counter(rank_word(sub) for sub in combinations(word, len(pattern)))[pattern]

        first = patterns_module._compiled(pattern, False, 1, False)
        last = patterns_module._compiled((pattern[-1], *pattern[:-1]), False, 1, False)
        assert first(word[0], word, 1, len(word)) == (occurrences(word) > occurrences(word[1:]))
        assert (last(word[-1], word, 0, len(word) - 1)
                == (occurrences(word) > occurrences(word[:-1])))

    # Fewer examples than the other oracles: each runs under four `nested` values.
    @given(pair=word_and_pattern(), count=st.booleans())
    @settings(oracle_settings, max_examples=100)
    def test_two_pins_find_the_occurrences_through_both(self, nested, pair, count):
        # By inclusion-exclusion, the occurrences through the letters i and j.
        word, pattern = pair
        assume(len(word) > 1 and len(pattern) > 1)

        def through(word, i, j):
            def occurrences(kept):
                subwords = combinations([word[k] for k in kept], len(pattern))
                return Counter(map(rank_word, subwords))[pattern]

            every = range(len(word))
            return (occurrences(every) - occurrences([k for k in every if k != i])
                    - occurrences([k for k in every if k != j])
                    + occurrences([k for k in every if k not in (i, j)]))

        def answer(found):
            return found if count else found > 0

        last_two = patterns_module._compiled(
            (pattern[-1], pattern[-2], *pattern[:-2]), False, 2, count)
        assert (last_two(word[-1], word[-2], word, 0, len(word) - 2)
                == answer(through(word, len(word) - 2, len(word) - 1)))
        if len(word) > 2:  # through word[1] and word[-1], not word[0]
            ends = patterns_module._compiled(
                (pattern[-1], pattern[0], *pattern[1:-1]), False, 2, count)
            assert (ends(word[-1], word[1], word, 2, len(word) - 1)
                    == answer(through(word[1:], 0, len(word) - 2)))

    @given(pair=window_and_signed_pattern(), count=st.booleans())
    @settings(oracle_settings, max_examples=100)
    def test_signed_two_pins_find_the_occurrences_through_both(self, nested, pair, count):
        window, q = pair
        assume(len(window) > 1 and len(q) > 1)
        q = (*q[:-1], abs(q[-1]) if window[-1] > 0 else -abs(q[-1]))  # the caller's sign match
        through = (signed_occurrence_oracle(window, q) - signed_occurrence_oracle(window[:-1], q)
                   - signed_occurrence_oracle(window[:-2] + window[-1:], q)
                   + signed_occurrence_oracle(window[:-2], q))
        last_two = patterns_module._compiled((q[-1], q[-2], *q[:-2]), True, 2, count)
        found = last_two(window[-1], window[-2], window, 0, len(window) - 2)
        assert found == (through if count else through > 0)

    @given(pair=window_and_signed_pattern())
    @oracle_settings
    def test_classical_anchor_finds_the_occurrences_through_the_last_entry(self, nested, pair):
        window, pattern = pair
        # The node of the window's first entries, which may leave a gap.
        node = window[:-1], window[-1:]
        assume(len(window) > 1 and _anchorable([SignedPermutation(pattern)], *node))
        through_last = (signed_occurrence_oracle(window, pattern)
                        - signed_occurrence_oracle(window[:-1], pattern))
        opens = patterns_module._avoidance_test([SignedPermutation(pattern)], anchored=True)
        assert opens(*node) == ([window[-1]] if through_last == 0 else [])

    def test_the_empty_pattern_occurs_in_every_child(self):
        # Every window holds it, so no node meets the anchored test's
        # precondition and no walk asks that test; the whole test opens no site.
        for empty in (Permutation(()), SignedPermutation(())):
            opens = patterns_module._avoidance_test([empty])
            for window in [(), (1,), (-1, 2), (2, -1, 3)]:
                assert not _anchorable([empty], window, every_site(window))
                assert opens(window, every_site(window)) == []

    @given(pair=window_and_unsigned_pattern())
    def test_first_letter_occurrences_reflect_to_last_letter_ones_of_the_rc(self, pair):
        # Straight from the definitions (itertools plus ranking, no bperm
        # kernel): reflecting index i of a 2n-letter mirror word to 2n - 1 - i
        # maps the occurrences of p through its first letter one to one onto
        # those of rc(p) through its last letter.
        window, pattern = pair
        assume(window)
        word = _mirror(window)
        rc = tuple(len(pattern) + 1 - v for v in reversed(pattern))

        def through(letter, p):
            return {subset for subset in combinations(range(len(word)), len(p))
                    if letter in subset and _rank([word[i] for i in subset]) == p}

        reflected = {tuple(sorted(len(word) - 1 - i for i in subset))
                     for subset in through(0, pattern)}
        assert reflected == through(len(word) - 1, rc)

    @pytest.mark.parametrize(
        "patterns", ["1,3,2;2,1,3", "2,3,1;3,1,2;1,2,3", "3,4,1,2", "3,2,1"],
        ids=["rc-pair", "rc-pair-and-fixed", "rc-fixed-3412", "rc-fixed-321"],
    )
    def test_sets_closed_under_rc_walk_as_the_whole_group_filters(self, patterns):
        # Every pattern's reverse-complement is in the set, so the anchored
        # test searches the set itself at the appended entry.
        patterns = parse_unsigned_patterns(patterns)
        filtered = {n: frozenset(w for w in iter_windows(n) if not any(
                        word_contains(mirror_of_window(w), p.oneline) for p in patterns))
                    for n in range(7)}
        assert avoiders(patterns, range(7)) == filtered
        assert sequence(patterns, range(7)) == {n: len(members) for n, members in filtered.items()}

    @pytest.mark.parametrize(
        "pair",
        sorted({tuple(sorted((p, p[::-1]))) for p in permutations(range(1, 5))
                if p != tuple(5 - v for v in reversed(p))}),
        ids=lambda pair: "+".join("".join(map(str, p)) for p in pair),
    )
    def test_reverse_pairs_walk_as_the_whole_group_filters(self, pair):
        # {p, reverse(p)} without rc(p): the anchored test must search the
        # reverse-complements at the appended entry, which reverses alone
        # would not give.
        patterns = [Permutation(p) for p in pair]
        filtered = {n: frozenset(w for w in iter_windows(n) if not any(
                        word_contains(mirror_of_window(w), p) for p in pair))
                    for n in range(6)}
        assert avoiders(patterns, range(6)) == filtered
        assert global_basis(patterns) == basis_by_scan(patterns)

    @pytest.mark.parametrize(
        "patterns",
        [fixtures.SMOOTH_BC_GLOBAL, fixtures.SMOOTH_BC_CLASSICAL,
         [Permutation((1, 2, 3, 4, 5))], [SignedPermutation((2, -3, 1))]],
        ids=["smooth-global", "smooth-classical", "12345", "(2,-3,1)"],
    )
    def test_only_children_of_filtered_levels_are_searched_anchored(self, probes, patterns):
        # The children of B_(k-1), where no pattern fits at k - 1 (the roots
        # of a walk), are searched whole.
        patterns = tuple(patterns)
        globally = isinstance(patterns[0], Permutation)

        def seen():
            return {(search == "anchored", len(word) // 2 if globally else len(word))
                    for search, word in probes}

        sequence(patterns, range(7))
        avoiders(patterns, [5])
        assert {anchored for anchored, _ in seen()} == {False, True}
        assert all(anchored == patterns_module._fits(patterns, size - 1) for anchored, size in seen())
        if globally:
            # global_basis searches the deletions of its candidates anchored,
            # also those of the first size at which a pattern fits: their
            # first entries avoid, as every window one size down does.
            first = next(k for k in range(7) if patterns_module._fits(patterns, k))
            probes.clear()
            global_basis(patterns)
            assert {size for anchored, size in seen() if not anchored} == {first}
            assert min(size for anchored, size in seen() if anchored) == first


def basis_by_scan(patterns):
    """
    The whole-group definition of the basis: the windows of B_0..B_m (m the
    largest pattern size) that globally contain a pattern, and whose
    single-entry deletions all avoid every pattern.
    """
    m = max(p.size for p in patterns)
    members = {
        window
        for size in range(m + 1)
        for window in iter_windows(size)
        if any(word_contains(mirror_of_window(window), p.oneline) for p in patterns)
    }
    return tuple(
        SignedPermutation(window)
        for window in sorted(members, key=lambda w: (len(w), w))
        if all(_signed_rank(window[:j] + window[j + 1:]) not in members for j in range(len(window)))
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
            st.integers(0, 4).flatmap(lambda k: st.permutations(range(1, k + 1))),
            min_size=1,
            max_size=2,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_growth_equals_the_whole_group_scan_for_random_sets(self, words):
        patterns = [Permutation(tuple(w)) for w in words]
        assert global_basis(patterns) == basis_by_scan(patterns)

    def test_the_empty_pattern_has_the_empty_window_for_basis(self):
        # Every window contains the empty pattern, so its class is empty at every size.
        for patterns in [[Permutation(())], [Permutation(()), Permutation((2, 1))]]:
            assert global_basis(patterns) == basis_by_scan(patterns) == (SignedPermutation(()),)
            assert avoiders(global_basis(patterns), range(4)) == avoiders(patterns, range(4))
        # Nothing is grown, so the size cap does not apply.
        too_large = Permutation(tuple(range(1, 9)))
        assert global_basis([Permutation(()), too_large]) == (SignedPermutation(()),)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            global_basis([])

    def test_size_cap(self):
        with pytest.raises(PatternTooLargeError):
            global_basis([Permutation(tuple(range(1, 10)))])

    def test_size_8_is_rejected_before_any_window(self, monkeypatch):
        # Walking the class to size 8 would take minutes.
        def no_walk(*args):
            raise AssertionError("global_basis walked the class")

        monkeypatch.setattr(patterns_module, "walk", no_walk)
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

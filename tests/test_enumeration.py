import functools
import os
import random
import stat
import tempfile
from collections import Counter
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from bperm import enumeration, fixtures
from bperm import patterns as patterns_module
from bperm.classes import is_bigrassmannian, is_grassmannian
from bperm.core import (
    Permutation, SignedPermutation, grown_at, iter_windows, mirror_of_window, walk,
)
from bperm.enumeration import (
    SizeCapExceededError,
    _count_exhaustive,
    avoiders,
    count_gav_132_and_decreasing,
    count_gav_132_and_increasing,
    es_bound,
    es_extremal_count,
    fib_like,
    load_cache,
    palindromic_composition_count,
    palindromic_compositions,
    sequence,
    store_cache,
    unsigned_sequence,
)
from bperm.patterns import (
    _avoidance_test, _fits, parse_unsigned_patterns, signed_word_contains, word_contains,
)
from bperm.tableaux import domino_count, syt_count
from growth import every_child


@st.composite
def small_pattern_sets(draw):
    """One or two patterns of size 2 to 4, all unsigned or all signed."""
    signed = draw(st.booleans())
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        values = draw(st.permutations(range(1, draw(st.integers(2, 4)) + 1)))
        if signed:
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(values),
                                  max_size=len(values)))
            patterns.append(SignedPermutation(tuple(s * v for s, v in zip(signs, values))))
        else:
            patterns.append(Permutation(tuple(values)))
    return patterns


SMOOTH_BC_COUNTS = (2, 6, 22, 88, 366, 1552)


@pytest.fixture
def recording_pool(monkeypatch):
    """The process counts of the pools started while the test runs, each run in-process."""
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, function, tasks):
            return list(map(function, tasks))

    monkeypatch.setattr(enumeration, "Pool", RecordingPool)
    return started


def random_pattern_set(seed):
    """
    One to three patterns of size 1 to 4, mostly 4: unsigned for an even
    seed, signed for an odd one.
    """
    rng = random.Random(seed)
    patterns = []
    for _ in range(rng.randint(1, 3)):
        values = rng.sample(range(1, 5), rng.choices(range(1, 5), weights=(1, 2, 4, 8))[0])
        window = tuple(sorted(values).index(v) + 1 for v in values)
        if seed % 2:
            patterns.append(SignedPermutation(tuple(v * rng.choice((1, -1)) for v in window)))
        else:
            patterns.append(Permutation(window))
    return tuple(patterns)


@functools.lru_cache(maxsize=None)
def whole_group(n):
    return tuple(iter_windows(n))


def whole_containment(patterns):
    """Whether a window contains a pattern, by the whole-window kernels."""
    if isinstance(patterns[0], Permutation):
        return lambda window: any(word_contains(mirror_of_window(window), p.oneline)
                                  for p in patterns)
    return lambda window: any(signed_word_contains(window, q.window) for q in patterns)


def monotone_up(k):
    return Permutation(tuple(range(1, k + 1)))


def monotone_down(k):
    return Permutation(tuple(range(k, 0, -1)))


class TestFibLike:
    def test_k3_initial_values(self):
        assert [fib_like(3, i) for i in range(1, 7)] == [0, 1, 0, 1, 2, 3]

    def test_k1_all_ones(self):
        assert all(fib_like(1, i) == 1 for i in range(1, 12))

    def test_k2_is_fibonacci(self):
        assert [fib_like(2, i) for i in range(2, 10)] == [1, 1, 2, 3, 5, 8, 13, 21]

    def test_closed_forms_to_k10(self):
        for k in range(1, 11):
            half = k // 2
            for i in range(k + 1, 2 * k + 1):
                n = i - k - 1
                expected = 2**n if n <= half else 2**n - 2 ** (n - half - 1)
                assert fib_like(k, i) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fib_like(0, 1)
        with pytest.raises(ValueError):
            fib_like(2, 0)


class TestCountFormulas:
    def test_increasing_example(self):
        assert count_gav_132_and_increasing(2, 2) == 3
        members = avoiders(parse_unsigned_patterns("1,3,2;1,2,3"), [2])
        assert members == {2: {(1, -2), (-1, -2), (-2, -1)}}

    def test_increasing_small_n_powers_of_two(self):
        for k in range(1, 8):
            for n in range(0, (k + 1) // 2 + 1):
                if 2 * n < k + 1:
                    assert count_gav_132_and_increasing(n, k) == 2**n

    def test_increasing_k1(self):
        for n in range(1, 6):
            assert count_gav_132_and_increasing(n, 1) == 1

    def test_decreasing_examples(self):
        assert count_gav_132_and_decreasing(2, 2) == 2
        assert count_gav_132_and_decreasing(3, 4) == 6
        for n in range(1, 6):
            assert count_gav_132_and_decreasing(n, 1) == 1

    def test_formulas_match_brute_force(self):
        p132 = Permutation((1, 3, 2))
        sizes = range(1, 6)
        for k in range(1, 5):
            formula = {n: count_gav_132_and_increasing(n, k) for n in sizes}
            assert sequence([p132, monotone_up(k + 1)], sizes) == formula
        for k in range(1, 6):
            formula = {n: count_gav_132_and_decreasing(n, k) for n in sizes}
            assert sequence([p132, monotone_down(k + 1)], sizes) == formula


class TestPalindromicCompositions:
    def test_n4(self):
        comps = set(palindromic_compositions(4))
        assert comps == {(4,), (2, 2), (1, 2, 1), (1, 1, 1, 1)}

    def test_empty(self):
        assert list(palindromic_compositions(0)) == [()]

    def test_power_of_two_counts(self):
        for n in range(7):
            assert palindromic_composition_count(2 * n) == 2**n

    def test_all_results_are_palindromic_compositions(self):
        for parts in palindromic_compositions(8):
            assert sum(parts) == 8
            assert all(p >= 1 for p in parts)
            assert parts == tuple(reversed(parts))

    def test_max_part_matches_increasing_formula(self):
        for n in range(1, 6):
            comps = list(palindromic_compositions(2 * n))
            for k in range(1, 5):
                bounded = sum(1 for c in comps if max(c) <= k)
                assert bounded == count_gav_132_and_increasing(n, k)

    def test_max_parts_matches_decreasing_formula(self):
        for n in range(1, 6):
            comps = list(palindromic_compositions(2 * n))
            for k in range(1, 6):
                bounded = sum(1 for c in comps if len(c) <= k)
                assert bounded == count_gav_132_and_decreasing(n, k)


class TestErdosSzekeres:
    def test_bounds(self):
        assert es_bound(2, 2, signed=False) == 4
        assert es_bound(2, 2, signed=True) == 2
        assert es_bound(1, 3, signed=True) == 1

    def test_extremal_counts(self):
        assert es_extremal_count(2, 2, signed=False) == 4
        assert es_extremal_count(2, 2, signed=True) == 4
        assert es_extremal_count(1, 3, signed=True) == 1

    def test_unsigned_extremal_matches_brute_force(self):
        for k, j in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]:
            patterns = [monotone_up(k + 1), monotone_down(j + 1)]
            bound = es_bound(k, j, signed=False)
            counts = unsigned_sequence(patterns, [bound, bound + 1])
            assert counts[bound] == es_extremal_count(k, j, signed=False)
            assert counts[bound] == syt_count((k,) * j) ** 2
            assert counts[bound + 1] == 0

    def test_signed_extremal_matches_brute_force(self):
        for k, j in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (3, 2), (2, 3)]:
            patterns = [monotone_up(k + 1), monotone_down(j + 1)]
            bound = es_bound(k, j, signed=True)
            extremal = es_extremal_count(k, j, signed=True)
            assert sequence(patterns, [bound, bound + 1]) == {bound: extremal, bound + 1: 0}

    def test_signed_two_by_two_avoiders(self):
        members = avoiders([monotone_up(3), monotone_down(3)], [2])
        assert members == {2: {(2, 1), (2, -1), (-2, 1), (-2, -1)}}
        assert domino_count((2, 2)) == 2


class TestSequenceEngine:
    def test_central_binomial_values(self):
        counts = sequence([Permutation((3, 2, 1))], [4, 1, 3, 2, 1])
        assert list(counts.items()) == [(1, 2), (2, 6), (3, 20), (4, 70)]

    def test_trivial_decreasing_mirror(self):
        assert sequence([Permutation((1, 2))], range(1, 4)) == {1: 1, 2: 1, 3: 1}

    def test_gao_hanni_tables_match(self):
        left = sequence(parse_unsigned_patterns("2,1,4,3"), range(1, 5))
        right = sequence(parse_unsigned_patterns("1,2,3,4"), range(1, 5))
        assert left == right

    def test_deterministic_across_worker_counts(self):
        # Only the largest size of a call is counted on the pool.
        for patterns, counts in [
            (parse_unsigned_patterns("1,3,2"), {5: 32, 6: 64}),
            (fixtures.SMOOTH_BC_GLOBAL, {5: 366, 6: 1552}),
            (fixtures.SMOOTH_BC_CLASSICAL, {5: 366, 6: 1552}),
        ]:
            for n, count in counts.items():
                pooled = sequence(patterns, [n], jobs=2)
                assert pooled == sequence(patterns, [n], jobs=1) == {n: count}
            sizes = range(0, 7)
            assert sequence(patterns, sizes, jobs=2) == sequence(patterns, sizes, jobs=1)

    def test_pool_starts_only_from_size_five(self, recording_pool):
        patterns = (Permutation((3, 2, 1)),)
        assert _count_exhaustive(4, patterns, jobs=2)[4] == 70
        assert _count_exhaustive(5, patterns, jobs=1)[5] == 252
        assert recording_pool == []
        assert _count_exhaustive(5, patterns, jobs=2)[5] == 252
        assert recording_pool == [2]

    def test_classical_mode(self):
        classical = sequence(fixtures.VEXILLARY_CLASSICAL, range(1, 5))
        assert classical == sequence(fixtures.VEXILLARY_GLOBAL, range(1, 5))

    @given(
        patterns=small_pattern_sets(),
        low=st.integers(min_value=0, max_value=5),
        span=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=10, deadline=None)
    def test_jobs_and_memo_states_agree(self, patterns, low, span):
        # Size 5 at jobs=2 starts a pool, so examples are few.
        sizes = range(low, min(low + span, 5) + 1)
        expected = sequence(patterns, sizes)
        assert list(expected) == list(sizes)
        assert sequence(patterns, sizes, jobs=2) == expected
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "counts.memo")
            assert sequence(patterns, sizes, cache_path=path) == expected
            with open(path, encoding="utf-8") as handle:
                cold = handle.read()
            assert sequence(patterns, sizes, cache_path=path) == expected
            lines = cold.splitlines()
            lines[len(lines) // 2] = "not|a memo line"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            assert sequence(patterns, sizes, jobs=2, cache_path=path) == expected
            with open(path, encoding="utf-8") as handle:
                assert handle.read() == cold

    @pytest.mark.parametrize(
        "patterns", [fixtures.SMOOTH_BC_GLOBAL, fixtures.SMOOTH_BC_CLASSICAL],
        ids=["global", "classical"],
    )
    @pytest.mark.parametrize("dropped", [5, 3], ids=["largest-missing", "middle-missing"])
    def test_partly_warm_memo_gives_the_cold_counts_and_file(self, tmp_path, patterns, dropped):
        path = str(tmp_path / "counts.memo")
        cold = sequence(patterns, range(1, 6), cache_path=path)
        with open(path, encoding="utf-8") as handle:
            cold_text = handle.read()
        kept = [line for line in cold_text.splitlines() if line.split("|")[2] != str(dropped)]
        assert len(kept) == 4
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(kept) + "\n")
        assert sequence(patterns, range(1, 6), cache_path=path) == cold
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == cold_text

    @pytest.mark.parametrize(
        "patterns, expected",
        [
            (fixtures.SMOOTH_BC_GLOBAL, {("word_contains", 2): 15, ("anchored", 3): 97,
                                         ("anchored", 4): 391, ("anchored", 5): 1638,
                                         ("anchored", 6): 6979}),
            (fixtures.SMOOTH_BC_CLASSICAL, {("signed_word_contains", 2): 69,
                                            ("anchored", 3): 148, ("anchored", 4): 634,
                                            ("anchored", 5): 2792, ("anchored", 6): 12304}),
        ],
        ids=["global", "classical"],
    )
    def test_kernel_probes_are_pinned(self, probes, patterns, expected):
        # One walk counts every size, and only children at inherited sites are
        # searched: walking once per size, searching inner prefixes, or trying
        # a site the parent closed changes these counts (by size of the
        # searched window).  The children of B_1, where no pattern fits one
        # size down, are searched whole; deeper children anchored on their
        # last two entries, one probe per pinned search called: globally
        # each pattern through z and w(k), then, if none is found, through z
        # and -w(k) (both patterns are their own reverse-complement), and
        # classically only the patterns ending in the sign of z.  Pinning z
        # alone made 53, 214, 902 and 3,864 global probes, each one loop
        # deeper; trying every site (the levels) made 9,255 and 32,779.
        assert sequence(patterns, range(1, 7), jobs=1) == dict(zip(range(1, 7), SMOOTH_BC_COUNTS))
        globally = isinstance(patterns[0], Permutation)
        sizes = Counter((search, len(word) // 2 if globally else len(word))
                        for search, word in probes)
        assert sizes == expected

    def test_size_cap(self):
        with pytest.raises(SizeCapExceededError):
            sequence([Permutation((2, 1))], [9])

    @pytest.mark.parametrize(
        "head, error", [(range(10), SizeCapExceededError), ((0, 1, 2, -1), ValueError)],
        ids=["above-cap", "negative"],
    )
    @pytest.mark.parametrize("route", [sequence, avoiders])
    def test_sizes_are_refused_at_the_first_bad_one(self, route, head, error):
        # Sizes are read one by one, so a huge range is refused at its first
        # bad size, before the rest of it is read.
        def sizes():
            yield from head
            raise AssertionError("read past the first bad size")

        with pytest.raises(error):
            route([Permutation((2, 1))], sizes())

    def test_size_zero(self):
        assert sequence([Permutation((2, 1))], [0]) == {0: 1}

    def test_nothing_is_grown_or_searched_where_no_pattern_fits_at_the_top(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("walked or searched where no pattern fits")

        monkeypatch.setattr(enumeration, "walk", refuse)
        for name in ("word_contains", "signed_word_contains"):
            monkeypatch.setattr(patterns_module, name, refuse)
        monkeypatch.setattr(patterns_module, "_compiled", refuse)
        orders = {0: 1, 1: 2, 2: 8, 3: 48, 4: 384, 5: 3840, 6: 46080, 7: 645120, 8: 10321920}
        assert sequence([], range(9)) == orders
        assert sequence([], range(9), jobs=2) == orders
        assert len(avoiders([], [5])[5]) == orders[5]
        # Unsigned counts where no pattern is as short as n: n!, also for a
        # one-pass iterator of patterns.
        longest = Permutation(tuple(range(1, 11)))
        factorials = {n: factorial(n) for n in range(10)}
        assert unsigned_sequence([], range(10)) == factorials
        assert unsigned_sequence(iter([longest, longest]), range(10)) == factorials


class TestWalk:
    """The walk against a filter of the whole group, and its one claim."""

    @pytest.mark.parametrize("seed", range(10))
    def test_counts_equal_a_filter_of_the_whole_group(self, seed, recording_pool):
        patterns = random_pattern_set(seed)
        contains = whole_containment(patterns)
        expected = {n: sum(not contains(window) for window in whole_group(n)) for n in range(7)}
        assert sequence(patterns, range(7), jobs=1) == expected
        # The pool counts the largest size of each call, from size 5 on.
        assert sequence(patterns, range(6), jobs=2) == {n: expected[n] for n in range(6)}
        assert sequence(patterns, range(7), jobs=2) == expected
        assert recording_pool == [2, 2]

    @pytest.mark.parametrize(
        "patterns",
        [fixtures.SMOOTH_BC_GLOBAL, fixtures.SMOOTH_BC_CLASSICAL]
        + [random_pattern_set(seed) for seed in range(10)],
        ids=["smooth-global", "smooth-classical"] + [f"seed{seed}" for seed in range(10)],
    )
    def test_every_child_that_inheritance_skips_contains_a_pattern(self, patterns):
        # The walk from B_(m-1), m the first size at which a pattern fits,
        # yields each avoider of sizes m - 1 to 4 once, with its open sites.
        # Each yields the node test that decides its children: `whole` at the
        # roots, `anchored` below them; below the top, the walk's step has
        # opened exactly the sites whose child the whole kernels find avoiding.
        contains = whole_containment(patterns)
        m = next(k for k in range(5) if _fits(patterns, k))
        whole, anchored = _avoidance_test(patterns), _avoidance_test(patterns, anchored=True)
        nodes = list(walk(m - 1, 4, whole, anchored))
        assert sorted(window for window, _, _, _ in nodes) == sorted(
            window for k in range(m - 1, 5) for window in whole_group(k) if not contains(window))
        for window, sites, test, opened in nodes:
            assert test is (whole if len(window) == m - 1 else anchored)
            tried = list(grown_at(window, sites))
            assert len(set(tried)) == len(sites)
            assert all(contains(child) for child in every_child(window) if child not in tried)
            assert opened == (None if len(window) == 4
                              else [child[-1] for child in tried if not contains(child)])

    @pytest.mark.parametrize("family", [is_grassmannian, is_bigrassmannian])
    def test_a_family_closed_under_deletion_walks_with_its_predicate(self, family):
        # A node test may be any predicate closed under deletion: each member
        # of sizes 0 to 5 once, and every child that inheritance skips is
        # outside the family.
        def member(window):
            return family(SignedPermutation(window))

        def opens(window, sites):
            return [child[-1] for child in grown_at(window, sites) if member(child)]

        nodes = list(walk(0, 5, opens, opens))
        assert sorted(window for window, _, _, _ in nodes) == sorted(
            window for k in range(6) for window in whole_group(k) if member(window))
        for window, sites, _, _ in nodes:
            tried = set(grown_at(window, sites))
            assert not any(member(child) for child in every_child(window) if child not in tried)


class TestMemoCache:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.txt")
        store_cache(path, {"1,2,3|global|4": 70, "1,3,2|global|2": 4})
        assert load_cache(path) == {"1,2,3|global|4": 70, "1,3,2|global|2": 4}

    def test_missing_file_is_empty(self, tmp_path):
        assert load_cache(str(tmp_path / "absent.txt")) == {}

    def test_memo_is_written_once_per_call_and_only_when_it_changes(self, tmp_path, monkeypatch):
        path = str(tmp_path / "counts.memo")
        patterns = [Permutation((3, 2, 1))]
        sequence(patterns, range(1, 4), cache_path=path)
        with open(path, encoding="utf-8") as handle:
            cold = handle.read()
        lines = cold.splitlines()
        lines[1] = "junk"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        calls = []
        original = enumeration.store_cache
        monkeypatch.setattr(
            enumeration, "store_cache", lambda *args: calls.append(args) or original(*args)
        )
        assert sequence(patterns, range(1, 4), cache_path=path) == {1: 2, 2: 6, 3: 20}
        assert len(calls) == 1
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == cold
        # A clean memo holding every requested count is not rewritten.
        assert sequence(patterns, range(1, 4), cache_path=path) == {1: 2, 2: 6, 3: 20}
        assert len(calls) == 1

    def test_sequence_populates_and_reuses_cache(self, tmp_path):
        path = str(tmp_path / "counts.txt")
        patterns = [Permutation((3, 2, 1))]
        first = sequence(patterns, range(1, 4), cache_path=path)
        cached = load_cache(path)
        assert cached == {"3,2,1|global|1": 2, "3,2,1|global|2": 6, "3,2,1|global|3": 20}
        # Poison the cache to prove the second run reads it instead of recounting.
        cached["3,2,1|global|2"] = 999
        store_cache(path, cached)
        second = sequence(patterns, range(1, 4), cache_path=path)
        assert second == {1: 2, 2: 999, 3: 20}
        assert first == {1: 2, 2: 6, 3: 20}

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "counts.txt")
        store_cache(path, {"a|global|1": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["counts.txt"]

    def test_rewrite_keeps_the_file_mode(self, tmp_path):
        path = tmp_path / "counts.txt"
        store_cache(str(path), {"a|global|1": 1})
        path.chmod(0o604)
        store_cache(str(path), {"a|global|1": 1, "a|global|2": 2})
        assert stat.S_IMODE(path.stat().st_mode) == 0o604

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=oct
    )
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        path = tmp_path / "counts.txt"
        previous = os.umask(umask)
        try:
            store_cache(str(path), {"a|global|1": 1})
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_unwritable_path_names_the_memo_and_leaves_no_temp_files(self, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("")
        beneath = str(plain / "counts.txt")
        with pytest.raises(ValueError, match=f"memo {beneath}: cannot write"):
            store_cache(beneath, {"a|global|1": 1})
        with pytest.raises(ValueError, match=f"memo {tmp_path}: cannot write"):
            store_cache(str(tmp_path), {"a|global|1": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["plain"]


class TestUnsignedSequence:
    def test_patterns_longer_than_word(self):
        assert unsigned_sequence(parse_unsigned_patterns("3,4,1,2;4,2,3,1"), [3]) == {3: 6}
        # Longer than any window, so it cannot be read as a signed pattern.
        assert unsigned_sequence([Permutation(tuple(range(1, 18)))], [3]) == {3: 6}

    def test_smooth_type_a_counts_in_one_walk(self, monkeypatch):
        walks = []

        def count_exhaustive(n, patterns, **kwargs):
            walks.append(n)
            return _count_exhaustive(n, patterns, **kwargs)

        monkeypatch.setattr(enumeration, "_count_exhaustive", count_exhaustive)
        smooth = parse_unsigned_patterns("3,4,1,2;4,2,3,1")
        assert unsigned_sequence(smooth, [9, 2, 5, 4, 3, 8, 7, 6, 4]) == dict(
            zip(range(2, 10), (2, 6, 22, 88, 366, 1552, 6652, 28696))
        )
        assert walks == [9]

    def test_no_patterns_gives_factorial(self):
        assert unsigned_sequence([], range(5)) == {n: factorial(n) for n in range(5)}
        assert unsigned_sequence([], []) == {}

    def test_catalan_for_single_3_pattern(self):
        assert unsigned_sequence([Permutation((1, 3, 2))], range(1, 7)) == {
            n: comb(2 * n, n) // (n + 1) for n in range(1, 7)
        }

    def test_size_cap(self):
        for sizes in ([10], [3, 10]):
            with pytest.raises(SizeCapExceededError):
                unsigned_sequence([], sizes)
        with pytest.raises(ValueError, match="nonnegative"):
            unsigned_sequence([], [-1, 3])

    @given(
        n=st.integers(min_value=0, max_value=6),
        words=st.lists(
            st.integers(1, 4).flatmap(lambda k: st.permutations(range(1, k + 1))),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_a_scan_of_s_n(self, n, words):
        # The counts of sizes 0..n from one walk against scans of S_k and a
        # subset search: a word contains a pattern iff the ranks of some
        # subset of it spell the pattern.
        def contains(word, pattern):
            return any(
                tuple(sorted(sub).index(v) + 1 for v in sub) == tuple(pattern)
                for sub in combinations(word, len(pattern))
            )

        expected = {
            k: sum(not any(contains(word, p) for p in words)
                   for word in permutations(range(1, k + 1)))
            for k in range(n + 1)
        }
        assert unsigned_sequence([Permutation(tuple(w)) for w in words], range(n + 1)) == expected

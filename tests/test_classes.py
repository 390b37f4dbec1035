import sys
from itertools import permutations

import pytest

from bperm import core, fixtures
from bperm.classes import (
    Not132AvoidingError,
    NotColayeredError,
    bigrassmannian_elements,
    boolean_elements,
    composition_of,
    free_elements,
    grassmannian_elements,
    increasing_runs,
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
from bperm.core import Permutation, SignedPermutation, signed_permutations
from bperm.enumeration import avoiders, palindromic_compositions
from bperm.patterns import classical_contains, global_contains


def lis(word):
    """Length of the longest strictly increasing subsequence."""
    best = [0] * len(word)
    for i, v in enumerate(word):
        best[i] = 1 + max((best[j] for j in range(i) if word[j] < v), default=0)
    return max(best, default=0)


def lds(word):
    """Length of the longest strictly decreasing subsequence."""
    return lis([-v for v in word])


def avoids(w, patterns):
    """Avoidance of every pattern, globally or classically by the pattern type."""
    return not any(
        global_contains(w, p) if isinstance(p, Permutation) else classical_contains(w, p)
        for p in patterns
    )


def whole_group_members(n, predicate):
    """Windows of the size-n elements that satisfy `predicate`, by a whole-group scan."""
    return {w.window for w in signed_permutations(n) if predicate(w)}


def assert_matches_pattern_lists(predicate, *pattern_lists):
    """Up to size 4, the predicate's members are each list's avoiders."""
    classes = [avoiders(patterns, range(1, 5)) for patterns in pattern_lists]
    for n in range(1, 5):
        expected = whole_group_members(n, predicate)
        for members in classes:
            assert members[n] == expected


def colayered_by_runs(v):
    """Increasing runs whose value blocks strictly descend."""
    top = v.size
    for run in increasing_runs(v):
        if run != tuple(range(top - len(run) + 1, top + 1)):
            return False
        top -= len(run)
    return True


class TestVexillary:
    def test_running_example(self):
        assert is_vexillary(SignedPermutation((-2, 1, 3, -4)))

    def test_identity(self):
        assert is_vexillary(SignedPermutation.identity(4))

    def test_decreasing_pair_is_not(self):
        w = SignedPermutation((2, 1))
        assert not is_vexillary(w)
        assert not avoids(w, fixtures.VEXILLARY_CLASSICAL)

    def test_methods_agree_up_to_size_4(self):
        assert_matches_pattern_lists(
            is_vexillary, fixtures.VEXILLARY_GLOBAL, fixtures.VEXILLARY_CLASSICAL
        )


class TestBoolean:
    def test_identity(self):
        assert is_boolean(SignedPermutation.identity(3))

    def test_long_element_of_rank_two(self):
        w = SignedPermutation((-2, -1))
        assert not is_boolean(w)
        assert not avoids(w, fixtures.BOOLEAN_GLOBAL)
        assert not avoids(w, fixtures.BOOLEAN_CLASSICAL)

    def test_commuting_pair(self):
        w = SignedPermutation((-1, 3, 2))
        assert is_boolean(w)
        assert avoids(w, fixtures.BOOLEAN_GLOBAL)
        assert avoids(w, fixtures.BOOLEAN_CLASSICAL)

    def test_methods_agree_up_to_size_4(self):
        assert_matches_pattern_lists(
            is_boolean, fixtures.BOOLEAN_GLOBAL, fixtures.BOOLEAN_CLASSICAL
        )

    def test_structural_route_matches_every_reduced_word(self):
        # The definition itself: length at most the size, and no reduced word
        # repeats a generator.  Boolean counts of B_0..B_5 are 1, 2, 5, 13, 34, 89.
        counts = []
        for n in range(6):
            members = 0
            for w in signed_permutations(n):
                by_words = w.length() <= w.size and all(
                    len(set(word)) == len(word) for word in w.all_reduced_words()
                )
                assert is_boolean(w) == by_words
                members += by_words
            counts.append(members)
        assert counts == [1, 2, 5, 13, 34, 89]


class TestFree:
    def test_single_generator(self):
        assert is_free(SignedPermutation((-1, 2, 3)))

    def test_commuting_support(self):
        w = SignedPermutation((-1, 3, 2))
        assert is_free(w)
        assert avoids(w, fixtures.FREE_GLOBAL)
        assert avoids(w, fixtures.FREE_CLASSICAL)

    def test_adjacent_support_not_free(self):
        w = SignedPermutation((-2, -1))
        assert not is_free(w)
        assert not avoids(w, fixtures.FREE_GLOBAL)
        assert not avoids(w, fixtures.FREE_CLASSICAL)

    def test_methods_agree_up_to_size_4(self):
        assert_matches_pattern_lists(is_free, fixtures.FREE_GLOBAL, fixtures.FREE_CLASSICAL)


def test_boolean_and_free_apply_no_generator(monkeypatch):
    # The support is read off the window, not off a reduced word built one
    # generator at a time: B_4 has 34 boolean and 8 free elements.
    def apply(window, i):
        raise AssertionError(f"applied s_{i} to {window}")

    monkeypatch.setattr(core, "window_apply_generator", apply)
    group = list(signed_permutations(4))
    assert sum(map(is_boolean, group)) == 34
    assert sum(map(is_free, group)) == 8


# Each generated family with its predicate: two routes from one definition.
GENERATED = {
    "boolean": (boolean_elements, is_boolean),
    "free": (free_elements, is_free),
    "grassmannian": (grassmannian_elements, is_grassmannian),
    "bigrassmannian": (bigrassmannian_elements, is_bigrassmannian),
}


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def families_off_their_predicates(sizes):
    """The generated families that differ from their predicate's whole-group scan."""
    return {
        name for name, (generate, predicate) in GENERATED.items()
        if generate(sizes) != {n: whole_group_members(n, predicate) for n in sizes}
    }


def _support_without_s0(monkeypatch):
    original = SignedPermutation.support
    monkeypatch.setattr(SignedPermutation, "support", lambda self: original(self) - {0})


def _descents_ignoring_position_0(monkeypatch):
    original = core.window_descents
    monkeypatch.setattr(core, "window_descents", lambda window: original(window) - {0})


# Planted bugs in the predicates' supports and descent sets fail no check,
# since the checks read the generators (see tests/test_mutations.py); holding
# each generator against its predicate catches them, in the families pinned.
PREDICATE_BUGS = {
    "support drops s_0": (_support_without_s0, {"boolean", "free"}),
    "descents ignore position 0": (
        _descents_ignoring_position_0,
        {"grassmannian", "bigrassmannian"},
    ),
}


class TestGenerators:
    def test_each_generator_is_its_predicate_scan(self):
        assert families_off_their_predicates(range(7)) == set()

    def test_counts_match_closed_forms(self):
        sizes = range(9)
        counts = {name: generate(sizes) for name, (generate, _) in GENERATED.items()}
        for n in sizes:
            assert len(counts["free"][n]) == fibonacci(n + 2)
            assert len(counts["boolean"][n]) == fibonacci(2 * n + 1)
            # Sum over d of C(n, d) positive heads times 2^(n - d) signed tails,
            # 3^n, less the n repeats of the identity, which arises at every d.
            assert len(counts["grassmannian"][n]) == 3**n - n
        assert len(counts["bigrassmannian"][8]) == 415

    def test_generators_read_no_support_descents_growth_or_search(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a generator took another route")

        modules = [module for name, module in list(sys.modules.items())
                   if name == "bperm" or name.startswith("bperm.")]
        for name in ("grown_at", "walk", "window_descents", "iter_windows", "_compiled",
                     "avoiders"):
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(SignedPermutation, "support", forbidden)
        sizes = range(7)
        counts = {name: [len(generate(sizes)[n]) for n in sizes]
                  for name, (generate, _) in GENERATED.items()}
        assert counts == {
            "boolean": [1, 2, 5, 13, 34, 89, 233],
            "free": [1, 2, 3, 5, 8, 13, 21],
            "grassmannian": [1, 2, 7, 24, 77, 238, 723],
            "bigrassmannian": [1, 2, 7, 20, 46, 91, 162],
        }

    @pytest.mark.parametrize("case", list(PREDICATE_BUGS))
    def test_planted_predicate_bug_parts_the_routes(self, monkeypatch, case):
        install, failing = PREDICATE_BUGS[case]
        install(monkeypatch)
        assert families_off_their_predicates(range(4)) == failing


class TestSmooth:
    def test_witness_smooth_c_only(self):
        w = SignedPermutation((-2, -1))
        assert is_smooth_C(w)
        assert not is_smooth_B(w)
        assert global_contains(w, Permutation((3, 4, 1, 2)))

    def test_witness_smooth_b_only(self):
        w = SignedPermutation((1, -2))
        assert is_smooth_B(w)
        assert not is_smooth_C(w)
        assert global_contains(w, Permutation((4, 2, 3, 1)))

    def test_identity_is_smooth_everywhere(self):
        w = SignedPermutation.identity(3)
        assert is_smooth_B(w) and is_smooth_C(w)
        assert is_smooth_BC(w)
        assert avoids(w, fixtures.SMOOTH_BC_GLOBAL)
        assert avoids(w, fixtures.SMOOTH_BC_CLASSICAL)

    def test_witnesses_fail_bc(self):
        for window in [(-2, -1), (1, -2)]:
            w = SignedPermutation(window)
            assert not is_smooth_BC(w)
            assert not avoids(w, fixtures.SMOOTH_BC_GLOBAL)
            assert not avoids(w, fixtures.SMOOTH_BC_CLASSICAL)

    def test_methods_agree_up_to_size_4(self):
        assert_matches_pattern_lists(
            is_smooth_BC, fixtures.SMOOTH_BC_GLOBAL, fixtures.SMOOTH_BC_CLASSICAL
        )


class TestGrassmannian:
    def test_witness(self):
        w = SignedPermutation((1, -2))
        assert is_grassmannian(w)
        assert is_bigrassmannian(w)
        assert global_contains(w, Permutation((3, 2, 1)))

    def test_identity_by_convention(self):
        w = SignedPermutation.identity(3)
        assert w.descent_set() == frozenset()
        assert is_grassmannian(w)
        assert is_bigrassmannian(w)

    def test_two_descents(self):
        w = SignedPermutation((-2, 1, 3, -4))
        assert not is_grassmannian(w)

    def test_conjectured_forms_small_cases(self):
        assert avoids(SignedPermutation((1, -2)), fixtures.GRASSMANNIAN_GLOBAL)
        assert avoids(SignedPermutation.identity(3), fixtures.GRASSMANNIAN_GLOBAL)
        assert not avoids(SignedPermutation((-1, -2)), fixtures.GRASSMANNIAN_GLOBAL)

    def test_conjecture_agrees_up_to_size_4(self):
        assert_matches_pattern_lists(is_grassmannian, fixtures.GRASSMANNIAN_GLOBAL)
        assert_matches_pattern_lists(is_bigrassmannian, fixtures.BIGRASSMANNIAN_GLOBAL)

    def test_bigrassmannian_pattern_list_closed_under_inverse(self):
        inverses = {p.inverse() for p in fixtures.BIGRASSMANNIAN_GLOBAL}
        assert inverses == set(fixtures.BIGRASSMANNIAN_GLOBAL)


class TestColayered:
    def test_five_run_colayered(self):
        v = Permutation((11, 12, 8, 9, 10, 6, 7, 3, 4, 5, 1, 2))
        assert is_colayered(v)
        assert colayered_by_runs(v)
        assert composition_of(v) == (2, 3, 2, 3, 2)

    def test_identity_and_decreasing(self):
        assert composition_of(Permutation.identity(5)) == (5,)
        assert composition_of(Permutation((4, 3, 2, 1))) == (1, 1, 1, 1)

    def test_132_is_not_colayered(self):
        assert not is_colayered(Permutation((1, 3, 2)))
        with pytest.raises(NotColayeredError):
            composition_of(Permutation((1, 3, 2)))

    def test_methods_agree_on_s5(self):
        for word in permutations(range(1, 6)):
            v = Permutation(word)
            assert is_colayered(v) == colayered_by_runs(v)

    def test_round_trip(self):
        # Runs of the given lengths on strictly descending value blocks.
        for parts in [(3,), (1, 1, 1), (2, 3, 2), (2, 1, 4)]:
            word, top = [], sum(parts)
            for part in parts:
                word.extend(range(top - part + 1, top + 1))
                top -= part
            assert composition_of(Permutation(tuple(word))) == parts

    def test_runs(self):
        assert increasing_runs(Permutation((2, 3, 1))) == ((2, 3), (1,))


class TestSignedComposition:
    def test_five_run_example(self):
        w = SignedPermutation((1, -4, -3, -2, -6, -5))
        assert w.iota().oneline == (11, 12, 8, 9, 10, 6, 7, 3, 4, 5, 1, 2)
        assert signed_composition(w) == (2, 3, 2, 3, 2)

    def test_identity(self):
        for n in range(1, 5):
            assert signed_composition(SignedPermutation.identity(n)) == (2 * n,)

    def test_decreasing_mirror(self):
        assert signed_composition(SignedPermutation((-1, -2))) == (1, 1, 1, 1)

    def test_rejects_132_container(self):
        with pytest.raises(Not132AvoidingError):
            signed_composition(SignedPermutation((2, -1)))

    def test_bijection_onto_palindromic_compositions(self):
        for n in range(1, 6):
            avoiders = [
                w
                for w in signed_permutations(n)
                if not global_contains(w, fixtures.PATTERN_132)
            ]
            images = [signed_composition(w) for w in avoiders]
            assert len(set(images)) == len(images) == 2**n
            assert set(images) == set(palindromic_compositions(2 * n))

    def test_statistics_match_run_lengths(self):
        for n in range(1, 6):
            for w in signed_permutations(n):
                if global_contains(w, fixtures.PATTERN_132):
                    continue
                composition = signed_composition(w)
                mirror = w.mirror_word()
                assert max(composition) == lis(mirror)
                assert len(composition) == lds(mirror)

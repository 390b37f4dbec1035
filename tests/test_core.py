from itertools import permutations
from typing import Sequence

import pytest
from hypothesis import given, strategies as st

from bperm import core
from bperm.core import (
    DihedralSymmetry,
    InvalidOneLineError,
    InvalidWindowError,
    Permutation,
    SignedPermutation,
    format_window,
    is_signed_window,
    iter_windows,
    parse_window,
    signed_group_order,
    signed_permutations,
    window_all_reduced_words,
    window_apply_generator,
    window_descents,
    window_length,
)
from growth import every_child


def window_from_reduced_word(n, letters):
    """Evaluate a generator word: identity right-multiplied by each letter in turn."""
    cur = tuple(range(1, n + 1))
    for i in letters:
        cur = window_apply_generator(cur, i)
    return cur


def window_reduced_word(window: Sequence[int]) -> tuple[int, ...]:
    """
    A reduced word for the window, by repeatedly clearing the rightmost descent.

    The word (l_1, ..., l_k) represents the product s_{l_1} ... s_{l_k};
    multiplying each descent away strictly decreases the length, so the loop
    terminates with exactly length(w) letters.
    """
    cur = tuple(window)
    letters: list[int] = []
    while True:
        des = window_descents(cur)
        if not des:
            break
        i = max(des)
        cur = window_apply_generator(cur, i)
        letters.append(i)
    letters.reverse()
    return tuple(letters)


@st.composite
def signed_permutation_strategy(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    values = draw(st.permutations(range(1, n + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return SignedPermutation(tuple(s * v for s, v in zip(signs, values)))


@st.composite
def permutation_strategy(draw, max_m=7):
    m = draw(st.integers(min_value=1, max_value=max_m))
    return Permutation(tuple(draw(st.permutations(range(1, m + 1)))))


class TestConstruction:
    def test_valid_window(self):
        w = SignedPermutation((-2, 1, 3, -4))
        assert w.size == 4

    def test_identity(self):
        assert SignedPermutation.identity(3).window == (1, 2, 3)

    def test_zero_entry_rejected(self):
        with pytest.raises(InvalidWindowError):
            SignedPermutation((0, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidWindowError):
            SignedPermutation((1, 3))

    def test_repeated_absolute_value_rejected(self):
        with pytest.raises(InvalidWindowError):
            SignedPermutation((1, 1))
        with pytest.raises(InvalidWindowError):
            SignedPermutation((1, -1))

    def test_size_cap(self):
        with pytest.raises(InvalidWindowError):
            SignedPermutation(tuple(range(1, 18)))

    def test_oneline_validation(self):
        with pytest.raises(InvalidOneLineError):
            Permutation((1, 3))
        with pytest.raises(InvalidOneLineError):
            Permutation(tuple(range(1, 34)))

    def test_text_round_trip(self):
        text = "-2,1,3,-4"
        assert str(SignedPermutation.from_text(text)) == text
        assert parse_window("") == ()
        assert format_window((-2, 1)) == "-2,1"


class TestMirrorAndIota:
    def test_mirror_example(self):
        w = SignedPermutation((-2, 1, 3, -4))
        assert w.mirror_word() == (4, -3, -1, 2, -2, 1, 3, -4)

    def test_mirror_identity(self):
        assert SignedPermutation.identity(2).mirror_word() == (-2, -1, 1, 2)
        assert SignedPermutation((-1,)).mirror_word() == (1, -1)

    def test_iota_example(self):
        w = SignedPermutation((-2, 1, 3, -4))
        assert w.iota().oneline == (8, 2, 4, 6, 3, 5, 7, 1)

    def test_iota_identity(self):
        for n in range(5):
            assert SignedPermutation.identity(n).iota() == Permutation.identity(2 * n)

    def test_iota_smallest(self):
        assert SignedPermutation((-1,)).iota().oneline == (2, 1)

    @given(w=signed_permutation_strategy())
    def test_iota_is_rc_invariant(self, w):
        v = w.iota()
        assert v == v.reverse_complement()

    def test_iota_injective_and_onto_rc_invariants(self):
        # For n <= 3 the image is exactly the rc-invariant part of S_2n.
        for n in range(1, 4):
            image = {w.iota().oneline for w in signed_permutations(n)}
            assert len(image) == signed_group_order(n)
            rc_invariant = {
                word
                for word in permutations(range(1, 2 * n + 1))
                if Permutation(word) == Permutation(word).reverse_complement()
            }
            assert image == rc_invariant


class TestReverseComplement:
    def test_fixes_identity(self):
        for m in range(5):
            assert Permutation.identity(m).reverse_complement() == Permutation.identity(m)

    def test_fixed_point_of_iota_image(self):
        v = Permutation((8, 2, 4, 6, 3, 5, 7, 1))
        assert v.reverse_complement() == v

    def test_small_example(self):
        assert Permutation((1, 3, 2)).reverse_complement() == Permutation((2, 1, 3))
        for word in [(1, 3, 2), (2, 1, 3)]:
            assert Permutation(word) != Permutation(word).reverse_complement()

    @given(v=permutation_strategy())
    def test_involution(self, v):
        assert v.reverse_complement().reverse_complement() == v


S4 = tuple(Permutation(p) for p in permutations((1, 2, 3, 4)))


def action(symmetry):
    """The map a symmetry induces on S_4, as the images of S4 in order."""
    return tuple(v.apply_symmetry(symmetry) for v in S4)


def compose(outer, inner):
    """The map `outer` after `inner`, both given as images of S4."""
    position = {v: i for i, v in enumerate(S4)}
    return tuple(outer[position[v]] for v in inner)


class TestDihedralSymmetry:
    def test_reverse_of_decreasing(self):
        assert Permutation((3, 2, 1)).apply_symmetry(DihedralSymmetry.REVERSE) == Permutation((1, 2, 3))

    def test_rc_example(self):
        assert Permutation((2, 3, 1)).apply_symmetry(DihedralSymmetry.ROTATE_180) == Permutation((3, 1, 2))

    def test_inverse_of_involution(self):
        v = Permutation((2, 1, 4, 3))
        assert v.apply_symmetry(DihedralSymmetry.INVERSE) == v

    def test_identity_action(self):
        v = Permutation((2, 4, 1, 3))
        assert v.apply_symmetry(DihedralSymmetry.IDENTITY) == v

    def test_rc_matches_reverse_complement(self):
        for word in permutations((1, 2, 3, 4)):
            v = Permutation(word)
            assert v.apply_symmetry(DihedralSymmetry.ROTATE_180) == v.reverse_complement()

    def test_inverse_matches_group_inverse(self):
        for word in permutations((1, 2, 3, 4)):
            v = Permutation(word)
            assert v.apply_symmetry(DihedralSymmetry.INVERSE) == v.inverse()

    def test_group_has_order_eight(self):
        assert len(list(DihedralSymmetry)) == 8

    def test_composition_table(self):
        # The eight members act on S_4 as eight distinct maps, closed under
        # composition.
        maps = {s: action(s) for s in DihedralSymmetry}
        assert len(set(maps.values())) == 8
        for s in DihedralSymmetry:
            for t in DihedralSymmetry:
                assert compose(maps[s], maps[t]) in maps.values()

    def test_rc_has_order_two(self):
        rc = action(DihedralSymmetry.ROTATE_180)
        assert compose(rc, rc) == action(DihedralSymmetry.IDENTITY)

    def test_generated_by_reverse_complement_inverse(self):
        generators = {
            action(DihedralSymmetry.REVERSE),
            action(DihedralSymmetry.COMPLEMENT),
            action(DihedralSymmetry.INVERSE),
        }
        reached = {action(DihedralSymmetry.IDENTITY)}
        frontier = set(reached)
        while frontier:
            new = {compose(g, f) for g in generators for f in frontier} - reached
            reached |= new
            frontier = new
        assert reached == {action(s) for s in DihedralSymmetry}


class TestInverse:
    def test_self_inverse_example(self):
        assert SignedPermutation((1, -2)).inverse() == SignedPermutation((1, -2))

    def test_identity(self):
        w = SignedPermutation.identity(4)
        assert w.inverse() == w

    def test_signed_two_cycle(self):
        assert SignedPermutation((2, -1)).inverse() == SignedPermutation((-2, 1))

    @given(w=signed_permutation_strategy())
    def test_involution(self, w):
        assert w.inverse().inverse() == w

    @given(w=signed_permutation_strategy())
    def test_inverse_defines_group_inverse(self, w):
        v = w.inverse()
        n = w.size
        full = {x: w.window[x - 1] for x in range(1, n + 1)}
        full.update({-x: -y for x, y in full.items()})
        for x, y in full.items():
            assert (v.window[y - 1] if y > 0 else -v.window[-y - 1]) == x


class TestDescentsAndGenerators:
    def test_identity_has_no_descents(self):
        assert SignedPermutation.identity(4).descent_set() == frozenset()

    def test_descent_inside_window(self):
        assert SignedPermutation((1, -2)).descent_set() == {1}

    def test_descent_at_zero(self):
        assert SignedPermutation((-2, -1)).descent_set() == {0}

    def test_descents_of_running_example(self):
        assert SignedPermutation((-2, 1, 3, -4)).descent_set() == {0, 3}

    def test_generator_zero_is_involution(self):
        w = SignedPermutation((-1,))
        assert window_apply_generator(w.window, 0) == (1,)

    def test_swap_generator(self):
        assert window_apply_generator((1, 2), 1) == (2, 1)

    def test_negate_first(self):
        assert window_apply_generator((-2, -1), 0) == (2, -1)

    def test_generator_out_of_range(self):
        with pytest.raises(IndexError):
            window_apply_generator((1, 2), 2)

    @given(w=signed_permutation_strategy(), data=st.data())
    def test_generators_are_involutions(self, w, data):
        i = data.draw(st.integers(min_value=0, max_value=w.size - 1))
        assert window_apply_generator(window_apply_generator(w.window, i), i) == w.window

    @given(w=signed_permutation_strategy(), data=st.data())
    def test_descent_iff_length_drops(self, w, data):
        i = data.draw(st.integers(min_value=0, max_value=w.size - 1))
        shorter = window_length(window_apply_generator(w.window, i)) < w.length()
        assert shorter == (i in w.descent_set())


class TestLengthAndWords:
    def test_identity_tiny_cases(self):
        assert SignedPermutation.identity(3).length() == 0
        assert SignedPermutation((-1,)).length() == 1
        assert SignedPermutation((-2, -1)).length() == 3

    def test_reduced_word_examples(self):
        assert window_reduced_word((1, 2, 3)) == ()
        assert window_reduced_word((-1,)) == (0,)
        word = window_reduced_word((-2, -1))
        assert len(word) == 3
        assert window_from_reduced_word(2, word) == (-2, -1)

    def test_all_reduced_words_examples(self):
        assert SignedPermutation.identity(2).all_reduced_words() == {()}
        assert SignedPermutation((2, 1)).all_reduced_words() == {(1,)}
        assert SignedPermutation((-1, 3, 2)).all_reduced_words() == {(0, 2), (2, 0)}
        assert SignedPermutation((-2, -1)).all_reduced_words() == {(0, 1, 0)}

    def test_length_equals_reduced_word_length_exhaustive(self):
        for n in range(6):
            for w in signed_permutations(n):
                word = window_reduced_word(w.window)
                assert len(word) == w.length()
                assert window_from_reduced_word(n, word) == w.window

    def test_all_words_reduced_and_support_invariant(self):
        for n in range(5):
            for w in signed_permutations(n):
                words = w.all_reduced_words()
                supports = {frozenset(word) for word in words}
                assert len(supports) == 1
                assert supports.pop() == w.support()
                for word in words:
                    assert len(word) == w.length()
                    assert window_from_reduced_word(n, word) == w.window

    def test_all_reduced_words_match_every_short_word(self):
        # Oracle: every generator word of length <= 9 (the longest length in
        # B_3), evaluated letter by letter as it grows.  The reduced words of
        # w are the words of length l(w) that evaluate to w, each once.
        for n in range(1, 4):
            found = {}
            stack = [((), tuple(range(1, n + 1)))]
            while stack:
                word, cur = stack.pop()
                if len(word) == window_length(cur):
                    found.setdefault(cur, []).append(word)
                if len(word) == 9:
                    continue
                for i in range(n):
                    grown = list(cur)
                    if i == 0:
                        grown[0] = -grown[0]
                    else:
                        grown[i - 1], grown[i] = grown[i], grown[i - 1]
                    stack.append((word + (i,), tuple(grown)))
            for w in iter_windows(n):
                words = window_all_reduced_words(w)
                assert len(set(words)) == len(words)
                assert sorted(words) == sorted(found[w])

    def test_support_matches_a_reduced_word_exhaustive(self):
        # The formula reads the support off the window; the oracle collects
        # the letters of one reduced word, built by clearing descents.
        for n in range(7):
            for w in signed_permutations(n):
                assert w.support() == frozenset(window_reduced_word(w.window))

    def test_support_examples(self):
        assert SignedPermutation.identity(3).support() == frozenset()
        assert SignedPermutation((-1, 3, 2)).support() == {0, 2}
        assert SignedPermutation((-2, -1)).support() == {0, 1}

    def test_longest_element_word_count(self):
        # Longest element of the rank-3 group: 42 reduced words of length 9.
        w0 = SignedPermutation((-1, -2, -3))
        assert w0.length() == 9
        assert len(w0.all_reduced_words()) == 42


class TestEnumeration:
    def test_group_orders(self):
        for n in range(5):
            assert sum(1 for _ in signed_permutations(n)) == signed_group_order(n)

    def test_each_window_once(self):
        for n in range(7):
            windows = list(iter_windows(n))
            assert len(set(windows)) == len(windows) == signed_group_order(n)
            assert all(map(is_signed_window, windows))
        # The walk of the empty pattern starts at B_(-1), which is empty.
        assert list(iter_windows(-1)) == []

    def test_growth_from_the_whole_group_gives_each_window_once(self):
        # Sorting keeps repeats, so a window grown twice fails the comparison.
        for k in range(1, 6):
            group = sorted(iter_windows(k))
            assert sorted(c for w in iter_windows(k - 1) for c in every_child(w)) == group

    def test_the_whole_group_is_not_grown(self, monkeypatch):
        # The predicate routes scan whole groups to check the grown classes,
        # so a growth bug must not reach the scan.
        def refuse(*args):
            raise AssertionError("whole group built by growth")

        monkeypatch.setattr(core, "grown_at", refuse)
        assert len(list(iter_windows(5))) == signed_group_order(5)
        assert len(list(signed_permutations(4))) == signed_group_order(4)

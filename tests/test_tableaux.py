import time
from collections import Counter
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from bperm.core import SignedPermutation, signed_permutations
from bperm.tableaux import (
    InvalidPartitionError,
    _domino_placements,
    check_partition,
    domino_count,
    domino_tableaux,
    is_domino_tileable,
    parse_partition,
    partitions,
    rs_shape,
    shape_of_signed,
    standard_tableaux,
    syt_count,
    two_core,
)


def two_core_by_removal(shape):
    """
    The 2-core: what remains after repeatedly removing border dominoes.
    The result is independent of removal order.
    """
    parts = list(check_partition(shape))
    while True:
        for i in range(len(parts)):
            below = parts[i + 1] if i + 1 < len(parts) else 0
            if parts[i] - 2 >= below:
                parts[i] -= 2
                break
            if (
                i + 1 < len(parts)
                and parts[i] == parts[i + 1]
                and parts[i + 1] - 1 >= (parts[i + 2] if i + 2 < len(parts) else 0)
            ):
                parts[i] -= 1
                parts[i + 1] -= 1
                break
        else:
            break
        parts = [p for p in parts if p > 0]
    return tuple(parts)


def domino_count_by_placement(shape):
    """Number of standard domino tableaux of `shape` (0 for odd size), placing dominoes."""
    shape = check_partition(shape)
    if sum(shape) % 2 != 0:
        return 0
    return _placement_count((0,) * len(shape), shape, {})


def _placement_count(partial, shape, memo):
    """Completions of the partial diagram, memoized over every sub-diagram reached."""
    if sum(partial) == sum(shape):
        return 1
    cached = memo.get(partial)
    if cached is not None:
        return cached
    total = 0
    for domino in _domino_placements(partial, shape):
        grown = list(partial)
        for r in domino:
            grown[r] += 1
        total += _placement_count(tuple(grown), shape, memo)
    memo[partial] = total
    return total


def lis_oracle(word):
    """Brute force over all subsequences."""
    best = 0
    for k in range(len(word), 0, -1):
        for subset in combinations(word, k):
            if all(subset[i] < subset[i + 1] for i in range(k - 1)):
                return k
    return best


def lis(word):
    """Length of the longest strictly increasing subsequence."""
    best = [0] * len(word)
    for i, v in enumerate(word):
        best[i] = 1 + max((best[j] for j in range(i) if word[j] < v), default=0)
    return max(best, default=0)


def lds(word):
    """Length of the longest strictly decreasing subsequence."""
    return lis([-v for v in word])


def catalan_multidim(j, k):
    """
    The k-th j-dimensional Catalan number, by its product formula:
    (kj)! (1! ... (j-1)!) (1! ... (k-1)!) / (1! ... (k+j-1)!).
    """
    numerator = factorial(k * j)
    for t in list(range(1, j)) + list(range(1, k)):
        numerator *= factorial(t)
    denominator = 1
    for t in range(1, k + j):
        denominator *= factorial(t)
    value, remainder = divmod(numerator, denominator)
    assert remainder == 0
    return value


@st.composite
def partition_strategy(draw, max_total=8):
    total = draw(st.integers(min_value=1, max_value=max_total))
    parts = []
    remaining = total
    cap = total
    while remaining:
        part = draw(st.integers(min_value=1, max_value=min(cap, remaining)))
        parts.append(part)
        cap = part
        remaining -= part
    return tuple(parts)


class TestPartitions:
    def test_validation(self):
        with pytest.raises(InvalidPartitionError):
            check_partition((1, 2))
        with pytest.raises(InvalidPartitionError):
            check_partition((2, 0))
        assert check_partition((3, 1)) == (3, 1)

    def test_parse(self):
        assert parse_partition("4,2") == (4, 2)
        assert parse_partition("") == ()
        with pytest.raises(InvalidPartitionError, match="cannot parse shape '3,a'"):
            parse_partition("3,a")

    def test_enumeration_counts(self):
        # Partition numbers p(0..8) = 1,1,2,3,5,7,11,15,22.
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        for total, count in enumerate(expected):
            assert sum(1 for _ in partitions(total)) == count

    @given(shape=partition_strategy())
    def test_generated_shapes_are_partitions(self, shape):
        assert check_partition(shape) == shape


class TestSytCount:
    def test_single_row(self):
        for k in range(1, 8):
            assert syt_count((k,)) == 1

    def test_small_shapes(self):
        assert syt_count((2, 2)) == 2
        assert syt_count((2, 1)) == 2
        assert syt_count((3, 2)) == 5
        assert syt_count((4, 3, 2, 1)) == 768

    def test_matches_enumeration_up_to_size_8(self):
        for total in range(1, 9):
            for shape in partitions(total):
                assert syt_count(shape) == sum(1 for _ in standard_tableaux(shape))

    def test_sum_of_squares_is_factorial(self):
        for total in range(1, 9):
            assert sum(syt_count(s) ** 2 for s in partitions(total)) == factorial(total)

    def test_enumerated_tableaux_are_standard(self):
        for rows in standard_tableaux((3, 2)):
            flat = [v for row in rows for v in row]
            assert sorted(flat) == list(range(1, 6))
            for row in rows:
                assert all(row[i] < row[i + 1] for i in range(len(row) - 1))
            for i in range(len(rows) - 1):
                for j in range(len(rows[i + 1])):
                    assert rows[i][j] < rows[i + 1][j]


class TestRsShape:
    def test_monotone_words(self):
        assert rs_shape(range(1, 6)) == (5,)
        assert rs_shape((5, 4, 3, 2, 1)) == (1, 1, 1, 1, 1)

    def test_small_example(self):
        assert rs_shape((2, 1, 3)) == (2, 1)

    def test_shape_is_partition_of_length(self):
        for word in permutations(range(1, 6)):
            shape = rs_shape(word)
            assert sum(shape) == 5
            assert check_partition(shape) == shape

    def test_total_count_by_shape(self):
        # RS is a bijection onto same-shape tableau pairs.
        from collections import Counter

        counter = Counter(rs_shape(word) for word in permutations(range(1, 7)))
        for shape, count in counter.items():
            assert count == syt_count(shape) ** 2


class TestLisLds:
    def test_examples(self):
        assert lis((3, 1, 4, 2)) == 2
        assert lds((3, 1, 4, 2)) == 2
        assert lis(tuple(range(1, 7))) == 6
        assert lds(tuple(range(1, 7))) == 1

    def test_mirror_word_example(self):
        word = SignedPermutation((-2, 1, 3, -4)).mirror_word()
        assert lis_oracle(word) == 4
        assert lis(word) == 4

    def test_greene_exhaustive_to_size_6(self):
        for m in range(1, 7):
            for word in permutations(range(1, m + 1)):
                shape = rs_shape(word)
                assert shape[0] == lis_oracle(word)
                assert len(shape) == lis_oracle(tuple(-v for v in word))

    @given(word=st.permutations(range(1, 9)))
    @settings(max_examples=150)
    def test_greene_sampled_at_size_8(self, word):
        word = tuple(word)
        shape = rs_shape(word)
        assert shape[0] == lis(word) == lis_oracle(word)
        assert len(shape) == lds(word)


class TestDominoTableaux:
    def test_two_by_two(self):
        tableaux = list(domino_tableaux((2, 2)))
        assert len(tableaux) == 2
        assert set(tableaux) == {((1, 1), (2, 2)), ((1, 2), (1, 2))}

    def test_odd_size_is_empty(self):
        for shape in [(2, 1), (21, 20)]:
            # A search of the (21, 20) filling tree takes seconds to find nothing.
            start = time.perf_counter()
            assert list(domino_tableaux(shape)) == []
            assert time.perf_counter() - start < 0.5
            assert domino_count(shape) == 0

    def test_untileable_shapes_list_nothing_without_a_search(self, monkeypatch):
        # A nonempty 2-core ends the listing before any filling is tried; the
        # filling tree of (21, 20, 1) takes seconds to search and holds nothing.
        def no_fill(*args):
            raise AssertionError("domino_tableaux searched an untileable shape")

        monkeypatch.setattr("bperm.tableaux._fill", no_fill)
        for shape in [(21, 20, 1), (3, 2, 1), (5,)]:
            assert list(domino_tableaux(shape)) == []

    def test_invalid_odd_shape_raises_at_first_next(self):
        tableaux = domino_tableaux((1, 2))
        with pytest.raises(InvalidPartitionError):
            next(tableaux)

    def test_count_matches_enumeration(self):
        for total in range(2, 11, 2):
            for shape in partitions(total):
                assert domino_count(shape) == sum(1 for _ in domino_tableaux(shape))

    def test_two_row_binomial_identity(self):
        for n in range(1, 6):
            for k in range(n + 1):
                shape = (2 * n - k, k) if k else (2 * n,)
                assert domino_count(shape) == comb(n, k // 2)

    def test_hook_formula_matches_placement_recursion(self):
        for total in range(21):
            for shape in partitions(total):
                assert domino_count(shape) == domino_count_by_placement(shape)

    def test_counts_without_placing_a_domino(self, monkeypatch):
        # Placing dominoes one at a time does not finish the 16 x 16 square in minutes.
        def no_placements(partial, shape):
            raise AssertionError("domino_count placed a domino")

        monkeypatch.setattr("bperm.tableaux._domino_placements", no_placements)
        assert domino_count((2, 2)) == 2
        assert domino_count((3, 3, 1, 1)) == 8
        assert domino_count((60, 40)) == comb(50, 20)
        assert domino_count((16,) * 16) > 0

    def test_sum_of_squares_is_group_order(self):
        # Same-shape domino tableau pairs are equinumerous with signed permutations.
        for n in range(1, 5):
            total = sum(
                domino_count(shape) ** 2
                for shape in partitions(2 * n)
                if is_domino_tileable(shape)
            )
            assert total == 2**n * factorial(n)

    def test_prefixes_are_young_diagrams(self):
        for shape in [(), (4, 2), (3, 3, 1, 1), (4, 2, 2), (5, 3, 2)]:
            for grid in domino_tableaux(shape):
                assert tuple(len(row) for row in grid) == shape
                cells = {
                    (r, c): label
                    for r, row in enumerate(grid)
                    for c, label in enumerate(row)
                }
                n = len(cells) // 2
                for i in range(1, n + 1):
                    # Domino i covers two cells sharing a row or a column.
                    (r1, c1), (r2, c2) = sorted(p for p, v in cells.items() if v == i)
                    assert (r2 - r1, c2 - c1) in {(0, 1), (1, 0)}
                    # The cells labelled at most i form a Young diagram.
                    lengths = [sum(1 for v in row if v <= i) for row in grid]
                    assert lengths == sorted(lengths, reverse=True)
                    for row, length in zip(grid, lengths):
                        assert all(v <= i for v in row[:length])


class TestTileability:
    def test_examples(self):
        assert is_domino_tileable((3, 1))
        assert not is_domino_tileable((2, 1))
        assert is_domino_tileable((4, 2))

    def test_two_core_staircases_are_cores(self):
        # Staircase shapes contain no removable domino at all.
        assert two_core((1,)) == (1,)
        assert two_core((2, 1)) == (2, 1)
        assert two_core((3, 2, 1)) == (3, 2, 1)

    def test_two_core_matches_border_domino_removal(self):
        # The charge formula against removing border dominoes one at a time.
        for total in range(21):
            for shape in partitions(total):
                assert two_core(shape) == two_core_by_removal(shape)

    def test_agrees_with_domino_count(self):
        for total in range(1, 17):
            for shape in partitions(total):
                assert is_domino_tileable(shape) == (domino_count_by_placement(shape) > 0)


class TestCatalanMultidim:
    """Rectangle counts against the multidimensional Catalan product formula."""

    def test_one_dimensional(self):
        for k in range(1, 7):
            assert syt_count((k,)) == catalan_multidim(1, k) == 1

    def test_classic_values(self):
        assert [syt_count((k, k)) for k in (2, 3, 4)] == [2, 5, 14]

    def test_matches_rectangle_syt_count(self):
        for j in range(1, 17):
            for k in range(1, 17):
                if j * k <= 16:
                    assert catalan_multidim(j, k) == syt_count((k,) * j)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidPartitionError):
            syt_count((0, 0))


class TestShapeOfSigned:
    def test_identity(self):
        for n in range(1, 5):
            assert shape_of_signed(SignedPermutation.identity(n)) == (2 * n,)

    def test_reversed_negatives(self):
        assert shape_of_signed(SignedPermutation((-1, -2))) == (1, 1, 1, 1)
        assert shape_of_signed(SignedPermutation((-2, -1))) == (2, 2)

    def test_equals_iota_shape_and_is_tileable(self):
        for n in range(1, 5):
            for w in signed_permutations(n):
                shape = shape_of_signed(w)
                assert shape == rs_shape(w.iota().oneline)
                assert is_domino_tileable(shape)
                mirror = w.mirror_word()
                assert shape[0] == lis(mirror)
                assert len(shape) == lds(mirror)

    def test_shapes_are_counted_by_squared_domino_counts(self):
        # The Garfinkle-Barbasch-Vogan identity shape by shape: RS insertion
        # of each mirror word against the 2-quotient hook formula.
        for n in range(7):
            by_shape = Counter(shape_of_signed(w) for w in signed_permutations(n))
            tileable = (s for s in partitions(2 * n) if is_domino_tileable(s))
            assert by_shape == {s: domino_count(s) ** 2 for s in tileable}

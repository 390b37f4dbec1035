"""
Pattern containment for signed permutations.

Two notions of containment are implemented:

* *classical* containment of a signed pattern q in a signed permutation w:
  an occurrence at positive window positions whose absolute values are
  order-isomorphic to those of q and whose signs match q entrywise;

* *global* containment of an unsigned pattern p in w: an occurrence of p
  anywhere in the 2n-letter mirror word of w.

The pattern type names the order: a set of `Permutation` patterns is avoided
globally, a set of `SignedPermutation` patterns classically; a set mixing the
two kinds is rejected.

Global avoidance classes can always be rewritten as classical avoidance
classes: `global_basis` computes, for a set P of unsigned patterns, the
unique minimal antichain of signed patterns whose classical avoidance class
coincides with the global avoidance class of P.

One search, `_search`, decides or counts in both orders: a plan made once per
pattern bounds each entry by its nearest smaller and larger earlier entries,
and `_match` recurses once per entry, as deep as the pattern is long.

Pattern-set text grammar (shared with the CLI): patterns separated by ";",
entries by ",", e.g. "3,4,1,2;4,2,3,1" (unsigned) or "-2,1;-1,-2" (signed).
"""
from __future__ import annotations

import functools
import sys
from typing import Callable, Iterable, Sequence

from .core import (
    DihedralSymmetry,
    Permutation,
    SignedPermutation,
    grown,
    mirror_of_window,
    parse_window,
)

# global_basis grows the class to size m - 1 and tests each child.  For the
# identity, m = 7 tests nearly all of B_7 (18 s at 25 MB peak RSS on a 2-vCPU
# VM); B_8 is 16 times B_7, so m = 8 would take minutes.
MAX_BASIS_PATTERN_SIZE = 7
_BOUNDS = (-sys.maxsize, 0, sys.maxsize)  # floor, floor under signs, ceiling


class PatternTooLargeError(ValueError):
    """A basis computation was requested for patterns above the supported size."""


@functools.lru_cache(maxsize=None)
def _plan(pattern: tuple[int, ...], signed: bool) -> tuple[tuple, ...]:
    """
    Per entry of `pattern`, (low, high, sign, rest, cut_low, cut_high): in
    `_search` a letter v fits iff sign*matched[low] < v < sign*matched[high],
    where slots 0-2 hold `_BOUNDS` and slot 3 + j entry j's value: the nearest
    smaller and larger earlier entries by absolute value, or bounds.  `rest`
    entries follow.  cut_high (cut_low): no later entry reads this one as its
    high (low) bound, so after they fail at v, the scan's high (low) bound
    moves to v.  Sign -1 swaps low with high and cut_low with cut_high.
    """
    keys = [abs(p) for p in pattern]
    near = [
        (3 + max((j for j in range(d) if keys[j] < key), key=keys.__getitem__, default=signed - 3),
         3 + min((j for j in range(d) if keys[j] > key), key=keys.__getitem__, default=-1))
        for d, key in enumerate(keys)
    ]
    lows, highs = zip(*near)
    return tuple(
        (high, low, -1, len(keys) - 1 - d, 3 + d not in highs, 3 + d not in lows)
        if signed and pattern[d] < 0
        else (low, high, 1, len(keys) - 1 - d, 3 + d not in lows, 3 + d not in highs)
        for d, (low, high) in enumerate(near)
    )


def _search(word: Sequence[int], pattern: Sequence[int], signed: bool, stop: int | None) -> int:
    """
    Index subsets of `word` (distinct letters below sys.maxsize in absolute
    value) matching `pattern`: order-isomorphic to it or, if `signed`, in
    absolute value with the same signs.  `stop` is 1 (decide) or None (count):
    `_match` adds up nested counts, which could overshoot any other stop.
    A letter matched to an entry of sign s is stored times s, so under signs
    the floor 0 rejects a wrong sign and one test serves both orders.
    """
    if not pattern:
        return 1
    return _match(word, _plan(tuple(pattern), signed), [*_BOUNDS], 0, stop)


def _match(word: Sequence[int], steps: tuple, matched: list[int], start: int, stop: int | None) -> int:
    """`_search` for the entries from len(matched) - 3 on, at indices from `start`."""
    low_slot, high_slot, sign, rest, cut_low, cut_high = steps[len(matched) - 3]
    low, high = sign * matched[low_slot], sign * matched[high_slot]
    found = 0
    for i in range(start, len(word) - rest):
        v = word[i]
        if low < v < high:
            if not rest:
                found += 1
            else:
                matched.append(sign * v)
                below = _match(word, steps, matched, i + 1, stop)
                matched.pop()
                found += below
                if not below:
                    low, high = (v if cut_low else low), (v if cut_high else high)
            if found == stop:
                return found
    return found


def word_contains(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of `word` is order-isomorphic to `pattern`."""
    return _search(word, pattern, False, 1) > 0


def signed_word_contains(window: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff a subsequence of `window` matches `pattern` in absolute-value order and sign."""
    return _search(window, pattern, True, 1) > 0


def unsigned_contains(v: Permutation, p: Permutation) -> bool:
    """Classical containment of the unsigned pattern p in v."""
    return word_contains(v.oneline, p.oneline)


def classical_contains(w: SignedPermutation, q: SignedPermutation) -> bool:
    return signed_word_contains(w.window, q.window)


def global_contains(w: SignedPermutation, p: Permutation) -> bool:
    """Containment of the unsigned pattern p in the mirror word of w."""
    return word_contains(w.mirror_word(), p.oneline)


def count_global_occurrences(w: SignedPermutation, p: Permutation) -> int:
    """Number of distinct global occurrences of p in w (by index subset)."""
    return _search(w.mirror_word(), p.oneline, False, None)


def _containment_order(
    patterns: Iterable[Permutation] | Iterable[SignedPermutation],
) -> str:
    """
    "global" for unsigned patterns (and the empty set), "classical" for
    signed ones; a set mixing the two has no order.
    """
    kinds = {type(p) for p in patterns}
    if kinds <= {Permutation}:
        return "global"
    if kinds == {SignedPermutation}:
        return "classical"
    raise ValueError("a pattern set must be all unsigned or all signed patterns")


def _avoidance_test(
    patterns: Iterable[Permutation] | Iterable[SignedPermutation],
) -> Callable[[Sequence[int]], bool]:
    """
    A test telling whether a window avoids every pattern.  The pattern type
    picks the order once per call, never per window: unsigned patterns are
    sought in the window's mirror word, signed ones in the window itself.
    """
    patterns = tuple(patterns)
    if _containment_order(patterns) == "global":
        words = tuple(p.oneline for p in patterns)

        def avoids_globally(window: Sequence[int]) -> bool:
            mirror = mirror_of_window(window)
            return not any(word_contains(mirror, p) for p in words)

        return avoids_globally
    signed_words = tuple(q.window for q in patterns)

    def avoids_classically(window: Sequence[int]) -> bool:
        return not any(signed_word_contains(window, q) for q in signed_words)

    return avoids_classically


def delete_window_entry(window: Sequence[int], index: int) -> tuple[int, ...]:
    """
    Remove one window entry and re-rank the remaining absolute values,
    keeping signs: the unique signed pattern of size n - 1 occurring at the
    remaining positions.
    """
    remaining = [v for i, v in enumerate(window) if i != index]
    ranks = {a: r + 1 for r, a in enumerate(sorted(abs(v) for v in remaining))}
    return tuple(ranks[abs(v)] if v > 0 else -ranks[abs(v)] for v in remaining)


def global_basis(patterns: Iterable[Permutation]) -> tuple[SignedPermutation, ...]:
    """
    The minimal set of signed patterns whose classical avoidance class equals
    the global avoidance class of `patterns`.

    The class A_k of size k is grown from A_(k-1) for k = 1..m (the largest
    pattern size), starting from B_0.  A child that contains a pattern is
    minimal under classical containment iff each single-entry deletion, which
    is exactly one-step classical containment, lies in A_(k-1); its last
    deletion is its parent, which does.  Output is ordered by size, then
    lexicographically.
    """
    patterns = tuple(patterns)
    if not patterns:
        raise ValueError("pattern set must be nonempty")
    m = max(len(p.oneline) for p in patterns)
    if m > MAX_BASIS_PATTERN_SIZE:
        raise PatternTooLargeError(
            f"pattern size {m} exceeds basis cap {MAX_BASIS_PATTERN_SIZE}"
        )
    avoids = _avoidance_test(patterns)
    level, basis = frozenset({()}), []
    for k in range(1, m + 1):
        avoiding = set()
        for window in grown(level, k):
            if avoids(window):
                if k < m:
                    avoiding.add(window)
            elif all(delete_window_entry(window, j) in level for j in range(k - 1)):
                basis.append(window)
        level = avoiding
    return tuple(SignedPermutation(window) for window in sorted(basis, key=lambda w: (len(w), w)))


def apply_symmetry_to_set(
    patterns: Iterable[Permutation], symmetry: DihedralSymmetry
) -> frozenset[Permutation]:
    return frozenset(p.apply_symmetry(symmetry) for p in patterns)


def rc_reduce(patterns: Iterable[Permutation]) -> frozenset[Permutation]:
    """
    One representative per {p, reverse_complement(p)} pair; the global
    avoidance class is unchanged because an occurrence of p in a mirror word
    reflects to an occurrence of its reverse-complement.
    """
    return frozenset(
        min(p, p.reverse_complement(), key=lambda q: q.oneline) for p in patterns
    )


def parse_unsigned_patterns(text: str) -> tuple[Permutation, ...]:
    """Parse a ";"-separated set of unsigned patterns, e.g. "3,4,1,2;4,2,3,1"."""
    parts = [part for part in text.split(";") if part.strip()]
    return tuple(Permutation(parse_window(part)) for part in parts)


def parse_signed_patterns(text: str) -> tuple[SignedPermutation, ...]:
    """Parse a ";"-separated set of signed patterns, e.g. "-2,1;-1,-2"."""
    parts = [part for part in text.split(";") if part.strip()]
    return tuple(SignedPermutation(parse_window(part)) for part in parts)


def format_pattern_set(
    patterns: Iterable[Permutation] | Iterable[SignedPermutation],
) -> str:
    return ";".join(str(p) for p in patterns)

"""
Pattern containment for signed permutations, and avoidance classes.

Two notions of containment are implemented:

* *classical* containment of a signed pattern q in a signed permutation w:
  an occurrence at positive window positions whose absolute values are
  order-isomorphic to those of q and whose signs match q entrywise;

* *global* containment of an unsigned pattern p in w: an occurrence of p
  anywhere in the 2n-letter mirror word of w.

The pattern type names the order: a set of `Permutation` patterns is avoided
globally, a set of `SignedPermutation` patterns classically.  `avoiders` and
`count_avoiders` answer "which (how many) windows of size n avoid P?" for
either kind; a set mixing the two kinds is rejected.  Both walk window
prefixes depth first and test each prefix: a prefix is a classical pattern of
every window extending it, and its mirror word is the middle factor of theirs,
so a prefix that contains a pattern is dropped with all its extensions.

A prefix of length k re-ranked to a window of size k (`_standardize`) avoids
a pattern exactly when the prefix does, so the walk of size n first builds
the levels A_0..A_(n-1), the sets of smaller avoiders (`_levels`), and keeps
a shorter prefix iff its standardization is in its level.  The containment
search then runs on whole windows only.  A level where no pattern fits is
None, and its prefixes are kept without being standardized.

Global avoidance classes can always be rewritten as classical avoidance
classes: `global_basis` computes, for a set P of unsigned patterns, the
unique minimal antichain of signed patterns whose classical avoidance class
coincides with the global avoidance class of P.

One search, `_search`, decides or counts in both orders: a plan made once per
pattern bounds each entry by its nearest smaller and larger earlier entries.

Pattern-set text grammar (shared with the CLI): patterns separated by ";",
entries by ",", e.g. "3,4,1,2;4,2,3,1" (unsigned) or "-2,1;-1,-2" (signed).
"""
from __future__ import annotations

import functools
import sys
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    DihedralSymmetry,
    Permutation,
    SignedPermutation,
    iter_windows,
    mirror_of_window,
    parse_window,
)

MAX_BASIS_PATTERN_SIZE = 8
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
    value) matching `pattern`, counted up to `stop` (None: all): order-
    isomorphic to it or, if `signed`, in absolute value with the same signs.
    A letter matched to an entry of sign s is stored times s, so under signs
    the floor 0 rejects a wrong sign and one test serves both orders.
    """
    if not pattern:
        return 1
    n = len(word)
    steps = _plan(tuple(pattern), signed)
    matched = [*_BOUNDS]
    frames = []  # the suspended scans of the earlier entries, one per depth
    found, i = 0, -1
    while True:
        low_slot, high_slot, sign, rest, cut_low, cut_high = steps[len(frames)]
        low = sign * matched[low_slot]
        high = sign * matched[high_slot]
        scan = iter(range(i + 1, n - rest))
        while True:
            for i in scan:
                if low < word[i] < high:
                    break
            else:
                if not frames:
                    return found
                matched.pop()
                scan, low, high, v, before = frames.pop()
                _, _, sign, rest, cut_low, cut_high = steps[len(frames)]
                if found == before:
                    low, high = (v if cut_low else low), (v if cut_high else high)
                continue
            if rest:
                break
            found += 1
            if found == stop:
                return found
        matched.append(sign * word[i])
        frames.append((scan, low, high, word[i], found))


def _occurrences(word: Sequence[int], pattern: Sequence[int], stop: int | None = None) -> int:
    """Index subsets of `word` order-isomorphic to `pattern`, counted up to `stop`."""
    return _search(word, pattern, False, stop)


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
    return _occurrences(w.mirror_word(), p.oneline)


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


def _standardize(prefix: Sequence[int]) -> tuple[int, ...]:
    """
    The window of size len(prefix) with the prefix's signs and its absolute
    values re-ranked to 1..len(prefix).  Re-ranking keeps the relative order
    of the letters of the mirror word and of the absolute values, so the
    window avoids a pattern, in either order, exactly when the prefix does.
    """
    ranks = sorted(map(abs, prefix))
    return tuple(1 + ranks.index(v) if v > 0 else -1 - ranks.index(-v) for v in prefix)


def _prefix_test(
    patterns: tuple[Permutation, ...] | tuple[SignedPermutation, ...],
    levels: Sequence[frozenset | None],
) -> Callable[[Sequence[int]], bool]:
    """
    The prefix test of the walk over windows avoiding every pattern, given
    the levels A_0..A_(k-1) of `_levels`.  A prefix shorter than k avoids iff
    its standardization is in its level, or at once where the level is None;
    a prefix of length k or more, a whole window in practice, is searched.
    """
    avoids = _avoidance_test(patterns)
    depth = len(levels)

    def keep(prefix: Sequence[int]) -> bool:
        if len(prefix) >= depth:
            return avoids(prefix)
        level = levels[len(prefix)]
        return level is None or _standardize(prefix) in level

    return keep


def _levels(
    patterns: tuple[Permutation, ...] | tuple[SignedPermutation, ...], n: int
) -> list[frozenset | None]:
    """
    A_0..A_(n-1): for each size k < n, the set of size-k windows avoiding
    every pattern, each walked with the levels below it.  Where no pattern
    fits (every |p| > 2k globally, every |q| > k classically) every window
    avoids, and the level is None: nothing is stored or standardized.
    """
    reach = 2 if _containment_order(patterns) == "global" else 1
    shortest = min((p.size for p in patterns), default=sys.maxsize)
    levels: list[frozenset | None] = []
    for k in range(n):
        if reach * k < shortest:
            levels.append(None)
        else:
            levels.append(frozenset(iter_windows(k, keep=_prefix_test(patterns, levels))))
    return levels


def avoiders(
    n: int, patterns: Iterable[Permutation] | Iterable[SignedPermutation]
) -> Iterator[tuple[int, ...]]:
    """
    Windows of size n avoiding every pattern, in lexicographic order:
    globally for unsigned patterns, classically for signed ones.  Avoidance
    is closed under prefixes, so a prefix that contains a pattern is never
    extended.
    """
    patterns = tuple(patterns)
    return iter_windows(n, keep=_prefix_test(patterns, _levels(patterns, n)))


def count_avoiders(
    n: int,
    patterns: Iterable[Permutation] | Iterable[SignedPermutation],
    first: int | None = None,
) -> int:
    """Number of windows `avoiders` yields; with `first`, of those starting with it."""
    patterns = tuple(patterns)
    keep = _prefix_test(patterns, _levels(patterns, n))
    return sum(1 for _ in iter_windows(n, first=first, keep=keep))


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

    Every signed permutation of size at most m (the largest pattern size)
    that globally contains one of the patterns is collected; the minimal
    members under classical containment form the basis.  Minimality is
    decided by single-entry deletion, which is exactly one-step classical
    containment.  Output is ordered by size, then lexicographically.
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
    members = {
        window
        for size in range(1, m + 1)
        for window in iter_windows(size)
        if not avoids(window)
    }
    basis = []
    for window in sorted(members, key=lambda win: (len(win), win)):
        if all(
            delete_window_entry(window, j) not in members for j in range(len(window))
        ):
            basis.append(SignedPermutation(window))
    return tuple(basis)


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

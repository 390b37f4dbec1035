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

One search decides or counts in both orders: a plan made once per pattern
bounds each entry by its nearest smaller and larger earlier entries, and
`_compiled` turns it, on first use, into a function of nested loops, one
`for` loop per entry.  The anchored kernels pin a pattern entry on an end
letter and loop over the rest: they search a child grown from an avoider
(`core.grown`) only for the occurrences through its appended entry.
`KERNELS` lists every kernel.

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
# identity, m = 7 tests nearly all of B_7 (8.3-8.6 s CPU at 25 MB peak RSS on
# a 2-vCPU VM); B_8 is 16 times B_7, so m = 8 would take minutes.
MAX_BASIS_PATTERN_SIZE = 7
_BOUNDS = (-sys.maxsize, 0, sys.maxsize)  # floor, floor under signs, ceiling


class PatternTooLargeError(ValueError):
    """A basis computation was requested for patterns above the supported size."""


@functools.lru_cache(maxsize=None)
def _plan(pattern: tuple[int, ...], signed: bool) -> tuple[tuple, ...]:
    """
    Per entry of `pattern`, (low, high, sign, rest, cut_low, cut_high): a
    letter v fits iff sign*matched[low] < v < sign*matched[high], where slots
    0-2 hold `_BOUNDS` and slot 3 + j entry j's letter times its sign: the
    nearest smaller and larger earlier entries by absolute value, or bounds.
    `rest` entries follow.  cut_high (cut_low): no later entry reads this one
    as its high (low) bound, so after they fail at v, the scan's high (low)
    bound moves to v.  Sign -1 swaps low with high and cut_low with cut_high.
    """
    keys = [abs(p) for p in pattern]
    near = [
        (3 + max((j for j in range(d) if keys[j] < key), key=keys.__getitem__, default=signed - 3),
         3 + min((j for j in range(d) if keys[j] > key), key=keys.__getitem__, default=-1))
        for d, key in enumerate(keys)
    ]
    lows, highs = {low for low, _ in near}, {high for _, high in near}
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
    absolute value with the same signs.  `stop` is 1 (decide) or None (count),
    each run by the loops `_compiled` makes once per pattern.  A letter v
    bounds a later entry as v times both entries' signs, so under signs the
    floor 0 rejects a wrong sign and one test serves both orders.
    """
    return _compiled(tuple(pattern), signed, False, stop is None)(word, 0, len(word))


_NESTED = 16  # entries per generated function: Python nests at most 20 loops


@functools.lru_cache(maxsize=None)
def _compiled(pattern: tuple[int, ...], signed: bool, pinned: bool, count: bool,
              first: int = 0) -> Callable:
    """
    `_plan` of `pattern` compiled into nested `for` loops, one per entry, with
    each entry's bounds in locals.  The function takes (word, start, end), or
    (v0, word, start, end) if `pinned`, which matches entry 0 on the letter v0
    alone; the other entries match in word[start:end].  It returns the number
    of matches if `count`, else whether there is one.  It holds at most
    `_NESTED` entries from `first`, taking the letters v0..v(first - 1) of the
    earlier entries as more arguments, and its innermost loop hands the later
    entries to the next such function.  The source holds only the plan's
    integers and fixed names.
    """
    steps = _plan(pattern, signed)
    last = min(first + _NESTED, len(steps))
    params = ["v0"] * pinned + ["word", "start", "end"] + [f"v{j}" for j in range(first)]
    lines, closers, pad, begin = [f"def f({', '.join(params)}):"], [], " ", "start"
    if count:
        lines.append(" found = 0")
    for d in range(first, last):
        low_slot, high_slot, sign, rest, cut_low, cut_high = steps[d]
        low, high = (
            str(sign * _BOUNDS[slot]) if slot < 3
            else f"{'-' * (sign * steps[slot - 3][2] < 0)}v{slot - 3}"
            for slot in (low_slot, high_slot)
        )
        if pinned and d == 0:
            lines += [f" if not {low} < v0 < {high}:", f"  return {'0' if count else 'False'}"]
            continue
        lines += [f"{pad}lo{d}, hi{d} = {low}, {high}",
                  f"{pad}for i{d} in range({begin}, {f'end - {rest}' if rest else 'end'}):",
                  f"{pad} v{d} = word[i{d}]",
                  f"{pad} if lo{d} < v{d} < hi{d}:"]
        pad, begin = pad + "  ", f"i{d} + 1"
        # After a failed subtree at v, the scan's bound moves to v.
        cuts = "; ".join([f"lo{d} = v{d}"] * cut_low + [f"hi{d} = v{d}"] * cut_high)
        if rest and cuts and count:
            lines.append(f"{pad}c{d} = found")
            closers.append(f"{pad}if found == c{d}: {cuts}")
        elif rest and cuts:  # deciding: reached only past a subtree that found nothing
            closers.append(pad + cuts)
    namespace = {}
    if last < len(steps):
        namespace["g"] = _compiled(pattern, signed, False, count, last)
        below = f"g(word, {begin}, end, {', '.join(f'v{j}' for j in range(last))})"
        lines += ([f"{pad}found += {below}"] if count
                  else [f"{pad}if {below}:", f"{pad} return True"])
    else:
        lines.append(f"{pad}found += 1" if count else f"{pad}return True")
    lines += reversed(closers)
    lines.append(f" return {'found' if count else 'False'}")
    exec("\n".join(lines), namespace)
    return namespace.pop("f")  # so that f does not hold itself


@functools.lru_cache(maxsize=None)
def _rotated(pattern: tuple[int, ...], signed: bool) -> Callable:
    """
    `_compiled` of `pattern` with its last entry moved to the front, pinned.
    Rotating a word and a pattern alike keeps order-isomorphism, so an
    occurrence ending on a word's last letter is one of the rotated pattern
    starting on the rotated word's first.
    """
    return _compiled((pattern[-1], *pattern[:-1]), signed, True, False)


def _ends_on_last(word: Sequence[int], pattern: tuple[int, ...], signed: bool) -> bool:
    """Whether an occurrence of `pattern` puts its last entry on the last letter of `word`."""
    return _rotated(pattern, signed)(word[-1], word, 0, len(word) - 1)


def word_contains(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of `word` is order-isomorphic to `pattern`."""
    return _compiled(tuple(pattern), False, False, False)(word, 0, len(word))


def signed_word_contains(window: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff a subsequence of `window` matches `pattern` in absolute-value order and sign."""
    return _compiled(tuple(pattern), True, False, False)(window, 0, len(window))


def word_contains_at_ends(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """
    True iff an occurrence of `pattern` in `word` uses the word's first or
    last letter (the empty pattern occurs everywhere): `word_contains` for a
    word whose inner letters avoid `pattern`, such as the mirror word of a
    child from `core.grown` of an avoiding window.  The pattern's first entry
    is pinned on the first letter, or its last entry on the last letter.
    """
    pattern = tuple(pattern)
    if not pattern or len(pattern) > len(word):
        return not pattern
    return (_compiled(pattern, False, True, False)(word[0], word, 1, len(word))
            or _ends_on_last(word, pattern, False))


def signed_word_contains_at_end(window: Sequence[int], pattern: Sequence[int]) -> bool:
    """
    True iff an occurrence of `pattern` in `window`, in absolute-value order
    and sign, uses the window's last entry (the empty pattern occurs
    everywhere): `signed_word_contains` for a window whose first entries avoid
    `pattern`, such as a child from `core.grown` of an avoiding window.
    """
    pattern = tuple(pattern)
    if not pattern or len(pattern) > len(window):
        return not pattern
    return _ends_on_last(window, pattern, True)


# Every containment kernel, each called once per (word, pattern) probe: the
# whole-word searches and the ones anchored on a grown child's last entry.
KERNELS = (word_contains, signed_word_contains, word_contains_at_ends, signed_word_contains_at_end)


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


def _fits(patterns: tuple[Permutation, ...] | tuple[SignedPermutation, ...], k: int) -> bool:
    """
    Whether some pattern fits in a window of size k: one of size at most 2k
    globally, at most k classically.  Where none fits, every window avoids.
    Only the empty pattern fits at size 0, and no window avoids it.
    """
    reach = 2 if _containment_order(patterns) == "global" else 1
    return any(p.size <= reach * k for p in patterns)


def _avoidance_test(
    patterns: Iterable[Permutation] | Iterable[SignedPermutation], anchored: bool = False
) -> Callable[[Sequence[int]], bool]:
    """
    A test telling whether a window avoids every pattern.  The pattern type
    picks the order once per call, never per window: unsigned patterns are
    sought in the window's mirror word, signed ones in the window itself.

    `anchored` is for children from `core.grown` of windows that avoid every
    pattern.  A child's first entries re-ranked are its parent, which sits in
    the middle of the child's mirror word, so an occurrence must use the
    appended entry: w(k) or -w(k) globally, the last position classically.
    The search pins a pattern entry there (`word_contains_at_ends`,
    `signed_word_contains_at_end`) instead of searching the whole child.
    """
    patterns = tuple(patterns)
    if _containment_order(patterns) == "global":
        contains = word_contains_at_ends if anchored else word_contains
        words = tuple(p.oneline for p in patterns)

        def avoids_globally(window: Sequence[int]) -> bool:
            mirror = mirror_of_window(window)
            return not any(contains(mirror, p) for p in words)

        return avoids_globally
    contains = signed_word_contains_at_end if anchored else signed_word_contains
    signed_words = tuple(q.window for q in patterns)

    def avoids_classically(window: Sequence[int]) -> bool:
        return not any(contains(window, q) for q in signed_words)

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
    level, basis = frozenset({()}), []
    for k in range(1, m + 1):
        avoiding = set()
        # A level where some pattern fits was filtered by the test, so its
        # children are searched anchored; below that it is all of B_(k-1).
        avoids = _avoidance_test(patterns, anchored=_fits(patterns, k - 1))
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

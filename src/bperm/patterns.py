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

One search decides or counts in both orders: `_compiled` builds, on first
use, a function of nested loops, one `for` loop per entry, bounding each
entry by its nearest smaller and larger earlier entries.  `word_contains`
and `signed_word_contains` search a whole word.  An avoidance test of a
child of an avoider in a walk of its class (`core.walk`) calls functions
fetched once, pinned on its last letter, for the occurrences through its
appended entry.

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
    grown_at,
    mirror_of_window,
    parse_window,
    walk,
)

# global_basis walks the class to size m - 1 and tests each child at an open
# site.  For the identity, m = 7 tests nearly all of B_7 (3.2-3.7 s CPU at 18 MB
# peak RSS on a 2-vCPU VM); B_8 is 16 times B_7, so m = 8 would take minutes.
MAX_BASIS_PATTERN_SIZE = 7
# Compiled searches kept per process.  verify compiles about 200, and one
# holds about 3.5 KB; an avoidance test holds its own.
_CACHE_SIZE = 4096
_NESTED = 16  # entries per generated function: Python nests at most 20 loops


class PatternTooLargeError(ValueError):
    """A basis computation was requested for patterns above the supported size."""


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _compiled(pattern: tuple[int, ...], signed: bool, pinned: bool, count: bool,
              first: int = 0) -> Callable:
    """
    Nested `for` loops, one per entry, matching index subsets of a word
    (distinct letters below sys.maxsize in absolute value) order-isomorphic
    to `pattern` or, if `signed`, in absolute value with the same signs.
    Each entry lies strictly between its nearest smaller and nearest larger
    earlier entries by absolute value, or the floor and sys.maxsize, each
    bound held in a local: an earlier letter times both entries' signs, or
    the floor or sys.maxsize times the entry's sign, which swaps the two
    bounds if -1.  Under signs the floor 0 rejects a wrong sign, so one test
    serves both orders.
    The function takes (word, start, end), or (v0, word, start, end) if
    `pinned`, which matches entry 0 on the letter v0 alone, unchecked: the
    caller passes a v0 of entry 0's sign if `signed`; the other entries
    match in word[start:end].  It returns the number of matches if `count`,
    else whether there is one.  It holds at most `_NESTED` entries from
    `first`, taking the letters v0..v(first - 1) of the earlier entries as
    more arguments, and its innermost loop hands the later entries to the next
    such function.  The source holds only integers and fixed names, never
    pattern text.

    The cuts: when no later entry reads entry d as its upper (lower) bound,
    a letter for d further along the word and larger (smaller) in absolute
    value than a letter v whose subtree found nothing only narrows the later
    entries' ranges, so it finds nothing either: the scan's bound moves to v.
    """
    keys = [abs(v) for v in pattern]
    signs = [-1 if signed and v < 0 else 1 for v in pattern]
    smaller = [max((j for j in range(d) if keys[j] < key), key=keys.__getitem__, default=None)
               for d, key in enumerate(keys)]
    larger = [min((j for j in range(d) if keys[j] > key), key=keys.__getitem__, default=None)
              for d, key in enumerate(keys)]
    floor = 0 if signed else -sys.maxsize
    last = min(first + _NESTED, len(pattern))
    params = ["v0"] * pinned + ["word", "start", "end"] + [f"v{j}" for j in range(first)]
    lines, closers, pad, begin = [f"def f({', '.join(params)}):"], [], " ", "start"
    if count:
        lines.append(" found = 0")
    for d in range(first, last):
        if pinned and d == 0:
            continue
        sign, rest = signs[d], len(pattern) - 1 - d
        low, high = (str(sign * bound) if j is None else f"{'-' * (signs[j] != sign)}v{j}"
                     for j, bound in ((smaller[d], floor), (larger[d], sys.maxsize))[::sign])
        cut_low, cut_high = (d not in reads for reads in (smaller, larger)[::sign])
        lines += [f"{pad}lo{d}, hi{d} = {low}, {high}",
                  f"{pad}for i{d} in range({begin}, {f'end - {rest}' if rest else 'end'}):",
                  f"{pad} v{d} = word[i{d}]",
                  f"{pad} if lo{d} < v{d} < hi{d}:"]
        pad, begin = pad + "  ", f"i{d} + 1"
        cuts = "; ".join([f"lo{d} = v{d}"] * cut_low + [f"hi{d} = v{d}"] * cut_high)
        if rest and cuts and count:
            lines.append(f"{pad}c{d} = found")
            closers.append(f"{pad}if found == c{d}: {cuts}")
        elif rest and cuts:  # deciding: reached only past a subtree that found nothing
            closers.append(pad + cuts)
    namespace = {}
    if last < len(pattern):
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


def word_contains(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of `word` is order-isomorphic to `pattern`."""
    return _compiled(tuple(pattern), False, False, False)(word, 0, len(word))


def signed_word_contains(window: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff a subsequence of `window` matches `pattern` in absolute-value order and sign."""
    return _compiled(tuple(pattern), True, False, False)(window, 0, len(window))


def _reverse_complement(pattern: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(len(pattern) + 1 - v for v in reversed(pattern))


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
    word = w.mirror_word()
    return _compiled(p.oneline, False, False, True)(word, 0, len(word))


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
    picks the order once per call: unsigned patterns are sought in the
    window's mirror word, signed ones in the window itself.

    `anchored` is for the children of windows that avoid every pattern, as
    in `core.walk`.  A child's first entries re-ranked are its parent, which
    sits in the middle of the child's mirror word, so an occurrence must use
    the appended entry: w(k) or -w(k) globally, the last position
    classically.  The mirror word is its own reverse-complement, so an
    occurrence of p through -w(k) is one of rc(p) through w(k): the test
    calls pinned `_compiled` searches on the last letter only, for each
    pattern rotated (last entry first), globally of P and rc(P),
    classically only if its sign matches.
    """
    patterns = tuple(patterns)
    globally = _containment_order(patterns) == "global"
    words = tuple(p.oneline if globally else p.window for p in patterns)
    if not anchored:
        contains = word_contains if globally else signed_word_contains

        def avoids(window: Sequence[int]) -> bool:
            word = mirror_of_window(window) if globally else window
            for pattern in words:
                if contains(word, pattern):
                    return False
            return True

        return avoids
    if () in words:  # the empty pattern occurs in every child
        return lambda window: False
    if globally:
        words = tuple(dict.fromkeys((*words, *map(_reverse_complement, words))))
    lasts = [tuple(_compiled((word[-1], *word[:-1]), not globally, True, False) for word in words
                   if globally or (word[-1] > 0) == positive) for positive in (False, True)]

    def avoids_anchored(window: Sequence[int]) -> bool:
        word = mirror_of_window(window) if globally else window
        z, end = word[-1], len(word) - 1
        for search in lasts[z > 0]:
            if search(z, word, 0, end):
                return False
        return True

    return avoids_anchored


def global_basis(patterns: Iterable[Permutation]) -> tuple[SignedPermutation, ...]:
    """
    The minimal set of signed patterns whose classical avoidance class equals
    the global avoidance class of `patterns`.

    The class is walked (`core.walk`) up to size m - 1, m the largest
    pattern size.  A member's child at a site it left open that contains a
    pattern is minimal under classical containment iff each single-entry
    deletion, which is exactly one-step classical containment, avoids every
    pattern.  Its last deletion is its parent, which does; every other
    deletion ends in the appended entry, and its first entries are a
    deletion of the parent, which avoids, so the anchored test decides it.
    The child at a closed site contains the child at the matching site of
    its grandparent, one of its deletions.  Deleting an entry needs no
    re-ranking, as order-isomorphism decides containment.  Output is ordered
    by size, then lexicographically.
    """
    patterns = tuple(patterns)
    if not patterns:
        raise ValueError("pattern set must be nonempty")
    if any(p.size == 0 for p in patterns):  # every window contains it
        return (SignedPermutation(()),)
    m = max(len(p.oneline) for p in patterns)
    if m > MAX_BASIS_PATTERN_SIZE:
        raise PatternTooLargeError(
            f"pattern size {m} exceeds basis cap {MAX_BASIS_PATTERN_SIZE}"
        )
    first = next(k for k in range(m + 1) if _fits(patterns, k))
    whole, anchored = _avoidance_test(patterns), _avoidance_test(patterns, anchored=True)
    basis = []
    for window, sites, test in walk(first - 1, m - 1, whole, anchored):
        # At the roots `test` is `whole`: their children's deletions, of size
        # first - 1, all avoid.
        for child in grown_at(window, sites):
            if not test(child) and (test is whole or all(
                    anchored(child[:j] + child[j + 1:]) for j in range(len(window)))):
                basis.append(child)
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

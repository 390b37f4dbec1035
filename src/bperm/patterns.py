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
and `signed_word_contains` search a whole word.  A node test decides the
children of a window at its sites; for an avoider in a walk of its class
(`core.walk`) it builds none, and searches its doubled word by functions
fetched once, pinned on the appended letter and on the window's last one.

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
# site.  For the identity, m = 7 tests nearly all of B_7 (1.4-1.9 s CPU at 18 MB
# peak RSS on a 2-vCPU VM); B_8 is 16 times B_7, so m = 8 would take 16 times as long or more.
MAX_BASIS_PATTERN_SIZE = 7
# Compiled searches kept per process.  A serial verify compiles 236, and one
# holds about 3.5 KB; a node test holds its own.
_CACHE_SIZE = 4096
_NESTED = 16  # entries per generated function: Python nests at most 20 loops


class PatternTooLargeError(ValueError):
    """A basis computation was requested for patterns above the supported size."""


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _compiled(pattern: tuple[int, ...], signed: bool, pinned: int, count: bool,
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
    The function takes the letters v0..v(pinned - 1) of the first `pinned`
    entries, then (word, start, end).  Entry 0 matches v0 unchecked: the
    caller passes a v0 of entry 0's sign if `signed`.  Each later pinned
    entry is checked against its bounds in one guard line, and the other
    entries match in word[start:end].  It returns the number of matches if
    `count`, else whether there is one.  It holds the pinned entries and at
    most `_NESTED` entries from `first`, taking the letters v0..v(first - 1)
    of the earlier entries as more arguments, and its innermost loop hands
    the later entries to the next such function.  The source holds only integers and fixed names, never
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
    last = min(max(first + _NESTED, pinned), len(pattern))
    params = [f"v{j}" for j in range(pinned)] + ["word", "start", "end"]
    params += [f"v{j}" for j in range(first)]
    lines, closers, pad, begin = [f"def f({', '.join(params)}):"], [], " ", "start"
    if count:
        lines.append(" found = 0")
    for d in range(first, last):
        sign, rest = signs[d], len(pattern) - 1 - d
        low, high = (str(sign * bound) if j is None else f"{'-' * (signs[j] != sign)}v{j}"
                     for j, bound in ((smaller[d], floor), (larger[d], sys.maxsize))[::sign])
        if d < pinned:
            if d:
                lines.append(f" if not {low} < v{d} < {high}: return {'0' if count else 'False'}")
            continue
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
        namespace["g"] = _compiled(pattern, signed, 0, count, last)
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
    return _compiled(tuple(pattern), False, 0, False)(word, 0, len(word))


def signed_word_contains(window: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff a subsequence of `window` matches `pattern` in absolute-value order and sign."""
    return _compiled(tuple(pattern), True, 0, False)(window, 0, len(window))


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
    return _compiled(p.oneline, False, 0, True)(word, 0, len(word))


def _containment_order(patterns: Iterable[Permutation] | Iterable[SignedPermutation]) -> str:
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
) -> Callable[[Sequence[int], Iterable[int]], list[int]]:
    """
    A node test: (window, sites) to the sites whose child (`core.grown_at`)
    avoids every pattern, sought in the child's mirror word for unsigned
    patterns, in the child for signed ones.  Without `anchored`, each child
    is built and searched whole, one `word_contains` or
    `signed_word_contains` call per probe.

    With `anchored`, no child is built.  The window must avoid every
    pattern, and so must each site's child with the window's last entry w(k)
    deleted, as in a walk of the class (`core.walk`), where each site is one
    the window's parent left open.  An occurrence in the child then passes
    through the appended entry z or -z, else the window holds it, and through
    w(k) or -w(k), else the child without w(k) does.  The doubled window with
    the site s read as z = +-(2|s| - 1) between the doubled values (a gap in
    the window's values is kept) is order-isomorphic to the child; pinned
    `_compiled` searches run on it, rotated so that the pinned entries come
    first.  Classically each pattern q whose last entry has z's sign pins
    q[-1] on z and q[-2] on w(k).  Globally, the mirror word being its own
    reverse-complement, an occurrence through -z is one of rc(p) through z,
    so for each p in P and rc(P) one search pins p[-1] on z and p[-2] on
    w(k), and another p[-1] on z and p[0] on -w(k), the word's second letter,
    when w(k) is not used.  A pattern of fewer than two entries occurs
    through no two letters, so it is not searched.
    """
    patterns = tuple(patterns)
    globally = _containment_order(patterns) == "global"
    words = tuple(p.oneline if globally else p.window for p in patterns)
    if not anchored:
        contains = word_contains if globally else signed_word_contains

        def opens(window: Sequence[int], sites: Iterable[int]) -> list[int]:
            children = ((child, mirror_of_window(child) if globally else child)
                        for child in grown_at(window, sites))
            return [child[-1] for child, word in children
                    if not any(contains(word, p) for p in words)]

        return opens
    if globally:
        words = tuple(dict.fromkeys((*words, *map(_reverse_complement, words))))
    words = [word for word in words if len(word) > 1]
    lasts = [[_compiled((word[-1], word[-2], *word[:-2]), not globally, 2, False) for word in words
              if globally or (word[-1] > 0) == positive] for positive in (False, True)]
    firsts = [_compiled((word[-1], word[0], *word[1:-1]), False, 2, False)
              for word in words] if globally else []

    def opens_anchored(window: Sequence[int], sites: Iterable[int]) -> list[int]:
        # The doubled child's word, its letters -z and z 0 until each site
        # writes them (classically both are the last letter, and z is written last).
        doubled = [v + v for v in window]
        doubled.append(0)
        word = list(mirror_of_window(doubled)) if globally else doubled
        front, end = word.index(0), len(word) - 1
        last = word[end - 1]
        opened = []
        for site in sites:
            z = site + site - 1 if site > 0 else site + site + 1
            word[front], word[end] = -z, z
            for search in lasts[z > 0]:
                if search(z, last, word, 0, end - 1):
                    break
            else:
                for search in firsts:
                    if search(z, -last, word, 2, end):
                        break
                else:
                    opened.append(site)
        return opened

    return opens_anchored


def global_basis(patterns: Iterable[Permutation]) -> tuple[SignedPermutation, ...]:
    """
    The minimal set of signed patterns whose classical avoidance class equals
    the global avoidance class of `patterns`.

    The class is walked (`core.walk`) up to size m - 1, m the largest
    pattern size.  A member's child at a site it left open that contains a
    pattern (a site its node test closed) is minimal under classical
    containment iff each single-entry deletion, which is exactly one-step
    classical containment, avoids every pattern.  Its last deletion is its
    parent, which does, and the one before it, of the member's last entry, is
    the child of the member's parent at the matching site, which the walk
    opened.  Every other deletion d ends in the appended entry; d[:-1] is a
    deletion of the member and d without its second-to-last entry one of that
    opened child, both avoiders, so the anchored test decides d as the node
    (d[:-1], [d[-1]]).  The child at a closed site contains the child at the
    matching site of its grandparent, one of its deletions.  No deletion is re-ranked, as order-isomorphism
    decides containment.  Output is ordered by size, then lexicographically.
    """
    patterns = tuple(patterns)
    if not patterns:
        raise ValueError("pattern set must be nonempty")
    if any(p.size == 0 for p in patterns):  # every window contains it
        return (SignedPermutation(()),)
    m = max(len(p.oneline) for p in patterns)
    if m > MAX_BASIS_PATTERN_SIZE:
        raise PatternTooLargeError(f"pattern size {m} exceeds basis cap {MAX_BASIS_PATTERN_SIZE}")
    first = next(k for k in range(m + 1) if _fits(patterns, k))
    whole, anchored = _avoidance_test(patterns), _avoidance_test(patterns, anchored=True)
    basis = []
    for window, sites, test, opened in walk(first - 1, m - 1, whole, anchored):
        # Below m - 1 the walk's step has tested each child.  At the roots
        # `test` is `whole`: their children's deletions, of size first - 1, all avoid.
        opened = set(test(window, sites) if opened is None else opened)
        closed = grown_at(window, [site for site in sites if site not in opened])
        basis += (child for child in closed if test is whole or all(
            anchored(child[:j] + child[j + 1:-1], child[-1:]) for j in range(len(window) - 1)))
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
    return frozenset(min(p, p.reverse_complement(), key=lambda q: q.oneline) for p in patterns)


def parse_unsigned_patterns(text: str) -> tuple[Permutation, ...]:
    """Parse a ";"-separated set of unsigned patterns, e.g. "3,4,1,2;4,2,3,1"."""
    parts = [part for part in text.split(";") if part.strip()]
    return tuple(Permutation(parse_window(part)) for part in parts)


def parse_signed_patterns(text: str) -> tuple[SignedPermutation, ...]:
    """Parse a ";"-separated set of signed patterns, e.g. "-2,1;-1,-2"."""
    parts = [part for part in text.split(";") if part.strip()]
    return tuple(SignedPermutation(parse_window(part)) for part in parts)


def format_pattern_set(patterns: Iterable[Permutation] | Iterable[SignedPermutation]) -> str:
    return ";".join(str(p) for p in patterns)

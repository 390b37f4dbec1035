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

Global avoidance classes can always be rewritten as classical avoidance
classes: `global_basis` computes, for a set P of unsigned patterns, the
unique minimal antichain of signed patterns whose classical avoidance class
coincides with the global avoidance class of P.

There are two containment kernels, one per order: `_occurrences` (unsigned
patterns in words; it both decides and counts) and `signed_word_contains`,
kept apart because a shared loop slows the classical probes.  Both are plain
backtracking with remaining-length pruning and one shared buffer per probe.

Pattern-set text grammar (shared with the CLI): patterns separated by ";",
entries by ",", e.g. "3,4,1,2;4,2,3,1" (unsigned) or "-2,1;-1,-2" (signed).
"""
from __future__ import annotations

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


class PatternTooLargeError(ValueError):
    """A basis computation was requested for patterns above the supported size."""


def _occurrences(word: Sequence[int], pattern: Sequence[int], stop: int | None = None) -> int:
    """
    Index subsets of `word` order-isomorphic to `pattern`, counted up to `stop`
    (None: all of them).
    """
    k = len(pattern)
    n = len(word)
    if k == 0:
        return 1
    last = k - 1
    chosen = [0] * k
    found = 0

    def extend(depth: int, start: int) -> bool:
        nonlocal found
        p_new = pattern[depth]
        for i in range(start, n - (last - depth)):
            v = word[i]
            for j in range(depth):
                if (chosen[j] < v) != (pattern[j] < p_new):
                    break
            else:
                if depth < last:
                    chosen[depth] = v
                    if extend(depth + 1, i + 1):
                        return True
                else:
                    # Counted here, not one call deeper: one call fewer per hit.
                    found += 1
                    if found == stop:
                        return True
        return False

    extend(0, 0)
    extend = None  # `extend` holds itself through its closure cell: break the cycle
    return found


def word_contains(word: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of `word` is order-isomorphic to `pattern`."""
    return _occurrences(word, pattern, 1) > 0


def signed_word_contains(window: Sequence[int], pattern: Sequence[int]) -> bool:
    """
    True iff `window` classically contains the signed pattern `pattern`:
    some subsequence matches it in absolute-value order and in sign.

    Its own loop: folded into `_occurrences` with per-probe sign and absolute
    value lists, the classical 11-pattern basis of {3412, 4231} took about
    1.7x the CPU time at n=5 (2-vCPU Xeon VM, Python 3.11).
    """
    k = len(pattern)
    n = len(window)
    if k == 0:
        return True
    if k > n:
        return False
    chosen = [0] * k

    def extend(depth: int, start: int) -> bool:
        if depth == k:
            return True
        p_new = pattern[depth]
        ap_new = abs(p_new)
        for i in range(start, n - (k - depth) + 1):
            v = window[i]
            if (v > 0) != (p_new > 0):
                continue
            av = abs(v)
            for j in range(depth):
                if (abs(chosen[j]) < av) != (abs(pattern[j]) < ap_new):
                    break
            else:
                chosen[depth] = v
                if extend(depth + 1, i + 1):
                    return True
        return False

    found = extend(0, 0)
    extend = None  # breaks the closure cycle, as in `_occurrences`
    return found


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


def avoiders(
    n: int, patterns: Iterable[Permutation] | Iterable[SignedPermutation]
) -> Iterator[tuple[int, ...]]:
    """
    Windows of size n avoiding every pattern, in lexicographic order:
    globally for unsigned patterns, classically for signed ones.  Avoidance
    is closed under prefixes, so a prefix that contains a pattern is never
    extended.
    """
    return iter_windows(n, keep=_avoidance_test(patterns))


def count_avoiders(
    n: int,
    patterns: Iterable[Permutation] | Iterable[SignedPermutation],
    first: int | None = None,
) -> int:
    """Number of windows `avoiders` yields; with `first`, of those starting with it."""
    return sum(1 for _ in iter_windows(n, first=first, keep=_avoidance_test(patterns)))


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

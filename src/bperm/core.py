"""
Signed and unsigned permutations.

A signed permutation of size n is a bijection w of {-n, ..., -1, 1, ..., n}
with w(-x) = -w(x).  It is determined by its *window* w(1) ... w(n), a word
of n nonzero integers whose absolute values are a permutation of {1, ..., n}.
The *mirror word* is the 2n-letter expansion

    -w(n), ..., -w(1), w(1), ..., w(n),

which is antisymmetric about its midpoint.  Unsigned permutations are stored
in one-line notation as words on {1, ..., m}.

The group of signed permutations is generated by s_0, ..., s_{n-1}, acting on
windows by right multiplication: s_0 negates w(1) and s_i (i >= 1) swaps
w(i) and w(i+1).  Position 0 is a (right) descent iff w(1) < 0; position
i >= 1 is a descent iff w(i) > w(i+1).  The support (the generators in a
reduced word) generates the smallest parabolic subgroup containing w, and all
generators but s_i (i >= 1) generate B_i x S_(n-i) (Bjorner-Brenti,
Combinatorics of Coxeter Groups, Ch. 2 and 8.1): it is read off the window.

Windows render as comma-separated signed decimal integers ("-2,1,3,-4"); the
same grammar is used by the command-line interface.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, permutations, product
from math import factorial
from operator import neg
from typing import Callable, Iterable, Iterator, Sequence

MAX_WINDOW_SIZE = 16
MAX_ONELINE_SIZE = 2 * MAX_WINDOW_SIZE


class InvalidWindowError(ValueError):
    """The given word is not the window of a signed permutation."""


class InvalidOneLineError(ValueError):
    """The given word is not a permutation of {1, ..., m} in one-line notation."""


def is_signed_window(word: Sequence[int]) -> bool:
    """Check that abs(word) is a permutation of {1, ..., n} with no zero entries."""
    n = len(word)
    if n > MAX_WINDOW_SIZE:
        return False
    seen = 0
    for v in word:
        a = v if v > 0 else -v
        if a == 0 or a > n or seen & (1 << a):
            return False
        seen |= 1 << a
    return True


def mirror_of_window(window: Sequence[int]) -> tuple[int, ...]:
    """The 2n-letter mirror word (-w(n), ..., -w(1), w(1), ..., w(n))."""
    return (*map(neg, reversed(window)), *window)


def rank_word(word: Sequence[int]) -> tuple[int, ...]:
    """Replace each entry of a distinct-integer word by its rank (1 = smallest)."""
    order = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(order[v] for v in word)


def window_inverse(window: Sequence[int]) -> tuple[int, ...]:
    """Window of the group inverse: v(y) = x whenever w(x) = y."""
    inv = [0] * len(window)
    for x, y in enumerate(window, start=1):
        if y > 0:
            inv[y - 1] = x
        else:
            inv[-y - 1] = -x
    return tuple(inv)


def window_length(window: Sequence[int]) -> int:
    """Coxeter length: inversions + negative entries + negative-sum pairs."""
    n = len(window)
    inv = 0
    nsp = 0
    for i in range(n):
        for j in range(i + 1, n):
            if window[i] > window[j]:
                inv += 1
            if window[i] + window[j] < 0:
                nsp += 1
    neg = sum(1 for v in window if v < 0)
    return inv + neg + nsp


def window_descents(window: Sequence[int]) -> set[int]:
    """Right descent set, using the convention w(0) = 0 for position 0."""
    des = set()
    if window and window[0] < 0:
        des.add(0)
    des.update(i for i in range(1, len(window)) if window[i - 1] > window[i])
    return des


def window_apply_generator(window: Sequence[int], i: int) -> tuple[int, ...]:
    """Right-multiply by s_i: negate w(1) if i = 0, else swap w(i), w(i+1)."""
    n = len(window)
    if not 0 <= i <= n - 1:
        raise IndexError(f"generator index {i} out of range for size {n}")
    out = list(window)
    if i == 0:
        out[0] = -out[0]
    else:
        out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def iter_windows(n: int) -> Iterator[tuple[int, ...]]:
    """
    All signed-permutation windows of size n (none if n < 0), each once.
    Classes are walked from smaller ones (`walk`); the whole group streams
    through here only where it is the answer or the route being compared.
    """
    if n < 0:
        return
    for values in permutations(range(1, n + 1)):
        yield from product(*((-v, v) for v in values))


def grown_at(window: tuple[int, ...], sites: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """
    The children of `window` at `sites`, in their order: at the site +a or
    -a, shift the absolute values from a up by one and append the site.
    """
    a = None
    for site in sites:
        if abs(site) != a:  # the two sites of one a share the shifted head
            a = abs(site)
            head = [v + 1 if v >= a else v - 1 if v <= -a else v for v in window]
        yield (*head, site)


def walk(start: int, top: int, whole: Callable, anchored: Callable) -> Iterator[tuple]:
    """
    The members of sizes `start` to `top` of a pattern class, depth first, each
    with the sites its parent left open, the node test that decides its children
    there and, below `top`, the sites it opened (else None): a generating tree
    (West 1995) whose roots are all of B_start, every site open.  If the child
    at a site contains a pattern, so does each grandchild at a matching site, as
    deleting the middle entry leaves that child; so each child tries only the
    sites its parent left open, as in Vatter's enumeration schemes (2008).
    `whole` decides the roots' children and `anchored` every deeper one: a
    child of an avoider at a site whose child, without the avoider's last
    entry, was opened one level up, so a pattern occurs in it only through
    its last two entries.
    """
    every = [site for a in range(1, start + 2) for site in (a, -a)]
    for root in iter_windows(start):
        yield from _descend(root, every, top, whole, anchored)


def step(window: tuple[int, ...], sites: list[int], test: Callable) -> tuple[list[int], list]:
    """
    One step down the tree: the sites of `window` that the node test opens,
    and those children alone, each with the sites it inherits.
    """
    opened = test(window, sites)
    children = []
    for child in grown_at(window, opened):
        # The child's site b matches its parent's b if b <= a, b - 1 if b > a.
        a = abs(child[-1])
        inherited = [site for site in opened if abs(site) <= a]
        inherited += [site + 1 if site > 0 else site - 1 for site in opened if abs(site) >= a]
        children.append((child, inherited))
    return opened, children


def _descend(window: tuple[int, ...], sites: list[int], top: int, test: Callable,
             anchored: Callable) -> Iterator[tuple]:
    """`walk` from the member `window`, whose children `test` decides at `sites`, by `step`."""
    opened, children = step(window, sites, test) if len(window) < top else (None, [])
    yield window, sites, test, opened
    for child, inherited in children:
        yield from _descend(child, inherited, top, anchored, anchored)


def window_all_reduced_words(window: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """
    Every reduced word of the window, each exactly once.

    Depth-first over right descents, memoized by window: each reduced word ends
    in a right descent and its prefix is a reduced word of the shorter element.
    """
    return _reduced_words(tuple(window), {})


def _reduced_words(
    cur: tuple[int, ...], memo: dict[tuple[int, ...], tuple[tuple[int, ...], ...]]
) -> tuple[tuple[int, ...], ...]:
    cached = memo.get(cur)
    if cached is not None:
        return cached
    des = window_descents(cur)
    if not des:
        result: tuple[tuple[int, ...], ...] = ((),)
    else:
        result = tuple(
            u + (i,)
            for i in sorted(des)
            for u in _reduced_words(window_apply_generator(cur, i), memo)
        )
    memo[cur] = result
    return result


def parse_window(text: str) -> tuple[int, ...]:
    """Parse a comma-separated signed window such as "-2,1,3,-4"."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidWindowError(f"cannot parse window {text!r}") from exc


def format_window(window: Sequence[int]) -> str:
    return ",".join(str(v) for v in window)


class DihedralSymmetry(Enum):
    """
    A symmetry of the square acting on permutation graphs.

    Members are encoded as (swap, flip_x, flip_y): first optionally transpose
    the graph point (x, y), then flip either coordinate t -> n + 1 - t.  The
    eight combinations form the dihedral group of order 8; ROTATE_180 is the
    reverse-complement map.
    """

    IDENTITY = (False, False, False)
    REVERSE = (False, True, False)
    COMPLEMENT = (False, False, True)
    ROTATE_180 = (False, True, True)
    INVERSE = (True, False, False)
    ROTATE_90 = (True, True, False)
    ROTATE_270 = (True, False, True)
    ANTI_INVERSE = (True, True, True)

    def apply_to_point(self, x: int, y: int, n: int) -> tuple[int, int]:
        swap, fx, fy = self.value
        if swap:
            x, y = y, x
        if fx:
            x = n + 1 - x
        if fy:
            y = n + 1 - y
        return x, y


@dataclass(frozen=True)
class Permutation:
    """An unsigned permutation of {1, ..., m} in one-line notation."""

    oneline: tuple[int, ...]

    def __post_init__(self) -> None:
        word = tuple(self.oneline)
        object.__setattr__(self, "oneline", word)
        m = len(word)
        if m > MAX_ONELINE_SIZE:
            raise InvalidOneLineError(f"size {m} exceeds cap {MAX_ONELINE_SIZE}")
        if sorted(word) != list(range(1, m + 1)):
            raise InvalidOneLineError(f"{word!r} is not a permutation of 1..{m}")

    @property
    def size(self) -> int:
        return len(self.oneline)

    @classmethod
    def identity(cls, m: int) -> Permutation:
        return cls(tuple(range(1, m + 1)))

    @classmethod
    def from_text(cls, text: str) -> Permutation:
        return cls(parse_window(text))

    def __str__(self) -> str:
        return format_window(self.oneline)

    def inverse(self) -> Permutation:
        inv = [0] * len(self.oneline)
        for i, v in enumerate(self.oneline, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def reverse_complement(self) -> Permutation:
        m = len(self.oneline)
        return Permutation(tuple(m + 1 - v for v in reversed(self.oneline)))

    def apply_symmetry(self, symmetry: DihedralSymmetry) -> Permutation:
        """The permutation whose graph is the image of this one's graph."""
        m = len(self.oneline)
        points = sorted(
            symmetry.apply_to_point(x, y, m)
            for x, y in enumerate(self.oneline, start=1)
        )
        return Permutation(tuple(y for _, y in points))


@dataclass(frozen=True)
class SignedPermutation:
    """A signed permutation, stored by its window w(1) ... w(n)."""

    window: tuple[int, ...]

    def __post_init__(self) -> None:
        word = tuple(self.window)
        object.__setattr__(self, "window", word)
        if len(word) > MAX_WINDOW_SIZE:
            raise InvalidWindowError(f"size {len(word)} exceeds cap {MAX_WINDOW_SIZE}")
        if not is_signed_window(word):
            raise InvalidWindowError(f"{word!r} is not a signed-permutation window")

    @property
    def size(self) -> int:
        return len(self.window)

    @classmethod
    def identity(cls, n: int) -> SignedPermutation:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_text(cls, text: str) -> SignedPermutation:
        return cls(parse_window(text))

    def __str__(self) -> str:
        return format_window(self.window)

    def mirror_word(self) -> tuple[int, ...]:
        return mirror_of_window(self.window)

    def iota(self) -> Permutation:
        """The unsigned permutation of size 2n order-isomorphic to the mirror word."""
        return Permutation(rank_word(self.mirror_word()))

    def inverse(self) -> SignedPermutation:
        return SignedPermutation(window_inverse(self.window))

    def descent_set(self) -> frozenset[int]:
        return frozenset(window_descents(self.window))

    def length(self) -> int:
        return window_length(self.window)

    def all_reduced_words(self) -> frozenset[tuple[int, ...]]:
        return frozenset(window_all_reduced_words(self.window))

    def support(self) -> frozenset[int]:
        """The support has s_i iff some |w(j)| > i with j <= i, or some w(j) < 0 with j > i."""
        last_negative = max((j for j, v in enumerate(self.window, 1) if v < 0), default=0)
        reach = accumulate((abs(v) for v in self.window[:-1]), max, initial=0)
        return frozenset(i for i, top in enumerate(reach) if top > i or last_negative > i)


def signed_permutations(n: int) -> Iterator[SignedPermutation]:
    """All of the 2^n n! signed permutations of size n, each once."""
    for window in iter_windows(n):
        yield SignedPermutation(window)


def signed_group_order(n: int) -> int:
    """|B_n| = 2^n n!."""
    return 2**n * factorial(n)

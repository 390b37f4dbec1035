"""
Partitions, standard Young tableaux, Robinson-Schensted shapes, and domino
tableaux.

Partitions are plain tuples of weakly decreasing positive integers.  A
standard domino tableau of shape lambda (|lambda| = 2n) is a tiling of the
Young diagram by n dominoes labelled 1..n such that the cells covered by the
first i dominoes form a Young diagram for every i; equivalently, labels
increase along rows and columns.  The 2-core, empty exactly for the shapes
that dominoes tile, comes from a checkerboard charge that dominoes preserve.

All counts are exact integers from the hook-length formula, which multiplies
the numerator out in full and divides once, with the divisibility asserted;
domino counts apply it to the 2-quotient, and only listings search.
"""
from __future__ import annotations

from bisect import bisect_left
from math import comb, factorial
from typing import Callable, Iterator, Sequence

from .core import SignedPermutation


class InvalidPartitionError(ValueError):
    """Parts must be positive and weakly decreasing."""


def check_partition(parts: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(parts)
    if any(p <= 0 for p in shape):
        raise InvalidPartitionError(f"parts must be positive: {shape!r}")
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        raise InvalidPartitionError(f"parts must weakly decrease: {shape!r}")
    return shape


def parse_partition(text: str) -> tuple[int, ...]:
    """Parse comma-separated parts, e.g. "4,2"."""
    text = text.strip()
    try:
        parts = tuple(int(p) for p in text.split(",")) if text else ()
    except ValueError as exc:
        raise InvalidPartitionError(f"cannot parse shape {text!r}") from exc
    return check_partition(parts)


def partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of `total` with parts bounded by `max_part`."""
    if total == 0:
        yield ()
        return
    cap = total if max_part is None else min(max_part, total)
    for first in range(cap, 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def syt_count(shape: Sequence[int]) -> int:
    """Number of standard Young tableaux of the given shape (hook lengths)."""
    shape = check_partition(shape)
    n = sum(shape)
    hook_product = 1
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            leg = sum(1 for r in shape[i + 1 :] if r > j)
            hook_product *= row_len - j + leg
    count, remainder = divmod(factorial(n), hook_product)
    assert remainder == 0, f"hook product {hook_product} does not divide {n}!"
    return count


def standard_tableaux(shape: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """
    All standard Young tableaux of `shape`, as row tuples.  Labels are placed
    in increasing order at addable corners, so every prefix is a Young diagram.
    """
    return _fillings(shape, _cell_placements)


def rs_shape(word: Sequence[int]) -> tuple[int, ...]:
    """Shape of the Robinson-Schensted insertion tableau of a distinct-int word."""
    rows: list[list[int]] = []
    for value in word:
        v = value
        for row in rows:
            idx = bisect_left(row, v)
            if idx == len(row):
                row.append(v)
                v = None
                break
            row[idx], v = v, row[idx]
        if v is not None:
            rows.append([v])
    return tuple(len(row) for row in rows)


def _cell_placements(partial: Sequence[int], shape: Sequence[int]) -> list[tuple[int]]:
    """Cells addable to the partial diagram inside `shape`, each as its row."""
    return [
        (r,)
        for r in range(len(shape))
        if partial[r] < shape[r] and (r == 0 or partial[r - 1] > partial[r])
    ]


def _domino_placements(partial: Sequence[int], shape: Sequence[int]) -> list[tuple[int, int]]:
    """Dominoes addable inside `shape`, each as its cells' rows: (r, r) or (r, r + 1)."""
    out: list[tuple[int, int]] = []
    for r in range(len(shape)):
        row_len = partial[r]
        if row_len + 2 <= shape[r] and (r == 0 or partial[r - 1] >= row_len + 2):
            out.append((r, r))
        if (
            r + 1 < len(shape)
            and partial[r] == partial[r + 1]
            and row_len + 1 <= shape[r + 1]
            and (r == 0 or partial[r - 1] >= row_len + 1)
        ):
            out.append((r, r + 1))
    return out


def _fillings(
    shape: Sequence[int], placements: Callable[..., list[tuple[int, ...]]]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Fill `shape` with pieces labelled 1, 2, ... in turn, where `placements` allows."""
    shape = list(check_partition(shape))  # a list, as `_fill` compares it with `lengths`
    yield from _fill([[] for _ in shape], [0] * len(shape), 1, shape, placements)


def _fill(
    rows: list[list[int]],
    lengths: list[int],
    label: int,
    shape: list[int],
    placements: Callable[..., list[tuple[int, ...]]],
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The fillings that complete `rows`, of row lengths `lengths`, from label `label` on."""
    if lengths == shape:
        yield tuple(tuple(row) for row in rows)
        return
    for piece in placements(lengths, shape):
        for r in piece:
            rows[r].append(label)
            lengths[r] += 1
        yield from _fill(rows, lengths, label + 1, shape, placements)
        for r in piece:
            rows[r].pop()
            lengths[r] -= 1


def domino_tableaux(shape: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """
    All standard domino tableaux of `shape`, each exactly once, as row tuples
    in which both cells of domino i hold label i; none unless the 2-core is empty.
    """
    if not two_core(shape):
        yield from _fillings(shape, _domino_placements)


def domino_count(shape: Sequence[int]) -> int:
    """
    Number of standard domino tableaux of `shape`: 0 unless the 2-core is
    empty, else C(n, |q0|) f(q0) f(q1) over the 2-quotient (q0, q1) of runner
    beads b // 2, with n = |shape| / 2 and f by hook lengths (Stanton-White).
    """
    shape = check_partition(shape)
    if two_core(shape):
        return 0
    padded = shape + (0,) * (len(shape) % 2)
    beta = [part + len(padded) - 1 - i for i, part in enumerate(padded)]
    q = []
    for parity in (0, 1):
        beads = [b // 2 for b in beta if b % 2 == parity]
        parts = (bead - (len(beads) - 1 - j) for j, bead in enumerate(beads))
        q.append(tuple(p for p in parts if p))
    return comb(sum(shape) // 2, sum(q[0])) * syt_count(q[0]) * syt_count(q[1])


def two_core(shape: Sequence[int]) -> tuple[int, ...]:
    """
    The 2-core, the staircase (k, k - 1, ..., 1) left by removing border
    dominoes.  A domino covers one cell of each colour of (i + j) mod 2, so
    the charge #even - #odd (row i adds (-1)^i if its length is odd) is the
    core's: k = 2d - 1 for charge d > 0, else -2d.
    """
    charge = sum(row_len % 2 * (-1) ** i for i, row_len in enumerate(check_partition(shape)))
    return tuple(range(2 * charge - 1 if charge > 0 else -2 * charge, 0, -1))


def is_domino_tileable(shape: Sequence[int]) -> bool:
    """True iff the diagram can be tiled by dominoes, i.e. its 2-core is empty."""
    return two_core(shape) == ()


def shape_of_signed(w: SignedPermutation) -> tuple[int, ...]:
    """
    Robinson-Schensted shape of the mirror word: first part is the longest
    increasing subsequence of the mirror word, part count the longest
    decreasing one.
    """
    return rs_shape(w.mirror_word())
